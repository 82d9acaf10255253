"""Benchmark runner for bihomtrias: one closed-loop client, stdlib only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the root of a checkout; the package is imported from ``src/``
of that checkout.  One process runs the workload; the next op starts
only after the previous one returned (``cli-process`` waits for its one
child).  Every op is checked outside the timed region.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the same ops and reports per-layer
metrics (per op), the traced/untraced latency ratio, and whether check
results and output digests were identical with tracing on and off.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are the
same figures for people, with units and sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5
SEED_DIGEST = "29f2aab3459fe82d6feccf2ba864e6a09d92549cfd460c0abc7252f53f1d04f3"
clock = time.perf_counter


def host_probe_ms():
    """Fixed pure-stdlib Fraction loop: tells a slow host from a slow program."""
    start = clock()
    acc = Fraction(0)
    for k in range(1, 20001):
        acc += Fraction(k % 7 - 3, k % 11 + 1) * Fraction(k % 5 + 1, k % 13 + 2)
    return (clock() - start) * 1000.0


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_op(workload, index, item, fn):
    """One op plus its checks; returns (seconds, result, problems, check seconds)."""
    start = clock()
    try:
        result = fn(item)
    except Exception:  # an op that raises counts as failed, the run goes on
        elapsed = clock() - start
        return elapsed, None, [f"op {index} raised:\n{traceback.format_exc()}"], 0.0
    elapsed = clock() - start
    checked = clock()
    try:
        problems = workload.check(item, result)
    except Exception:
        problems = [f"op {index} check raised:\n{traceback.format_exc()}"]
    return elapsed, result, problems, clock() - checked


def timed_phase(workload, seconds):
    """Closed loop for ``seconds`` of op time; check time is excluded."""
    latencies, failures = [], []
    check_seconds = 0.0
    start = clock()
    i = 0
    while clock() - start - check_seconds < seconds:
        elapsed, _, problems, spent = run_op(workload, i, workload.item(i), workload.op)
        latencies.append(elapsed)
        check_seconds += spent
        if problems:
            failures.append(problems)
        i += 1
    return latencies, failures, clock() - start - check_seconds


def measure_setup(name, seed):
    """Median seconds from a fresh interpreter's start to the first timed op
    (import, input generation, warm-up), over SETUP_REPEATS children run one
    at a time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              cwd=ROOT, env=child_env()) as proc:
            line = proc.stdout.readline()
            samples.append(clock() - start)
            _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed: {err.decode(errors='replace')[-2000:]}")
    return statistics.median(samples), samples


def subprocess_ms(cmd, repeats=3):
    samples, outputs = [], []
    for _ in range(repeats):
        start = clock()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=120)
        samples.append((clock() - start) * 1000.0)
        outputs.append(proc.stderr)
    return statistics.median(samples), outputs


def import_times_ms():
    """(cumulative ms of ``import bihomtrias``, of ``bihomtrias.catalog``)."""
    _, outputs = subprocess_ms([sys.executable, "-X", "importtime", "-c", "import bihomtrias"])
    pkg, cat = [], []
    for text in outputs:
        for line in text.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and line.startswith("import time:"):
                if parts[2] == "bihomtrias":
                    pkg.append(int(parts[1]) / 1000.0)
                elif parts[2] == "bihomtrias.catalog":
                    cat.append(int(parts[1]) / 1000.0)
    return statistics.median(pkg), statistics.median(cat)


def report_failures(failures, limit=5):
    for problems in failures[:limit]:
        for p in problems:
            print(f"FAILED: {p}", file=sys.stderr)
    if len(failures) > limit:
        print(f"... and {len(failures) - limit} more failed ops", file=sys.stderr)


def run_untraced(workload, args):
    """End-to-end metrics for one workload."""
    latencies, failures, wall = timed_phase(workload, args.seconds)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-process" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setup_s, setup_samples = measure_setup(workload.name, args.seed)
    n = len(latencies)
    ms = [x * 1000.0 for x in latencies]
    beyond_p90 = sum(1 for x in ms if x > percentile(ms, 90))
    metrics = {
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (percentile(ms, 90), "ms"),
        "ops_per_s": (n / wall, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "op_p50_ms": f"n={n}",
        "op_p90_ms": f"n={n}, {beyond_p90} beyond"
        + ("" if n >= 100 else " (fewer than 100 ops: p90 not valid)"),
        "ops_per_s": f"{n} ops in {wall:.3f} s of op time",
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setup_samples),
        "peak_rss_mb": "max over children" if workload.name == "cli-process" else "this process",
    }
    lines = [f"  {k:14s} {v:12.4f} {u:5s} {notes[k]}" for k, (v, u) in metrics.items()]
    lines.append(f"  {'error_rate':14s} {len(failures) / n:12.4f} ratio {len(failures)} of {n} ops failed")
    if workload.name == "cli-process":
        by_kind = {}
        for i, x in enumerate(ms):
            by_kind.setdefault(workload.item(i).kind, []).append(x)
        lines.append("  p50 by command: " + ", ".join(
            f"{k} {statistics.median(v):.1f} ms" for k, v in sorted(by_kind.items())))
    if workload.name == "catalog-audit":
        text = workload.structured_text()
        if text is not None:
            sha = hashlib.sha256(text.encode()).hexdigest()
            same = "same as" if sha == SEED_DIGEST else "differs from"
            lines.append(f"  structured audit sha256 {sha} ({len(text.encode())} bytes; "
                         f"{same} the seed value {SEED_DIGEST[:8]}..., informational)")
    return metrics, n, failures, lines


def run_traced(workloads, workload, args):
    """Per-layer metrics: untraced and traced passes over the same ops."""
    import tracer as tracing

    tracer = tracing.Tracer()
    ops = workload.trace_ops
    replays = type(workload).replay is not workloads.Workload.replay
    base_ms, traced_ms, replay_ms = [], [], []
    failures, mismatches = [], []
    attempted = 0
    passes = 0
    start = clock()
    last = 0.0
    while passes == 0 or clock() - start + last < args.seconds:
        began = clock()
        reference = []
        for i in range(ops):
            elapsed, result, problems, _ = run_op(workload, i, workload.item(i), workload.op)
            base_ms.append(elapsed * 1000.0)
            reference.append((problems, None if result is None else workload.signature(result)))
            if problems:
                failures.append(problems)
        if replays:
            for i in range(ops):
                t0 = clock()
                workload.replay(workload.item(i))
                replay_ms.append((clock() - t0) * 1000.0)
        results = []
        tracer.install(extra=[(workloads, "serialize_report", "reports.serialize")])
        try:
            for i in range(ops):
                t0 = clock()
                try:
                    results.append(workload.replay(workload.item(i)))
                except Exception:
                    results.append(None)
                traced_ms.append((clock() - t0) * 1000.0)
        finally:
            tracer.uninstall()
        traced_sigs = []
        for i, result in enumerate(results):
            item = workload.item(i)
            problems = (["traced op raised"] if result is None
                        else workload.check(item, result))
            traced_sigs.append(None if result is None else workload.signature(result))
            if (problems, traced_sigs[-1]) != reference[i]:
                mismatches.append(f"op {i}: check result or output differs with tracing on")
                problems = problems or [mismatches[-1]]
            if problems:
                failures.append(problems)
        digests = (workloads.digest(str(sig) for _, sig in reference),
                   workloads.digest(str(sig) for sig in traced_sigs))
        if workload.name == "catalog-audit":
            texts = {workload.item(i): r.text for i, r in enumerate(results) if r is not None}
            traced_text = workload.structured_text(texts)
            digests += tuple(None if t is None else hashlib.sha256(t.encode()).hexdigest()
                             for t in (workload.structured_text(), traced_text))
        if digests[0::2] != digests[1::2] and not mismatches:
            mismatches.append(f"pass {passes}: output digests differ with tracing on: {digests}")
            failures.append([mismatches[-1]])
        attempted += 2 * ops
        passes += 1
        last = clock() - began
    untraced = replay_ms or base_ms
    ratio = statistics.median(traced_ms) / statistics.median(untraced)
    metrics = {name: value for name, value in tracing.layer_metrics(tracer, ops * passes).items()}
    interpreter_ms, _ = subprocess_ms([sys.executable, "-c", "pass"])
    import_ms, catalog_import_ms = import_times_ms()
    metrics.update({
        "cli.interpreter_ms": (interpreter_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.catalog_import_ms": (catalog_import_ms, "ms"),
        "trace.overhead_ratio": (ratio, "ratio"),
    })
    lines = [f"  {k:40s} {v:14.4f} {u}" for k, (v, u) in sorted(metrics.items())]
    lines.append(f"  traced passes: {passes} x {ops} ops; per-layer values are per op")
    lines.append(f"  traced/untraced op_p50_ms: {statistics.median(traced_ms):.3f} / "
                 f"{statistics.median(untraced):.3f} ms = {ratio:.3f}"
                 + (" (in-process replay of the commands)" if replay_ms else ""))
    lines.append("  tracing on/off: " + (
        f"check results and output digests identical (sha256 {digests[0][:16]}..."
        + (f", structured audit {digests[2][:16]}..." if len(digests) > 2 else "") + ")"
        if not mismatches else f"{len(mismatches)} differences"))
    return metrics, attempted, failures, lines


def run_all(args):
    """Run every workload, one child process at a time."""
    import workloads

    ok, attempted, failed, merged = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bihomtrias", "__init__.py")):
        print(f"error: no bihomtrias package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    if not workloads.bh.__file__.startswith(SRC + os.sep):
        print(f"error: imported bihomtrias from {workloads.bh.__file__}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        try:
            workload.warmup()
            if args.setup_probe:
                print("ready", flush=True)
                return 0
            probe_start = host_probe_ms()
            if args.trace:
                metrics, attempted, failures, lines = run_traced(workloads, workload, args)
            else:
                metrics, attempted, failures, lines = run_untraced(workload, args)
            probe_end = host_probe_ms()
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it
    if args.trace:
        metrics["host.probe_start_ms"] = (probe_start, "ms")
        metrics["host.probe_end_ms"] = (probe_end, "ms")
    report_failures(failures)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={platform.python_version()} nproc={len(os.sched_getaffinity(0))}")
    print("\n".join(lines))
    print(f"  host probe (20k Fraction ops): start {probe_start:.1f} ms, end {probe_end:.1f} ms")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
