"""Command-line front end.

Exit codes: 0 completed, 1 check failed under --strict, 2 input error,
141 stdout closed early (the shell's code for a process ended by SIGPIPE).
Structured output is canonical JSON (stable key order, canonical scalar
strings) and contains nothing run-dependent, so repeated invocations on
the same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import catalog_get, catalog_list, catalog_verify
from .centroids import centroid_space
from .core import BiHomTrialgebra, MulTensor, full_report
from .derivations import derivation_space
from .documents import (
    algebra_to_document,
    parse_algebra,
    parse_operator,
    serialize_algebra,
)
from .errors import BihomtriasError, ParseError
from .reports import map_to_strings
from .scalars import format_scalar, parse_scalar
from .transforms import (
    direct_sum,
    is_isomorphism,
    rota_baxter_check,
    total_sum,
    transport,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"cannot read {path}: not UTF-8 ({e.reason} at byte {e.start})") from None


def _load_algebra(path):
    return parse_algebra(_read(path))


def _emit(payload, fmt, text_renderer):
    if fmt == "structured":
        print(json.dumps(payload, indent=2))
    else:
        text_renderer(payload)


def _axiom_payload(report):
    checks = {}
    witnesses = {}
    for res in report.results:
        checks[res.axiom_id] = res.holds
        if not res.holds:
            witnesses[res.axiom_id] = {
                "failing_tuples": len(res.witnesses),
                "first": res.witnesses[0].to_dict(),
            }
    return checks, witnesses


def _cmd_verify(args, fmt):
    algebra = _load_algebra(args.file)
    report = full_report(algebra)
    checks, witnesses = _axiom_payload(report)
    payload = {
        "algebra": algebra.name,
        "dim": algebra.dim,
        "checks": checks,
        "witnesses": witnesses,
        "all_hold": report.all_hold,
    }

    def render(p):
        print(f"{p['algebra'] or '(unnamed)'}: dim {p['dim']}")
        for cid, ok in p["checks"].items():
            line = f"  {cid:4s} {'PASS' if ok else 'FAIL'}"
            if not ok:
                w = p["witnesses"][cid]
                line += f"  ({w['failing_tuples']} failing tuples, first {w['first']})"
            print(line)
        print("all hold" if p["all_hold"] else "FAILURES present")

    _emit(payload, fmt, render)
    return 0 if report.all_hold else None


def _cmd_der(args, fmt):
    algebra = _load_algebra(args.file)
    space = derivation_space(algebra)
    payload = {
        "algebra": algebra.name,
        "dim": space.dim,
        "basis": [map_to_strings(b) for b in space.basis],
    }

    def render(p):
        print(f"{p['algebra'] or '(unnamed)'}: derivation space dim {p['dim']}")
        for b in p["basis"]:
            print("  " + "; ".join(" ".join(row) for row in b))

    _emit(payload, fmt, render)
    return 0


def _cmd_cent(args, fmt):
    algebra = _load_algebra(args.file)
    space = centroid_space(algebra)
    payload = {
        "algebra": algebra.name,
        "linear_dim": space.linear_dim,
        "identically_zero": space.identically_zero,
        "obstruction_too_large": space.obstruction_too_large,
        "reported_dim": space.reported_dim,
        "method": space.method,
        "solution_description": space.solution_description,
        "linear_basis": [map_to_strings(b) for b in space.linear_basis],
        "subspace_basis": [map_to_strings(b) for b in space.subspace_basis],
        "obstruction": [p.serialize() for p in space.obstruction],
    }

    def render(p):
        print(
            f"{p['algebra'] or '(unnamed)'}: centroid linear stage dim {p['linear_dim']}, "
            f"reported dim {p['reported_dim']} ({p['method']})"
        )
        print(f"  {p['solution_description']}")
        for b in p["subspace_basis"]:
            print("  " + "; ".join(" ".join(row) for row in b))

    _emit(payload, fmt, render)
    return 0


def _cmd_catalog_list(args, fmt):
    _emit(list(catalog_list()), fmt, lambda p: print("\n".join(p)))
    return 0


def _cmd_catalog_get(args, fmt):
    entry = catalog_get(args.id)
    # both modes emit the bare canonical document so the output can be
    # fed back to the other commands; ambiguity notes go to stderr
    print(json.dumps(algebra_to_document(entry.algebra), indent=2))
    for note in entry.ambiguity_notes:
        print(f"note: {note}", file=sys.stderr)
    return 0


def _cmd_catalog_verify(args, fmt):
    verification = catalog_verify(args.id)
    payload = verification.to_dict()

    def render(p):
        for e in p["entries"]:
            failing = [cid for cid, ok in e["checks"].items() if not ok]
            state = "PASS" if not failing else "FAIL " + ",".join(failing)
            der = e["derivation"]
            cent = e["centroid"]
            print(
                f"{e['entry']:12s} axioms {state:28s} coord-agree {str(e['coordinate_agrees']):5s} "
                f"der {der['computed_dim']}/{der['paper_dim']} {der['status']:12s} "
                f"cent {cent['computed_dim']}/{cent['paper_dim']} {cent['status']}"
            )
            for rec in e["ambiguity"]:
                print(f"{'':12s} ambiguity: {rec['computed']}")
        print(f"errata records: {p['errata_count']}")

    _emit(payload, fmt, render)
    clean = all(all(e["checks"].values()) for e in payload["entries"])
    return 0 if clean else None


def _cmd_iso(args, fmt):
    a = _load_algebra(args.a)
    b = _load_algebra(args.b)
    psi = parse_operator(_read(args.map), expected_dim=a.dim)
    ok = is_isomorphism(psi, a, b)
    payload = {"isomorphism": ok}
    _emit(payload, fmt, lambda p: print("isomorphism" if p["isomorphism"] else "not an isomorphism"))
    return 0 if ok else None


def _write(args, fmt, result):
    text = serialize_algebra(result)
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ParseError(f"cannot write {args.output}: {e.strerror}") from None
    payload = {"written": args.output, "name": result.name, "dim": result.dim}
    _emit(payload, fmt, lambda p: print(f"wrote {p['written']} ({p['name']}, dim {p['dim']})"))
    return 0


def _cmd_direct_sum(args, fmt):
    return _write(args, fmt, direct_sum(_load_algebra(args.a), _load_algebra(args.b)))


def _cmd_total_sum(args, fmt):
    algebra = _load_algebra(args.a)
    candidate, witnesses = total_sum(algebra)
    # Export the single product as an algebra document whose left slot
    # carries the product and whose other two slots are zero.
    zero = MulTensor.zero(algebra.dim)
    result = BiHomTrialgebra(
        f"{algebra.name}~total", candidate.mu, zero, zero, candidate.alpha, candidate.beta
    )
    if witnesses:
        print(f"warning: candidate is not BiHom-associative "
              f"({len(witnesses)} failing triples)", file=sys.stderr)
    return _write(args, fmt, result)


def _cmd_transport(args, fmt):
    algebra = _load_algebra(args.a)
    psi = parse_operator(_read(args.map), expected_dim=algebra.dim)
    return _write(args, fmt, transport(algebra, psi))


def _cmd_rb(args, fmt):
    algebra = _load_algebra(args.a)
    op = parse_operator(_read(args.op), expected_dim=algebra.dim)
    weight = parse_scalar(args.weight, "weight")
    ok, witnesses = rota_baxter_check(algebra, op, weight)
    payload = {
        "algebra": algebra.name,
        "weight": format_scalar(weight),
        "holds": ok,
        "failing_pairs": [[w.check, w.i, w.j] for w in witnesses],
    }

    def render(p):
        state = "verifies" if p["holds"] else "FAILS"
        print(f"Rota-Baxter check (weight {p['weight']}): {state}")
        for fp in p["failing_pairs"]:
            print(f"  failing: identity {fp[0]} at pair ({fp[1]}, {fp[2]})")

    _emit(payload, fmt, render)
    return 0 if ok else None


def build_parser():
    """The whole command grammar; every leaf parser binds its handler as ``run``."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "structured"), default=argparse.SUPPRESS
    )
    common.add_argument("--strict", action="store_true", default=argparse.SUPPRESS)
    output = argparse.ArgumentParser(add_help=False, parents=[common])
    output.add_argument("-o", "--output", required=True)

    parser = _Parser(prog="bihomtrias", description=__doc__)
    parser.add_argument("--format", choices=("text", "structured"), default="text")
    parser.add_argument(
        "--strict", action="store_true", default=False,
        help="exit nonzero when a verification check fails",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(subparsers, name, run, help, parent=common):
        p = subparsers.add_parser(name, parents=[parent], help=help)
        p.set_defaults(run=run)
        return p

    leaf(sub, "verify", _cmd_verify, "axiom and multiplicativity report").add_argument("file")
    leaf(sub, "der", _cmd_der, "derivation space of an algebra file").add_argument("file")
    leaf(sub, "cent", _cmd_cent, "centroid of an algebra file").add_argument("file")

    actions = sub.add_parser(
        "catalog", parents=[common], help="embedded classification data"
    ).add_subparsers(dest="action", required=True)
    leaf(actions, "list", _cmd_catalog_list, "entry ids")
    leaf(actions, "get", _cmd_catalog_get, "canonical algebra document").add_argument("id")
    one_or_all = leaf(
        actions, "verify", _cmd_catalog_verify, "audit against the published tables"
    ).add_mutually_exclusive_group(required=True)
    one_or_all.add_argument("id", nargs="?")
    one_or_all.add_argument("--all", action="store_true")

    p = leaf(sub, "iso", _cmd_iso, "verify a map is an isomorphism")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--map", required=True)

    kinds = sub.add_parser(
        "construct", parents=[common], help="derived algebra constructions"
    ).add_subparsers(dest="kind", required=True)
    p = leaf(kinds, "direct-sum", _cmd_direct_sum, "direct sum A + B", output)
    p.add_argument("a")
    p.add_argument("b")
    leaf(kinds, "total-sum", _cmd_total_sum, "the three products summed", output).add_argument("a")
    p = leaf(kinds, "transport", _cmd_transport, "transport along --map", output)
    p.add_argument("a")
    p.add_argument("--map", required=True)

    p = leaf(sub, "rb", _cmd_rb, "Rota-Baxter operator verification")
    p.add_argument("action", choices=("verify",))
    p.add_argument("a")
    p.add_argument("--op", required=True)
    p.add_argument("--weight", required=True)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        status = args.run(args, args.format)
        sys.stdout.flush()
    except BihomtriasError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone; point fd 1 at devnull so the interpreter's
        # final flush of what is still buffered cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    if status is None:
        return 1 if args.strict else 0
    return status


if __name__ == "__main__":
    raise SystemExit(main())
