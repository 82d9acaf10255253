"""The four benchmark workloads: seeded inputs, the timed op, and its checks.

A workload builds its whole input sequence from the seed when it is
created; the program only ever sees those generated inputs.  Op ``i``
works on ``item(i)``, so the op sequence is a pure function of the seed.

``op`` is the timed unit of user work.  ``check`` runs outside the timed
region and returns a list of problems (empty when the op is correct).
Checks compare against invariants that the op itself does not produce:
the independent coordinate path, isomorphism invariants of the original
algebra, a transport back by an inverse computed here with plain
Fractions, exit codes, and byte-identity across passes.

Every call into the package goes through a module attribute
(``bh.catalog_verify``, ``coordinate.coordinate_detail`` ...) at call
time, so the outside-in tracer in ``tracer.py`` sees it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import bihomtrias as bh
from bihomtrias import cli, coordinate, documents, transforms
from bihomtrias.core import AXIOM_IDS, LinearMap
from bihomtrias.matrices import Matrix

CATALOG_IDS = tuple(f"BTas_2^{m}" for m in range(1, 8)) + tuple(
    f"BTas_3^{m}" for m in range(1, 25)
)
# Entries whose defining identities all hold, fixed here so that the
# inputs never depend on the program's own answers.
PASSING_TWO = ("BTas_2^1", "BTas_2^2", "BTas_2^4", "BTas_2^5", "BTas_2^6", "BTas_2^7")
PASSING_THREE = tuple(
    f"BTas_3^{m}" for m in (1, 2, 3, 4, 5, 6, 7, 8, 10, 14, 15, 19, 21)
)
PASSING = PASSING_TWO + PASSING_THREE


def entry_dim(entry_id):
    return int(entry_id.split("_")[1].split("^")[0])


def serialize_report(verification):
    """The bytes ``catalog verify --format structured`` prints (sans newline)."""
    return json.dumps(verification.to_dict(), indent=2)


def fraction_inverse(rows):
    """Inverse of a square rational matrix by Gauss-Jordan, or None if singular.

    Deliberately independent of ``bihomtrias.matrices``.
    """
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)]
           for r, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * p for x, p in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def random_invertible(rng, n):
    """Seeded integer matrix with entries in [-1, 1], with its exact inverse."""
    while True:
        rows = tuple(tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(n))
        inv = fraction_inverse(rows)
        if inv is not None:
            return rows, inv


def linear_map(rows):
    return LinearMap(Matrix.from_rows(rows))


def digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


class Workload:
    """What the runner uses; subclasses fill ``items``."""

    name = ""
    items = ()
    trace_ops = 0  # ops in one traced pass
    warmup_item = None

    def item(self, i):
        return self.items[i % len(self.items)]

    def inputs(self):
        """JSON-able description of the generated inputs (for self-tests)."""
        return [repr(it) for it in self.items]

    def replay(self, item):
        """In-process form of the op, used by the traced run."""
        return self.op(item)

    def warmup(self):
        """One op on a fixed cheap input, the same for every seed."""
        self.op(self.warmup_item)

    def close(self):
        pass


# -- catalog-audit ---------------------------------------------------------

@dataclass(frozen=True)
class AuditResult:
    entry: str
    text: str                # canonical structured JSON of catalog_verify(entry)
    fingerprint: dict
    central_equals: bool
    suite_failures: int


class CatalogAudit(Workload):
    """The full per-entry audit a user runs on the published catalog."""

    name = "catalog-audit"
    trace_ops = len(CATALOG_IDS)
    warmup_item = "BTas_2^1"

    def __init__(self, seed):
        offset = random.Random(seed).randrange(len(CATALOG_IDS))
        self.items = CATALOG_IDS[offset:] + CATALOG_IDS[:offset]
        self._texts = {}
        self._coordinate = {}

    def op(self, entry):
        text = serialize_report(bh.catalog_verify(entry))
        algebra = bh.catalog_get(entry).algebra
        central = bh.central_derivations(algebra)
        suite = bh.cent_der_property_suite(algebra, entry)
        fp = bh.fingerprint(algebra)
        return AuditResult(entry, text, fp.to_dict(), central.equals_intersection,
                           len(suite.failures))

    def check(self, entry, result):
        problems = []
        doc = json.loads(result.text)["entries"][0]
        if entry not in self._coordinate:
            self._coordinate[entry] = coordinate.coordinate_detail(bh.catalog_get(entry).algebra)
        coord = self._coordinate[entry]
        if set(doc["checks"]) != set(coord):
            problems.append(f"{entry}: check ids {sorted(doc['checks'])} != {sorted(coord)}")
        for cid, ok in doc["checks"].items():
            if coord.get(cid) != ok:
                problems.append(f"{entry}: evaluator {cid}={ok}, coordinate path {coord.get(cid)}")
        first = self._texts.setdefault(entry, result.text)
        if first != result.text:
            problems.append(f"{entry}: structured JSON differs from the first pass")
        fp = result.fingerprint
        if fp["der_dim"] != doc["derivation"]["computed_dim"]:
            problems.append(f"{entry}: fingerprint der_dim {fp['der_dim']} != audit "
                            f"{doc['derivation']['computed_dim']}")
        if fp["cent_linear_dim"] != doc["centroid"]["linear_dim"]:
            problems.append(f"{entry}: fingerprint cent_linear_dim != audit linear_dim")
        if fp["axiom_profile"] != ["+" if ok else "-" for ok in doc["checks"].values()]:
            problems.append(f"{entry}: fingerprint axiom profile != audit checks")
        return problems

    def signature(self, result):
        return json.dumps([result.text, result.fingerprint, result.central_equals,
                           result.suite_failures])

    def structured_text(self, texts=None):
        """``catalog verify --all --format structured`` assembled from per-entry
        outputs, or None until every entry has run once."""
        texts = self._texts if texts is None else texts
        if any(e not in texts for e in CATALOG_IDS):
            return None
        parts = [json.loads(texts[e]) for e in CATALOG_IDS]
        whole = {
            "entries": [p["entries"][0] for p in parts],
            "errata_count": sum(p["errata_count"] for p in parts),
        }
        return json.dumps(whole, indent=2) + "\n"


# -- transport-sweep -------------------------------------------------------

@dataclass(frozen=True)
class TransportItem:
    entry: str
    psi: tuple       # integer rows, entries in [-1, 1]
    psi_inv: tuple   # exact Fraction rows


@dataclass(frozen=True)
class TransportResult:
    moved: object
    profile: tuple
    der_dim: int
    cent_linear_dim: int
    identically_zero: bool


class TransportSweep(Workload):
    """Axiom-passing entries moved by seeded random integer isomorphisms."""

    name = "transport-sweep"
    trace_ops = len(PASSING)
    rounds = 40
    warmup_item = TransportItem("BTas_2^1", ((1, 1), (0, 1)), ((1, -1), (0, 1)))

    def __init__(self, seed):
        rng = random.Random(seed)
        items = []
        for _ in range(self.rounds):
            # every round visits each entry once, so any prefix has the same mix
            for entry in rng.sample(PASSING, len(PASSING)):
                psi, inv = random_invertible(rng, entry_dim(entry))
                items.append(TransportItem(entry, psi, inv))
        self.items = tuple(items)
        self._maps = {}
        for item in self.items + (self.warmup_item,):
            self._maps[item] = (linear_map(item.psi), linear_map(item.psi_inv))
        self._refs = {}

    def op(self, item):
        psi, _ = self._maps[item]
        moved = bh.transport(bh.catalog_get(item.entry).algebra, psi)
        report = bh.full_report(moved)
        der = bh.derivation_space(moved)
        cent = bh.centroid_space(moved)
        return TransportResult(moved, report.profile(), der.dim, cent.linear_dim,
                               cent.identically_zero)

    def _reference(self, entry):
        if entry not in self._refs:
            a = bh.catalog_get(entry).algebra
            cent = bh.centroid_space(a)
            self._refs[entry] = (bh.full_report(a).profile(), bh.derivation_space(a).dim,
                                 cent.linear_dim, cent.identically_zero)
        return self._refs[entry]

    def check(self, item, result):
        problems = []
        profile, der_dim, cent_dim, zero = self._reference(item.entry)
        got = (result.profile, result.der_dim, result.cent_linear_dim, result.identically_zero)
        for label, want, have in zip(("axiom profile", "derivation dim",
                                      "centroid linear dim", "identically_zero"),
                                     (profile, der_dim, cent_dim, zero), got):
            if want != have:
                problems.append(f"{item.entry}: {label} {have!r} after transport, {want!r} before")
        original = bh.catalog_get(item.entry).algebra
        back = bh.transport(result.moved, self._maps[item][1])
        for part in ("left", "right", "middle", "alpha", "beta"):
            if getattr(back, part) != getattr(original, part):
                problems.append(f"{item.entry}: transport back by psi^-1 changes {part}")
        return problems

    def signature(self, result):
        return json.dumps([documents.serialize_algebra(result.moved), list(result.profile),
                           result.der_dim, result.cent_linear_dim, result.identically_zero])

    def inputs(self):
        return [[it.entry, it.psi] for it in self.items]


# -- direct-sum-scale ------------------------------------------------------

@dataclass(frozen=True)
class DirectSumResult:
    profile: tuple      # (axiom id, holds) from the evaluator path
    coordinate: dict    # check id -> holds from the coordinate path
    der_dim: int
    cent_linear_dim: int


class DirectSumScale(Workload):
    """Direct sums of axiom-passing entries at dim 4, 5 and 6."""

    name = "direct-sum-scale"
    trace_ops = 6
    rounds = 10
    warmup_item = ("BTas_2^1", "BTas_2^2")

    def __init__(self, seed):
        rng = random.Random(seed)
        items = []
        for _ in range(self.rounds):
            # A round holds 13 pairs of each total dim 4, 5 and 6; every
            # three-dim entry sits in one dim-5 pair and on each side of one
            # dim-6 pair, so the cost mix hardly depends on the seed.
            threes = rng.sample(PASSING_THREE, len(PASSING_THREE))
            partners = rng.sample(threes, len(threes))
            fours = [(rng.choice(PASSING_TWO), rng.choice(PASSING_TWO)) for _ in threes]
            fives = [(rng.choice(PASSING_TWO), t)[::rng.choice((1, -1))] for t in threes]
            sixes = list(zip(threes, partners))
            rng.shuffle(fives)
            for triple in zip(fours, fives, sixes):
                items.extend(rng.sample(triple, 3))
        self.items = tuple(items)
        self._refs = {}

    def op(self, pair):
        a, b = (bh.catalog_get(e).algebra for e in pair)
        s = bh.direct_sum(a, b)
        axioms = bh.check_axioms(s)
        coord = coordinate.coordinate_detail(s)
        der = bh.derivation_space(s)
        cent = bh.centroid_space(s)
        return DirectSumResult(axioms.profile(), coord, der.dim, cent.linear_dim)

    def _reference(self, entry):
        if entry not in self._refs:
            a = bh.catalog_get(entry).algebra
            self._refs[entry] = (bh.derivation_space(a).dim, bh.centroid_space(a).linear_dim)
        return self._refs[entry]

    def check(self, pair, result):
        problems = []
        label = "(+)".join(pair)
        for cid, ok in result.profile:
            if not ok:
                problems.append(f"{label}: axiom {cid} fails")
            if result.coordinate.get(cid) != ok:
                problems.append(f"{label}: evaluator {cid}={ok}, coordinate path "
                                f"{result.coordinate.get(cid)}")
        if [cid for cid, _ in result.profile] != list(AXIOM_IDS):
            problems.append(f"{label}: axiom ids {[c for c, _ in result.profile]}")
        (da, ca), (db, cb) = self._reference(pair[0]), self._reference(pair[1])
        if result.der_dim < da + db:
            problems.append(f"{label}: dim Der {result.der_dim} < {da} + {db}")
        if result.cent_linear_dim < ca + cb:
            problems.append(f"{label}: centroid linear dim {result.cent_linear_dim} < {ca} + {cb}")
        return problems

    def signature(self, result):
        return json.dumps([list(result.profile), sorted(result.coordinate.items()),
                           result.der_dim, result.cent_linear_dim])

    def inputs(self):
        return [list(p) for p in self.items]


# -- cli-process -----------------------------------------------------------

@dataclass(frozen=True)
class CliItem:
    kind: str        # get | verify | der | cent | direct-sum | transport | malformed
    args: tuple      # arguments after ``--format structured``
    sources: tuple   # catalog id, or the input document paths
    output: str | None = None


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    written: str | None


class CliProcess(Workload):
    """One ``bihomtrias --format structured ...`` process per op."""

    name = "cli-process"
    rounds = 4
    warmup_item = CliItem("get", ("catalog", "get", "BTas_2^1"), ("BTas_2^1",))
    kinds = ("get", "verify", "der", "cent", "direct-sum", "transport", "malformed")

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.workdir = workdir
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.files = {}

        def write(name, text):
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.files[path] = text
            return path

        docs = []
        for k, entry in enumerate(rng.sample(CATALOG_IDS, 6)):
            docs.append(write(f"cat{k}.json",
                              documents.serialize_algebra(bh.catalog_get(entry).algebra)))
        for k, entry in enumerate(rng.sample(PASSING, 4)):
            psi, _ = random_invertible(rng, entry_dim(entry))
            moved = bh.transport(bh.catalog_get(entry).algebra, linear_map(psi))
            docs.append(write(f"moved{k}.json", documents.serialize_algebra(moved)))
        maps = {n: write(f"psi{n}.json", documents.serialize_operator(
            linear_map(random_invertible(rng, n)[0]))) for n in (2, 3)}
        bad = json.loads(self.files[docs[0]])
        corruption = rng.choice(("duplicate", "scalar", "index"))
        if corruption == "duplicate":
            bad["left"] = bad["left"] + [dict(i=1, j=1, k=1, c="1")] * 2
        elif corruption == "scalar":
            bad["alpha"][0][0] = "1/0"
        else:
            bad["middle"] = bad["middle"] + [dict(i=1, j=bad["dim"] + 1, k=1, c="1")]
        malformed = write("malformed.json", json.dumps(bad, indent=2))

        items = []
        for r in range(self.rounds):
            for kind in rng.sample(self.kinds, len(self.kinds)):
                if kind == "get":
                    entry = rng.choice(CATALOG_IDS)
                    items.append(CliItem(kind, ("catalog", "get", entry), (entry,)))
                elif kind in ("verify", "der", "cent"):
                    doc = rng.choice(docs)
                    items.append(CliItem(kind, (kind, doc), (doc,)))
                elif kind == "direct-sum":
                    a, b = rng.choice(docs), rng.choice(docs)
                    out = os.path.join(workdir, f"out-sum{r}.json")
                    items.append(CliItem(kind, ("construct", "direct-sum", a, b, "-o", out),
                                         (a, b), out))
                elif kind == "transport":
                    a = rng.choice(docs)
                    n = json.loads(self.files[a])["dim"]
                    out = os.path.join(workdir, f"out-moved{r}.json")
                    items.append(CliItem(kind, ("construct", "transport", a, "--map", maps[n],
                                                "-o", out), (a, maps[n]), out))
                else:
                    items.append(CliItem(kind, ("verify", malformed), (malformed,)))
        self.items = tuple(items)
        self.trace_ops = len(items)
        self._stdout = {}
        self._refs = {}

    def _argv(self, item):
        return ["--format", "structured", *item.args]

    def _written(self, item):
        if item.output is None or not os.path.exists(item.output):
            return None
        with open(item.output, encoding="utf-8") as fh:
            return fh.read()

    def op(self, item):
        proc = subprocess.run(
            [sys.executable, "-m", "bihomtrias.cli", *self._argv(item)],
            capture_output=True, text=True, env=self.env, cwd=self.workdir, timeout=120,
        )
        return CliResult(proc.returncode, proc.stdout, proc.stderr, self._written(item))

    def replay(self, item):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(self._argv(item))
            except SystemExit as e:
                code = e.code
        return CliResult(code, out.getvalue(), err.getvalue(), self._written(item))

    def warmup(self):
        self.replay(self.warmup_item)

    def _algebra(self, path):
        return documents.parse_algebra(self.files[path])

    def _reference(self, item):
        """What the command must report, computed in-process (outside the timed op)."""
        if item in self._refs:
            return self._refs[item]
        if item.kind == "get":
            ref = bh.catalog_get(item.sources[0]).algebra
        elif item.kind == "verify":
            ref = {cid: ok for cid, ok in bh.full_report(self._algebra(item.sources[0])).profile()}
        elif item.kind == "der":
            ref = bh.derivation_space(self._algebra(item.sources[0])).dim
        elif item.kind == "cent":
            space = bh.centroid_space(self._algebra(item.sources[0]))
            ref = (space.linear_dim, space.reported_dim)
        elif item.kind == "direct-sum":
            ref = transforms.direct_sum(*(self._algebra(p) for p in item.sources))
        elif item.kind == "transport":
            psi = documents.parse_operator(self.files[item.sources[1]])
            ref = transforms.transport(self._algebra(item.sources[0]), psi)
        else:
            ref = None
        self._refs[item] = ref
        return ref

    def check(self, item, result):
        label = " ".join(item.args[:2])
        if "Traceback" in result.stderr:
            return [f"{label}: traceback on stderr"]
        if item.kind == "malformed":
            problems = []
            if result.returncode != 2:
                problems.append(f"{label}: exit {result.returncode} on a malformed document")
            if not result.stderr.startswith("error:") or result.stdout:
                problems.append(f"{label}: malformed input not reported as one error line")
            return problems
        if result.returncode != 0:
            return [f"{label}: exit {result.returncode}: {result.stderr.strip()[:200]}"]
        first = self._stdout.setdefault(item, result.stdout)
        if first != result.stdout:
            return [f"{label}: output differs from the first run of the same command"]
        try:
            payload = json.loads(result.stdout)
        except ValueError:
            return [f"{label}: stdout is not JSON"]
        ref = self._reference(item)
        if item.kind == "get":
            ok = documents.document_to_algebra(payload) == ref
        elif item.kind == "verify":
            ok = payload.get("checks") == ref
        elif item.kind == "der":
            ok = payload.get("dim") == ref
        elif item.kind == "cent":
            ok = (payload.get("linear_dim"), payload.get("reported_dim")) == ref
        else:
            ok = (result.written == documents.serialize_algebra(ref)
                  and documents.parse_algebra(result.written) == ref)
        return [] if ok else [f"{label}: result disagrees with the in-process construction"]

    def signature(self, result):
        return json.dumps([result.returncode, result.stdout, result.written])

    def inputs(self):
        def rel(arg):
            return os.path.relpath(arg, self.workdir) if os.path.isabs(arg) else arg

        return [[it.kind, [rel(a) for a in it.args]] for it in self.items] + [
            [rel(p), t] for p, t in sorted(self.files.items())]

    def close(self):
        for path in list(self.files) + [it.output for it in self.items if it.output]:
            if os.path.exists(path):
                os.remove(path)


WORKLOADS = {
    w.name: w for w in (CatalogAudit, TransportSweep, DirectSumScale, CliProcess)
}


def make(name, seed, workdir):
    cls = WORKLOADS[name]
    return cls(seed, workdir) if cls is CliProcess else cls(seed)
