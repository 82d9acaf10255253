"""Self-tests of the benchmark: seeded inputs, checks that catch corruption,
the outside-in tracer, and the runner's refusal to run without the package.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bihomtrias as bh  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import make  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs_and_op_sequence(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = make(name, 7, str(tmp_path / "a"))
    b = make(name, 7, str(tmp_path / "b"))
    assert a.inputs() == b.inputs()
    # the op sequence is the item list, cycled
    n = len(a.items)
    assert a.item(n) == a.item(0) and a.item(n + 3) == a.item(3)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_different_seed_different_inputs(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert make(name, 1, str(tmp_path / "a")).inputs() != make(name, 2, str(tmp_path / "b")).inputs()


def test_transport_inputs_are_invertible_with_exact_inverses():
    w = make("transport-sweep", 3, None)
    for item in w.items[:50]:
        n = len(item.psi)
        product = [[sum(item.psi[r][k] * item.psi_inv[k][c] for k in range(n))
                    for c in range(n)] for r in range(n)]
        assert product == [[int(r == c) for c in range(n)] for r in range(n)]
        assert all(x in (-1, 0, 1) for row in item.psi for x in row)


def test_catalog_audit_check_catches_corruption():
    w = make("catalog-audit", 1, None)
    good = w.op("BTas_2^1")
    assert w.check("BTas_2^1", good) == []
    doc = json.loads(good.text)
    checks = doc["entries"][0]["checks"]
    first = next(iter(checks))
    checks[first] = not checks[first]  # a swapped evaluator verdict
    swapped = dataclasses.replace(good, text=json.dumps(doc, indent=2))
    problems = w.check("BTas_2^1", swapped)
    assert any("coordinate path" in p for p in problems)
    assert any("differs from the first pass" in p for p in problems)
    fp = dict(good.fingerprint, der_dim=good.fingerprint["der_dim"] + 1)
    assert any("der_dim" in p for p in w.check("BTas_2^1", dataclasses.replace(good, fingerprint=fp)))


def test_catalog_audit_assembles_the_full_structured_audit():
    w = make("catalog-audit", 1, None)
    assert w.structured_text() is None
    for entry in workloads.CATALOG_IDS:
        assert w.check(entry, w.op(entry)) == []
    expected = json.dumps(bh.catalog_verify().to_dict(), indent=2) + "\n"
    assert w.structured_text() == expected


def test_transport_check_catches_corruption():
    w = make("transport-sweep", 1, None)
    same_entry = [it for it in w.items if it.entry == "BTas_2^1"]
    item = same_entry[0]
    other = next(it for it in same_entry if it.psi != item.psi)
    good = w.op(item)
    assert w.check(item, good) == []
    off_by_one = dataclasses.replace(good, der_dim=good.der_dim + 1)
    assert any("derivation dim" in p for p in w.check(item, off_by_one))
    wrong_psi = dataclasses.replace(good, moved=w.op(other).moved)
    assert any("transport back" in p for p in w.check(item, wrong_psi))


def test_direct_sum_check_catches_corruption():
    w = make("direct-sum-scale", 1, None)
    pair = ("BTas_2^1", "BTas_3^1")
    good = w.op(pair)
    assert w.check(pair, good) == []
    coord = dict(good.coordinate, A1=not good.coordinate["A1"])  # a swapped coordinate verdict
    assert any("coordinate path" in p for p in w.check(pair, dataclasses.replace(good, coordinate=coord)))
    (da, _), (db, _) = w._reference(pair[0]), w._reference(pair[1])
    short = dataclasses.replace(good, der_dim=da + db - 1)
    assert any("dim Der" in p for p in w.check(pair, short))


def test_cli_check_catches_corruption(tmp_path):
    w = make("cli-process", 1, str(tmp_path))
    try:
        by_kind = {}
        for item in w.items:
            by_kind.setdefault(item.kind, item)
        for kind in ("get", "direct-sum", "malformed"):
            item = by_kind[kind]
            good = w.op(item)
            assert w.check(item, good) == [], kind
            assert w.replay(item) == good, kind
        get, dsum, bad = by_kind["get"], by_kind["direct-sum"], by_kind["malformed"]
        good_get = w.op(get)
        assert w.check(get, dataclasses.replace(good_get, returncode=1))
        assert w.check(get, dataclasses.replace(good_get, stderr="Traceback (most recent call last):"))
        assert w.check(bad, dataclasses.replace(w.op(bad), returncode=0))
        good_sum = w.op(dsum)
        assert w.check(dsum, dataclasses.replace(good_sum, written=good_sum.written.replace('"1"', '"2"', 1)))
    finally:
        w.close()
    assert os.listdir(tmp_path) == []


def test_tracer_counts_and_restores_bindings():
    from bihomtrias import catalog, matrices
    from bihomtrias.scalars import Scalar

    before = (bh.catalog_verify, catalog.verify_entry, matrices.rref, Scalar.__mul__,
              Scalar.__dict__["is_zero"])
    w = make("catalog-audit", 1, None)
    reference = w.signature(w.op("BTas_2^2"))
    t = tracing.Tracer()
    t.install(extra=[(workloads, "serialize_report", "reports.serialize")])
    try:
        traced = w.signature(w.op("BTas_2^2"))
    finally:
        t.uninstall()
    assert traced == reference
    after = (bh.catalog_verify, catalog.verify_entry, matrices.rref, Scalar.__mul__,
             Scalar.__dict__["is_zero"])
    assert all(x is y for x, y in zip(before, after))
    metrics = tracing.layer_metrics(t, 1)
    assert metrics["derivations.space_calls"][0] == 4
    assert metrics["centroids.space_calls"][0] == 4
    assert metrics["matrices.rref_calls"][0] > 0
    assert metrics["scalars.is_zero_calls"][0] > 0
    assert metrics["reports.json_bytes"][0] == len(json.loads(traced)[0])


def test_runner_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog-audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
