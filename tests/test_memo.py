"""The per-algebra analysis memo (``core.per_algebra``).

Each analysis is computed once per algebra object and kept on that
object; a ``renamed()`` copy, although equal, has its own memo.
"""

import dataclasses

import pytest

from bihomtrias import centroids, core, derivations
from bihomtrias.catalog import catalog_get, catalog_verify, fingerprint, verify_entry
from bihomtrias.centroids import (
    cent_der_property_suite,
    central_derivations,
    centroid_linear_space,
    centroid_space,
    is_central_derivation,
)
from bihomtrias.core import full_report
from bihomtrias.derivations import derivation_space
from bihomtrias.matrices import Matrix
from bihomtrias.scalars import Scalar

ANALYSES = (full_report, derivation_space, centroid_linear_space, centroid_space,
            central_derivations)


def fresh(entry_id):
    """A new algebra object equal to the catalog entry's, with an empty memo."""
    return catalog_get(entry_id).algebra.renamed(entry_id)


def audit(entry, algebra):
    """The per-entry call sequence of a catalog audit, on ``algebra``."""
    verify_entry(dataclasses.replace(entry, algebra=algebra))
    central_derivations(algebra)
    cent_der_property_suite(algebra, entry.id)
    fingerprint(algebra)


@pytest.mark.parametrize("analysis", ANALYSES, ids=lambda f: f.__name__)
def test_repeated_call_returns_the_same_object(analysis):
    a = fresh("BTas_3^11")
    assert analysis(a) is analysis(a)


def test_memo_is_ignored_by_equality_hash_and_repr():
    a, b = fresh("BTas_3^2"), fresh("BTas_3^2")
    derivation_space(a)
    assert a._memo and not b._memo
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_renamed_copy_has_its_own_analyses():
    a = fresh("BTas_3^2")
    for analysis in ANALYSES:
        analysis(a)
    x = a.renamed("x")
    assert x == a and x._memo == {}
    for analysis in ANALYSES:
        assert analysis(x) == analysis(a) and analysis(x) is not analysis(a)


def count_leibniz_builds(monkeypatch):
    """Record the ``with_image`` flag of every twisted Leibniz system built."""
    calls = []
    original = derivations.twisted_leibniz_rows

    def counted(algebra, with_image):
        calls.append(with_image)
        return original(algebra, with_image)

    monkeypatch.setattr(derivations, "twisted_leibniz_rows", counted)
    monkeypatch.setattr(centroids, "twisted_leibniz_rows", counted)
    return calls


def test_audit_sequence_builds_the_leibniz_system_twice(monkeypatch):
    """Once for Der, once for the centroid's linear stage."""
    calls = count_leibniz_builds(monkeypatch)
    entry = catalog_get("BTas_3^1")
    audit(entry, fresh(entry.id))
    assert sorted(calls) == [False, True]


def test_analyses_of_a_fresh_algebra_match_the_catalog_entry():
    entry = catalog_get("BTas_3^14")
    a = fresh(entry.id)
    audit(entry, a)
    catalog = entry.algebra
    for analysis in ANALYSES:
        assert analysis(a) == analysis(catalog)


def _immutable(value):
    if isinstance(value, tuple):
        return all(_immutable(v) for v in value)
    if dataclasses.is_dataclass(value):
        return value.__dataclass_params__.frozen and all(
            _immutable(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    return value is None or isinstance(value, (bool, int, str, Scalar))


@pytest.mark.parametrize("entry_id", ["BTas_2^3", "BTas_3^1", "BTas_3^14", "BTas_3^24"])
def test_every_cached_value_is_immutable(entry_id):
    entry = catalog_get(entry_id)
    a = fresh(entry_id)
    audit(entry, a)
    is_central_derivation(a, Matrix.zeros(a.dim, a.dim))
    assert len(a._memo) == 6
    for fn, value in a._memo.items():
        assert isinstance(value, tuple) or dataclasses.is_dataclass(value), fn.__name__
        assert _immutable(value), fn.__name__


def test_catalog_entries_keep_their_analyses():
    catalog_verify("BTas_2^5")
    a = catalog_get("BTas_2^5").algebra
    assert a._memo[derivation_space.__wrapped__] is derivation_space(a)
    assert a._memo[centroid_space.__wrapped__] is centroid_space(a)


def test_cold_catalog_makes_catalog_verify_recompute(cold_catalog, monkeypatch):
    """A warm catalog_verify() reads the memo; the fixture of the timed
    tests clears it, so they time a recomputation."""
    calls = count_leibniz_builds(monkeypatch)
    catalog_verify()
    cold = len(calls)
    assert cold >= 2 * 31
    catalog_verify()
    assert len(calls) == cold
    cold_catalog()
    catalog_verify()
    assert len(calls) == 2 * cold


def test_warm_catalog_verify_runs_no_axiom_sweep(monkeypatch):
    """Every axiom report of a catalog audit is a per-algebra analysis of
    an entry or candidate algebra, so a second audit reads them all."""
    catalog_verify()
    calls = []
    original = core.check_axioms

    def counted(algebra):
        calls.append(algebra.name)
        return original(algebra)

    monkeypatch.setattr(core, "check_axioms", counted)
    catalog_verify()
    assert calls == []
