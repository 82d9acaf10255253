import hashlib
import json
import time
from dataclasses import fields

import pytest

from bihomtrias.catalog import (
    Fingerprint,
    catalog_get,
    catalog_list,
    catalog_verify,
    distinguish,
    distinguished_pair_counts,
    fingerprint,
    interaction_report,
    rota_baxter_example_report,
)
from bihomtrias.core import ALL_CHECK_IDS
from bihomtrias.documents import parse_algebra, serialize_algebra
from bihomtrias.errors import DimensionMismatch, UnknownId
from bihomtrias.matrices import Matrix, rank, unit_vec, zero_vec
from bihomtrias.scalars import Scalar
from bihomtrias.transforms import is_isomorphism, transport

from oracles import seeded


def test_catalog_has_31_entries():
    ids = catalog_list()
    assert len(ids) == 31
    assert sum(1 for i in ids if i.startswith("BTas_2")) == 7
    assert sum(1 for i in ids if i.startswith("BTas_3")) == 24


def test_get_first_entry():
    entry = catalog_get("BTas_2^1")
    nonzero = sum(len(t.nonzero_entries()) for t in entry.algebra.tensors())
    assert nonzero == 6
    assert entry.algebra.alpha.col(1) == unit_vec(2, 0)
    assert entry.algebra.beta.col(1) == unit_vec(2, 0)


def test_get_last_entry_maps():
    a = catalog_get("BTas_3^24").algebra
    assert a.alpha.col(1) == unit_vec(3, 0)  # alpha(e2) = e1
    assert a.alpha.col(2) == unit_vec(3, 1)  # alpha(e3) = e2
    assert a.beta.col(1) == unit_vec(3, 0)   # beta(e2) = e1
    assert a.beta.col(2) == zero_vec(3)


def test_unknown_id():
    with pytest.raises(UnknownId):
        catalog_get("BTas_4^1")


def test_ambiguous_entries_carry_candidates():
    e27 = catalog_get("BTas_2^7")
    assert len(e27.candidates) == 3
    assert e27.ambiguity_notes
    e324 = catalog_get("BTas_3^24")
    assert len(e324.candidates) == 2


def test_paper_table_attachments():
    assert catalog_get("BTas_2^1").paper_der_dim == 1
    assert catalog_get("BTas_2^3").paper_der_dim is None
    assert catalog_get("BTas_3^16").paper_der_dim is None
    assert catalog_get("BTas_3^14").paper_cent_dim is None  # table-silent
    assert catalog_get("BTas_3^17").paper_cent_dim is None
    assert catalog_get("BTas_2^5").paper_cent_dim == 0  # closing corollary
    assert catalog_get("BTas_3^11").paper_cent_dim == 1


def test_verify_single_entry():
    v = catalog_verify("BTas_2^1")
    assert len(v.entries) == 1
    e = v.entries[0]
    assert e.axioms_pass and e.multiplicative
    assert e.coordinate_agrees
    assert e.derivation.status == "match"
    assert e.centroid.status == "mismatch"  # corollary says 0, recomputed 1


def test_verify_all_runs_under_a_second(cold_catalog):
    start = time.perf_counter()
    v = catalog_verify()
    elapsed = time.perf_counter() - start
    assert len(v.entries) == 31
    assert elapsed < 1.0
    assert all(e.coordinate_agrees for e in v.entries)


def test_verify_all_deterministic(cold_catalog):
    a = catalog_verify().to_dict()
    cold_catalog()
    b = catalog_verify().to_dict()
    a.pop("elapsed_seconds", None)
    b.pop("elapsed_seconds", None)
    assert a == b


def test_axiom_failures_carry_witnesses():
    v = catalog_verify()
    for e in v.entries:
        failing = [cid for cid, ok in e.checks if not ok]
        recorded = {r.check.split(":", 1)[1] for r in e.errata if r.check.startswith("axiom:")}
        assert set(failing) == recorded, e.entry
        for rec in e.errata:
            if rec.check.startswith("axiom:"):
                assert rec.witness is not None


def test_known_axiom_failures():
    v = {e.entry: e for e in catalog_verify().entries}
    assert not v["BTas_2^3"].axioms_pass           # fails middle-product axioms
    assert v["BTas_3^2"].axioms_pass               # Def axioms hold...
    assert not v["BTas_3^2"].multiplicative        # ...multiplicativity does not
    for name in ("BTas_3^16", "BTas_3^17", "BTas_3^18", "BTas_3^20",
                 "BTas_3^22", "BTas_3^23", "BTas_3^24"):
        checks = dict(v[name].checks)
        assert not checks["C0"], name              # alpha beta != beta alpha


def test_ambiguity_record_surfaces():
    v = catalog_verify()
    by_id = {e.entry: e for e in v.entries}
    assert by_id["BTas_2^7"].ambiguity
    assert by_id["BTas_3^24"].ambiguity
    labels = dict(by_id["BTas_2^7"].candidate_profiles)
    assert set(labels) == {"second-line-as-e2e2", "first-line-kept", "second-line-kept"}


def test_documents_round_trip_byte_identical():
    assert len(catalog_list()) == 31
    for name in catalog_list():
        text = serialize_algebra(catalog_get(name).algebra)
        assert serialize_algebra(parse_algebra(text)) == text


def test_fingerprint_fields_and_transport_invariance():
    rng = seeded("fingerprint")
    for name in ("BTas_2^1", "BTas_3^9", "BTas_3^24"):
        a = catalog_get(name).algebra
        fp = fingerprint(a)
        for _ in range(3):
            while True:
                psi = Matrix(a.dim, a.dim,
                             [Scalar(rng.randint(-2, 2)) for _ in range(a.dim * a.dim)])
                if rank(psi) == a.dim:
                    break
            assert fingerprint(transport(a, psi)) == fp


def test_distinguish_first_entries():
    # the profiles already differ (the second entry is not multiplicative),
    # so that is the first differing invariant; the derivation dimensions
    # differ as well, 2 vs 1, matching the published table
    field, _, _ = distinguish("BTas_3^1", "BTas_3^2")
    assert field == "axiom_profile"
    fa = fingerprint(catalog_get("BTas_3^1").algebra)
    fb = fingerprint(catalog_get("BTas_3^2").algebra)
    assert (fa.der_dim, fb.der_dim) == (2, 1)
    # to_dict: keys in field order, the profile as +/- in ALL_CHECK_IDS
    # order, tuples as lists
    assert list(fa.to_dict()) == [f.name for f in fields(Fingerprint)]
    assert fa.to_dict() == {
        "axiom_profile": ["+"] * len(ALL_CHECK_IDS),
        "der_dim": 2,
        "cent_linear_dim": 3,
        "product_ranks": [1, 1, 1],
        "twist_ranks": [1, 1],
        "squared_dim": 1,
    }
    assert tuple(cid for cid, _ in fb.axiom_profile) == ALL_CHECK_IDS
    profile = fb.to_dict()["axiom_profile"]
    assert profile == ["+" if ok else "-" for _, ok in fb.axiom_profile] and "-" in profile


def test_distinguish_self_inconclusive():
    assert distinguish("BTas_3^5", "BTas_3^5") == "inconclusive"


def test_pairwise_distinguish_counts():
    distinguished, inconclusive = distinguished_pair_counts()
    assert distinguished + inconclusive == 24 * 23 // 2
    assert distinguished > 0


def test_verify_isomorphism_basics():
    a21, a22, a31 = (catalog_get(i).algebra for i in ("BTas_2^1", "BTas_2^2", "BTas_3^1"))
    assert is_isomorphism(Matrix.identity(2), a21, a21)
    assert not is_isomorphism(Matrix.zeros(2, 2), a21, a21)
    assert not is_isomorphism(Matrix.identity(2), a21, a22)
    for psi in (Matrix.identity(2), Matrix.zeros(2, 2)):
        with pytest.raises(DimensionMismatch):
            is_isomorphism(psi, a21, a31)


def test_rb_example_report():
    results, errata = rota_baxter_example_report()
    assert [r["holds"] for r in results] == [True, False, False]
    assert {e.check for e in errata} == {"rota-baxter:weight=1", "rota-baxter:weight=-2"}
    for e in errata:
        assert e.witness["pair"] == [2, 1]


def test_interaction_report_logs_every_deviation():
    rows, errata = interaction_report()
    assert len(rows) == 31
    deviating = {r["entry"] for r in rows if not r["equals_intersection"]}
    logged = {e.entry for e in errata if e.check == "central-derivations-equality"}
    assert deviating == logged


def test_interaction_report_bytes_are_pinned():
    """The interaction report, byte for byte, as first recorded."""
    rows, errata = interaction_report()
    text = json.dumps({"rows": rows, "errata": [e.to_dict() for e in errata]}, indent=2)
    assert len(errata) == 28
    assert len(text.encode()) == 17_563
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4e29dd3abe1298a2e652b5f5a3cd13c18ffc618066f1321efbbbaca6376bd15c"
    )


def test_errata_log_deterministic():
    a = [e.to_dict() for e in catalog_verify().errata]
    b = [e.to_dict() for e in catalog_verify().errata]
    assert a == b
