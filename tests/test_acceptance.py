"""Acceptance suite: one test per criterion, one printed line per criterion.

Recomputation disagrees with several published table values (documented
in the errata machinery this artifact exists to produce).  Where a
criterion names a published value that recomputation refutes, the
criterion's own mismatch clause governs: the computed value must be
exact and stable, and the disagreement must ship in the errata log with
the recomputed data and a witness.  Nothing is hidden: each criterion
line below reports the agreement statistics.
"""

import time
from contextlib import contextmanager

import pytest

from bihomtrias.catalog import (
    catalog_get,
    catalog_list,
    catalog_verify,
    interaction_report,
    rota_baxter_example_report,
)
from bihomtrias.centroids import centroid_space, is_centroid_element
from bihomtrias.core import full_report
from bihomtrias.derivations import derivation_space
from bihomtrias.errors import SingularMatrix
from bihomtrias.matrices import Matrix, in_span, inverse, nullspace, rank, vec_is_zero
from bihomtrias.scalars import Scalar
from bihomtrias.transforms import (
    direct_sum,
    graph_subalgebra_check,
    is_morphism,
    total_sum,
    transport,
)

from oracles import naive_rank, random_rows, seeded


@contextmanager
def criterion(number, summary_parts):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE CRITERION {number}: FAIL — {'; '.join(summary_parts)}")
        raise
    print(f"\nACCEPTANCE CRITERION {number}: PASS — {'; '.join(summary_parts)}")


def unit(n, q, p):
    return Matrix.unit(n, q - 1, p - 1)


def rand_invertible(rng, n, lo=-1, hi=1):
    while True:
        m = Matrix(n, n, [Scalar(rng.randint(lo, hi)) for _ in range(n * n)])
        if rank(m) == n:
            return m


@pytest.mark.usefixtures("cold_catalog")
def test_criterion_1_catalog_well_definedness():
    parts = []
    with criterion(1, parts):
        verification = catalog_verify()
        assert verification.elapsed_seconds < 1.0, verification.elapsed_seconds
        assert len(verification.entries) == 31

        # every check id reported per entry, and the independently coded
        # coordinate-form path agrees with the basis-tuple sweep everywhere
        for e in verification.entries:
            assert len(e.checks) == 18
            assert e.coordinate_agrees, e.entry

        # entries failing any axiom appear in the errata log with the
        # violated equation id and a witness
        failing_entries = 0
        for e in verification.entries:
            failing = {cid for cid, ok in e.checks if not ok}
            if failing:
                failing_entries += 1
            recorded = {
                r.check.removeprefix("axiom:"): r
                for r in e.errata
                if r.check.startswith("axiom:")
            }
            assert set(recorded) == failing, e.entry
            for rec in recorded.values():
                assert rec.witness is not None

        by_id = {e.entry: e for e in verification.entries}
        assert by_id["BTas_2^7"].ambiguity, "ambiguity record required"
        parts.append(f"31 entries verified in {verification.elapsed_seconds:.3f}s")
        parts.append("coordinate-form path agrees on every entry")
        parts.append(f"{failing_entries} entries fail axioms, all errata'd with witnesses")
        parts.append("BTas_2^7 ambiguity record present")


@pytest.mark.usefixtures("cold_catalog")
def test_criterion_2_derivation_tables():
    parts = []
    with criterion(2, parts):
        start = time.perf_counter()
        verification = catalog_verify()
        rows = {e.entry: e.derivation for e in verification.entries}

        # exact recomputed dimensions (frozen; confirmed by the dual
        # system assembly and the soundness/completeness module tests)
        recomputed = {
            "BTas_2^1": 1, "BTas_2^2": 1, "BTas_2^6": 1,
            "BTas_3^1": 2, "BTas_3^2": 1, "BTas_3^3": 2, "BTas_3^4": 2,
            "BTas_3^5": 1, "BTas_3^6": 2, "BTas_3^7": 2, "BTas_3^8": 2,
            "BTas_3^9": 2, "BTas_3^10": 2, "BTas_3^11": 2, "BTas_3^12": 2,
            "BTas_3^13": 2, "BTas_3^14": 2, "BTas_3^15": 2, "BTas_3^19": 2,
        }
        for name, dim in recomputed.items():
            assert rows[name].computed_dim == dim, name

        # table rows: computed dim matches the published Dim column
        # everywhere except BTas_3^14 (published 3, recomputed 2); every
        # mismatch ships the recomputed canonical basis in the errata log
        matches = mismatches = 0
        for name, row in rows.items():
            if row.paper_dim is None:
                continue
            if row.status == "match":
                matches += 1
            else:
                assert row.status == "mismatch"
                mismatches += 1
                erratum = next(e for e in row.errata if e.check == "derivation-dim")
                assert erratum.computed["recomputed_basis"], name
        assert matches == 18 and mismatches == 1
        assert rows["BTas_3^14"].status == "mismatch"

        # two-dimensional rows: dim 1 exactly; the published unit E21 is
        # re-verified through is_derivation (it fails: the actual basis is
        # the transpose E12) and the failure ships with the recomputed basis
        for name in ("BTas_2^1", "BTas_2^2", "BTas_2^6"):
            row = rows[name]
            assert row.computed_dim == 1 and row.paper_dim == 1
            assert row.space.basis == (unit(2, 1, 2),)
            claim = row.claims[0]
            assert claim.position == (2, 1)

        # every published basis matrix either passes is_derivation or its
        # failure is errata'd with the recomputed canonical basis; the
        # kernel is the definition both ways, for each unit and its transpose
        verified = failed = transposed = 0
        for name, row in rows.items():
            n = catalog_get(name).algebra.dim
            for claim in row.claims:
                q, p = claim.position
                assert claim.transpose_passes == in_span(
                    row.space.flats(), unit(n, p, q).entries
                ), (name, claim.label)
                if claim.passes:
                    verified += 1
                    assert claim.in_computed_span, (name, claim.label)
                else:
                    failed += 1
                    assert not claim.in_computed_span, (name, claim.label)
                    transposed += bool(claim.transpose_passes)
                    tag = f"derivation-basis:{claim.label}"
                    erratum = next(e for e in row.errata if e.check == tag)
                    assert erratum.computed["recomputed_basis"], (name, claim.label)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, elapsed
        parts.append(f"dims match published table on {matches}/19 rows "
                     f"({mismatches} mismatch errata'd with recomputed basis)")
        parts.append(f"published basis matrices: {verified} verify, {failed} fail "
                     f"(errata'd; {transposed} fixed by transposition)")
        parts.append(f"runtime {elapsed:.2f}s")


@pytest.mark.usefixtures("cold_catalog")
def test_criterion_3_centroid_tables():
    parts = []
    with criterion(3, parts):
        start = time.perf_counter()
        verification = catalog_verify()
        rows = {e.entry: e.centroid for e in verification.entries}

        # frozen recomputed dims (exact integers)
        recomputed_two = {
            "BTas_2^1": 1, "BTas_2^2": 1, "BTas_2^3": 0, "BTas_2^4": 0,
            "BTas_2^5": 0, "BTas_2^6": 1, "BTas_2^7": 0,
        }
        for name, dim in recomputed_two.items():
            assert rows[name].computed_dim == dim, name

        # listed three-dimensional rows: published dim is 1 everywhere;
        # recomputation agrees except on five entries, whose mismatches
        # ship the recomputed subspace
        listed = [n for n, r in rows.items()
                  if n.startswith("BTas_3") and r.paper_dim is not None]
        assert len(listed) == 22
        expected_mismatches = {"BTas_3^1", "BTas_3^4", "BTas_3^5", "BTas_3^19", "BTas_3^21"}
        got_mismatches = set()
        for name in listed:
            row = rows[name]
            if row.status == "mismatch":
                got_mismatches.add(name)
                erratum = next(e for e in row.errata if e.check == "centroid-dim")
                assert "recomputed_subspace" in erratum.computed
            else:
                assert row.status == "match" and row.computed_dim == 1
        assert got_mismatches == expected_mismatches

        # spot anchors
        a1 = rows["BTas_3^1"]
        c1 = next(c for c in a1.claims if c.position == (2, 1))
        assert not c1.passes and c1.transpose_passes  # published c21; actual element is the transpose
        a11 = rows["BTas_3^11"]
        c11 = next(c for c in a11.claims if c.position == (2, 2))
        assert c11.passes and a11.status == "match" and a11.computed_dim == 1
        a24 = rows["BTas_3^24"]
        c24 = next(c for c in a24.claims if c.position == (3, 1))
        assert not c24.passes and c24.transpose_passes
        assert a24.status == "match" and a24.computed_dim == 1

        # the quadratic obstruction vanishes identically on the span of
        # every published unit that verifies (scaling sweep, exact)
        for name in listed:
            algebra = catalog_get(name).algebra
            for claim in rows[name].claims:
                if not claim.passes:
                    continue
                q, p = claim.position
                u = unit(algebra.dim, q, p)
                for t in (Scalar(0), Scalar(1), Scalar(-1), Scalar(2)):
                    assert is_centroid_element(algebra, u.scale(t))[0], (name, t)

        # two-dimensional entries vs the closing corollary (dim 0): the
        # three deviations are errata'd with the recomputed subspace
        corollary_errata = 0
        for name, dim in recomputed_two.items():
            row = rows[name]
            assert row.paper_dim == 0
            if dim == 0:
                assert row.status == "match"
            else:
                assert row.status == "mismatch"
                assert any(e.check == "centroid-dim" for e in row.errata)
                corollary_errata += 1
        assert corollary_errata == 3
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, elapsed
        parts.append(f"3-dim listed rows: {22 - len(got_mismatches)}/22 match published dim 1 "
                     f"({len(got_mismatches)} mismatches errata'd with recomputed subspace)")
        parts.append("anchors: 3^1 c21 fails (transpose passes), 3^11 c22 verifies, "
                     "3^24 c31 fails (transpose passes)")
        parts.append(f"2-dim corollary: 4/7 at dim 0, {corollary_errata} deviations errata'd")
        parts.append(f"runtime {elapsed:.2f}s")


@pytest.mark.usefixtures("cold_catalog")
def test_criterion_4_construction_property_suites():
    parts = []
    with criterion(4, parts):
        start = time.perf_counter()
        verification = catalog_verify()
        passing = [e.entry for e in verification.entries if e.axioms_pass]

        # total sum: BiHom-associative with zero witnesses on every
        # axiom-passing entry
        for name in passing:
            _, witnesses = total_sum(catalog_get(name).algebra)
            assert witnesses == (), name

        # transport by 20 random invertible integer matrices preserves the
        # axiom profile, the derivation dimension and the centroid
        # dimensions (linear stage dimension and identically-zero flag)
        rng = seeded("acceptance-transport")
        for name in passing:
            algebra = catalog_get(name).algebra
            profile = full_report(algebra).profile()
            der_dim = derivation_space(algebra).dim
            cent = centroid_space(algebra)
            for _ in range(20):
                psi = rand_invertible(rng, algebra.dim)
                moved = transport(algebra, psi)
                assert full_report(moved).profile() == profile, name
                assert derivation_space(moved).dim == der_dim, name
                moved_cent = centroid_space(moved)
                assert moved_cent.linear_dim == cent.linear_dim, name
                assert moved_cent.identically_zero == cent.identically_zero, name

        # direct sums over axiom-passing two-dimensional pairs
        passing_two = [n for n in passing if n.startswith("BTas_2")]
        pair_count = 0
        for a_id in passing_two:
            for b_id in passing_two:
                a, b = catalog_get(a_id).algebra, catalog_get(b_id).algebra
                s = direct_sum(a, b)
                from bihomtrias.core import check_axioms

                assert check_axioms(s).all_hold, (a_id, b_id)
                assert (
                    derivation_space(s).dim
                    >= derivation_space(a).dim + derivation_space(b).dim
                ), (a_id, b_id)
                pair_count += 1

        # graph criterion is equivalent to the morphism property on 50
        # randomized maps per two-dimensional pair
        two_dim = [n for n in catalog_list() if n.startswith("BTas_2")]
        graph_checks = 0
        for a_id in two_dim:
            for b_id in two_dim:
                a, b = catalog_get(a_id).algebra, catalog_get(b_id).algebra
                for _ in range(50):
                    xi = Matrix(2, 2, [Scalar(rng.randint(-1, 1)) for _ in range(4)])
                    assert graph_subalgebra_check(xi, a, b) == is_morphism(xi, a, b)[0]
                    graph_checks += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, elapsed
        parts.append(f"total sum BiHom-associative on all {len(passing)} passing entries")
        parts.append("transport x20 preserves profile, der dim, centroid dims")
        parts.append(f"direct sums pass on {pair_count} pairs with superadditive der dim")
        parts.append(f"graph<->morphism agrees on {graph_checks} random maps")
        parts.append(f"runtime {elapsed:.1f}s")


def test_criterion_5_cent_der_interaction():
    parts = []
    with criterion(5, parts):
        rows, errata = interaction_report()
        assert len(rows) == 31

        # every verified centroid element composed with every derivation
        # basis element is again a derivation: zero failures anywhere
        assert not any(e.check == "cent-der:phi-compose-d" for e in errata)

        # the published equality C(A) = Cent(A) ∩ Der(A) holds as computed
        # sets only where recomputation confirms it; every deviation is
        # logged as an errata record (no unlogged failures)
        deviations = {r["entry"] for r in rows if not r["equals_intersection"]}
        logged = {e.entry for e in errata if e.check == "central-derivations-equality"}
        assert deviations == logged
        equalities = 31 - len(deviations)

        equiv_failures = [e for e in errata if e.check.startswith("cent-der:equivalence")]
        for e in equiv_failures:
            assert e.computed is not None  # each carries its record

        # zero hard failures: every deviation above is a logged record
        assert len(errata) == len(equiv_failures) + len(logged)
        parts.append("phi∘d is a derivation for every pair on all 31 entries")
        parts.append(f"C(A) = Cent∩Der holds on {equalities}/31 entries "
                     f"({len(deviations)} deviations errata'd)")
        parts.append(f"{len(equiv_failures)} composition-equivalence deviations errata'd")


def test_criterion_6_exact_linear_algebra():
    parts = []
    with criterion(6, parts):
        rng = seeded("acceptance-linalg")
        singular_seen = 0
        for _ in range(100):
            rows = random_rows(rng, 6, 6)
            m = Matrix.from_rows(rows)
            rk = rank(m)
            assert rk == naive_rank(rows)
            kernel = nullspace(m)
            assert rk + len(kernel) == 6
            for v in kernel:
                assert vec_is_zero(m.apply(v))
            if rk == 6:
                inv = inverse(m)
                assert m @ inv == Matrix.identity(6)
                assert inv @ m == Matrix.identity(6)
            else:
                singular_seen += 1
                with pytest.raises(SingularMatrix):
                    inverse(m)
        parts.append("rank/nullspace/inverse agree with the naive elimination "
                     f"oracle on 100 random 6x6 matrices ({singular_seen} singular)")
        parts.append("rank + nullity = cols throughout; all equalities exact")


def test_criterion_7_rota_baxter_example():
    parts = []
    with criterion(7, parts):
        results, errata = rota_baxter_example_report()
        by_weight = {r["weight"]: r for r in results}
        assert by_weight[0]["holds"]

        # weights 1 and -2 fail recomputation: the crossed identities force
        # w^2(x |- y) = w^2(x -| y) while the example has e2 -| e1 = e1 with
        # e2 |- e1 = 0.  The failures are logged as errata with the pair.
        for w in (1, -2):
            assert not by_weight[w]["holds"]
            erratum = next(e for e in errata if e.check == f"rota-baxter:weight={w}")
            assert erratum.witness["pair"] == [2, 1]
        assert len(errata) == 2
        parts.append("published operator verifies at weight 0")
        parts.append("weights 1 and -2 fail recomputation; errata carry the "
                     "failing pair (2, 1)")
