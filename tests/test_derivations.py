import hashlib
import json

import pytest

from bihomtrias.catalog import catalog_get, catalog_list, derivation_row
from bihomtrias.centroids import centroid_space, is_centroid_element
from bihomtrias.core import zero_algebra
from bihomtrias.derivations import (
    derivation_space,
    derivation_system,
    is_derivation,
    twisted_leibniz_rows,
)
from bihomtrias.errors import DimensionMismatch
from bihomtrias.matrices import Matrix, combination, in_span, nullspace, rank, rref
from bihomtrias.scalars import Scalar, format_scalar
from bihomtrias.transforms import transport

from oracles import derivation_system_indexform, random_dense_algebra, seeded


def unit(n, q, p):
    """Matrix unit with 1-based (row, col): maps e_p to e_q."""
    return Matrix.unit(n, q - 1, p - 1)


def test_zero_map_is_derivation_everywhere():
    for name in catalog_list():
        a = catalog_get(name).algebra
        assert is_derivation(a, Matrix.zeros(a.dim, a.dim))[0]


def test_first_three_dim_entry_derivations():
    """The published basis label d_21 (d(e1)=e2) fails both the beta
    commutation and the twisted Leibniz rule; its transpose d(e2)=e1 is
    the actual derivation, together with d(e3)=e3."""
    a = catalog_get("BTas_3^1").algebra
    ok, witnesses = is_derivation(a, unit(3, 2, 1))
    assert not ok and witnesses
    assert is_derivation(a, unit(3, 1, 2))[0]
    assert is_derivation(a, unit(3, 3, 3))[0]


def test_two_dim_entry_space_is_transposed_unit():
    space = derivation_space(catalog_get("BTas_2^1").algebra)
    assert space.dim == 1
    assert space.basis == (unit(2, 1, 2),)
    assert not is_derivation(catalog_get("BTas_2^1").algebra, unit(2, 2, 1))[0]


def test_published_dim_three_rows_recomputed():
    expected = {
        "BTas_3^1": 2,
        "BTas_3^2": 1,
        "BTas_3^14": 2,  # published value 3 fails recomputation
        "BTas_3^19": 2,
    }
    for name, dim in expected.items():
        assert derivation_space(catalog_get(name).algebra).dim == dim


def test_3_14_basis():
    space = derivation_space(catalog_get("BTas_3^14").algebra)
    assert space.basis == (unit(3, 1, 1), unit(3, 3, 2))


def test_zero_algebra_every_map_is_derivation():
    for n in (1, 2, 3):
        space = derivation_space(zero_algebra(n))
        assert space.dim == n * n


def test_basis_soundness_everywhere():
    for name in catalog_list():
        a = catalog_get(name).algebra
        for d in derivation_space(a).basis:
            assert is_derivation(a, d)[0], name


def test_linear_closure_of_derivations():
    rng = seeded("der-closure")
    for name in ("BTas_3^1", "BTas_3^14", "BTas_2^4"):
        a = catalog_get(name).algebra
        basis = derivation_space(a).basis
        if len(basis) < 2:
            continue
        for _ in range(10):
            x = Scalar(rng.randint(-3, 3), rng.randint(-1, 1))
            y = Scalar(rng.randint(-3, 3), rng.randint(-1, 1))
            combo = basis[0].scale(x) + basis[1].scale(y)
            assert is_derivation(a, combo)[0]


def test_completeness_random_candidates_lie_in_span():
    rng = seeded("der-complete")
    for name in catalog_list():
        a = catalog_get(name).algebra
        flats = derivation_space(a).flats()
        for _ in range(8):
            cand = Matrix(a.dim, a.dim, [Scalar(rng.randint(-1, 1)) for _ in range(a.dim * a.dim)])
            if is_derivation(a, cand)[0]:
                assert in_span(flats, list(cand.entries)), name


def in_kernel(algebra, m):
    """Membership of ``m`` in the kernel of the derivation system."""
    return in_span(derivation_space(algebra).flats(), list(m.entries))


def test_kernel_membership_decides_the_suite_compositions():
    """Every phi.d and d.phi that cent_der_property_suite forms over the
    catalog lies in the kernel exactly when is_derivation accepts it."""
    compositions = derivations = 0
    for name in catalog_list():
        a = catalog_get(name).algebra
        for phi in centroid_space(a).subspace_basis:
            if not is_centroid_element(a, phi)[0]:
                continue
            for d in derivation_space(a).basis:
                for m in (phi @ d, d @ phi):
                    ok = is_derivation(a, m)[0]
                    assert in_kernel(a, m) == ok, name
                    compositions += 1
                    derivations += ok
    assert compositions == 88 and derivations == 88


def test_kernel_membership_decides_maps_on_transports():
    """On a seeded transport of each entry: random maps with entries in
    [-1, 1], and a random combination of the transport's derivation basis."""
    maps = derivations = 0
    for name in catalog_list():
        rng = seeded(f"der-kernel:{name}")
        a = catalog_get(name).algebra
        n = a.dim

        def random_map():
            return Matrix(n, n, [Scalar(rng.randint(-1, 1)) for _ in range(n * n)])

        psi = random_map()
        while rank(psi) != n:
            psi = random_map()
        moved = transport(a, psi)
        candidates = [random_map() for _ in range(3)]
        flats = derivation_space(moved).flats()
        if flats:
            coeffs = [Scalar(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in flats]
            candidates.append(Matrix(n, n, combination(coeffs, flats)))
        for m in candidates:
            ok = is_derivation(moved, m)[0]
            assert in_kernel(moved, m) == ok, name
            maps += 1
            derivations += ok
    assert (maps, derivations) == (116, 23)


def test_index_form_system_has_same_kernel():
    for name in catalog_list():
        a = catalog_get(name).algebra
        abstract = nullspace(derivation_system(a))
        indexform = nullspace(derivation_system_indexform(a))
        assert abstract == indexform, name


def test_dimension_bounds_from_corollaries():
    for name in catalog_list():
        a = catalog_get(name).algebra
        d = derivation_space(a).dim
        if a.dim == 2:
            assert 0 <= d <= 2
        else:
            assert 0 <= d <= 3


def test_isomorphism_invariance_of_dimension():
    rng = seeded("der-invariance")
    for name in ("BTas_2^6", "BTas_3^4"):
        a = catalog_get(name).algebra
        d = derivation_space(a).dim
        for _ in range(5):
            while True:
                psi = Matrix(a.dim, a.dim,
                             [Scalar(rng.randint(-2, 2)) for _ in range(a.dim * a.dim)])
                if rank(psi) == a.dim:
                    break
            assert derivation_space(transport(a, psi)).dim == d


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        is_derivation(catalog_get("BTas_2^1").algebra, Matrix.zeros(3, 3))


def test_derivation_row_match_and_errata():
    entry = catalog_get("BTas_2^1")
    row = derivation_row(entry)
    assert row.status == "match"  # dimensions agree
    claim = row.claims[0]
    assert claim.label == "E21" and not claim.passes and claim.transpose_passes
    assert any(e.check == "derivation-basis:E21" for e in row.errata)
    erratum = next(e for e in row.errata if e.check == "derivation-basis:E21")
    assert erratum.computed["recomputed_basis"]  # ships the recomputed basis


def test_derivation_row_mismatch_ships_recomputed_basis():
    entry = catalog_get("BTas_3^14")
    row = derivation_row(entry)
    assert row.status == "mismatch"
    dim_erratum = next(e for e in row.errata if e.check == "derivation-dim")
    assert dim_erratum.computed["recomputed_dim"] == 2
    assert dim_erratum.computed["recomputed_basis"]


def test_derivation_row_paper_silent():
    entry = catalog_get("BTas_3^16")
    row = derivation_row(entry)
    assert row.status == "paper-silent"
    assert row.paper_dim is None


def test_canonical_basis_is_rref_of_kernel():
    a = catalog_get("BTas_3^1").algebra
    flats = [list(b.entries) for b in derivation_space(a).basis]
    reduced, rk, _ = rref(Matrix.from_rows(flats))
    assert rk == len(flats)


def test_table_report_over_catalog():
    rows = [derivation_row(e) for e in map(catalog_get, catalog_list())]
    assert len(rows) == 31
    by_id = {r.entry.id: r for r in rows}
    statuses = {r.status for r in rows}
    assert statuses == {"match", "mismatch", "paper-silent"}
    assert by_id["BTas_3^14"].status == "mismatch"
    assert sum(r.status == "match" for r in rows) == 18
    # report rows serialize cleanly
    d = by_id["BTas_2^1"].to_dict()
    assert d["computed_dim"] == 1 and d["basis"] == [[["0", "1"], ["0", "0"]]]


# sha256 of both Leibniz systems, row by row, over the algebras of
# _system_algebras; recorded from the assembly that summed the structure
# constants inline, before the rows were read from evaluator tables.
LEIBNIZ_ROWS_SHA256 = "2641655a9bd74a1a95a71fcd36fedf070f57d14656680b0468c5bda9b5742a53"


def _system_algebras():
    """Every catalog entry and candidate, then two seeded dense Q(i)
    algebras at each of dims 4, 5 and 6."""
    for entry_id in catalog_list():
        entry = catalog_get(entry_id)
        yield entry.algebra
        yield from (algebra for _, algebra in entry.candidates)
    rng = seeded("leibniz-rows")
    for dim in (4, 4, 5, 5, 6, 6):
        yield random_dense_algebra(rng, dim)


def test_leibniz_rows_are_pinned():
    digest = hashlib.sha256()
    for algebra in _system_algebras():
        for rows in (derivation_system(algebra).row_list(), twisted_leibniz_rows(algebra, False)):
            digest.update(json.dumps([[format_scalar(x) for x in row] for row in rows]).encode())
    assert digest.hexdigest() == LEIBNIZ_ROWS_SHA256
