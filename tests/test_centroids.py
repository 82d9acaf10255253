import pytest

from bihomtrias.catalog import catalog_get, catalog_list
from bihomtrias.centroids import (
    cent_der_property_suite,
    central_derivations,
    centralizer,
    centroid_linear_space,
    centroid_space,
    is_central_derivation,
    is_centroid_element,
)
from bihomtrias.core import (
    ROLES,
    BiHomTrialgebra,
    MulTensor,
    zero_algebra,
)
from bihomtrias.documents import parse_algebra
from bihomtrias.matrices import Matrix, in_span, rank, unit_vec, vec_is_zero, zero_vec
from bihomtrias.scalars import ONE, Scalar
from bihomtrias.transforms import transport

from oracles import seeded


def unit(n, q, p):
    return Matrix.unit(n, q - 1, p - 1)


# -- centralizers -------------------------------------------------------------

def test_centralizer_of_zero_generators():
    a = catalog_get("BTas_2^1").algebra
    space = centralizer(a, [zero_vec(2)])
    assert len(space) == 2  # whole space
    restricted = centralizer(a, [zero_vec(2)], restrict_to_h=True)
    assert restricted == ()  # span{0} = 0
    # no generators: no condition on the whole space, and span{} = 0
    assert centralizer(a, []) == (unit_vec(2, 0), unit_vec(2, 1))
    assert centralizer(a, [], restrict_to_h=True) == ()


def test_centralizer_zero_algebra_is_everything():
    a = zero_algebra(3)
    space = centralizer(a, [unit_vec(3, i) for i in range(3)])
    assert len(space) == 3


def test_centralizer_first_entry_against_direct_evaluation():
    a = catalog_get("BTas_2^1").algebra
    h = [unit_vec(2, 0), unit_vec(2, 1)]
    space = centralizer(a, h)
    ab = a.alpha @ a.beta
    for x in space:
        tw = ab.apply(x)
        for hv in h:
            for role in ROLES:
                assert vec_is_zero(a.tensor(role).bilinear(tw, hv))
                assert vec_is_zero(a.tensor(role).bilinear(hv, tw))
    # spot enumeration over a small grid finds nothing outside the span
    basis_rows = [list(v) for v in space]
    for c1 in (-1, 0, 1):
        for c2 in (-1, 0, 1):
            x = (Scalar(c1), Scalar(c2))
            tw = ab.apply(x)
            ok = all(
                vec_is_zero(a.tensor(role).bilinear(tw, hv))
                and vec_is_zero(a.tensor(role).bilinear(hv, tw))
                for role in ROLES
                for hv in h
            )
            assert ok == in_span(basis_rows, list(x))


def test_centralizer_restricted_reading():
    a = catalog_get("BTas_3^1").algebra
    h = [unit_vec(3, 2)]  # span{e3}
    space = centralizer(a, h, restrict_to_h=True)
    for v in space:
        assert in_span([list(x) for x in h], list(v))


# -- centroid elements ---------------------------------------------------------

def test_zero_map_is_centroid_element_everywhere():
    for name in catalog_list():
        a = catalog_get(name).algebra
        assert is_centroid_element(a, Matrix.zeros(a.dim, a.dim))[0]


def test_published_element_verifies_on_3_11():
    a = catalog_get("BTas_3^11").algebra
    assert is_centroid_element(a, unit(3, 2, 2))[0]


def test_published_element_fails_on_3_1_but_transpose_passes():
    a = catalog_get("BTas_3^1").algebra
    ok, witnesses = is_centroid_element(a, unit(3, 2, 1))
    assert not ok and witnesses
    assert is_centroid_element(a, unit(3, 1, 2))[0]
    assert is_centroid_element(a, unit(3, 3, 3))[0]


def test_literal_right_chain_variant_differs():
    # alpha = id, beta = 0, nonzero |- product: the ab(y) reading zeroes
    # the first chain member while the literal alpha psi(y) keeps it.
    a = BiHomTrialgebra(
        "variant",
        MulTensor.zero(2),
        MulTensor.from_entries(2, {(0, 0, 0): ONE}),
        MulTensor.zero(2),
        Matrix.identity(2),
        Matrix.zeros(2, 2),
    )
    psi = Matrix.identity(2)
    default_ok, default_wit = is_centroid_element(a, psi)
    literal_ok, literal_wit = is_centroid_element(a, psi, right_chain="literal")
    assert not default_ok and not literal_ok
    assert {w.check for w in default_wit} != {w.check for w in literal_wit}


# -- centroid spaces -------------------------------------------------------------

def test_zero_algebra_full_centroid():
    space = centroid_space(zero_algebra(3))
    assert space.identically_zero
    assert space.linear_dim == 9 and space.reported_dim == 9
    assert space.method == "full"


def test_3_11_two_stage_results():
    """Stage 1 is the full diagonal (dimension 3, not the published single
    unit); the obstruction c^2 = ab = bc = ca = 0 cuts it to two lines, so
    the reported dimension is 1, matching the published table."""
    space = centroid_space(catalog_get("BTas_3^11").algebra)
    assert space.linear_dim == 3
    assert not space.identically_zero
    assert space.obstruction_too_large
    assert space.reported_dim == 1
    assert space.method == "coordinate-search"
    diag = {unit(3, 1, 1), unit(3, 2, 2), unit(3, 3, 3)}
    assert set(space.linear_basis) == diag


def test_two_dim_reported_dims_recomputed():
    """The closing corollary says all two-dimensional centroids vanish;
    recomputation finds one-dimensional centroids for three entries."""
    expected = {
        "BTas_2^1": 1, "BTas_2^2": 1, "BTas_2^3": 0, "BTas_2^4": 0,
        "BTas_2^5": 0, "BTas_2^6": 1, "BTas_2^7": 0,
    }
    for name, dim in expected.items():
        assert centroid_space(catalog_get(name).algebra).reported_dim == dim, name


# A random dim-2 algebra (constants +-1/2, +-1) whose stage-1 space is the
# diagonal: the degree-1 obstruction parts kill the E11 coordinate, and the
# one residual direction E22 meets a nonzero quadratic part.
SINGLE_RESIDUAL = """{"name": "single-residual", "dim": 2,
  "left": [{"i": 2, "j": 2, "k": 1, "c": "-1/2"}, {"i": 2, "j": 2, "k": 2, "c": "1"}],
  "right": [{"i": 1, "j": 1, "k": 2, "c": "-1/2"}, {"i": 2, "j": 2, "k": 2, "c": "1/2"}],
  "middle": [{"i": 1, "j": 1, "k": 1, "c": "1/2"}, {"i": 1, "j": 1, "k": 2, "c": "1/2"}],
  "alpha": [["-1/2", "0"], ["0", "0"]], "beta": [["-1", "0"], ["0", "1/2"]]}"""


def test_single_residual_parameter_gives_only_the_zero_map():
    a = parse_algebra(SINGLE_RESIDUAL)
    space = centroid_space(a)
    assert set(space.linear_basis) == {unit(2, 1, 1), unit(2, 2, 2)}
    assert space.reported_dim == 0 and space.subspace_basis == ()
    assert space.method == "exact-conic"
    assert space.solution_description.startswith("single residual parameter")
    for t in (ONE, -ONE, Scalar(2)):
        assert not is_centroid_element(a, unit(2, 2, 2).scale(t))[0]
    # the vanishing set is not a subspace: one point off the residual
    # direction passes, its double does not
    assert is_centroid_element(a, unit(2, 1, 1).scale(Scalar(1) / Scalar(2)))[0]
    assert not is_centroid_element(a, unit(2, 1, 1))[0]


def test_3_1_centroid_exceeds_published_dim():
    space = centroid_space(catalog_get("BTas_3^1").algebra)
    assert space.reported_dim == 2
    assert set(space.subspace_basis) == {unit(3, 1, 2), unit(3, 3, 3)}


def test_subspace_soundness_everywhere():
    for name in catalog_list():
        a = catalog_get(name).algebra
        space = centroid_space(a)
        for psi in space.subspace_basis:
            assert is_centroid_element(a, psi)[0], name


def test_stage1_contains_every_verified_element():
    rng = seeded("cent-stage1")
    for name in catalog_list():
        a = catalog_get(name).algebra
        flats = centroid_space(a).linear_flats()
        for _ in range(8):
            cand = Matrix(a.dim, a.dim, [Scalar(rng.randint(-1, 1)) for _ in range(a.dim * a.dim)])
            if is_centroid_element(a, cand)[0]:
                assert in_span(flats, list(cand.entries)), name


def test_scaling_closure_on_verified_elements():
    for name in ("BTas_2^1", "BTas_3^11", "BTas_3^19"):
        a = catalog_get(name).algebra
        for psi in centroid_space(a).subspace_basis:
            for t in (Scalar(0), Scalar(1), Scalar(-1), Scalar(2)):
                assert is_centroid_element(a, psi.scale(t))[0]


def test_obstruction_serialization_shape():
    space = centroid_space(catalog_get("BTas_3^11").algebra)
    assert space.obstruction
    ser = space.obstruction[0].serialize()
    assert set(ser) == {"quad", "lin"}


@pytest.mark.parametrize("name", catalog_list())
def test_linear_stage_maps_satisfy_outer_equality_pointwise(name):
    """Soundness of stage 1, evaluated on basis pairs with the bilinear
    evaluator: every basis map commutes with both twists and satisfies
    psi(e_i) * ab(e_j) = ab(e_i) * psi(e_j) in each product."""
    a = catalog_get(name).algebra
    n = a.dim
    ab = a.alpha @ a.beta
    for psi in centroid_linear_space(a):
        assert psi @ a.alpha == a.alpha @ psi
        assert psi @ a.beta == a.beta @ psi
        for role in ROLES:
            t = a.tensor(role)
            for i in range(n):
                for j in range(n):
                    lhs = t.bilinear(psi.col(i), ab.col(j))
                    rhs = t.bilinear(ab.col(i), psi.col(j))
                    assert lhs == rhs, (role, i + 1, j + 1)


def test_stage1_linear_space_function_matches_space():
    a = catalog_get("BTas_3^3").algebra
    assert centroid_linear_space(a) == centroid_space(a).linear_basis


def test_transport_invariance_of_centroid_dims():
    rng = seeded("cent-invariance")
    for name in ("BTas_2^2", "BTas_3^11"):
        a = catalog_get(name).algebra
        space = centroid_space(a)
        for _ in range(4):
            while True:
                psi = Matrix(a.dim, a.dim,
                             [Scalar(rng.randint(-2, 2)) for _ in range(a.dim * a.dim)])
                if rank(psi) == a.dim:
                    break
            moved = centroid_space(transport(a, psi))
            assert moved.linear_dim == space.linear_dim
            assert moved.identically_zero == space.identically_zero


# -- central derivations -----------------------------------------------------------

def test_zero_algebra_all_maps_central():
    cd = central_derivations(zero_algebra(2))
    assert len(cd.basis) == 4


def test_zero_map_always_central():
    for name in ("BTas_2^1", "BTas_3^14"):
        a = catalog_get(name).algebra
        assert is_central_derivation(a, Matrix.zeros(a.dim, a.dim))


@pytest.mark.parametrize("name", catalog_list())
def test_central_check_agrees_with_central_space(name):
    """is_central_derivation decides membership in span(central_derivations)."""
    a = catalog_get(name).algebra
    n = a.dim
    basis = central_derivations(a).basis
    flats = [list(b.entries) for b in basis]
    rng = seeded(f"central-membership:{name}")

    def coin():
        return Scalar(rng.choice((-1, 0, 1)))

    candidates = list(basis)
    candidates += [Matrix(n, n, [coin() for _ in range(n * n)]) for _ in range(6)]
    for _ in range(3):
        combo = Matrix.zeros(n, n)
        for b in basis:
            combo = combo + b.scale(coin())
        candidates.append(combo)
    for psi in candidates:
        assert is_central_derivation(a, psi) == in_span(flats, list(psi.entries))


def test_first_entry_central_derivations():
    a = catalog_get("BTas_2^1").algebra
    cd = central_derivations(a)
    # A*A = span{e1} and Z(A) is the whole space, so C(A) = {psi(e1) = 0}
    assert len(cd.basis) == 2
    for psi in cd.basis:
        assert vec_is_zero(psi.apply(unit_vec(2, 0)))
    # Cent intersect Der is a strict subspace: the published equality
    # fails under the literal central-derivation definition.
    assert len(cd.cent_inter_der) == 1
    assert cd.contains_intersection and not cd.equals_intersection


def test_intersection_elements_verified():
    for name in ("BTas_2^1", "BTas_3^1", "BTas_3^14"):
        a = catalog_get(name).algebra
        cd = central_derivations(a)
        for psi in cd.cent_inter_der:
            assert is_centroid_element(a, psi)[0]
            from bihomtrias.derivations import is_derivation

            assert is_derivation(a, psi)[0]


def test_forward_inclusion_fails_on_3_14():
    """E11 is both a derivation and a centroid element of this entry but
    its image is not in the twisted centralizer: the published equality
    fails in both directions at desk scale."""
    a = catalog_get("BTas_3^14").algebra
    cd = central_derivations(a)
    assert not cd.contains_intersection
    e11 = unit(3, 1, 1)
    assert is_centroid_element(a, e11)[0]
    from bihomtrias.derivations import is_derivation

    assert is_derivation(a, e11)[0]
    assert not is_central_derivation(a, e11)


def test_inclusion_verdicts_match_membership_definition():
    """contains_intersection and equals_intersection, decided by rank,
    agree with vector-by-vector span membership on every entry and two
    seeded transports of each."""
    rng = seeded("central-inclusions")
    seen = set()
    for name in catalog_list():
        a = catalog_get(name).algebra
        algebras = [a]
        while len(algebras) < 3:
            psi = Matrix(a.dim, a.dim, [Scalar(rng.randint(-2, 2)) for _ in range(a.dim * a.dim)])
            if rank(psi) == a.dim:
                algebras.append(transport(a, psi))
        for algebra in algebras:
            cd = central_derivations(algebra)
            central = [list(b.entries) for b in cd.basis]
            inter = [list(b.entries) for b in cd.cent_inter_der]
            contains = all(in_span(central, v) for v in inter)
            equals = contains and all(in_span(inter, v) for v in central)
            assert (cd.contains_intersection, cd.equals_intersection) == (contains, equals), name
            seen.add((contains, equals))
    assert seen == {(True, True), (True, False), (False, False)}


# -- interaction suite ----------------------------------------------------------

def test_suite_composition_clause_holds_everywhere():
    for name in catalog_list():
        a = catalog_get(name).algebra
        report = cent_der_property_suite(a, name)
        assert not any(f.check == "cent-der:phi-compose-d" for f in report.failures), name


def test_suite_on_3_1_compositions():
    a = catalog_get("BTas_3^1").algebra
    report = cent_der_property_suite(a, "BTas_3^1")
    assert report.records
    assert all(r["phi_d_is_derivation"] for r in report.records)


def test_suite_failures_are_recorded_not_raised():
    a = catalog_get("BTas_3^14").algebra
    report = cent_der_property_suite(a, "BTas_3^14")
    assert any(f.check == "cent-der:equivalence-i" for f in report.failures)
    assert not report.clean
