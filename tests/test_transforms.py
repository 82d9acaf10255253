import pytest

from bihomtrias.catalog import catalog_get, catalog_list, rota_baxter_example
from bihomtrias.centroids import centroid_space
from bihomtrias.core import (
    ROLES,
    BiHomTrialgebra,
    MulTensor,
    check_axioms,
    full_report,
    zero_algebra,
)
from bihomtrias.centroids import is_centroid_element
from bihomtrias.derivations import derivation_space, is_derivation
from bihomtrias.errors import PreconditionFailed, SingularMatrix
from bihomtrias.matrices import Matrix, rank, vec_is_zero
from bihomtrias.scalars import ONE, ZERO, Scalar
from bihomtrias.transforms import (
    BiHomAlgebra,
    averaging_check,
    averaging_induced,
    bihom_associativity_witnesses,
    commutator_construct,
    conjugate_automorphism_check,
    direct_sum,
    graph_subalgebra_check,
    is_morphism,
    rb_induced,
    rota_baxter_check,
    rota_baxter_check_single,
    sum_middle_right,
    swap_maps,
    total_sum,
    transport,
    untwist,
)

from oracles import seeded

A21 = catalog_get("BTas_2^1").algebra
A22 = catalog_get("BTas_2^2").algebra
SWAP2 = Matrix.from_rows([[ZERO, ONE], [ONE, ZERO]])


def rand_map(rng, n, lo=-1, hi=1):
    return Matrix(n, n, [Scalar(rng.randint(lo, hi)) for _ in range(n * n)])


def rand_invertible(rng, n):
    while True:
        m = rand_map(rng, n, -2, 2)
        if rank(m) == n:
            return m


# -- morphisms and transport -------------------------------------------------

def test_identity_map_is_morphism_everywhere():
    for name in catalog_list():
        a = catalog_get(name).algebra
        assert is_morphism(Matrix.identity(a.dim), a, a)[0]


def test_zero_map_is_morphism():
    assert is_morphism(Matrix.zeros(2, 2), A21, A22)[0]


def test_transport_by_identity_is_identity():
    t = transport(A21, Matrix.identity(2))
    assert t.left == A21.left and t.right == A21.right and t.middle == A21.middle
    assert t.alpha == A21.alpha and t.beta == A21.beta


def test_transport_basis_swap_preserves_axioms_and_der_dim():
    t = transport(A21, SWAP2)
    assert check_axioms(t).all_hold
    assert derivation_space(t).dim == derivation_space(A21).dim
    assert is_morphism(SWAP2, A21, t)[0]


def test_transport_has_same_structure_constants_in_new_basis():
    rng = seeded("transport-constants")
    for name in ("BTas_2^1", "BTas_3^1", "BTas_3^14"):
        a = catalog_get(name).algebra
        psi = rand_invertible(rng, a.dim)
        t = transport(a, psi)
        for role in ROLES:
            for i in range(a.dim):
                for j in range(a.dim):
                    lhs = t.tensor(role).bilinear(
                        psi.col(i), psi.col(j)
                    )
                    rhs = psi.apply(a.tensor(role).pair(i, j))
                    assert lhs == rhs


def test_transport_requires_invertible():
    with pytest.raises(SingularMatrix):
        transport(A21, Matrix.zeros(2, 2))


def _automorphisms_small(algebra):
    """All invertible maps with entries in {-1, 0, 1} that are automorphisms."""
    from itertools import product

    n = algebra.dim
    found = []
    for entries in product((-1, 0, 1), repeat=n * n):
        m = Matrix(n, n, [Scalar(x) for x in entries])
        if rank(m) < n:
            continue
        phi = m
        if is_morphism(phi, algebra, algebra)[0]:
            found.append(phi)
    return found


def test_conjugated_automorphisms():
    autos = _automorphisms_small(A21)
    assert Matrix.identity(2) in autos
    rng = seeded("conjugation")
    psi = rand_invertible(rng, 2)
    for phi in autos:
        assert conjugate_automorphism_check(A21, psi, phi)
    # psi = identity reduces to phi being an automorphism of the input
    assert conjugate_automorphism_check(A21, Matrix.identity(2), autos[0])
    with pytest.raises(PreconditionFailed):
        conjugate_automorphism_check(A21, psi, Matrix.zeros(2, 2))


# -- untwist ------------------------------------------------------------------

def test_untwist_identity_twists_is_identity():
    withid = BiHomTrialgebra(
        "t", A21.left, A21.right, A21.middle,
        Matrix.identity(2), Matrix.identity(2),
    )
    candidate, _ = untwist(withid)
    assert candidate.left == A21.left
    assert candidate.right == A21.right
    assert candidate.middle == A21.middle


def test_untwist_singular_twists_rejected():
    with pytest.raises(SingularMatrix):
        untwist(catalog_get("BTas_3^3").algebra)  # alpha(e2)=e2 only: singular
    with pytest.raises(SingularMatrix):
        untwist(A21)


def test_untwist_invertible_case_reports():
    a = catalog_get("BTas_2^5").algebra  # alpha = id, beta invertible
    candidate, report = untwist(a)
    assert candidate.alpha == Matrix.identity(2)
    assert candidate.beta == Matrix.identity(2)
    # recomputed observation, frozen: the untwisted candidate passes
    assert report.all_hold


# -- direct sums and graphs ----------------------------------------------------

def test_direct_sum_with_zero_algebra_extends_by_zeros():
    s = direct_sum(A21, zero_algebra(1))
    assert s.dim == 3
    for role in ROLES:
        for i in range(2):
            for j in range(2):
                assert s.tensor(role).pair(i, j)[:2] == A21.tensor(role).pair(i, j)
                assert s.tensor(role).pair(i, j)[2] == ZERO
        assert vec_is_zero(s.tensor(role).pair(2, 2))


def test_direct_sum_passes_axioms_and_der_superadditive():
    s = direct_sum(A21, A22)
    assert s.dim == 4
    assert check_axioms(s).all_hold
    assert (
        derivation_space(s).dim
        >= derivation_space(A21).dim + derivation_space(A22).dim
    )


def test_graph_check_trivial_cases():
    assert graph_subalgebra_check(Matrix.zeros(2, 2), A21, A22) is True
    assert is_morphism(Matrix.zeros(2, 2), A21, A22)[0]
    ident = Matrix.identity(2)
    assert graph_subalgebra_check(ident, A21, A21) == is_morphism(ident, A21, A21)[0]


def test_graph_check_equals_morphism_on_random_maps():
    rng = seeded("graph-equivalence")
    two_dim = [i for i in catalog_list() if i.startswith("BTas_2")]
    for a_id in two_dim:
        for b_id in two_dim:
            a, b = catalog_get(a_id).algebra, catalog_get(b_id).algebra
            for _ in range(6):
                xi = rand_map(rng, 2)
                assert graph_subalgebra_check(xi, a, b) == is_morphism(xi, a, b)[0]


# -- Rota-Baxter ---------------------------------------------------------------

def test_rb_example_weights():
    """The published diagonal operator verifies only at weight 0: the
    crossed identities force w^2 (x |- y) = w^2 (x -| y), and the example
    algebra has e2 -| e1 = e1 with e2 |- e1 = 0."""
    ex = rota_baxter_example()
    assert full_report(ex).all_hold
    for w, expected in ((0, True), (1, False), (-2, False)):
        lam = Scalar(w)
        op = Matrix.identity(2).scale(-lam)
        ok, witnesses = rota_baxter_check(ex, op, lam)
        assert ok is expected
        if not expected:
            assert (witnesses[0].i, witnesses[0].j) == (2, 1)


def test_rb_zero_operator_weight_zero_holds_everywhere():
    for name in catalog_list():
        a = catalog_get(name).algebra
        ok, _ = rota_baxter_check(a, Matrix.zeros(a.dim, a.dim), Scalar(0))
        assert ok


def test_rb_identity_weight_minus_two():
    # R = id, w = -2 collapses every inside sum to zero, so the check
    # holds exactly when all products vanish.
    ok, _ = rota_baxter_check(zero_algebra(2), Matrix.identity(2), Scalar(-2))
    assert ok
    ok, _ = rota_baxter_check(A21, Matrix.identity(2), Scalar(-2))
    assert not ok


def _star_algebra(tensor_role_source, alpha, beta, name="star"):
    return BiHomAlgebra(name, tensor_role_source, alpha, beta)


def test_rb_induced_zero_product():
    b = _star_algebra(MulTensor.zero(2), Matrix.zeros(2, 2), Matrix.zeros(2, 2))
    result = rb_induced(b, Matrix.identity(2), Scalar(1))
    assert result.precondition_holds
    assert result.report.all_hold
    for role in ROLES:
        assert all(
            vec_is_zero(result.algebra.tensor(role).pair(i, j))
            for i in range(2)
            for j in range(2)
        )


def test_rb_induced_from_example_left_product():
    ex = rota_baxter_example()
    base = BiHomAlgebra("ex-left", ex.left, ex.alpha, ex.beta)
    lam = Scalar(1)
    op = Matrix.identity(2).scale(-lam)
    ok, _ = rota_baxter_check_single(base, op, lam)
    assert ok  # the single-product identity has no left/right crossing
    result = rb_induced(base, op, lam)
    assert result.precondition_holds
    # recomputed observation, frozen: the induced candidate passes
    assert result.report.all_hold
    # x -| y = x * R(y) = -(x * y); x _|_ y = w(x*y) = x * y here
    assert result.algebra.left.pair(0, 1) == tuple(-x for x in base.mu.pair(0, 1))
    assert result.algebra.middle.pair(0, 1) == base.mu.pair(0, 1)


def test_rb_induced_weight_zero_kills_middle():
    ex = rota_baxter_example()
    base = BiHomAlgebra("ex-left", ex.left, ex.alpha, ex.beta)
    result = rb_induced(base, Matrix.zeros(2, 2), Scalar(0))
    assert all(
        vec_is_zero(result.algebra.middle.pair(i, j)) for i in range(2) for j in range(2)
    )


# -- swap, product sums, commutator ---------------------------------------------

def test_swap_identity_twists():
    a = BiHomTrialgebra(
        "id-twists", A21.left, A21.right, A21.middle,
        Matrix.identity(2), Matrix.identity(2),
    )
    result = swap_maps(a)
    assert result.algebra.alpha == a.alpha and result.algebra.beta == a.beta
    assert all(result.hypotheses.values())
    assert result.iso_tested and result.iso_holds


def test_swap_hypotheses_fail_on_nilpotent_twists():
    result = swap_maps(A21)
    assert not any(result.hypotheses.values())
    assert not result.iso_tested and result.iso_holds is None
    assert result.algebra.alpha == A21.beta and result.algebra.beta == A21.alpha


def test_swap_involution_case():
    a = BiHomTrialgebra(
        "invol",
        MulTensor.zero(2), MulTensor.zero(2), MulTensor.zero(2),
        SWAP2, SWAP2,
    )
    result = swap_maps(a)
    assert all(result.hypotheses.values())
    assert result.iso_tested and result.iso_holds


def test_sum_middle_right_zero_products():
    candidate, report = sum_middle_right(zero_algebra(2))
    assert report.all_hold
    assert candidate.dim == 2


def test_sum_middle_right_positional_reading():
    candidate, report = sum_middle_right(A21)
    # new left = old left, new right = old middle, new middle = |- + _|_
    assert candidate.left == A21.left
    assert candidate.right.c == A21.middle.c
    expected = A21.right.pair(1, 1)[0] + A21.middle.pair(1, 1)[0]
    assert candidate.middle.pair(1, 1)[0] == expected
    # recomputed observation, frozen: the candidate passes on this entry
    assert report.all_hold


def test_sum_middle_right_right_and_middle_zero():
    a = BiHomTrialgebra(
        "left-only", A21.left, MulTensor.zero(2), MulTensor.zero(2),
        A21.alpha, A21.beta,
    )
    candidate, _ = sum_middle_right(a)
    assert all(
        vec_is_zero(candidate.middle.pair(i, j)) for i in range(2) for j in range(2)
    )


def test_commutator_antisymmetrizes():
    report = commutator_construct(A21)
    star, bracket = report.star, report.bracket
    for i in range(2):
        for j in range(2):
            assert star.pair(i, j) == tuple(
                a - b for a, b in zip(A21.left.pair(i, j), A21.right.pair(j, i))
            )
            assert bracket.pair(i, j) == tuple(
                a - b for a, b in zip(A21.middle.pair(i, j), A21.middle.pair(j, i))
            )
    # symmetric middle product means the bracket vanishes
    assert all(vec_is_zero(bracket.pair(i, j)) for i in range(2) for j in range(2))
    # recomputed observation, frozen: both displayed variants hold here
    assert report.beta_witnesses == ()
    assert report.alphabeta_witnesses == ()


def test_commutator_zero_on_zero_algebra():
    report = commutator_construct(zero_algebra(2))
    assert report.beta_witnesses == () and report.alphabeta_witnesses == ()


def test_commutator_variants_reported_separately():
    report = commutator_construct(catalog_get("BTas_3^14").algebra)
    assert isinstance(report.beta_witnesses, tuple)
    assert isinstance(report.alphabeta_witnesses, tuple)


# -- total sum and averaging -----------------------------------------------------

def test_total_sum_zero_algebra():
    candidate, witnesses = total_sum(zero_algebra(2))
    assert witnesses == ()
    assert bihom_associativity_witnesses(candidate) == ()


def test_total_sum_on_entries():
    for name in ("BTas_2^1", "BTas_3^7"):
        candidate, witnesses = total_sum(catalog_get(name).algebra)
        assert witnesses == (), name
        # product really is the sum of the three
        a = catalog_get(name).algebra
        for i in range(a.dim):
            for j in range(a.dim):
                expected = tuple(
                    x + y + z
                    for x, y, z in zip(
                        a.left.pair(i, j), a.right.pair(i, j), a.middle.pair(i, j)
                    )
                )
                assert candidate.mu.pair(i, j) == expected


def test_averaging_identity_and_zero_operator():
    for name in ("BTas_2^1", "BTas_3^1"):
        a = catalog_get(name).algebra
        assert averaging_check(a, Matrix.identity(a.dim))[0]
        assert averaging_check(a, Matrix.zeros(a.dim, a.dim))[0]


def test_averaging_scalar_maps():
    """For xi = c id every chain member equals c^2 (x*y): scalar maps are
    averaging operators for every c (the c^2 = c reading does not hold up
    under direct expansion)."""
    a = catalog_get("BTas_2^2").algebra  # multiplicative entry
    for c in (Scalar(0), Scalar(1), Scalar(2), Scalar(0, 1)):
        xi = Matrix.identity(2).scale(c)
        ok, _ = averaging_check(a, xi)
        assert ok


def test_averaging_detects_noncommuting_operator():
    ok, witnesses = averaging_check(A21, Matrix.unit(2, 1, 1))
    # xi(e2)=e2 does not commute with alpha(e2)=e1
    assert not ok and witnesses


def test_averaging_induced_identity_operators():
    # associative product: x.y from the total sum of a catalog entry
    mu = A21.left
    b = BiHomAlgebra("b", mu, Matrix.identity(2), Matrix.identity(2))
    candidate, report = averaging_induced(b)
    assert candidate.left.c == mu.c and candidate.right.c == mu.c and candidate.middle.c == mu.c
    del report


def test_averaging_induced_zero_operators():
    mu = A21.left
    b = BiHomAlgebra("b", mu, Matrix.zeros(2, 2), Matrix.zeros(2, 2))
    candidate, report = averaging_induced(b)
    assert all(
        vec_is_zero(candidate.tensor(role).pair(i, j))
        for role in ROLES for i in range(2) for j in range(2)
    )
    assert report.all_hold


def test_averaging_induced_precondition_failure():
    # xi(e1)=e2 on the left product of the example is not averaging
    mu = A21.left
    b = BiHomAlgebra("b", mu, Matrix.unit(2, 1, 0), Matrix.zeros(2, 2))
    with pytest.raises(PreconditionFailed) as err:
        averaging_induced(b)
    assert "alpha" in str(err.value)


def test_averaging_induced_idempotent_random_sweep():
    rng = seeded("averaging")
    diag_pool = [Scalar(0), Scalar(1)]
    count = 0
    for _ in range(20):
        entries = {}
        for _ in range(rng.randint(1, 3)):
            entries[(rng.randrange(2), rng.randrange(2), rng.randrange(2))] = Scalar(1)
        mu = MulTensor.from_entries(2, entries)
        f = Matrix.from_rows(
            [[diag_pool[rng.randint(0, 1)], ZERO], [ZERO, diag_pool[rng.randint(0, 1)]]]
        )
        b = BiHomAlgebra("r", mu, f, f)
        try:
            candidate, report = averaging_induced(b)
        except PreconditionFailed:
            continue
        count += 1
        assert isinstance(report.all_hold, bool)
    assert count > 0


# -- invariance property (module-level sample; the full sweep is acceptance) ----

def test_transport_preserves_invariants_sample():
    rng = seeded("transport-invariants")
    for name in ("BTas_2^1", "BTas_3^2", "BTas_3^16"):
        a = catalog_get(name).algebra
        profile = full_report(a).profile()
        der_dim = derivation_space(a).dim
        cent = centroid_space(a)
        for _ in range(5):
            psi = rand_invertible(rng, a.dim)
            t = transport(a, psi)
            assert full_report(t).profile() == profile
            assert derivation_space(t).dim == der_dim
            moved = centroid_space(t)
            assert moved.linear_dim == cent.linear_dim
            assert moved.identically_zero == cent.identically_zero


# -- the shared twist-commutation check -------------------------------------

_ENDOMORPHISM_CHECKERS = {
    "is_derivation": lambda a, u: is_derivation(a, u),
    "is_centroid_element": lambda a, u: is_centroid_element(a, u),
    "rota_baxter_check": lambda a, u: rota_baxter_check(a, u, ZERO),
    "rota_baxter_check_single": lambda a, u: rota_baxter_check_single(
        BiHomAlgebra("single", a.left, a.alpha, a.beta), u, ZERO
    ),
    "averaging_check": lambda a, u: averaging_check(a, u),
}


@pytest.mark.parametrize("checker", sorted(_ENDOMORPHISM_CHECKERS))
def test_noncommuting_map_gets_commute_alpha_witness(checker):
    a = catalog_get("BTas_2^1").algebra
    u = Matrix.unit(2, 0, 0)  # E11: u(alpha(e2)) = e1, alpha(u(e2)) = 0
    ok, witnesses = _ENDOMORPHISM_CHECKERS[checker](a, u)
    assert not ok
    lhs, rhs = u @ a.alpha, a.alpha @ u
    expected = [
        ("commute-alpha", i + 1, None, lhs.col(i), rhs.col(i))
        for i in range(2)
        if lhs.col(i) != rhs.col(i)
    ]
    assert expected == [("commute-alpha", 2, None, (ONE, ZERO), (ZERO, ZERO))]
    assert [
        (w.check, w.i, w.j, w.lhs, w.rhs) for w in witnesses if w.check == "commute-alpha"
    ] == expected


def test_morphism_twist_witnesses_compare_against_target():
    a = catalog_get("BTas_2^1").algebra
    b = transport(a, Matrix.from_rows([[ZERO, ONE], [ONE, ZERO]]))
    report = is_morphism(Matrix.identity(2), a, b)
    twist = [w for w in report[1] if w.check.startswith("commute-")]
    assert {w.check.removeprefix("commute-") for w in twist} == {"alpha", "beta"}
    for w in twist:
        name = w.check.removeprefix("commute-")
        assert w.j is None
        assert w.lhs == getattr(a, name).col(w.i - 1)
        assert w.rhs == getattr(b, name).col(w.i - 1)
