import dataclasses
from fractions import Fraction

import pytest

from bihomtrias.catalog import catalog_get, catalog_list
from bihomtrias.coordinate import coordinate_detail
from bihomtrias.core import (
    ALL_CHECK_IDS,
    AXIOM_IDS,
    LEFT,
    MIDDLE,
    MULT_IDS,
    RIGHT,
    BiHomTrialgebra,
    LinearMap,
    MulTensor,
    check_axioms,
    check_multiplicativity,
    full_report,
    zero_algebra,
)
from bihomtrias.errors import DimensionMismatch
from bihomtrias.matrices import Matrix, unit_vec, vec_add, vec_scale, zero_vec
from bihomtrias.scalars import ONE, Scalar
from bihomtrias.transforms import BiHomAlgebra

from oracles import random_scalar, random_sparse_scalar, seeded


A21 = catalog_get("BTas_2^1").algebra


def e(n, i):
    return unit_vec(n, i - 1)


def test_evaluate_published_products():
    assert A21.tensor(LEFT).bilinear(e(2, 1), e(2, 2)) == e(2, 1)
    assert A21.tensor(MIDDLE).bilinear(e(2, 2), e(2, 2)) == e(2, 1)
    assert A21.tensor(RIGHT).bilinear(e(2, 2), e(2, 2)) == zero_vec(2)


def test_evaluate_zero_and_dimension():
    assert A21.tensor(LEFT).bilinear(zero_vec(2), e(2, 2)) == zero_vec(2)
    with pytest.raises(DimensionMismatch):
        A21.tensor(LEFT).bilinear(zero_vec(3), e(2, 2))


def test_evaluate_exactly_bilinear():
    rng = seeded("bilinear")
    for _ in range(50):
        a, b = random_scalar(rng), random_scalar(rng)
        x = tuple(random_scalar(rng) for _ in range(2))
        xp = tuple(random_scalar(rng) for _ in range(2))
        y = tuple(random_scalar(rng) for _ in range(2))
        combo = vec_add(vec_scale(a, x), vec_scale(b, xp))
        for role in (LEFT, RIGHT, MIDDLE):
            lhs = A21.tensor(role).bilinear(combo, y)
            rhs = vec_add(
                vec_scale(a, A21.tensor(role).bilinear(x, y)),
                vec_scale(b, A21.tensor(role).bilinear(xp, y)),
            )
            assert lhs == rhs


def test_axioms_hold_on_first_entry():
    report = check_axioms(A21)
    assert report.all_hold
    assert tuple(r.axiom_id for r in report.results) == AXIOM_IDS


def test_axioms_hold_on_zero_algebra():
    assert full_report(zero_algebra(3)).all_hold


def _perturbed_a21():
    # change the single middle product e2 _|_ e2 from e1 to e2
    middle = MulTensor.from_entries(2, {(1, 1, 1): ONE})
    return BiHomTrialgebra(
        "perturbed", A21.left, A21.right, middle, A21.alpha, A21.beta
    )


def test_perturbation_detected_with_witness():
    report = check_axioms(_perturbed_a21())
    assert not report.all_hold
    witnesses = [w for r in report.results for w in r.witnesses]
    assert witnesses
    for w in witnesses:
        assert w.lhs != w.rhs


def test_multiplicativity_of_first_entry():
    report = check_multiplicativity(A21)
    assert report.all_hold
    assert tuple(r.axiom_id for r in report.results) == MULT_IDS


def test_identity_twists_always_multiplicative():
    rng = seeded("mult-id")
    for _ in range(10):
        tensors = {
            role: MulTensor.from_entries(
                2,
                {(i, j, k): random_sparse_scalar(rng) for i in range(2) for j in range(2) for k in range(2)},
            )
            for role in (LEFT, RIGHT, MIDDLE)
        }
        alg = BiHomTrialgebra(
            "rand", tensors[LEFT], tensors[RIGHT], tensors[MIDDLE],
            Matrix.identity(2), Matrix.identity(2),
        )
        assert check_multiplicativity(alg).all_hold


def test_non_endomorphism_witnessed_at_2_2():
    broken = BiHomTrialgebra(
        "broken", A21.left, A21.right, A21.middle,
        Matrix.unit(2, 1, 1),  # alpha(e2) = e2
        A21.beta,
    )
    report = check_multiplicativity(broken)
    assert not report.all_hold
    keys = {(w.i, w.j, w.k) for r in report.results for w in r.witnesses if not r.holds}
    assert (2, 2, None) in keys


def test_witness_set_deterministic():
    r1 = check_axioms(_perturbed_a21())
    r2 = check_axioms(_perturbed_a21())
    for a, b in zip(r1.results, r2.results):
        assert a.witnesses == b.witnesses


def _random_algebra(rng, dim=2):
    tensors = {}
    for role in (LEFT, RIGHT, MIDDLE):
        entries = {}
        for _ in range(rng.randint(0, 4)):
            entries[(rng.randrange(dim), rng.randrange(dim), rng.randrange(dim))] = (
                random_sparse_scalar(rng)
            )
        tensors[role] = MulTensor.from_entries(dim, entries)
    def rmap():
        return Matrix(dim, dim, [random_sparse_scalar(rng) for _ in range(dim * dim)])
    return BiHomTrialgebra(
        "rand", tensors[LEFT], tensors[RIGHT], tensors[MIDDLE], rmap(), rmap()
    )


def test_coordinate_oracle_equivalence_on_catalog():
    for name in catalog_list():
        algebra = catalog_get(name).algebra
        report = full_report(algebra)
        detail = coordinate_detail(algebra)
        for res in report.results:
            assert detail[res.axiom_id] == res.holds, (name, res.axiom_id)
        assert all(coordinate_detail(algebra).values()) == report.all_hold


def test_coordinate_oracle_equivalence_on_200_random_tensors():
    rng = seeded("coordinate-equivalence")
    for _ in range(200):
        algebra = _random_algebra(rng)
        report = full_report(algebra)
        detail = coordinate_detail(algebra)
        for res in report.results:
            assert detail[res.axiom_id] == res.holds
        assert all(coordinate_detail(algebra).values()) == report.all_hold


def test_full_report_covers_all_check_ids():
    assert tuple(r.axiom_id for r in full_report(A21).results) == ALL_CHECK_IDS


def test_zero_completion_of_catalog_entries():
    # only the listed products are nonzero
    assert len(A21.left.nonzero_entries()) == 3
    assert len(A21.right.nonzero_entries()) == 2
    assert len(A21.middle.nonzero_entries()) == 1
    assert A21.alpha.col(0) == zero_vec(2)
    assert A21.alpha.col(1) == e(2, 1)


def _twin_algebras():
    """Two BiHomTrialgebras with different names, built separately from
    equal components: equality and the hash ignore the name."""
    def build(name):
        left, right, middle = (MulTensor([[list(r) for r in p] for p in t.c])
                               for t in A21.tensors())
        alpha, beta = (Matrix.from_rows(f.row_list()) for f in (A21.alpha, A21.beta))
        return BiHomTrialgebra(name, left, right, middle, alpha, beta)
    return build("one"), build("other")


VALUE_TWINS = {
    "Matrix": lambda: (
        Matrix(2, 2, [1, 0, Fraction(1, 2), 3]),
        Matrix.from_rows([[Scalar(1), Scalar(0)], [Scalar(Fraction(1, 2)), Scalar(3)]]),
    ),
    "LinearMap": lambda: (LinearMap(Matrix.identity(2)), Matrix.from_rows([[1, 0], [0, 1]])),
    "MulTensor": lambda: (
        MulTensor([[[1, 0], [0, 0]], [[0, 0], [0, Fraction(2, 3)]]]),
        MulTensor.from_entries(2, {(0, 0, 0): 1, (1, 1, 1): Fraction(2, 3)}),
    ),
    "BiHomTrialgebra": _twin_algebras,
    "BiHomAlgebra": lambda: tuple(
        BiHomAlgebra("single", A21.left, A21.alpha, A21.beta)
        for _ in range(2)
    ),
}


@pytest.mark.parametrize("kind", sorted(VALUE_TWINS))
def test_value_types_are_frozen_slotted_and_compared_by_value(kind):
    a, b = VALUE_TWINS[kind]()
    assert a is not b and a == b and hash(a) == hash(b) and {a: "a"}[b] == "a"
    assert not hasattr(a, "__dict__")
    for field in dataclasses.fields(a):
        with pytest.raises(AttributeError):
            setattr(a, field.name, getattr(b, field.name))
    assert a == b
