import pytest

from bihomtrias.errors import SingularMatrix
from bihomtrias.matrices import (
    Matrix,
    in_span,
    inverse,
    nullspace,
    rank,
    row_space,
    rref,
    span_intersection,
    unit_vec,
    vec_is_zero,
)
from bihomtrias.scalars import ONE, ZERO, Scalar

from oracles import naive_rank, random_rows, seeded


def M(rows):
    return Matrix.from_rows([[Scalar(x) for x in r] for r in rows])


def test_rref_identity():
    r, rk, piv = rref(Matrix.identity(3))
    assert r == Matrix.identity(3)
    assert rk == 3 and piv == (0, 1, 2)


def test_rref_proportional_rows():
    r, rk, piv = rref(M([[1, 1], [2, 2]]))
    assert r == M([[1, 1], [0, 0]])
    assert rk == 1 and piv == (0,)


def test_rref_idempotent_and_pivots_increasing():
    rng = seeded("rref")
    for _ in range(40):
        m = Matrix.from_rows(random_rows(rng, 4, 5))
        r, rk, piv = rref(m)
        assert list(piv) == sorted(piv)
        r2, rk2, piv2 = rref(r)
        assert r2 == r and rk2 == rk and piv2 == piv


def test_rank_against_naive_oracle_100_random():
    rng = seeded("rank-oracle")
    for _ in range(100):
        rows = random_rows(rng, 6, 6)
        assert rank(Matrix.from_rows(rows)) == naive_rank(rows)


def test_nullspace_zero_matrix():
    basis = nullspace(Matrix.zeros(2, 3))
    assert basis == [unit_vec(3, 0), unit_vec(3, 1), unit_vec(3, 2)]


def test_nullspace_single_relation():
    basis = nullspace(M([[1, 1]]))
    assert basis == [(Scalar(-1), ONE)]


def test_rank_nullity_and_exact_kernel():
    rng = seeded("nullspace")
    for _ in range(60):
        m = Matrix.from_rows(random_rows(rng, 4, 6))
        basis = nullspace(m)
        assert rank(m) + len(basis) == m.cols
        for v in basis:
            assert vec_is_zero(m.apply(v))
        if basis:
            assert naive_rank(basis) == len(basis)


def test_inverse_examples():
    assert inverse(Matrix.identity(3)) == Matrix.identity(3)
    swap = M([[0, 1], [1, 0]])
    assert inverse(swap) == swap
    u = M([[1, 1], [0, 1]])
    u_inv = inverse(u)
    assert u_inv == M([[1, -1], [0, 1]])
    assert u @ u_inv == Matrix.identity(2)



def test_inverse_of_the_empty_matrix():
    assert inverse(Matrix.zeros(0, 0)) == Matrix.zeros(0, 0)

def test_inverse_randomized_and_singular():
    rng = seeded("inverse")
    done = 0
    while done < 40:
        m = Matrix.from_rows(random_rows(rng, 4, 4))
        if rank(m) < 4:
            with pytest.raises(SingularMatrix):
                inverse(m)
            continue
        inv = inverse(m)
        assert inv @ m == Matrix.identity(4)
        assert m @ inv == Matrix.identity(4)
        done += 1
    with pytest.raises(SingularMatrix):
        inverse(M([[1, 1], [2, 2]]))


def test_span_helpers():
    u, v = (ONE, ZERO, ZERO), (ZERO, ONE, ZERO)
    assert in_span([u, v], (ONE, ONE, ZERO))
    assert not in_span([u, v], (ZERO, ZERO, ONE))
    inter = span_intersection([u, v], [v, (ZERO, ZERO, ONE)])
    assert inter == [v]
    assert row_space([u, (ONE, ONE, ZERO)]) == row_space([u, v])


def test_span_intersection_randomized():
    rng = seeded("intersection")
    for _ in range(20):
        vs = random_rows(rng, 2, 5)
        ws = random_rows(rng, 2, 5)
        inter = span_intersection(vs, ws)
        for x in inter:
            assert in_span(vs, x) and in_span(ws, x)
