"""Differential tests of the coordinate audit path.

``coordinate_detail`` sums each identity side once into a sparse table;
``oracles.coordinate_detail_per_coefficient`` sums every coefficient of
every side separately over dense loops.  Both must return the identical
dict on every algebra below.
"""

import pytest

from bihomtrias.catalog import catalog_get, catalog_list
from bihomtrias.coordinate import coordinate_detail
from bihomtrias.core import BiHomTrialgebra, MulTensor
from bihomtrias.matrices import Matrix, rank
from bihomtrias.scalars import ONE
from bihomtrias.transforms import direct_sum, transport

from oracles import coordinate_detail_per_coefficient, random_dense_algebra, random_scalar, seeded


def _catalog_algebras():
    for entry_id in catalog_list():
        entry = catalog_get(entry_id)
        yield entry.algebra
        yield from (algebra for _, algebra in entry.candidates)


def _agrees(algebra):
    assert coordinate_detail(algebra) == coordinate_detail_per_coefficient(algebra), algebra.name


def test_identical_on_every_catalog_entry_and_candidate():
    for algebra in _catalog_algebras():
        _agrees(algebra)


def _random_invertible(rng, n):
    """A dense Q(i) map: fractions with small numerators cancel in products."""
    while True:
        psi = Matrix(n, n, [random_scalar(rng, max_den=2, span=2) for _ in range(n * n)])
        if rank(psi) == n:
            return psi


def test_identical_on_seeded_transports():
    rng = seeded("coordinate-transports")
    for algebra in _catalog_algebras():
        for _ in range(2 if algebra.dim == 2 else 1):
            _agrees(transport(algebra, _random_invertible(rng, algebra.dim)))


@pytest.mark.parametrize("pair", [
    ("BTas_2^1", "BTas_2^2"), ("BTas_2^3", "BTas_3^1"), ("BTas_3^2", "BTas_3^5"),
    ("BTas_2^6", "BTas_3^18"),
])
def test_identical_on_direct_sums(pair):
    _agrees(direct_sum(*(catalog_get(entry_id).algebra for entry_id in pair)))


def test_identical_on_200_random_dense_tensors():
    rng = seeded("coordinate-dense")
    for _ in range(200):
        _agrees(random_dense_algebra(rng, rng.choice((1, 2, 2, 3, 3, 4))))


def test_a_side_whose_terms_cancel_drops_the_zero_sum():
    # Only the left product is nonzero and both twists are the identity:
    # e1 e1 = e1 + e2 and e2 e1 = -e1 - e2.  In (e1 e1) e1 the summands of
    # each coefficient are 1 * 1 and 1 * (-1), so the structural side of
    # A2a is a sum that cancels at (0, 0, 0, r) and is zero everywhere,
    # while its twisted side (through the zero right product) has no
    # summand at all.  A2a holds only if the cancelled sum is dropped.
    left = MulTensor.from_entries(2, {
        (0, 0, 0): ONE, (0, 0, 1): ONE, (1, 0, 0): -ONE, (1, 0, 1): -ONE,
    })
    algebra = BiHomTrialgebra(
        "cancelling", left, MulTensor.zero(2), MulTensor.zero(2),
        Matrix.identity(2), Matrix.identity(2),
    )
    c = left.c
    for r in range(2):
        summands = [c[0][0][p] * c[p][0][r] for p in range(2)]
        assert summands == [ONE, -ONE]
    detail = coordinate_detail(algebra)
    assert detail == coordinate_detail_per_coefficient(algebra)
    assert detail["A2a"] and not detail["A1"]
