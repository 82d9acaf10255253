"""Twisted derivations: verification and exact computation of the full space.

A derivation here commutes with both twisting maps and satisfies the
Leibniz rule twisted by alpha.beta on each of the three products:

    d(x * y) = d(x) * ab(y) + ab(x) * d(y)

The space is computed as the exact kernel of the linear system in the
n^2 unknowns d_qp (d(e_p) = sum_q d_qp e_q, flattened row-major in
(q, p)), assembled from the abstract conditions evaluated on basis
pairs.  The test suite's oracles hold a second assembly transcribing the
published index-form systems as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ROLES,
    BiHomTrialgebra,
    ab_images,
    basis_witnesses,
    per_algebra,
    twist_commutation_witnesses,
)
from .errors import DimensionMismatch
from .matrices import Matrix, nullspace, unit_vec, vec_add
from .scalars import ZERO


def is_derivation(algebra: BiHomTrialgebra, d: Matrix):
    """Check commutation with the twists and the three twisted Leibniz rules."""
    if d.dim != algebra.dim:
        raise DimensionMismatch("derivation candidate dimension mismatch")
    n = algebra.dim
    witnesses = twist_commutation_witnesses(algebra, d)
    ab_img = ab_images(algebra)
    d_img = [d.col(i) for i in range(n)]
    for role in ROLES:
        t = algebra.tensor(role)
        witnesses += basis_witnesses(n, 2, (
            role,
            lambda i, j: d.apply(t.pair(i, j)),
            lambda i, j: vec_add(t.bilinear(d_img[i], ab_img[j]), t.bilinear(ab_img[i], d_img[j])),
        ))
    return not witnesses, tuple(witnesses)


def map_commutation_rows(f: Matrix):
    """Rows expressing u.f = f.u for an unknown map u (flattened (q, p) row-major)."""
    n = f.dim
    rows = []
    for p in range(n):
        for r in range(n):
            row = [ZERO] * (n * n)
            for q in range(n):
                row[q * n + p] = row[q * n + p] + f[r, q]
                row[r * n + q] = row[r * n + q] - f[q, p]
            rows.append(row)
    return rows


def twisted_leibniz_rows(algebra: BiHomTrialgebra, with_image: bool):
    """Rows in the unknowns u_qp of u(e_p) = sum_q u_qp e_q (flattened (q, p)
    row-major): commutation with alpha and beta, then for each product and
    basis pair (e_i, e_j) one row per output coordinate r of

        with_image:     u(e_i * e_j) - u(e_i) * ab(e_j) - ab(e_i) * u(e_j)
        not with_image: u(e_i) * ab(e_j) - ab(e_i) * u(e_j)

    The first kernel is the derivation space, the second the centroid's
    linear stage.
    """
    n = algebra.dim
    rows = map_commutation_rows(algebra.alpha) + map_commutation_rows(algebra.beta)
    ab_img = ab_images(algebra)
    e = [unit_vec(n, i) for i in range(n)]
    for t in algebra.tensors():
        # u(e_i) * ab(e_j) has coordinate r sum_q u_qi (e_q * ab(e_j))_r, and
        # ab(e_i) * u(e_j) has sum_s u_sj (ab(e_i) * e_s)_r
        by_ab = [[t.bilinear(e[q], ab_img[j]) for j in range(n)] for q in range(n)]
        ab_by = [[t.bilinear(ab_img[i], e[s]) for s in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                for r in range(n):
                    row = [ZERO] * (n * n)
                    if with_image:
                        row[r * n:(r + 1) * n] = t.pair(i, j)
                    for q in range(n):
                        acc = by_ab[q][j][r]
                        if not acc.is_zero:
                            x = row[q * n + i]
                            row[q * n + i] = x - acc if with_image else x + acc
                    for s in range(n):
                        acc = ab_by[i][s][r]
                        if not acc.is_zero:
                            row[s * n + j] = row[s * n + j] - acc
                    rows.append(row)
    return rows


def derivation_system(algebra: BiHomTrialgebra) -> Matrix:
    """The full linear system whose kernel is the derivation space."""
    return Matrix.from_rows(twisted_leibniz_rows(algebra, with_image=True))


@dataclass(frozen=True)
class DerivationSpace:
    basis: tuple  # square Matrix values, canonical kernel basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def flats(self):
        return [list(b.entries) for b in self.basis]


@per_algebra
def derivation_space(algebra: BiHomTrialgebra) -> DerivationSpace:
    """Canonical basis of the space of twisted derivations."""
    kernel = nullspace(derivation_system(algebra))
    basis = tuple(Matrix(algebra.dim, algebra.dim, v) for v in kernel)
    return DerivationSpace(basis)

