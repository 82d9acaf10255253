"""Independent oracles for the test suite.

The elimination oracle here deliberately shares no code with
bihomtrias.matrices: plain forward elimination on lists, no pivot
normalization, no back substitution.  It only reports a rank, which is
what the dual-route checks compare.  The index-form derivation system
likewise shares no assembly code with bihomtrias.derivations.
"""

import random
from fractions import Fraction

from bihomtrias.core import ROLES
from bihomtrias.matrices import Matrix
from bihomtrias.scalars import ZERO, Scalar


def naive_rank(rows):
    """Rank by forward Gaussian elimination with exact division."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row, n_rows):
            if not m[r][col].is_zero:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        for r in range(row + 1, n_rows):
            f = m[r][col]
            if f.is_zero:
                continue
            ratio = f / pv
            m[r] = [a - ratio * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


def random_scalar(rng, max_den=4, span=6, complex_part=True):
    re = Fraction(rng.randint(-span, span), rng.randint(1, max_den))
    im = Fraction(rng.randint(-span, span), rng.randint(1, max_den)) if complex_part else 0
    return Scalar(re, im)


def random_rows(rng, rows, cols, **kw):
    return [[random_scalar(rng, **kw) for _ in range(cols)] for _ in range(rows)]


def random_sparse_scalar(rng):
    return Scalar(rng.choice([0, 0, 0, 1, -1, 2]), rng.choice([0, 0, 0, 0, 1, -1]))


def seeded(name: str) -> random.Random:
    return random.Random(f"bihomtrias:{name}")


def derivation_system_indexform(algebra) -> Matrix:
    """Cross-check assembly transcribing the index-form displays directly.

    Same kernel as ``bihomtrias.derivations.derivation_system``; kept as
    an independent coding of the constraint sums (inline a/b products, no
    composed-map shortcut).
    """
    n = algebra.dim
    a = [[algebra.alpha.matrix[r, c] for c in range(n)] for r in range(n)]
    b = [[algebra.beta.matrix[r, c] for c in range(n)] for r in range(n)]
    rows = []
    for mat in (a, b):
        for k in range(n):
            for q in range(n):
                row = [ZERO] * (n * n)
                for p in range(n):
                    row[p * n + k] = row[p * n + k] + mat[q][p]
                    row[q * n + p] = row[q * n + p] - mat[p][k]
                rows.append(row)
    for role in ROLES:
        c = algebra.tensor(role).c
        for i in range(n):
            for j in range(n):
                for r in range(n):
                    row = [ZERO] * (n * n)
                    for p in range(n):
                        v = c[i][j][p]
                        if not v.is_zero:
                            row[r * n + p] = row[r * n + p] + v
                    for k in range(n):
                        acc = ZERO
                        for p in range(n):
                            bpj = b[p][j]
                            if bpj.is_zero:
                                continue
                            for q in range(n):
                                if not a[q][p].is_zero and not c[k][q][r].is_zero:
                                    acc = acc + bpj * a[q][p] * c[k][q][r]
                        if not acc.is_zero:
                            row[k * n + i] = row[k * n + i] - acc
                    for p in range(n):
                        acc = ZERO
                        for k in range(n):
                            bki = b[k][i]
                            if bki.is_zero:
                                continue
                            for q in range(n):
                                if not a[q][k].is_zero and not c[q][p][r].is_zero:
                                    acc = acc + bki * a[q][k] * c[q][p][r]
                        if not acc.is_zero:
                            row[p * n + j] = row[p * n + j] - acc
                    rows.append(row)
    return Matrix.from_rows(rows)
