"""Independent oracles for the test suite.

The elimination oracle here deliberately shares no code with
bihomtrias.matrices: plain forward elimination on lists, no pivot
normalization, no back substitution.  It only reports a rank, which is
what the dual-route checks compare.  The index-form derivation system
likewise shares no assembly code with bihomtrias.derivations.  The
per-coefficient coordinate audit is the former bihomtrias.coordinate
code, kept as the reference that the sparse side tables must reproduce.
"""

import random
from fractions import Fraction

from bihomtrias.core import ROLES, BiHomTrialgebra, MulTensor
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


def random_dense_algebra(rng, dim):
    """Three products and two twists whose entries are each nonzero with
    probability 0.7: dense Q(i) fractions with small numerators."""
    def scalar():
        return random_scalar(rng, max_den=2, span=2) if rng.random() < 0.7 else ZERO

    def tensor():
        return MulTensor([[[scalar() for _ in range(dim)] for _ in range(dim)]
                          for _ in range(dim)])

    def twist():
        return Matrix(dim, dim, [scalar() for _ in range(dim * dim)])

    return BiHomTrialgebra("dense", *(tensor() for _ in ROLES), twist(), twist())


def derivation_system_indexform(algebra) -> Matrix:
    """Cross-check assembly transcribing the index-form displays directly.

    Same kernel as ``bihomtrias.derivations.derivation_system``; kept as
    an independent coding of the constraint sums (inline a/b products, no
    composed-map shortcut).
    """
    n = algebra.dim
    a = [[algebra.alpha[r, c] for c in range(n)] for r in range(n)]
    b = [[algebra.beta[r, c] for c in range(n)] for r in range(n)]
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


def _raw(algebra):
    n = algebra.dim
    gamma = algebra.left.c
    delta = algebra.right.c
    xi = algebra.middle.c
    a = [[algebra.alpha[r, c] for c in range(n)] for r in range(n)]
    b = [[algebra.beta[r, c] for c in range(n)] for r in range(n)]
    return n, gamma, delta, xi, a, b


def _structural(n, cin, cout, b, i, j, k, r):
    """Coefficient of e_r in (e_i * e_j) *' beta(e_k)."""
    acc = ZERO
    for p in range(n):
        cp = cin[i][j][p]
        if cp.is_zero:
            continue
        for q in range(n):
            bq = b[q][k]
            if bq.is_zero:
                continue
            out = cout[p][q][r]
            if not out.is_zero:
                acc = acc + cp * bq * out
    return acc


def _twisted(n, cin, cout, a, i, j, k, r):
    """Coefficient of e_r in alpha(e_i) *' (e_j * e_k)."""
    acc = ZERO
    for p in range(n):
        ap = a[p][i]
        if ap.is_zero:
            continue
        for q in range(n):
            cq = cin[j][k][q]
            if cq.is_zero:
                continue
            out = cout[p][q][r]
            if not out.is_zero:
                acc = acc + ap * cq * out
    return acc


def coordinate_detail_per_coefficient(algebra):
    """Reference for ``bihomtrias.coordinate.coordinate_detail``: the same
    per-identity booleans, with each coefficient r of each side summed
    separately over dense (p, q) loops."""
    n, gamma, delta, xi, a, b = _raw(algebra)

    def s1(cin, cout):
        return lambda i, j, k, r: _structural(n, cin, cout, b, i, j, k, r)

    def s2(cin, cout):
        return lambda i, j, k, r: _twisted(n, cin, cout, a, i, j, k, r)

    families = {
        "A1": (s1(gamma, gamma), s2(gamma, gamma)),
        "A2a": (s1(gamma, gamma), s2(delta, gamma)),
        "A2b": (s2(delta, gamma), s2(xi, gamma)),
        "A3": (s1(delta, gamma), s2(gamma, delta)),
        "A4a": (s1(gamma, delta), s2(delta, delta)),
        "A4b": (s2(delta, delta), s1(xi, delta)),
        "A5": (s1(delta, delta), s2(delta, delta)),
        "A6": (s1(xi, gamma), s2(gamma, xi)),
        "A7": (s1(gamma, xi), s2(delta, xi)),
        "A8": (s1(delta, xi), s2(xi, delta)),
        "A9": (s1(xi, xi), s2(xi, xi)),
    }

    detail = {}

    ok = True
    for i in range(n):
        for k in range(n):
            lhs = ZERO
            rhs = ZERO
            for j in range(n):
                lhs = lhs + a[k][j] * b[j][i]
                rhs = rhs + b[k][j] * a[j][i]
            if lhs != rhs:
                ok = False
    detail["C0"] = ok

    for tag, (lhs_f, rhs_f) in families.items():
        ok = True
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for r in range(n):
                        if lhs_f(i, j, k, r) != rhs_f(i, j, k, r):
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        detail[tag] = ok

    def endo(c_map, tensor, tag):
        ok = True
        for i in range(n):
            for j in range(n):
                for q in range(n):
                    lhs = ZERO
                    for k in range(n):
                        ck = tensor[i][j][k]
                        if not ck.is_zero:
                            lhs = lhs + ck * c_map[q][k]
                    rhs = ZERO
                    for k in range(n):
                        cki = c_map[k][i]
                        if cki.is_zero:
                            continue
                        for p in range(n):
                            cpj = c_map[p][j]
                            if cpj.is_zero:
                                continue
                            out = tensor[k][p][q]
                            if not out.is_zero:
                                rhs = rhs + cki * cpj * out
                    if lhs != rhs:
                        ok = False
        detail[tag] = ok

    endo(a, gamma, "M1")
    endo(b, gamma, "M2")
    endo(a, delta, "M3")
    endo(b, delta, "M4")
    endo(a, xi, "M5")
    endo(b, xi, "M6")

    return detail
