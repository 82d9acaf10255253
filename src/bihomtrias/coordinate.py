"""Structure-constant (coordinate form) axiom checker.

This is the audit path: the same defining identities as
:func:`bihomtrias.core.check_axioms`, but evaluated as explicit index
sums over the raw structure constants

    sum_{p,q} Cin[i][j][p] * b[q][k] * Cout[p][q][r]        (structural side S1)
    sum_{p,q} a[p][i] * Cin[j][k][q] * Cout[p][q][r]        (twisted side S2)

with no use of the bilinear evaluator.  Each distinct side is summed once
per call into a sparse table {(i, j, k, r): coefficient}, over nonzero
constants only and without the sums that cancel to zero, so an identity
holds iff its two tables are equal.  The multiplicativity identities are
tables on (i, j, q) in the same way.  Both paths must agree on every
algebra; the test suite enforces the equivalence on the whole catalog and
on randomized tensors.
"""

from __future__ import annotations

from .core import LEFT, MIDDLE, RIGHT, ROLES, BiHomTrialgebra
from .scalars import ZERO


def _rows(c, n):
    """{(i, j): nonzero entries (p, c[i][j][p])} over the nonempty tensor rows."""
    rows = {}
    for i in range(n):
        for j in range(n):
            row = [(p, v) for p, v in enumerate(c[i][j]) if not v.is_zero]
            if row:
                rows[i, j] = row
    return rows


def _columns(m, n):
    """The nonzero entries (r, m[r][c]) of each column c of a twist matrix."""
    return [[(r, m[r][c]) for r in range(n) if not m[r][c].is_zero] for c in range(n)]


def _s1_terms(cin, cout, cols):
    """Summands Cin[i][j][p] * b[q][k] * Cout[p][q][r] of (e_i cin e_j) cout beta(e_k)."""
    for (i, j), row in cin.items():
        for k, col in enumerate(cols["beta"]):
            for p, cp in row:
                for q, bq in col:
                    if (p, q) in cout:
                        factor = cp * bq
                        for r, out in cout[p, q]:
                            yield (i, j, k, r), factor * out


def _s2_terms(cin, cout, cols):
    """Summands a[p][i] * Cin[j][k][q] * Cout[p][q][r] of alpha(e_i) cout (e_j cin e_k)."""
    for i, col in enumerate(cols["alpha"]):
        for (j, k), row in cin.items():
            for p, ap in col:
                for q, cq in row:
                    if (p, q) in cout:
                        factor = ap * cq
                        for r, out in cout[p, q]:
                            yield (i, j, k, r), factor * out


def _map_of_product_terms(rows, cols):
    """Summands C[i][j][k] * c[q][k] of c(e_i * e_j), keyed (i, j, q)."""
    for (i, j), row in rows.items():
        for k, ck in row:
            for q, cqk in cols[k]:
                yield (i, j, q), ck * cqk


def _product_of_maps_terms(rows, cols):
    """Summands c[k][i] * c[p][j] * C[k][p][q] of c(e_i) * c(e_j), keyed (i, j, q)."""
    for i, col_i in enumerate(cols):
        for j, col_j in enumerate(cols):
            for k, cki in col_i:
                for p, cpj in col_j:
                    if (k, p) in rows:
                        factor = cki * cpj
                        for q, out in rows[k, p]:
                            yield (i, j, q), factor * out


# The two sides (terms, cin, cout) of each A-identity: 18 distinct sides.
_A_IDENTITIES = {
    "A1": ((_s1_terms, LEFT, LEFT), (_s2_terms, LEFT, LEFT)),
    "A2a": ((_s1_terms, LEFT, LEFT), (_s2_terms, RIGHT, LEFT)),
    "A2b": ((_s2_terms, RIGHT, LEFT), (_s2_terms, MIDDLE, LEFT)),
    "A3": ((_s1_terms, RIGHT, LEFT), (_s2_terms, LEFT, RIGHT)),
    "A4a": ((_s1_terms, LEFT, RIGHT), (_s2_terms, RIGHT, RIGHT)),
    "A4b": ((_s2_terms, RIGHT, RIGHT), (_s1_terms, MIDDLE, RIGHT)),
    "A5": ((_s1_terms, RIGHT, RIGHT), (_s2_terms, RIGHT, RIGHT)),
    "A6": ((_s1_terms, MIDDLE, LEFT), (_s2_terms, LEFT, MIDDLE)),
    "A7": ((_s1_terms, LEFT, MIDDLE), (_s2_terms, RIGHT, MIDDLE)),
    "A8": ((_s1_terms, RIGHT, MIDDLE), (_s2_terms, MIDDLE, RIGHT)),
    "A9": ((_s1_terms, MIDDLE, MIDDLE), (_s2_terms, MIDDLE, MIDDLE)),
}

# The (twist, product) of each identity c(x * y) = c(x) * c(y).
_M_IDENTITIES = {
    "M1": ("alpha", LEFT), "M2": ("beta", LEFT), "M3": ("alpha", RIGHT),
    "M4": ("beta", RIGHT), "M5": ("alpha", MIDDLE), "M6": ("beta", MIDDLE),
}


def _table(terms):
    """Sum the terms per key, dropping the sums that cancel to zero."""
    table = {}
    for key, value in terms:
        table[key] = table[key] + value if key in table else value
    return {key: value for key, value in table.items() if not value.is_zero}


def coordinate_detail(algebra: BiHomTrialgebra):
    """Per-identity booleans, keyed like the evaluator-path report ids."""
    n = algebra.dim
    a = [[algebra.alpha[r, c] for c in range(n)] for r in range(n)]
    b = [[algebra.beta[r, c] for c in range(n)] for r in range(n)]

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
    detail = {"C0": ok}

    rows = {role: _rows(algebra.tensor(role).c, n) for role in ROLES}
    cols = {"alpha": _columns(a, n), "beta": _columns(b, n)}
    sides = {}
    for terms, cin, cout in dict.fromkeys(s for pair in _A_IDENTITIES.values() for s in pair):
        sides[terms, cin, cout] = _table(terms(rows[cin], rows[cout], cols))
    for tag, (lhs, rhs) in _A_IDENTITIES.items():
        detail[tag] = sides[lhs] == sides[rhs]

    for tag, (twist, role) in _M_IDENTITIES.items():
        lhs = _table(_map_of_product_terms(rows[role], cols[twist]))
        detail[tag] = lhs == _table(_product_of_maps_terms(rows[role], cols[twist]))
    return detail
