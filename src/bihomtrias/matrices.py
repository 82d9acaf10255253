"""Exact dense linear algebra over the Gaussian rationals.

Everything here is pure and exact: Gauss-Jordan elimination with exact
division, no pivot-size heuristics, no tolerances.  The reduced row
echelon form is unique, which makes every derived object (rank, pivot
columns, the kernel basis with free variables set to unit vectors)
canonical and directly comparable in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, SingularMatrix
from .scalars import ONE, ZERO, Scalar

Vector = tuple  # tuple[Scalar, ...]


def zero_vec(n: int) -> Vector:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def vec_scale(c: Scalar, x: Vector) -> Vector:
    return tuple(c * a for a in x)


def combination(coeffs, vectors) -> Vector:
    """sum_m coeffs[m] * vectors[m], skipping zero coefficients and entries."""
    acc = [ZERO] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if not c.is_zero:
            for idx, x in enumerate(v):
                if not x.is_zero:
                    acc[idx] = acc[idx] + c * x
    return tuple(acc)


def vec_is_zero(x: Vector) -> bool:
    return all(a.is_zero for a in x)


@dataclass(frozen=True, slots=True)
class Matrix:
    """Immutable dense matrix of Scalars, row-major.  A linear map is a
    square matrix whose column i holds the image of e_i."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        entries = tuple(
            e if isinstance(e, Scalar) else Scalar(e) for e in self.entries
        )
        if len(entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"expected {self.rows * self.cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "entries", entries)

    # -- construction -------------------------------------------------

    @staticmethod
    def from_rows(rows) -> "Matrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise DimensionMismatch("ragged rows")
        return Matrix(n, m, [e for r in rows for e in r])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [ZERO] * (rows * cols))

    @staticmethod
    def from_images(dim: int, images) -> "Matrix":
        """The map sending e_c to images[c] (0-based); unlisted images are 0."""
        cols = [images.get(c, zero_vec(dim)) for c in range(dim)]
        return Matrix(dim, dim, [cols[c][r] for r in range(dim) for c in range(dim)])

    @staticmethod
    def unit(dim: int, row: int, col: int) -> "Matrix":
        """Matrix unit E (0-based): maps e_col to e_row, all else to 0."""
        entries = [ZERO] * (dim * dim)
        entries[row * dim + col] = ONE
        return Matrix(dim, dim, entries)

    @property
    def dim(self) -> int:
        """The dimension a square matrix maps; DimensionMismatch otherwise."""
        if self.rows != self.cols:
            raise DimensionMismatch(f"a linear map must be square, got {self.rows}x{self.cols}")
        return self.rows

    # -- access -------------------------------------------------------

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> Vector:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def col(self, c: int) -> Vector:
        return tuple(self.entries[r * self.cols + c] for r in range(self.rows))

    def row_list(self):
        return [list(self.row(r)) for r in range(self.rows)]

    # -- algebra ------------------------------------------------------

    def __add__(self, other):
        self._same_shape(other)
        return Matrix(
            self.rows, self.cols,
            [a + b for a, b in zip(self.entries, other.entries)],
        )

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix(
            self.rows, self.cols,
            [a - b for a, b in zip(self.entries, other.entries)],
        )

    def scale(self, c) -> "Matrix":
        c = c if isinstance(c, Scalar) else Scalar(c)
        return Matrix(self.rows, self.cols, [c * a for a in self.entries])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = ZERO
                for k in range(self.cols):
                    a = ri[k]
                    if a.is_zero:
                        continue
                    b = other.entries[k * other.cols + j]
                    if b.is_zero:
                        continue
                    acc = acc + a * b
                out.append(acc)
        return Matrix(self.rows, other.cols, out)

    def apply(self, x: Vector) -> Vector:
        """Matrix-vector product."""
        if len(x) != self.cols:
            raise DimensionMismatch(f"vector length {len(x)} != cols {self.cols}")
        out = []
        for i in range(self.rows):
            acc = ZERO
            base = i * self.cols
            for k, xk in enumerate(x):
                if xk.is_zero:
                    continue
                a = self.entries[base + k]
                if a.is_zero:
                    continue
                acc = acc + a * xk
            out.append(acc)
        return tuple(out)

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"shape {self.rows}x{self.cols} != {other.rows}x{other.cols}"
            )

    def __repr__(self):
        body = "; ".join(
            " ".join(str(e) for e in self.row(r)) for r in range(self.rows)
        )
        return f"Matrix[{body}]"


def rref(m: Matrix):
    """Reduced row echelon form.

    Returns ``(R, rank, pivots)`` where R is the unique RREF, rank the
    number of pivots and pivots the strictly increasing pivot columns.
    """
    rows = m.row_list()
    nr, nc = m.rows, m.cols
    pivots = []
    pr = 0
    for pc in range(nc):
        pivot_row = None
        for r in range(pr, nr):
            if not rows[r][pc].is_zero:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        pv = rows[pr][pc]
        if pv != ONE:
            inv = ONE / pv
            rows[pr] = [e if e.is_zero else inv * e for e in rows[pr]]
        for r in range(nr):
            if r == pr:
                continue
            f = rows[r][pc]
            if f.is_zero:
                continue
            prow = rows[pr]
            rows[r] = [e if p.is_zero else e - f * p for e, p in zip(rows[r], prow)]
        pivots.append(pc)
        pr += 1
        if pr == nr:
            break
    return Matrix.from_rows(rows), len(pivots), tuple(pivots)


def rank(m: Matrix) -> int:
    return rref(m)[1]


def nullspace(m: Matrix):
    """Canonical kernel basis: RREF-derived, free variables set to units.

    Returns a list of vectors v (length = cols) with m @ v = 0 exactly;
    the list has cols - rank entries, ordered by free column index.
    """
    r, rk, pivots = rref(m)
    nc = m.cols
    pivot_set = set(pivots)
    free_cols = [c for c in range(nc) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v = [ZERO] * nc
        v[f] = ONE
        for row_idx, pc in enumerate(pivots):
            coeff = r[row_idx, f]
            if not coeff.is_zero:
                v[pc] = -coeff
        basis.append(tuple(v))
    return basis


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrix when rank < n."""
    if m.rows != m.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.rows
    aug = Matrix(
        n, 2 * n,
        [
            m.entries[r * n + c] if c < n else (ONE if c - n == r else ZERO)
            for r in range(n)
            for c in range(2 * n)
        ],
    )
    red, _, pivots = rref(aug)
    # [M | I] has rank n: M is invertible iff its own columns hold all n pivots
    if pivots != tuple(range(n)):
        raise SingularMatrix(f"matrix of rank {sum(1 for p in pivots if p < n)} < {n}")
    return Matrix(n, n, [red[r, n + c] for r in range(n) for c in range(n)])


def row_space(vectors) -> Matrix:
    """Canonical basis of the span of the given vectors: nonzero RREF rows."""
    vectors = list(vectors)
    if not vectors:
        return Matrix.zeros(0, 0)
    m = Matrix.from_rows(vectors)
    red, rk, _ = rref(m)
    return Matrix.from_rows([red.row(r) for r in range(rk)]) if rk else Matrix.zeros(0, m.cols)


def in_span(vectors, candidate: Vector) -> bool:
    """Exact membership of candidate in span(vectors)."""
    vectors = [v for v in vectors]
    if vec_is_zero(candidate):
        return True
    if not vectors:
        return False
    base = Matrix.from_rows(vectors)
    extended = Matrix.from_rows(vectors + [list(candidate)])
    return rank(base) == rank(extended)


def span_intersection(vs, ws):
    """Canonical basis of span(vs) ∩ span(ws).

    Solves a x = Vᵀa = Wᵀb by taking the kernel of [Vᵀ | -Wᵀ].
    """
    vs = list(vs)
    ws = list(ws)
    if not vs or not ws:
        return []
    n = len(vs[0])
    cols = len(vs) + len(ws)
    entries = []
    for r in range(n):
        row = [v[r] for v in vs] + [-w[r] for w in ws]
        entries.extend(row)
    space = row_space(
        combination(k[: len(vs)], vs) for k in nullspace(Matrix(n, cols, entries))
    )
    return [space.row(r) for r in range(space.rows)]
