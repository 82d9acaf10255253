"""BiHom-associative trialgebra data model and axiom checking.

An algebra is stored as three structure-constant tensors (left product
``x -| y``, right product ``x |- y``, middle product ``x _|_ y``) plus the
two twisting maps alpha and beta, all over Q(i).  Nothing is assumed at
construction time: the defining axioms are *checked*, and failures are
returned as data (witnesses carrying both sides' values), never raised.

Indices are 0-based internally and 1-based in I/O and reports.

The axiom list follows the defining identities of BiHom-associative
trialgebras, with each two-step chain split into separately reported
sub-identities so a witness pinpoints which equality breaks:

    C0 :  alpha . beta = beta . alpha
    A1 :  (x -| y) -| b(z)  =  a(x) -| (y -| z)
    A2a:  (x -| y) -| b(z)  =  a(x) -| (y |- z)
    A2b:  a(x) -| (y |- z)  =  a(x) -| (y _|_ z)
    A3 :  (x |- y) -| b(z)  =  a(x) |- (y -| z)
    A4a:  (x -| y) |- b(z)  =  a(x) |- (y |- z)
    A4b:  a(x) |- (y |- z)  =  (x _|_ y) |- b(z)
    A5 :  (x |- y) |- b(z)  =  a(x) |- (y |- z)
    A6 :  (x _|_ y) -| b(z) =  a(x) _|_ (y -| z)
    A7 :  (x -| y) _|_ b(z) =  a(x) _|_ (y |- z)
    A8 :  (x |- y) _|_ b(z) =  a(x) |- (y _|_ z)
    A9 :  (x _|_ y) _|_ b(z) = a(x) _|_ (y _|_ z)

and multiplicativity (a subclass property, checked but never required):

    M1/M2: alpha/beta endomorphism of -|      M3/M4: of |-      M5/M6: of _|_
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import wraps
from itertools import product

from .errors import DimensionMismatch
from .matrices import Matrix, Vector, vec_is_zero, zero_vec
from .scalars import ZERO, Scalar, format_scalar

LEFT = "left"
RIGHT = "right"
MIDDLE = "middle"
ROLES = (LEFT, RIGHT, MIDDLE)

AXIOM_IDS = ("C0", "A1", "A2a", "A2b", "A3", "A4a", "A4b", "A5", "A6", "A7", "A8", "A9")
MULT_IDS = ("M1", "M2", "M3", "M4", "M5", "M6")
ALL_CHECK_IDS = AXIOM_IDS + MULT_IDS


@dataclass(frozen=True, slots=True)
class MulTensor:
    """Structure constants of one bilinear product: e_i * e_j = sum_k c[i][j][k] e_k.

    The only reader of the constants outside the coordinate audit route;
    which product a tensor is follows from the slot that holds it.
    """

    dim: int = field(init=False)
    c: tuple

    def __post_init__(self):
        c = tuple(
            tuple(
                tuple(x if isinstance(x, Scalar) else Scalar(x) for x in row)
                for row in plane
            )
            for plane in self.c
        )
        dim = len(c)
        if any(len(plane) != dim or any(len(row) != dim for row in plane) for plane in c):
            raise DimensionMismatch(f"tensor is not {dim}x{dim}x{dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "c", c)

    @staticmethod
    def zero(dim: int) -> "MulTensor":
        return MulTensor([[[ZERO] * dim for _ in range(dim)] for _ in range(dim)])

    @staticmethod
    def from_entries(dim: int, entries) -> "MulTensor":
        """Build from a {(i, j, k): scalar} mapping, 0-based indices."""
        c = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), v in entries.items():
            c[i][j][k] = v if isinstance(v, Scalar) else Scalar(v)
        return MulTensor(c)

    def pair(self, i: int, j: int) -> Vector:
        """The product e_i * e_j as a coefficient vector."""
        return self.c[i][j]

    def bilinear(self, x: Vector, y: Vector) -> Vector:
        """Bilinear extension to arbitrary vectors."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise DimensionMismatch(f"vectors must have length {n}")
        acc = list(zero_vec(n))
        for i, xi in enumerate(x):
            if xi.is_zero:
                continue
            ci = self.c[i]
            for j, yj in enumerate(y):
                if yj.is_zero:
                    continue
                coeff = xi * yj
                for k, ck in enumerate(ci[j]):
                    if not ck.is_zero:
                        acc[k] = acc[k] + coeff * ck
        return tuple(acc)

    def nonzero_entries(self):
        """Sorted ((i, j, k), scalar) pairs, 0-based."""
        out = []
        for i in range(self.dim):
            for j in range(self.dim):
                for k, v in enumerate(self.c[i][j]):
                    if not v.is_zero:
                        out.append(((i, j, k), v))
        return out


def LinearMap(matrix: Matrix) -> Matrix:
    """``matrix`` itself, once its ``dim`` has rejected a non-square one.
    Only ``perfbench/workloads.py`` builds maps through this name; ROADMAP
    item 1 calls ``Matrix`` there and deletes it."""
    matrix.dim
    return matrix


@dataclass(frozen=True, slots=True)
class BiHomTrialgebra:
    """Three products plus two twisting maps on a common dimension, the
    dimension of the left product.

    No axiom is enforced here; use :func:`check_axioms`.  ``_memo`` holds
    the analyses of :func:`per_algebra` functions; equality, hashing and
    the repr ignore it, and equality and hashing ignore the name.
    """

    name: str = field(compare=False)
    dim: int = field(init=False)
    left: MulTensor
    right: MulTensor
    middle: MulTensor
    alpha: Matrix
    beta: Matrix
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        dim = self.left.dim
        for role in (RIGHT, MIDDLE):
            t = getattr(self, role)
            if t.dim != dim:
                raise DimensionMismatch(f"{role} tensor has dim {t.dim}, expected {dim}")
        if self.alpha.dim != dim or self.beta.dim != dim:
            raise DimensionMismatch("twisting map dimension mismatch")
        object.__setattr__(self, "dim", dim)

    def tensor(self, role: str) -> MulTensor:
        if role not in ROLES:
            raise ValueError(f"unknown product role {role!r}")
        return getattr(self, role)

    def tensors(self):
        return (self.left, self.right, self.middle)

    def renamed(self, name: str) -> "BiHomTrialgebra":
        return replace(self, name=name)

    def __repr__(self):
        return f"BiHomTrialgebra({self.name!r}, dim={self.dim})"


def per_algebra(fn):
    """Compute ``fn(algebra)`` once per algebra object and keep the result
    in the algebra's ``_memo`` for as long as the object lives.

    The key is the object, not its value, so the memo lives and dies with
    its algebra: an equal algebra, such as a :meth:`BiHomTrialgebra.renamed`
    copy, starts with an empty memo.  Only immutable results may be cached.
    """
    @wraps(fn)
    def cached(algebra):
        memo = algebra._memo
        if fn not in memo:
            memo[fn] = fn(algebra)
        return memo[fn]

    return cached


def ab_images(algebra: BiHomTrialgebra):
    """The images alpha(beta(e_i)) of the basis vectors, in basis order."""
    ab = algebra.alpha @ algebra.beta
    return tuple(ab.col(i) for i in range(algebra.dim))


def zero_algebra(dim: int) -> BiHomTrialgebra:
    z = MulTensor.zero(dim)
    return BiHomTrialgebra("zero", z, z, z, Matrix.zeros(dim, dim), Matrix.zeros(dim, dim))


def twist_commutation_witnesses(algebra, u: Matrix, target=None):
    """Basis vectors on which u . f != g . u for the twist pairs (f, g).

    ``g`` is the matching twist of ``target`` (default: ``algebra`` itself,
    the commutation every endomorphism check requires).  Returns a list of
    ``commute-alpha`` witnesses, then ``commute-beta`` ones.
    """
    target = algebra if target is None else target
    witnesses = []
    for name, f, g in (("alpha", algebra.alpha, target.alpha), ("beta", algebra.beta, target.beta)):
        lhs, rhs = (u @ f).col, (g @ u).col
        witnesses += basis_witnesses(u.dim, 1, (f"commute-{name}", lhs, rhs))
    return witnesses


# -- axiom checking ----------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """One failing basis tuple of the identity named ``check``, with both
    sides' values.  Indices are 1-based; ``j`` and ``k`` are None past the
    identity's arity."""

    check: str
    i: int
    j: int | None
    k: int | None
    lhs: Vector
    rhs: Vector

    def to_dict(self):
        """The ``{"i", "j", "k", "lhs", "rhs"}`` form of the axiom reports."""
        return {
            "i": self.i,
            "j": self.j,
            "k": self.k,
            "lhs": [format_scalar(x) for x in self.lhs],
            "rhs": [format_scalar(x) for x in self.rhs],
        }

    def to_list(self):
        """The ``[check, i, j, lhs, rhs]`` form of the basis-claim errata."""
        d = self.to_dict()
        return [self.check, self.i, self.j, d["lhs"], d["rhs"]]


def basis_witnesses(n: int, arity: int, *identities):
    """Lazily yield a :class:`Witness` for every basis tuple where an identity fails.

    Each identity is a ``(check, lhs_fn, rhs_fn)`` triple whose functions
    take ``arity`` 0-based basis indices and return vectors.  The tuples
    are visited in lexicographic order, and at each tuple the identities
    are tried in the given order.
    """
    for idx in product(range(n), repeat=arity):
        for check, lhs_fn, rhs_fn in identities:
            lhs, rhs = lhs_fn(*idx), rhs_fn(*idx)
            if lhs != rhs:
                yield Witness(check, *(x + 1 for x in idx), *(None,) * (3 - arity), lhs, rhs)


@dataclass(frozen=True)
class AxiomResult:
    axiom_id: str
    witnesses: tuple

    @property
    def holds(self) -> bool:
        return not self.witnesses


@dataclass(frozen=True)
class AxiomReport:
    results: tuple

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.results)

    def profile(self):
        """(axiom_id, holds) pairs in report order; an isomorphism invariant."""
        return tuple((r.axiom_id, r.holds) for r in self.results)


# Each product axiom equates two sides; a side is either
#   ("S1", inner, outer):  (x inner y) outer beta(z)
#   ("S2", inner, outer):  alpha(x) outer (y inner z)
_PRODUCT_AXIOMS = (
    ("A1", ("S1", LEFT, LEFT), ("S2", LEFT, LEFT)),
    ("A2a", ("S1", LEFT, LEFT), ("S2", RIGHT, LEFT)),
    ("A2b", ("S2", RIGHT, LEFT), ("S2", MIDDLE, LEFT)),
    ("A3", ("S1", RIGHT, LEFT), ("S2", LEFT, RIGHT)),
    ("A4a", ("S1", LEFT, RIGHT), ("S2", RIGHT, RIGHT)),
    ("A4b", ("S2", RIGHT, RIGHT), ("S1", MIDDLE, RIGHT)),
    ("A5", ("S1", RIGHT, RIGHT), ("S2", RIGHT, RIGHT)),
    ("A6", ("S1", MIDDLE, LEFT), ("S2", LEFT, MIDDLE)),
    ("A7", ("S1", LEFT, MIDDLE), ("S2", RIGHT, MIDDLE)),
    ("A8", ("S1", RIGHT, MIDDLE), ("S2", MIDDLE, RIGHT)),
    ("A9", ("S1", MIDDLE, MIDDLE), ("S2", MIDDLE, MIDDLE)),
)


def _axiom_result(n, arity, identity):
    return AxiomResult(identity[0], tuple(basis_witnesses(n, arity, identity)))


def check_axioms(algebra: BiHomTrialgebra) -> AxiomReport:
    """Check C0 and the nine product-axiom families over all basis triples."""
    n = algebra.dim
    alpha_img = [algebra.alpha.col(i) for i in range(n)]
    beta_img = [algebra.beta.col(i) for i in range(n)]

    def side(kind, inner, outer):
        t_in, t_out = algebra.tensor(inner), algebra.tensor(outer)
        if kind == "S1":
            return lambda i, j, k: t_out.bilinear(t_in.pair(i, j), beta_img[k])
        return lambda i, j, k: t_out.bilinear(alpha_img[i], t_in.pair(j, k))

    a, b = algebra.alpha, algebra.beta
    c0 = ("C0", lambda i: a.apply(beta_img[i]), lambda i: b.apply(alpha_img[i]))
    return AxiomReport((_axiom_result(n, 1, c0),) + tuple(
        _axiom_result(n, 3, (aid, side(*lhs), side(*rhs))) for aid, lhs, rhs in _PRODUCT_AXIOMS
    ))


def check_multiplicativity(algebra: BiHomTrialgebra) -> AxiomReport:
    """Check that alpha and beta are endomorphisms of each product (basis pairs)."""
    n = algebra.dim

    def identity(cid, role, map_name):
        f, t = getattr(algebra, map_name), algebra.tensor(role)
        img = [f.col(i) for i in range(n)]
        return (cid, lambda i, j: f.apply(t.pair(i, j)), lambda i, j: t.bilinear(img[i], img[j]))

    # M1..M6: alpha, then beta, as endomorphisms of -|, |- and _|_ in turn
    checks = zip(MULT_IDS, product(ROLES, ("alpha", "beta")))
    return AxiomReport(tuple(_axiom_result(n, 2, identity(cid, *rm)) for cid, rm in checks))


@per_algebra
def full_report(algebra: BiHomTrialgebra) -> AxiomReport:
    """Axioms plus multiplicativity in one report (covers all check ids)."""
    return AxiomReport(check_axioms(algebra).results + check_multiplicativity(algebra).results)


def products_span(algebra: BiHomTrialgebra, roles=ROLES):
    """All basis-pair product values for the given roles (the span of A*A)."""
    vecs = []
    for role in roles:
        t = algebra.tensor(role)
        for i in range(algebra.dim):
            for j in range(algebra.dim):
                v = t.pair(i, j)
                if not vec_is_zero(v):
                    vecs.append(v)
    return vecs

