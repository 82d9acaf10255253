"""Morphisms, isomorphism transport, and the derived constructions.

Every construction returns the candidate object *together with* the
report of the identities it is supposed to satisfy; a construction whose
conclusion fails on some input is data for the errata log, not an error.
The pointwise checks (morphisms, Rota-Baxter and averaging operators)
return ``(holds, witnesses)``; a Rota-Baxter operator is passed as the
map and its weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    ROLES,
    AxiomReport,
    BiHomTrialgebra,
    MulTensor,
    ab_images,
    basis_witnesses,
    check_axioms,
    twist_commutation_witnesses,
)
from .errors import DimensionMismatch, PreconditionFailed
from .matrices import Matrix, inverse, rank, unit_vec, vec_add, vec_scale, vec_sub, zero_vec
from .scalars import Scalar


@dataclass(frozen=True, slots=True)
class BiHomAlgebra:
    """A single-product (A, *, alpha, beta) on the dimension of the product;
    associativity is checkable, not assumed."""

    name: str
    dim: int = field(init=False)
    mu: MulTensor
    alpha: Matrix
    beta: Matrix

    def __post_init__(self):
        dim = self.mu.dim
        if self.alpha.dim != dim or self.beta.dim != dim:
            raise DimensionMismatch("component dimension mismatch")
        object.__setattr__(self, "dim", dim)


def _tensor_from_pairs(dim, pair_fn) -> MulTensor:
    return MulTensor([[list(pair_fn(i, j)) for j in range(dim)] for i in range(dim)])


def is_morphism(psi: Matrix, a: BiHomTrialgebra, b: BiHomTrialgebra):
    """Check psi : a -> b intertwines the twists and all three products;
    returns ``(holds, witnesses)``, commute-alpha/commute-beta first."""
    if psi.dim != a.dim or a.dim != b.dim:
        raise DimensionMismatch("morphism endpoints must share the map's dimension")
    witnesses = twist_commutation_witnesses(a, psi, target=b)
    img = [psi.col(i) for i in range(a.dim)]
    for role in ROLES:
        ta, tb = a.tensor(role), b.tensor(role)
        witnesses += basis_witnesses(a.dim, 2, (
            role, lambda i, j: psi.apply(ta.pair(i, j)), lambda i, j: tb.bilinear(img[i], img[j])
        ))
    return not witnesses, tuple(witnesses)


def is_isomorphism(psi: Matrix, a: BiHomTrialgebra, b: BiHomTrialgebra) -> bool:
    """An invertible morphism; endpoints of another dimension raise
    DimensionMismatch whatever the map."""
    return is_morphism(psi, a, b)[0] and rank(psi) == psi.rows


def transport(algebra: BiHomTrialgebra, psi: Matrix) -> BiHomTrialgebra:
    """Conjugate products and twists by an invertible map.

    Products become psi . (*) . (psi^-1 x psi^-1) and the twists
    psi alpha psi^-1, psi beta psi^-1; the result is isomorphic to the
    input via psi.
    """
    if psi.dim != algebra.dim:
        raise DimensionMismatch("transport map dimension mismatch")
    inv = inverse(psi)  # raises SingularMatrix when not invertible
    n = algebra.dim
    inv_cols = [inv.col(i) for i in range(n)]

    def conjugated(tensor):
        def pair(i, j):
            return psi.apply(tensor.bilinear(inv_cols[i], inv_cols[j]))

        return pair

    return BiHomTrialgebra(
        f"{algebra.name}~transport",
        *(_tensor_from_pairs(n, conjugated(t)) for t in algebra.tensors()),
        psi @ algebra.alpha @ inv,
        psi @ algebra.beta @ inv,
    )


def conjugate_automorphism_check(
    algebra: BiHomTrialgebra, psi: Matrix, phi: Matrix
) -> bool:
    """Whether psi phi psi^-1 is an automorphism of transport(algebra, psi).

    Preconditions: psi invertible, phi an automorphism of the input.
    """
    if not is_isomorphism(phi, algebra, algebra):
        raise PreconditionFailed("phi is not an automorphism of the input algebra")
    moved = transport(algebra, psi)
    conj = psi @ phi @ inverse(psi)
    return is_isomorphism(conj, moved, moved)


def untwist(algebra: BiHomTrialgebra):
    """Replace each product by (a^-1 x) * (b^-1 y) and the twists by id.

    Raises SingularMatrix when alpha or beta is not invertible.  Returns
    the candidate together with its axiom report (identity-twist axioms).
    """
    inv_a = inverse(algebra.alpha)
    inv_b = inverse(algebra.beta)
    n = algebra.dim
    a_cols = [inv_a.col(i) for i in range(n)]
    b_cols = [inv_b.col(i) for i in range(n)]

    def untwisted(tensor):
        return lambda i, j: tensor.bilinear(a_cols[i], b_cols[j])

    candidate = BiHomTrialgebra(
        f"{algebra.name}~untwist",
        *(_tensor_from_pairs(n, untwisted(t)) for t in algebra.tensors()),
        Matrix.identity(n),
        Matrix.identity(n),
    )
    return candidate, check_axioms(candidate)


def direct_sum(a: BiHomTrialgebra, b: BiHomTrialgebra) -> BiHomTrialgebra:
    """Blockwise products and maps on the sum of the carrier spaces."""
    na, nb = a.dim, b.dim
    n = na + nb

    def block_tensor(ta, tb):
        def pair(i, j):
            if i < na and j < na:
                return tuple(ta.pair(i, j)) + zero_vec(nb)
            if i >= na and j >= na:
                return zero_vec(na) + tuple(tb.pair(i - na, j - na))
            return zero_vec(n)

        return _tensor_from_pairs(n, pair)

    def block_map(fa, fb):
        images = {i: fa.col(i) + zero_vec(nb) for i in range(na)}
        for i in range(nb):
            images[na + i] = zero_vec(na) + fb.col(i)
        return Matrix.from_images(n, images)

    return BiHomTrialgebra(
        f"{a.name}(+){b.name}",
        *map(block_tensor, a.tensors(), b.tensors()),
        block_map(a.alpha, b.alpha),
        block_map(a.beta, b.beta),
    )


def graph_subalgebra_check(xi: Matrix, a: BiHomTrialgebra, b: BiHomTrialgebra) -> bool:
    """Whether the graph of xi is closed in a (+) b under products and twists.

    Membership of (x, y) in the graph means y = xi(x); checked on the
    images of graph basis vectors inside the direct sum.  Must coincide
    with is_morphism(xi, a, b)[0].
    """
    if xi.dim != a.dim or a.dim != b.dim:
        raise DimensionMismatch("graph check dimension mismatch")
    s = direct_sum(a, b)
    na = a.dim
    graph_basis = []
    for i in range(na):
        x = unit_vec(na, i)
        graph_basis.append(tuple(x) + tuple(xi.apply(x)))

    def in_graph(v):
        return tuple(v[na:]) == tuple(xi.apply(v[:na]))

    for u in graph_basis:
        if not in_graph(s.alpha.apply(u)) or not in_graph(s.beta.apply(u)):
            return False
        for v in graph_basis:
            for role in ROLES:
                if not in_graph(s.tensor(role).bilinear(u, v)):
                    return False
    return True


# -- Rota-Baxter operators ----------------------------------------------

def _rota_baxter_witnesses(algebra, r: Matrix, lam: Scalar, identities):
    """Twist commutation, then R(x) o R(y) = R(R(x) p y + x p R(y) + w x p y)
    on basis pairs for each ``(check, o, p)`` of outer and inner products."""
    if r.dim != algebra.dim:
        raise DimensionMismatch("operator dimension mismatch")
    n = algebra.dim
    witnesses = twist_commutation_witnesses(algebra, r)
    r_img = [r.col(i) for i in range(n)]
    e = [unit_vec(n, i) for i in range(n)]
    for check, outer, inner in identities:
        def lhs(i, j):
            return outer.bilinear(r_img[i], r_img[j])

        def rhs(i, j):
            inside = vec_add(inner.bilinear(r_img[i], e[j]), inner.bilinear(e[i], r_img[j]))
            return r.apply(vec_add(inside, vec_scale(lam, inner.pair(i, j))))

        witnesses += basis_witnesses(n, 2, (check, lhs, rhs))
    return not witnesses, tuple(witnesses)


def rota_baxter_check(algebra: BiHomTrialgebra, op: Matrix, weight: Scalar):
    """Verify the Rota-Baxter identities of weight ``weight`` for the
    candidate ``op`` on all basis pairs.

    Note the left/right crossing: the |- of two R-images expands through
    -| arguments and vice versa; the middle product stays uncrossed.
    """
    return _rota_baxter_witnesses(algebra, op, weight, (
        ("rb-right-of-left", algebra.right, algebra.left),
        ("rb-left-of-right", algebra.left, algebra.right),
        ("rb-middle", algebra.middle, algebra.middle),
    ))


def rota_baxter_check_single(algebra: BiHomAlgebra, op: Matrix, weight: Scalar):
    """Single-product Rota-Baxter identity R(x)*R(y) = R(R(x)*y + x*R(y) + w x*y)."""
    return _rota_baxter_witnesses(
        algebra, op, weight, (("rb-single", algebra.mu, algebra.mu),)
    )


@dataclass(frozen=True)
class RBInducedResult:
    algebra: BiHomTrialgebra
    report: AxiomReport
    precondition_witnesses: tuple

    @property
    def precondition_holds(self) -> bool:
        return not self.precondition_witnesses


def rb_induced(algebra: BiHomAlgebra, op: Matrix, weight: Scalar) -> RBInducedResult:
    """Induce x -| y = x*R(y), x |- y = R(x)*y, x _|_ y = w(x*y).

    The single-product Rota-Baxter identity is the stated hypothesis; it
    is verified and reported rather than trusted, and the induced
    candidate ships with its own axiom report.
    """
    _, pre_wit = rota_baxter_check_single(algebra, op, weight)
    n = algebra.dim
    mu = algebra.mu
    r_img = [op.col(i) for i in range(n)]

    left = _tensor_from_pairs(n, lambda i, j: mu.bilinear(unit_vec(n, i), r_img[j]))
    right = _tensor_from_pairs(n, lambda i, j: mu.bilinear(r_img[i], unit_vec(n, j)))
    middle = _tensor_from_pairs(n, lambda i, j: vec_scale(weight, mu.pair(i, j)))
    candidate = BiHomTrialgebra(
        f"{algebra.name}~rb", left, right, middle, algebra.alpha, algebra.beta
    )
    return RBInducedResult(candidate, check_axioms(candidate), pre_wit)


# -- map swap, product sums, commutator ----------------------------------

@dataclass(frozen=True)
class SwapResult:
    algebra: BiHomTrialgebra
    hypotheses: dict
    iso_holds: bool | None  # None unless every hypothesis holds

    @property
    def iso_tested(self) -> bool:
        return self.iso_holds is not None


def swap_maps(algebra: BiHomTrialgebra) -> SwapResult:
    """Exchange alpha and beta; test the isomorphism claim only under
    the full hypothesis set a^2 = id, b^2 = id, ab = ba = id.

    Those hypotheses force beta = alpha^-1 = alpha, so when they hold
    the swap equals the original and the identity map is the isomorphism.
    """
    swapped = BiHomTrialgebra(
        f"{algebra.name}~swap",
        algebra.left,
        algebra.right,
        algebra.middle,
        algebra.beta,
        algebra.alpha,
    )
    ident = Matrix.identity(algebra.dim)
    a, b = algebra.alpha, algebra.beta
    hypotheses = {
        "alpha_squared_is_id": a @ a == ident,
        "beta_squared_is_id": b @ b == ident,
        "alpha_beta_is_id": a @ b == ident,
        "beta_alpha_is_id": b @ a == ident,
    }
    iso = is_morphism(ident, algebra, swapped)[0] if all(hypotheses.values()) else None
    return SwapResult(swapped, hypotheses, iso)


def sum_middle_right(algebra: BiHomTrialgebra):
    """Candidate (A, -|, _|_, |- + _|_) read positionally as (left, right, middle).

    Returns the candidate and its axiom report; the report, not the
    construction, is the deliverable.
    """
    n = algebra.dim
    star = _tensor_from_pairs(
        n, lambda i, j: vec_add(algebra.right.pair(i, j), algebra.middle.pair(i, j))
    )
    candidate = BiHomTrialgebra(
        f"{algebra.name}~sum-mr",
        algebra.left,
        algebra.middle,
        star,
        algebra.alpha,
        algebra.beta,
    )
    return candidate, check_axioms(candidate)


@dataclass(frozen=True)
class CommutatorReport:
    star: MulTensor             # x*y = x-|y - y|-x
    bracket: MulTensor          # [x,y] = x_|_y - y_|_x
    beta_witnesses: tuple       # [x,y]*b(z) = [x*z, b(y)] + [a(x), y*z]
    alphabeta_witnesses: tuple  # same with ab(z) on the left-hand side


def commutator_construct(algebra: BiHomTrialgebra) -> CommutatorReport:
    """Build x*y = x-|y - y|-x and [x,y] = x_|_y - y_|_x and check the
    displayed Leibniz-type identity in both stated variants."""
    n = algebra.dim
    star = _tensor_from_pairs(
        n, lambda i, j: vec_sub(algebra.left.pair(i, j), algebra.right.pair(j, i))
    )
    bracket = _tensor_from_pairs(
        n, lambda i, j: vec_sub(algebra.middle.pair(i, j), algebra.middle.pair(j, i))
    )
    alpha_img = [algebra.alpha.col(i) for i in range(n)]
    beta_img = [algebra.beta.col(i) for i in range(n)]

    def rhs(i, j, k):
        return vec_add(
            bracket.bilinear(star.pair(i, k), beta_img[j]),
            bracket.bilinear(alpha_img[i], star.pair(j, k)),
        )

    def sweep(check, z_img):
        def lhs(i, j, k):
            return star.bilinear(bracket.pair(i, j), z_img[k])

        return tuple(basis_witnesses(n, 3, (check, lhs, rhs)))

    return CommutatorReport(
        star, bracket,
        sweep("commutator-beta", beta_img), sweep("commutator-alphabeta", ab_images(algebra)),
    )


# -- total sum and averaging ---------------------------------------------

def bihom_associativity_witnesses(algebra: BiHomAlgebra):
    """Failing triples of (x*y)*b(z) = a(x)*(y*z)."""
    n = algebra.dim
    mu = algebra.mu
    alpha_img = [algebra.alpha.col(i) for i in range(n)]
    beta_img = [algebra.beta.col(i) for i in range(n)]
    return tuple(basis_witnesses(n, 3, (
        "bihom-associativity",
        lambda i, j, k: mu.bilinear(mu.pair(i, j), beta_img[k]),
        lambda i, j, k: mu.bilinear(alpha_img[i], mu.pair(j, k)),
    )))


def total_sum(algebra: BiHomTrialgebra):
    """Single product -| + |- + _|_ ; returns the candidate BiHom algebra
    and the witnesses against its BiHom-associativity (empty = holds)."""
    n = algebra.dim
    star = _tensor_from_pairs(
        n,
        lambda i, j: vec_add(
            vec_add(algebra.left.pair(i, j), algebra.right.pair(i, j)),
            algebra.middle.pair(i, j),
        ),
    )
    candidate = BiHomAlgebra(f"{algebra.name}~total", star, algebra.alpha, algebra.beta)
    return candidate, bihom_associativity_witnesses(candidate)


def _averaging_witnesses(t: MulTensor, f: Matrix, prefix=""):
    """Lazily, the basis pairs failing f(f(x)*y) = f(x)*f(y) (``first``) or
    f(x)*f(y) = f(x*f(y)) (``second``) under the product t."""
    n = t.dim
    img = [f.col(i) for i in range(n)]
    e = [unit_vec(n, i) for i in range(n)]
    middle = [[t.bilinear(img[i], img[j]) for j in range(n)] for i in range(n)]

    def mid(i, j):
        return middle[i][j]

    return basis_witnesses(
        n, 2,
        (prefix + "first", lambda i, j: f.apply(t.bilinear(img[i], e[j])), mid),
        (prefix + "second", mid, lambda i, j: f.apply(t.bilinear(e[i], img[j]))),
    )


def averaging_check(algebra: BiHomTrialgebra, xi: Matrix):
    """xi(xi(x)*y) = xi(x)*xi(y) = xi(x*xi(y)) on basis pairs, all products,
    plus commutation with the twists."""
    if xi.dim != algebra.dim:
        raise DimensionMismatch("operator dimension mismatch")
    witnesses = twist_commutation_witnesses(algebra, xi)
    for role in ROLES:
        witnesses += _averaging_witnesses(algebra.tensor(role), xi, f"{role}:")
    return not witnesses, tuple(witnesses)


def averaging_induced(algebra: BiHomAlgebra) -> tuple:
    """From averaging alpha, beta on (A, .), induce
    x -| y = a(x).y,  x |- y = x.b(y),  x _|_ y = a(x).b(y).

    Raises PreconditionFailed naming the first failing averaging identity.
    """
    for name, f in (("alpha", algebra.alpha), ("beta", algebra.beta)):
        w = next(_averaging_witnesses(algebra.mu, f), None)
        if w is not None:
            raise PreconditionFailed(
                f"{name} is not an averaging operator: fails {w.check} identity "
                f"at basis pair ({w.i}, {w.j})"
            )
    n = algebra.dim
    mu = algebra.mu
    a_img = [algebra.alpha.col(i) for i in range(n)]
    b_img = [algebra.beta.col(i) for i in range(n)]
    candidate = BiHomTrialgebra(
        f"{algebra.name}~avg",
        _tensor_from_pairs(n, lambda i, j: mu.bilinear(a_img[i], unit_vec(n, j))),
        _tensor_from_pairs(n, lambda i, j: mu.bilinear(unit_vec(n, i), b_img[j])),
        _tensor_from_pairs(n, lambda i, j: mu.bilinear(a_img[i], b_img[j])),
        algebra.alpha,
        algebra.beta,
    )
    return candidate, check_axioms(candidate)
