"""Centralizers, central derivations, and the twisted centroid.

A centroid element satisfies, for each product and all x, y,

    psi(x) * ab(y)  =  psi(x) * psi(y)  =  ab(x) * psi(y)

plus commutation with the twists.  The outer equality is linear in psi;
the middle one is quadratic.  The space is therefore computed in stages:

  1. the linear space cut out by the commutations and the outer equality;
  2. the quadratic obstruction polynomials obtained by substituting
     psi = sum t_m B_m into psi(x)*psi(y) - psi(x)*ab(y);
  3. an exact description of the largest linear subspace of parameters
     on which every obstruction vanishes.

A linear subspace lies in the vanishing set iff the degree-1 and
degree-2 parts vanish on it separately (characteristic zero), so stage 3
first intersects the kernels of the linear parts and then hunts for a
maximal totally-null subspace of the residual quadratic forms: exactly
for up to two residual parameters (conic factoring over Q(i)), by
maximal-clique search over the canonical basis directions beyond that.
The reported dimension is always a verified lower bound and is exact in
every case the coordinate search decides.
"""

from __future__ import annotations

from itertools import combinations

from dataclasses import dataclass

from .core import (
    ROLES,
    BiHomTrialgebra,
    ab_images,
    basis_witnesses,
    per_algebra,
    products_span,
    twist_commutation_witnesses,
)
from .derivations import derivation_space, is_derivation, twisted_leibniz_rows
from .errors import DimensionMismatch
from .matrices import (
    Matrix,
    combination,
    nullspace,
    rank,
    row_space,
    span_intersection,
    unit_vec,
    vec_is_zero,
)
from .reports import ErrataRecord, map_to_strings
from .scalars import ONE, ZERO, Scalar, format_scalar, scalar_sqrt


# -- centralizers --------------------------------------------------------

def _centralizer_rows(algebra: BiHomTrialgebra, h_vectors):
    """Rows in the n unknowns of x for ab(x)*h = 0 and h*ab(x) = 0."""
    n = algebra.dim
    ab_cols = ab_images(algebra)
    rows = []
    for h in h_vectors:
        for role in ROLES:
            t = algebra.tensor(role)
            left_of = [t.bilinear(ab_cols[u], h) for u in range(n)]
            right_of = [t.bilinear(h, ab_cols[u]) for u in range(n)]
            for r in range(n):
                rows.append([left_of[u][r] for u in range(n)])
                rows.append([right_of[u][r] for u in range(n)])
    return rows


def centralizer(algebra: BiHomTrialgebra, h_vectors, restrict_to_h=False) -> tuple:
    """Canonical basis of the x with ab(x)*h = h*ab(x) = 0 for every h in H,
    x ranging over the whole space, or over span(H) under the literal
    membership reading."""
    n = algebra.dim
    h_vectors = [tuple(v) for v in h_vectors]
    for v in h_vectors:
        if len(v) != n:
            raise DimensionMismatch("centralizer generator has wrong length")
    rows = _centralizer_rows(algebra, h_vectors)
    if not restrict_to_h:
        if not rows:
            return tuple(unit_vec(n, i) for i in range(n))
        return tuple(nullspace(Matrix.from_rows(rows)))
    if not h_vectors:
        return ()
    h_matrix = Matrix.from_rows(h_vectors)
    kernel = nullspace(Matrix.from_rows([h_matrix.apply(row) for row in rows]))
    space = row_space(combination(coeffs, h_vectors) for coeffs in kernel)
    return tuple(space.row(r) for r in range(space.rows))


# -- pointwise centroid verification --------------------------------------

def is_centroid_element(algebra: BiHomTrialgebra, psi: Matrix, right_chain="alpha-beta"):
    """Check both equalities of each chain on all basis pairs.

    ``right_chain="literal"`` swaps the |- chain's first member to
    psi(x) |- alpha(psi(y)), the variant spelled in the published
    definition; the default ``"alpha-beta"`` uses ab(y) like the other two
    products.  Any other value raises ValueError.
    """
    if right_chain not in ("alpha-beta", "literal"):
        raise ValueError(f"right_chain must be 'alpha-beta' or 'literal', got {right_chain!r}")
    if psi.dim != algebra.dim:
        raise DimensionMismatch("centroid candidate dimension mismatch")
    n = algebra.dim
    witnesses = twist_commutation_witnesses(algebra, psi)
    ab_img = ab_images(algebra)
    psi_img = [psi.col(i) for i in range(n)]
    for role in ROLES:
        t = algebra.tensor(role)
        if role == "right" and right_chain == "literal":
            first_right = [algebra.alpha.apply(psi_img[j]) for j in range(n)]
        else:
            first_right = ab_img
        middle = [[t.bilinear(psi_img[i], psi_img[j]) for j in range(n)] for i in range(n)]

        def mid(i, j):
            return middle[i][j]

        witnesses += basis_witnesses(
            n, 2,
            (f"{role}:outer-vs-middle", lambda i, j: t.bilinear(psi_img[i], first_right[j]), mid),
            (f"{role}:middle-vs-outer", mid, lambda i, j: t.bilinear(ab_img[i], psi_img[j])),
        )
    return not witnesses, tuple(witnesses)


# -- obstruction polynomials ----------------------------------------------

@dataclass(frozen=True)
class QuadraticPoly:
    """q(t) = sum_{a<=b} quad[(a,b)] t_a t_b - sum_a lin[a] t_a, 0-based keys."""

    quad: tuple  # sorted ((a, b), Scalar) pairs
    lin: tuple   # sorted (a, Scalar) pairs

    def polar(self, u, v):
        """Symmetric bilinear form of the quadratic part: polar(v, v) is
        sum quad[(a,b)] v_a v_b."""
        acc = ZERO
        half = Scalar(1) / Scalar(2)
        for (a, b), coeff in self.quad:
            if a == b:
                acc = acc + coeff * u[a] * v[a]
            else:
                acc = acc + coeff * half * (u[a] * v[b] + u[b] * v[a])
        return acc

    def serialize(self):
        return {
            "quad": {f"{a + 1},{b + 1}": format_scalar(c) for (a, b), c in self.quad},
            "lin": {f"{a + 1}": format_scalar(c) for a, c in self.lin},
        }


@dataclass(frozen=True)
class CentroidSpace:
    linear_basis: tuple      # maps (square Matrix values) spanning the stage-1 linear space
    obstruction: tuple       # nonzero QuadraticPoly, deduplicated
    subspace_basis: tuple    # maps spanning the largest linear subspace found in
                             # the vanishing set; its length is the reported dim
    solution_description: str
    method: str              # full | linear-part-reduction | exact-conic | coordinate-search

    @property
    def identically_zero(self):
        return not self.obstruction

    @property
    def reported_dim(self):
        return len(self.subspace_basis)

    @property
    def linear_dim(self):
        return len(self.linear_basis)

    @property
    def obstruction_too_large(self):
        return self.linear_dim > 2 and not self.identically_zero

    def linear_flats(self):
        return [list(b.entries) for b in self.linear_basis]


@per_algebra
def centroid_linear_space(algebra: BiHomTrialgebra):
    """Stage 1: commutations plus the outer equality, as canonical maps."""
    kernel = nullspace(Matrix.from_rows(twisted_leibniz_rows(algebra, with_image=False)))
    return tuple(Matrix(algebra.dim, algebra.dim, v) for v in kernel)


def _obstruction_polys(algebra: BiHomTrialgebra):
    """Substitute psi = sum t_m B_m, over the stage-1 basis B, into
    psi(x)*psi(y) - psi(x)*ab(y)."""
    n = algebra.dim
    basis = centroid_linear_space(algebra)
    m = len(basis)
    ab_img = ab_images(algebra)
    b_img = [[b.col(i) for i in range(n)] for b in basis]
    polys = {}
    for role in ROLES:
        t = algebra.tensor(role)
        for i in range(n):
            for j in range(n):
                quad_parts = {}
                for m1 in range(m):
                    for m2 in range(m):
                        v = t.bilinear(b_img[m1][i], b_img[m2][j])
                        if vec_is_zero(v):
                            continue
                        key = (m1, m2) if m1 <= m2 else (m2, m1)
                        prev = quad_parts.get(key)
                        quad_parts[key] = v if prev is None else tuple(
                            a + b for a, b in zip(prev, v)
                        )
                lin_parts = {}
                for m1 in range(m):
                    v = t.bilinear(b_img[m1][i], ab_img[j])
                    if not vec_is_zero(v):
                        lin_parts[m1] = v
                for r in range(n):
                    quad = tuple(
                        sorted(
                            (key, v[r]) for key, v in quad_parts.items() if not v[r].is_zero
                        )
                    )
                    lin = tuple(
                        sorted((key, v[r]) for key, v in lin_parts.items() if not v[r].is_zero)
                    )
                    if quad or lin:
                        polys[(quad, lin)] = QuadraticPoly(quad, lin)
    return tuple(polys[k] for k in sorted(polys, key=_poly_sort_key))


def _poly_sort_key(key):
    quad, lin = key
    return (
        tuple((a, b, format_scalar(c)) for (a, b), c in quad),
        tuple((a, format_scalar(c)) for a, c in lin),
    )


def _binary_form_lines(forms):
    """Common projective root lines over Q(i) of binary quadratic forms.

    Each form is a nonzero 2x2 symmetric Gram matrix, and there is at least
    one; a line span{(u, v)} is a common root iff every form vanishes on
    (u, v).
    """
    def roots_of(g):
        q11, q12, q22 = g[0][0], g[0][1] + g[1][0], g[1][1]
        lines = []
        if q11.is_zero:
            lines.append((ONE, ZERO))
            if not q12.is_zero:
                lines.append((-q22 / q12, ONE))
        else:
            disc = q12 * q12 - Scalar(4) * q11 * q22
            root = scalar_sqrt(disc)
            if root is not None:
                two_a = Scalar(2) * q11
                lines.append(((-q12 + root) / two_a, ONE))
                if not root.is_zero:
                    lines.append(((-q12 - root) / two_a, ONE))
        return lines

    common = set(roots_of(forms[0]))
    for g in forms[1:]:
        if not common:
            return []
        common &= set(roots_of(g))
    return sorted(common, key=lambda l: (format_scalar(l[0]), format_scalar(l[1])))


def _vanishing_subspace(polys, m):
    """Stage 3: parameter vectors spanning a linear subspace of the common
    vanishing set of the obstruction polynomials in m parameters, with its
    description and the method that found it."""
    # Kernel of all degree-1 parts: a subspace in the vanishing set must
    # kill them (closed under scaling splits the degrees).
    lin_rows = []
    for p in polys:
        if p.lin:
            row = [ZERO] * m
            for a, c in p.lin:
                row[a] = c
            lin_rows.append(row)
    if lin_rows:
        k_basis = nullspace(Matrix.from_rows(lin_rows))
    else:
        k_basis = [unit_vec(m, a) for a in range(m)]
    d = len(k_basis)

    if d == 0:
        return ((), "degree-1 obstruction parts only vanish at 0: only the zero map",
                "linear-part-reduction")

    grams = []
    for p in polys:
        g = [[p.polar(k_basis[a], k_basis[b]) for b in range(d)] for a in range(d)]
        if any(not g[a][b].is_zero for a in range(d) for b in range(d)):
            grams.append(g)

    if not grams:
        return (k_basis, f"quadratic parts vanish on the kernel of the degree-1 parts "
                f"({d} parameters)", "linear-part-reduction")

    if d == 1:
        return ((), "single residual parameter with a nonzero quadratic obstruction: "
                "only the zero map", "exact-conic")

    if d == 2:
        lines = _binary_form_lines(grams)
        if not lines:
            return ((), "residual conics share no rational root line: only the zero map",
                    "exact-conic")
        u, v = lines[0]
        param = tuple(u * a + v * b for a, b in zip(k_basis[0], k_basis[1]))
        desc = "common conic root line(s): " + "; ".join(
            f"({format_scalar(a)}, {format_scalar(b)})" for a, b in lines
        )
        return (param,), desc, "exact-conic"

    # d >= 3: maximal coordinate clique in the residual quadric system.
    ok_nodes = [
        a for a in range(d) if all(g[a][a].is_zero for g in grams)
    ]
    compatible = {
        (a, b)
        for a in ok_nodes
        for b in ok_nodes
        if a < b and all(g[a][b].is_zero for g in grams)
    }
    winners = []
    for size in range(len(ok_nodes), 0, -1):
        for subset in combinations(ok_nodes, size):
            if all((a, b) in compatible for a, b in combinations(subset, 2)):
                winners.append(subset)
        if winners:
            break
    best = winners[0] if winners else ()
    listed = "; ".join(str([a + 1 for a in w]) for w in winners) or "none"
    return ([k_basis[a] for a in best], f"maximal coordinate subspace(s) of {d} residual "
            f"parameters (verified lower bound; direction sets {listed})", "coordinate-search")


@per_algebra
def centroid_space(algebra: BiHomTrialgebra) -> CentroidSpace:
    basis = centroid_linear_space(algebra)
    polys = _obstruction_polys(algebra)
    if not polys:
        # the stage-1 basis itself, not its row-reduced form
        sub, method = basis, "full"
        desc = "obstruction vanishes identically: the centroid is the full linear space"
    else:
        params, desc, method = _vanishing_subspace(polys, len(basis))
        basis_flats = [b.entries for b in basis]
        space = row_space(combination(pv, basis_flats) for pv in params)
        sub = tuple(Matrix(algebra.dim, algebra.dim, row) for row in space.row_list())
    return CentroidSpace(basis, polys, sub, desc, method)


# -- central derivations ---------------------------------------------------

@dataclass(frozen=True)
class CentralDerivations:
    basis: tuple              # maps: image in Z(A), kernel contains A*A
    cent_inter_der: tuple     # verified centroid subspace intersect Der
    stage1_inter_der: tuple   # stage-1 linear space intersect Der
    contains_intersection: bool  # span(cent_inter_der) lies in span(basis)

    @property
    def equals_intersection(self):
        """Both bases are independent, so the contained span is the whole
        one exactly when the dimensions agree."""
        return self.contains_intersection and len(self.cent_inter_der) == len(self.basis)


@per_algebra
def _central_conditions(algebra: BiHomTrialgebra) -> Matrix:
    """The conditions defining central derivations as one reduced system in
    the n^2 unknowns psi_qp (flattened (q, p) row-major): psi(e_p) in
    Z_A(A) for every p, and psi(A*A) = 0.  It has no rows when every map
    is central (the zero algebra)."""
    n = algebra.dim
    rows = []
    for crow in _centralizer_rows(algebra, [unit_vec(n, i) for i in range(n)]):
        for p in range(n):
            row = [ZERO] * (n * n)
            for u in range(n):
                if not crow[u].is_zero:
                    row[u * n + p] = crow[u]
            rows.append(row)
    for v in row_space(products_span(algebra)).row_list():
        for r in range(n):
            row = [ZERO] * (n * n)
            row[r * n:(r + 1) * n] = v
            rows.append(row)
    return row_space(rows)


@per_algebra
def central_derivations(algebra: BiHomTrialgebra) -> CentralDerivations:
    """Maps with image in the full centralizer and kernel containing A*A,
    cross-checked against Cent intersect Der."""
    n = algebra.dim
    kernel = nullspace(_central_conditions(algebra))
    basis = tuple(Matrix(n, n, v) for v in kernel)

    der = derivation_space(algebra)
    cent = centroid_space(algebra)
    der_flats = der.flats()
    stage1_inter = span_intersection(der_flats, cent.linear_flats())
    true_inter = span_intersection(der_flats, [list(b.entries) for b in cent.subspace_basis])
    # both bases are independent, so span(true_inter) lies in span(kernel)
    # iff stacking them keeps the rank
    return CentralDerivations(
        basis,
        tuple(Matrix(n, n, v) for v in true_inter),
        tuple(Matrix(n, n, v) for v in stage1_inter),
        rank(Matrix.from_rows(kernel + true_inter)) == len(kernel),
    )


def is_central_derivation(algebra: BiHomTrialgebra, psi: Matrix) -> bool:
    """Direct definition check: psi(A) inside Z_A(A) and psi(A*A) = 0."""
    if psi.dim != algebra.dim:
        raise DimensionMismatch("central derivation candidate dimension mismatch")
    return vec_is_zero(_central_conditions(algebra).apply(psi.entries))


# -- interaction property suite --------------------------------------------

@dataclass(frozen=True)
class CentDerSuiteReport:
    records: tuple
    failures: tuple  # ErrataRecord

    @property
    def clean(self):
        return not self.failures


# (record key, errata check, expected statement), in errata order
_SUITE_CHECKS = (
    ("phi_d_is_derivation", "cent-der:phi-compose-d", "phi . d is a derivation"),
    ("equiv_i_holds", "cent-der:equivalence-i", "d.phi in Cent iff phi.d central"),
    ("equiv_ii_holds", "cent-der:equivalence-ii", "d.phi in Der iff [d,phi] central"),
)


def cent_der_property_suite(algebra: BiHomTrialgebra, entry_id=None) -> CentDerSuiteReport:
    """Compositions of verified centroid elements with derivations:

    - phi . d must again be a derivation;
    - d . phi in Cent  iff  phi . d is a central derivation    (i)
    - d . phi in Der   iff  [d, phi] is a central derivation   (ii)

    Failures become errata records, not exceptions.
    """
    entry_id = entry_id or algebra.name
    der = derivation_space(algebra)
    cent = centroid_space(algebra)
    records = []
    failures = []
    for pi, phi in enumerate(cent.subspace_basis):
        ok, wit = is_centroid_element(algebra, phi)
        if not ok:
            failures.append(
                ErrataRecord(
                    entry_id,
                    "centroid-subspace-soundness",
                    f"subspace basis element {pi + 1} passes the centroid definition",
                    {"matrix": map_to_strings(phi)},
                    wit[0].check if wit else None,
                )
            )
            continue
        for di, dmap in enumerate(der.basis):
            phi_d = phi @ dmap
            d_phi = dmap @ phi
            bracket = d_phi - phi_d
            phi_d_der = is_derivation(algebra, phi_d)[0]
            d_phi_cent = is_centroid_element(algebra, d_phi)[0]
            d_phi_der = is_derivation(algebra, d_phi)[0]
            phi_d_central = is_central_derivation(algebra, phi_d)
            bracket_central = is_central_derivation(algebra, bracket)
            rec = {
                "phi": f"phi{pi + 1}",
                "d": f"d{di + 1}",
                "phi_d_is_derivation": phi_d_der,
                "d_phi_in_cent": d_phi_cent,
                "d_phi_in_der": d_phi_der,
                "phi_d_central": phi_d_central,
                "bracket_central": bracket_central,
                "equiv_i_holds": d_phi_cent == phi_d_central,
                "equiv_ii_holds": d_phi_der == bracket_central,
            }
            records.append(rec)
            failures.extend(
                ErrataRecord(entry_id, check, expected, rec,
                             {"phi": map_to_strings(phi), "d": map_to_strings(dmap)})
                for key, check, expected in _SUITE_CHECKS
                if not rec[key]
            )
    return CentDerSuiteReport(tuple(records), tuple(failures))
