"""Catalog of the classified algebras, verification harness and errata log.

The catalog keeps the published tables verbatim (including their two
contradictory duplicate lines, stored as candidate readings) and treats
every recomputation disagreement as data: an errata record naming the
violated check, the published value, the recomputed value and a witness.
Each published basis matrix is re-verified together with its index
transpose; the claim and its errata record report the latter as
``transpose_passes``, and nothing is ever repaired or applied.  The
entries are built on first use, not at import.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from functools import cache

from . import catalog_data
from .centroids import (
    cent_der_property_suite,
    central_derivations,
    centroid_linear_space,
    centroid_space,
    is_centroid_element,
)
from .coordinate import coordinate_detail
from .core import ROLES, BiHomTrialgebra, MulTensor, full_report, products_span
from .derivations import derivation_space, is_derivation
from .errors import UnknownId
from .matrices import Matrix, in_span, rank
from .reports import ErrataRecord, map_to_strings
from .scalars import ONE, ZERO, Scalar
from .transforms import rota_baxter_check


def _tensor_from_spec(dim, spec):
    entries = {}
    for (i, j), ks in (spec or {}).items():
        for k in ks:
            entries[(i - 1, j - 1, k - 1)] = ONE
    return MulTensor.from_entries(dim, entries)


def _map_from_spec(dim, spec):
    return Matrix.from_images(dim, {
        src - 1: [ONE if k in ks else ZERO for k in range(1, dim + 1)]
        for src, ks in (spec or {}).items()
    })


def _algebra_from_raw(name, raw, override=None):
    dim = raw["dim"]
    spec = dict(raw)
    if override:
        slot, products = override
        spec[slot] = products
    return BiHomTrialgebra(
        name,
        *(_tensor_from_spec(dim, spec[role]) for role in ROLES),
        _map_from_spec(dim, spec["alpha"]),
        _map_from_spec(dim, spec["beta"]),
    )


@dataclass(frozen=True)
class CatalogEntry:
    algebra: BiHomTrialgebra  # named by the entry id
    paper_der_dim: int | None
    paper_der_units: tuple
    paper_cent_dim: int | None
    paper_cent_units: tuple
    ambiguity_notes: tuple
    candidates: tuple  # (label, BiHomTrialgebra) for ambiguous entries

    @property
    def id(self) -> str:
        return self.algebra.name


@cache
def _catalog():
    """Every entry by id, in table order."""
    entries = {}
    for name in [f"BTas_2^{m}" for m in range(1, 8)] + [f"BTas_3^{m}" for m in range(1, 25)]:
        raw = catalog_data.RAW_ENTRIES[name]
        amb = catalog_data.AMBIGUOUS.get(name)
        candidates = ()
        notes = ()
        if amb:
            slot = amb["slot"]
            candidates = tuple(
                (label, _algebra_from_raw(f"{name}[{label}]", raw, (slot, products)))
                for label, products in amb["candidates"]
            )
            algebra = candidates[0][1].renamed(name)
            notes = (amb["note"], "verbatim: " + " / ".join(amb["verbatim"]))
        else:
            algebra = _algebra_from_raw(name, raw)
        der = catalog_data.DER_TABLE.get(name)
        if name.startswith("BTas_2"):
            cent_dim, cent_units = catalog_data.CENT_TWO_DIM_COROLLARY, ()
        else:
            cent = catalog_data.CENT_TABLE.get(name)
            cent_dim, cent_units = (cent if cent else (None, ()))
        entries[name] = CatalogEntry(
            algebra,
            der[0] if der else None,
            der[1] if der else (),
            cent_dim,
            cent_units,
            notes,
            candidates,
        )
    return entries


def catalog_list():
    return tuple(_catalog())


def catalog_get(entry_id: str) -> CatalogEntry:
    try:
        return _catalog()[entry_id]
    except KeyError:
        raise UnknownId(f"no catalog entry {entry_id!r}") from None


def rota_baxter_example() -> BiHomTrialgebra:
    """The two-dimensional example carrying the weighted operator R = -w id."""
    return _algebra_from_raw("RBexample_2", catalog_data.ROTA_BAXTER_EXAMPLE)


# -- fingerprints -----------------------------------------------------------

@dataclass(frozen=True)
class Fingerprint:
    axiom_profile: tuple      # (check_id, holds) over all axiom and M checks
    der_dim: int
    cent_linear_dim: int
    product_ranks: tuple      # span dim of the image, per product
    twist_ranks: tuple        # (rank alpha, rank beta)
    squared_dim: int          # dim of A*A over all products

    def to_dict(self):
        return {
            "axiom_profile": ["+" if ok else "-" for _, ok in self.axiom_profile],
            "der_dim": self.der_dim,
            "cent_linear_dim": self.cent_linear_dim,
            "product_ranks": list(self.product_ranks),
            "twist_ranks": list(self.twist_ranks),
            "squared_dim": self.squared_dim,
        }


def fingerprint(algebra: BiHomTrialgebra) -> Fingerprint:
    """Isomorphism-invariant summary used as non-isomorphism evidence."""
    report = full_report(algebra)
    product_ranks = []
    for role in ROLES:
        vecs = products_span(algebra, (role,))
        product_ranks.append(rank(Matrix.from_rows(vecs)) if vecs else 0)
    squared = products_span(algebra)
    return Fingerprint(
        report.profile(),
        derivation_space(algebra).dim,
        len(centroid_linear_space(algebra)),
        tuple(product_ranks),
        (rank(algebra.alpha), rank(algebra.beta)),
        rank(Matrix.from_rows(squared)) if squared else 0,
    )


def distinguish(a_id: str, b_id: str):
    """First fingerprint field separating the two entries, or 'inconclusive'.

    Distinguishing evidence only: 'inconclusive' never claims isomorphism.
    """
    fa = fingerprint(catalog_get(a_id).algebra)
    fb = fingerprint(catalog_get(b_id).algebra)
    for f in fields(Fingerprint):
        va, vb = getattr(fa, f.name), getattr(fb, f.name)
        if va != vb:
            return (f.name, va, vb)
    return "inconclusive"


def distinguished_pair_counts(ids=None):
    """Exhaustive pairwise sweep; returns (distinguished, inconclusive) counts."""
    ids = list(ids) if ids is not None else [i for i in catalog_list() if i.startswith("BTas_3")]
    prints = {i: fingerprint(catalog_get(i).algebra) for i in ids}
    distinguished = inconclusive = 0
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            if prints[ids[x]] != prints[ids[y]]:
                distinguished += 1
            else:
                inconclusive += 1
    return distinguished, inconclusive


# -- verification harness ----------------------------------------------------

def dim_verdict(paper_dim, computed_dim) -> str:
    """A published dimension against the recomputed one: paper-silent,
    match or mismatch."""
    if paper_dim is None:
        return "paper-silent"
    return "match" if paper_dim == computed_dim else "mismatch"


@dataclass(frozen=True)
class ClaimVerification:
    """Outcome of re-verifying one published basis matrix."""

    position: tuple  # (row, col), 1-based
    passes: bool
    transpose_passes: bool
    in_computed_span: bool

    @property
    def label(self):
        """1-based matrix-unit name, e.g. E21 for the unit at row 2, col 1."""
        return "E{}{}".format(*self.position)

    def to_dict(self):
        return {
            "label": self.label,
            "position": list(self.position),
            "passes": self.passes,
            "transpose_passes": self.transpose_passes,
            "in_computed_span": self.in_computed_span,
        }


@dataclass(frozen=True)
class DerivationRow:
    entry: CatalogEntry
    space: object  # the recomputed DerivationSpace
    claims: tuple  # ClaimVerification
    errata: tuple  # ErrataRecord

    @property
    def paper_dim(self):
        return self.entry.paper_der_dim

    @property
    def computed_dim(self):
        return self.space.dim

    @property
    def status(self):
        return dim_verdict(self.paper_dim, self.computed_dim)

    def to_dict(self):
        return {
            "algebra": self.entry.id,
            "computed_dim": self.computed_dim,
            "paper_dim": self.paper_dim,
            "status": self.status,
            "basis": [map_to_strings(b) for b in self.space.basis],
            "claims": [c.to_dict() for c in self.claims],
            "errata": [e.to_dict() for e in self.errata],
        }


@dataclass(frozen=True)
class CentroidRow:
    entry: CatalogEntry
    space: object  # the recomputed CentroidSpace
    claims: tuple
    errata: tuple

    @property
    def paper_dim(self):
        return self.entry.paper_cent_dim

    @property
    def computed_dim(self):
        return self.space.reported_dim

    @property
    def status(self):
        return dim_verdict(self.paper_dim, self.computed_dim)

    def to_dict(self):
        space = self.space
        return {
            "algebra": self.entry.id,
            "linear_dim": space.linear_dim,
            "computed_dim": self.computed_dim,
            "paper_dim": self.paper_dim,
            "status": self.status,
            "linear_basis": [map_to_strings(b) for b in space.linear_basis],
            "subspace_basis": [map_to_strings(b) for b in space.subspace_basis],
            "identically_zero": space.identically_zero,
            "obstruction_too_large": space.obstruction_too_large,
            "method": space.method,
            "solution_description": space.solution_description,
            "obstruction": [p.serialize() for p in space.obstruction],
            "claims": [c.to_dict() for c in self.claims],
            "errata": [e.to_dict() for e in self.errata],
        }


def published_unit_claims(entry, units, check, span_flats, kind, expected, recomputed):
    """Re-verify each published matrix unit (q, p) and its transpose.

    ``check(map)`` returns ``(ok, witnesses)``; ``span_flats`` spans the
    recomputed space.  A failing unit becomes an errata record checked as
    ``kind:E_qp`` with ``expected`` formatted on the label and the
    ``recomputed`` fields after ``passes``/``transpose_passes``.
    Returns ``(claims, errata)``.
    """
    dim = entry.algebra.dim
    claims = []
    errata = []
    for (q, p) in units or ():
        unit = Matrix.unit(dim, q - 1, p - 1)
        ok, wit = check(unit)
        t_ok, _ = check(Matrix.unit(dim, p - 1, q - 1))
        claim = ClaimVerification((q, p), ok, t_ok, in_span(span_flats, unit.entries))
        claims.append(claim)
        if not ok:
            errata.append(
                ErrataRecord(
                    entry.id,
                    f"{kind}:{claim.label}",
                    expected.format(claim.label),
                    {"passes": False, "transpose_passes": t_ok, **recomputed},
                    wit[0].to_list() if wit else None,
                )
            )
    return tuple(claims), errata


def _dim_errata(entry, kind, paper_dim, computed_dim, computed):
    """The ``kind-dim`` errata record of a dimension mismatch, carrying ``computed``."""
    if dim_verdict(paper_dim, computed_dim) != "mismatch":
        return []
    return [ErrataRecord(entry.id, f"{kind}-dim", f"published dim {paper_dim}", computed, None)]


def derivation_row(entry: CatalogEntry) -> DerivationRow:
    """Recompute the derivation space, compare it with the published row,
    re-verify every published basis matrix; errata on any mismatch."""
    algebra = entry.algebra
    space = derivation_space(algebra)
    recomputed = {
        "recomputed_dim": space.dim,
        "recomputed_basis": [map_to_strings(b) for b in space.basis],
    }
    claims, errata = published_unit_claims(
        entry, entry.paper_der_units, lambda u: is_derivation(algebra, u),
        space.flats(), "derivation-basis", "published basis matrix {} is a derivation", recomputed,
    )
    errata += _dim_errata(entry, "derivation", entry.paper_der_dim, space.dim, recomputed)
    return DerivationRow(entry, space, claims, tuple(errata))


def _centroid_row(entry: CatalogEntry) -> CentroidRow:
    algebra = entry.algebra
    space = centroid_space(algebra)
    subspace = [map_to_strings(b) for b in space.subspace_basis]
    claims, errata = published_unit_claims(
        entry, entry.paper_cent_units, lambda u: is_centroid_element(algebra, u),
        [list(b.entries) for b in space.subspace_basis],
        "centroid-basis", "published centroid matrix {} satisfies the definition",
        {"recomputed_dim": space.reported_dim, "recomputed_subspace": subspace},
    )
    errata += _dim_errata(
        entry, "centroid", entry.paper_cent_dim, space.reported_dim,
        {
            "recomputed_dim": space.reported_dim,
            "linear_stage_dim": space.linear_dim,
            "recomputed_subspace": subspace,
        },
    )
    return CentroidRow(entry, space, claims, tuple(errata))


@dataclass(frozen=True)
class EntryVerification:
    checks: tuple                 # (check_id, holds) over ALL_CHECK_IDS
    coordinate_agrees: bool
    derivation: DerivationRow
    centroid: CentroidRow
    ambiguity: tuple              # ErrataRecord
    candidate_profiles: tuple     # (label, all_axioms_hold)
    errata: tuple                 # ErrataRecord of the failing axioms

    @property
    def entry(self) -> str:
        """The entry id, read from the row's catalog entry."""
        return self.derivation.entry.id

    @property
    def axioms_pass(self):
        """The defining axioms C0, A1..A9 all hold (multiplicativity aside)."""
        return all(ok for cid, ok in self.checks if not cid.startswith("M"))

    @property
    def multiplicative(self):
        return all(ok for cid, ok in self.checks if cid.startswith("M"))

    def to_dict(self):
        return {
            "entry": self.entry,
            "checks": {cid: ok for cid, ok in self.checks},
            "coordinate_agrees": self.coordinate_agrees,
            "derivation": self.derivation.to_dict(),
            "centroid": self.centroid.to_dict(),
            "ambiguity": [e.to_dict() for e in self.ambiguity],
            "candidate_profiles": [
                {"label": label, "axioms_pass": ok} for label, ok in self.candidate_profiles
            ],
            "errata": [e.to_dict() for e in self.errata],
        }


@dataclass(frozen=True)
class CatalogVerification:
    entries: tuple
    elapsed_seconds: float

    @property
    def errata(self):
        out = []
        for e in self.entries:
            out.extend(e.ambiguity)
            out.extend(e.errata)
            out.extend(e.derivation.errata)
            out.extend(e.centroid.errata)
        return out

    def to_dict(self):
        # run timing deliberately excluded: structured output must be
        # byte-identical across runs
        return {
            "entries": [e.to_dict() for e in self.entries],
            "errata_count": len(self.errata),
        }


def verify_entry(entry: CatalogEntry) -> EntryVerification:
    algebra = entry.algebra
    combined = full_report(algebra)
    checks = combined.profile()
    coord = coordinate_detail(algebra)
    coordinate_agrees = all(
        coord[cid] == res.holds for cid, res in ((r.axiom_id, r) for r in combined.results)
    )
    errata = []
    for res in combined.results:
        if not res.holds:
            w = res.witnesses[0]
            errata.append(
                ErrataRecord(
                    entry.id,
                    f"axiom:{res.axiom_id}",
                    "identity holds on all basis tuples",
                    {"failing_tuples": len(res.witnesses)},
                    w.to_dict(),
                )
            )
    ambiguity = []
    candidate_profiles = tuple(
        (label, full_report(alg).all_hold) for label, alg in entry.candidates
    )
    if entry.candidates:
        ambiguity.append(
            ErrataRecord(
                entry.id,
                "ambiguity",
                "a single well-defined product table",
                {label: ok for label, ok in candidate_profiles},
                list(entry.ambiguity_notes),
            )
        )
    return EntryVerification(
        checks,
        coordinate_agrees,
        derivation_row(entry),
        _centroid_row(entry),
        tuple(ambiguity),
        candidate_profiles,
        tuple(errata),
    )


def catalog_verify(entry_id: str | None = None) -> CatalogVerification:
    """Verify one entry or (entry_id=None) the whole catalog."""
    start = time.perf_counter()
    ids = catalog_list() if entry_id is None else [entry_id]
    entries = tuple(verify_entry(catalog_get(i)) for i in ids)
    return CatalogVerification(entries, time.perf_counter() - start)


def rota_baxter_example_report():
    """Verify the published operator R = -w id on the example algebra at
    the spot weights 0, 1 and -2; failures become errata with the failing
    pair."""
    algebra = rota_baxter_example()
    results = []
    errata = []
    for w in (0, 1, -2):
        lam = Scalar(w)
        op = Matrix.identity(algebra.dim).scale(-lam)
        ok, witnesses = rota_baxter_check(algebra, op, lam)
        results.append({"weight": w, "holds": ok, "failing_pairs": len(witnesses)})
        if not ok:
            first = witnesses[0]
            errata.append(
                ErrataRecord(
                    "RBexample_2",
                    f"rota-baxter:weight={w}",
                    "the published operator verifies the weighted identities",
                    {"holds": False, "failing_pairs": len(witnesses)},
                    {"identity": first.check, "pair": [first.i, first.j]},
                )
            )
    return results, errata


def interaction_report():
    """Cent/Der interaction over the whole catalog: compositions, the
    equality of central derivations with Cent intersect Der, and the
    composition equivalences; every deviation is an errata record."""
    rows = []
    errata = []
    for name in catalog_list():
        algebra = catalog_get(name).algebra
        suite = cent_der_property_suite(algebra, name)
        cd = central_derivations(algebra)
        errata.extend(suite.failures)
        if not cd.equals_intersection:
            errata.append(
                ErrataRecord(
                    name,
                    "central-derivations-equality",
                    "central derivations coincide with Cent intersect Der",
                    {
                        "central_dim": len(cd.basis),
                        "cent_inter_der_dim": len(cd.cent_inter_der),
                        "stage1_inter_der_dim": len(cd.stage1_inter_der),
                        "contains_intersection": cd.contains_intersection,
                    },
                    None,
                )
            )
        rows.append(
            {
                "entry": name,
                "records": len(suite.records),
                "suite_failures": len(suite.failures),
                "central_dim": len(cd.basis),
                "cent_inter_der_dim": len(cd.cent_inter_der),
                "contains_intersection": cd.contains_intersection,
                "equals_intersection": cd.equals_intersection,
            }
        )
    return rows, errata
