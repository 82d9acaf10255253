"""Errata records and table-report rows.

The errata log is the artifact's way of saying "this published table
entry fails recomputation": every record carries the violated check, the
expected (published) value, the recomputed value and a witness.  Records
are plain data, deterministically ordered, and serialize to JSON.  A
table row keeps the recomputed space it reports and adds only the
published dimension, the verdict, the re-verified claims and the errata.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import LinearMap
from .matrices import in_span
from .scalars import format_scalar


def unit_label(row: int, col: int) -> str:
    """1-based matrix-unit label, e.g. E21 for the unit at row 2, col 1."""
    return f"E{row}{col}"


def map_to_strings(m: LinearMap):
    return [
        [format_scalar(m.matrix[r, c]) for c in range(m.dim)] for r in range(m.dim)
    ]


@dataclass(frozen=True)
class ErrataRecord:
    entry: str
    check: str
    expected: str
    computed: object
    witness: object

    def to_dict(self):
        return {
            "entry": self.entry,
            "check": self.check,
            "expected": self.expected,
            "computed": self.computed,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class ClaimVerification:
    """Outcome of re-verifying one published basis matrix."""

    position: tuple  # (row, col), 1-based
    passes: bool
    transpose_passes: bool
    in_computed_span: bool

    @property
    def label(self):
        return unit_label(*self.position)

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
    space: object  # the recomputed DerivationSpace
    paper_dim: int | None
    status: str  # match | mismatch | paper-silent
    claims: tuple  # ClaimVerification
    errata: tuple  # ErrataRecord

    @property
    def computed_dim(self):
        return self.space.dim

    def to_dict(self):
        space = self.space
        return {
            "algebra": space.algebra,
            "computed_dim": self.computed_dim,
            "paper_dim": self.paper_dim,
            "status": self.status,
            "basis": [map_to_strings(b) for b in space.basis],
            "claims": [c.to_dict() for c in self.claims],
            "errata": [e.to_dict() for e in self.errata],
        }


@dataclass(frozen=True)
class CentroidRow:
    space: object  # the recomputed CentroidSpace
    paper_dim: int | None
    status: str
    claims: tuple
    errata: tuple

    @property
    def computed_dim(self):
        return self.space.reported_dim

    def to_dict(self):
        space = self.space
        return {
            "algebra": space.algebra,
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


def dim_verdict(entry_id, kind, paper_dim, computed_dim, computed):
    """Status of a published dimension against the recomputed one
    (paper-silent, match or mismatch), with the ``kind-dim`` errata
    records: one on a mismatch, carrying ``computed``, else none."""
    if paper_dim is None:
        return "paper-silent", []
    if paper_dim == computed_dim:
        return "match", []
    return "mismatch", [
        ErrataRecord(entry_id, f"{kind}-dim", f"published dim {paper_dim}", computed, None)
    ]


def published_unit_claims(entry_id, dim, units, check, span_flats, kind, expected, recomputed):
    """Re-verify each published matrix unit (q, p) and its transpose.

    ``check(map)`` returns ``(ok, witnesses)``; ``span_flats`` spans the
    recomputed space.  A failing unit becomes an errata record checked as
    ``kind:E_qp`` with ``expected`` formatted on the label and the
    ``recomputed`` fields after ``passes``/``transpose_passes``.
    Returns ``(claims, errata)``.
    """
    claims = []
    errata = []
    for (q, p) in units or ():
        label = unit_label(q, p)
        unit = LinearMap.unit(dim, q - 1, p - 1)
        ok, wit = check(unit)
        t_ok, _ = check(LinearMap.unit(dim, p - 1, q - 1))
        claims.append(
            ClaimVerification((q, p), ok, t_ok, in_span(span_flats, list(unit.flatten())))
        )
        if not ok:
            errata.append(
                ErrataRecord(
                    entry_id,
                    f"{kind}:{label}",
                    expected.format(label),
                    {"passes": False, "transpose_passes": t_ok, **recomputed},
                    wit[0].to_list() if wit else None,
                )
            )
    return tuple(claims), errata
