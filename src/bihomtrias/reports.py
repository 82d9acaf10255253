"""Errata records and table-report rows.

The errata log is the artifact's way of saying "this published table
entry fails recomputation": every record carries the violated check, the
expected (published) value, the recomputed value and a witness.  Records
are plain data, deterministically ordered, and serialize to JSON.
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

    label: str
    position: tuple  # (row, col), 1-based
    passes: bool
    transpose_passes: bool
    in_computed_span: bool

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
    algebra: str
    computed_dim: int
    paper_dim: int | None
    status: str  # match | mismatch | paper-silent
    basis: tuple  # LinearMaps, canonical
    claims: tuple  # ClaimVerification
    errata: tuple  # ErrataRecord

    def to_dict(self):
        return {
            "algebra": self.algebra,
            "computed_dim": self.computed_dim,
            "paper_dim": self.paper_dim,
            "status": self.status,
            "basis": [map_to_strings(b) for b in self.basis],
            "claims": [c.to_dict() for c in self.claims],
            "errata": [e.to_dict() for e in self.errata],
        }


@dataclass(frozen=True)
class CentroidRow:
    algebra: str
    linear_dim: int
    computed_dim: int
    paper_dim: int | None
    status: str
    linear_basis: tuple
    subspace_basis: tuple
    identically_zero: bool
    obstruction_too_large: bool
    method: str
    solution_description: str
    obstruction: tuple  # serialized polynomials
    claims: tuple
    errata: tuple

    def to_dict(self):
        return {
            "algebra": self.algebra,
            "linear_dim": self.linear_dim,
            "computed_dim": self.computed_dim,
            "paper_dim": self.paper_dim,
            "status": self.status,
            "linear_basis": [map_to_strings(b) for b in self.linear_basis],
            "subspace_basis": [map_to_strings(b) for b in self.subspace_basis],
            "identically_zero": self.identically_zero,
            "obstruction_too_large": self.obstruction_too_large,
            "method": self.method,
            "solution_description": self.solution_description,
            "obstruction": list(self.obstruction),
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
            ClaimVerification(label, (q, p), ok, t_ok, in_span(span_flats, list(unit.flatten())))
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
