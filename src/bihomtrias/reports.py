"""Errata records and the string form of a map.

An errata record says "this published table entry fails recomputation":
it carries the violated check, the expected (published) value, the
recomputed value and a witness.  Records are plain data,
deterministically ordered, and serialize to JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import Matrix
from .scalars import format_scalar


def map_to_strings(m: Matrix):
    n = m.dim
    return [[format_scalar(m[r, c]) for c in range(n)] for r in range(n)]


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
