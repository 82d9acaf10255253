"""Canonical algebra and operator documents.

An algebra document is a single JSON object::

    {
      "name": "BTas_2^1",
      "dim": 2,
      "left":   [{"i": 1, "j": 2, "k": 1, "c": "1"}, ...],
      "right":  [...],
      "middle": [...],
      "alpha":  [["0", "1"], ["0", "0"]],
      "beta":   [["0", "1"], ["0", "0"]]
    }

Product records use 1-based basis indices and Scalar strings; unlisted
products are zero (the zero-completion convention).  ``alpha``/``beta``
are dim x dim arrays of Scalar strings with entry [j][i] = coefficient
of e_j in the image of e_i (column i is the image of e_i).  Duplicate
(i, j, k) triples in one product block are a ParseError.

An operator document (for R, psi, xi) is a bare dim x dim array of
Scalar strings under the same column-as-image convention.

Serialization is canonical: fixed key order, products sorted by
(i, j, k), zero coefficients omitted, canonical scalar spellings.
parse(serialize(A)) == A, and serialize . parse is idempotent on bytes.
"""

from __future__ import annotations

import json

from .core import ROLES, BiHomTrialgebra, MulTensor
from .errors import DimensionError, ParseError
from .matrices import Matrix
from .reports import map_to_strings
from .scalars import format_scalar, parse_scalar

# Largest dim an algebra document may declare.  Products are dense n^3 tensors
# and the axiom sweep costs about n^6 operations; the catalog stops at dim 3,
# direct sums of its entries at 6.
MAX_DIM = 8


def _check_dim(dim, location="dim"):
    if dim > MAX_DIM:
        raise DimensionError(f"dim {dim} exceeds the limit of {MAX_DIM}", location)


def _check_index(value, dim, location):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"index must be an integer, got {value!r}", location)
    if not 1 <= value <= dim:
        raise DimensionError(f"index {value} out of range 1..{dim}", location)
    return value - 1


def _parse_tensor(records, dim, key):
    if not isinstance(records, list):
        raise ParseError(f"{key} must be an array of product records", key)
    entries = {}
    for pos, rec in enumerate(records):
        loc = f"{key}[{pos}]"
        if not isinstance(rec, dict) or set(rec) != {"i", "j", "k", "c"}:
            raise ParseError("product record must have exactly i, j, k, c", loc)
        i = _check_index(rec["i"], dim, loc + ".i")
        j = _check_index(rec["j"], dim, loc + ".j")
        k = _check_index(rec["k"], dim, loc + ".k")
        if (i, j, k) in entries:
            raise ParseError(
                f"duplicate product triple (i={rec['i']}, j={rec['j']}, k={rec['k']})", loc
            )
        entries[(i, j, k)] = parse_scalar(rec["c"], loc + ".c")
    return MulTensor.from_entries(dim, entries)


def _parse_map(rows, dim, key):
    if (
        not isinstance(rows, list)
        or len(rows) != dim
        or any(not isinstance(r, list) or len(r) != dim for r in rows)
    ):
        raise ParseError(f"{key} must be a {dim}x{dim} array of scalar strings", key)
    entries = []
    for r, row in enumerate(rows):
        for c, cell in enumerate(row):
            entries.append(parse_scalar(cell, f"{key}[{r}][{c}]"))
    return Matrix(dim, dim, entries)


def document_to_algebra(doc: dict) -> BiHomTrialgebra:
    """Build the algebra a document describes; raises ParseError on a
    malformed document and DimensionError on an out-of-range index or a
    dim above MAX_DIM."""
    if not isinstance(doc, dict):
        raise ParseError("algebra document must be a JSON object")
    unknown = set(doc) - {"name", "dim", "left", "right", "middle", "alpha", "beta"}
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError("name must be a string", "name")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError("dim must be a positive integer", "dim")
    _check_dim(dim)
    tensors = [_parse_tensor(doc.get(role, []), dim, role) for role in ROLES]
    alpha = _parse_map(doc["alpha"], dim, "alpha") if "alpha" in doc else Matrix.zeros(dim, dim)
    beta = _parse_map(doc["beta"], dim, "beta") if "beta" in doc else Matrix.zeros(dim, dim)
    return BiHomTrialgebra(name, *tensors, alpha, beta)


def algebra_to_document(algebra: BiHomTrialgebra) -> dict:
    """The canonical document of an algebra; raises DimensionError above
    MAX_DIM, since no reading command would accept the document."""
    _check_dim(algebra.dim)
    doc = {"name": algebra.name, "dim": algebra.dim}
    for role in ROLES:
        records = []
        for (i, j, k), v in algebra.tensor(role).nonzero_entries():
            records.append({"i": i + 1, "j": j + 1, "k": k + 1, "c": format_scalar(v)})
        doc[role] = records
    doc["alpha"] = map_to_strings(algebra.alpha)
    doc["beta"] = map_to_strings(algebra.beta)
    return doc


def _load_json(text):
    """Decode JSON text; ParseError when it is malformed, holds an integer
    beyond Python's digit limit, or is nested too deeply."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", f"line {e.lineno}, column {e.colno}") from None
    except ValueError:
        raise ParseError("invalid JSON: an integer has too many digits") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def parse_algebra(text: str) -> BiHomTrialgebra:
    """Parse an algebra document; raises ParseError/DimensionError with diagnostics."""
    return document_to_algebra(_load_json(text))


def serialize_algebra(algebra: BiHomTrialgebra) -> str:
    """Canonical text form; round-trip stable."""
    return json.dumps(algebra_to_document(algebra), indent=2) + "\n"


def parse_operator(text: str, expected_dim: int | None = None) -> Matrix:
    """Parse an operator document (dim x dim array of scalar strings); the
    dim is checked against MAX_DIM and ``expected_dim`` before any cell is
    parsed."""
    rows = _load_json(text)
    if not isinstance(rows, list) or not rows:
        raise ParseError("operator document must be a non-empty array of rows")
    dim = len(rows)
    _check_dim(dim, "operator")
    if expected_dim is not None and dim != expected_dim:
        raise DimensionError(f"operator is {dim}x{dim}, expected {expected_dim}x{expected_dim}")
    return _parse_map(rows, dim, "operator")


def serialize_operator(op: Matrix) -> str:
    return json.dumps(map_to_strings(op), indent=2) + "\n"
