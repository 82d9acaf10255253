import json

import pytest

from bihomtrias import documents
from bihomtrias.catalog import catalog_get, catalog_list
from bihomtrias.core import zero_algebra
from bihomtrias.documents import (
    MAX_DIM,
    algebra_to_document,
    parse_algebra,
    parse_operator,
    serialize_algebra,
    serialize_operator,
)
from bihomtrias.errors import DimensionError, ParseError
from bihomtrias.matrices import unit_vec, zero_vec


def test_first_entry_document_contents():
    text = serialize_algebra(catalog_get("BTas_2^1").algebra)
    algebra = parse_algebra(text)
    nonzero = sum(
        len(t.nonzero_entries()) for t in algebra.tensors()
    )
    assert nonzero == 6
    assert algebra.alpha.col(1) == unit_vec(2, 0)
    assert algebra.beta.col(1) == unit_vec(2, 0)
    assert algebra.alpha.col(0) == zero_vec(2)


def test_empty_products_dim_1_is_zero_algebra():
    algebra = parse_algebra('{"name": "z", "dim": 1, "alpha": [["0"]], "beta": [["0"]]}')
    assert algebra == zero_algebra(1).renamed("z")
    assert algebra.left.nonzero_entries() == []


def test_missing_product_blocks_default_to_zero():
    algebra = parse_algebra('{"name": "z", "dim": 2}')
    assert algebra == zero_algebra(2).renamed("z")


def test_round_trip_all_catalog_documents():
    for name in catalog_list():
        algebra = catalog_get(name).algebra
        text = serialize_algebra(algebra)
        again = parse_algebra(text)
        assert again == algebra
        # canonicalization is idempotent on bytes
        assert serialize_algebra(again) == text


def test_duplicate_triple_is_parse_error():
    doc = {
        "name": "dup",
        "dim": 2,
        "left": [
            {"i": 1, "j": 2, "k": 1, "c": "1"},
            {"i": 1, "j": 2, "k": 1, "c": "2"},
        ],
        "alpha": [["0", "0"], ["0", "0"]],
        "beta": [["0", "0"], ["0", "0"]],
    }
    with pytest.raises(ParseError) as err:
        parse_algebra(json.dumps(doc))
    assert "duplicate" in str(err.value)


def test_out_of_range_index_is_dimension_error():
    doc = {"name": "x", "dim": 2, "left": [{"i": 1, "j": 3, "k": 1, "c": "1"}]}
    with pytest.raises(DimensionError) as err:
        parse_algebra(json.dumps(doc))
    assert "out of range" in str(err.value)
    assert "left[0].j" in str(err.value)


def test_dim_above_limit_is_dimension_error():
    assert parse_algebra(json.dumps({"dim": MAX_DIM})).dim == MAX_DIM
    with pytest.raises(DimensionError) as err:
        parse_algebra(json.dumps({"dim": MAX_DIM + 1}))
    assert "exceeds the limit" in str(err.value)


def test_serializing_above_the_limit_is_dimension_error():
    assert algebra_to_document(zero_algebra(MAX_DIM))["dim"] == MAX_DIM
    for write in (algebra_to_document, serialize_algebra):
        with pytest.raises(DimensionError) as err:
            write(zero_algebra(MAX_DIM + 1))
        assert "exceeds the limit" in str(err.value)


def test_malformed_json_reports_line():
    with pytest.raises(ParseError) as err:
        parse_algebra('{"name": "x",\n  "dim": }')
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("parse, text", [
    (parse_algebra, '{"dim": ' + "7" * 5000 + "}"),
    (parse_operator, "[[" + "7" * 5000 + "]]"),
], ids=["algebra-dim", "operator-cell"])
def test_integer_beyond_the_digit_limit_is_parse_error(parse, text):
    """json.loads raises a plain ValueError past the 4,300-digit int limit."""
    with pytest.raises(ParseError, match="too many digits"):
        parse(text)


def test_bad_scalar_reports_field():
    doc = {"name": "x", "dim": 1, "alpha": [["nope"]], "beta": [["0"]]}
    with pytest.raises(ParseError) as err:
        parse_algebra(json.dumps(doc))
    assert "alpha[0][0]" in str(err.value)


def test_unknown_field_rejected():
    with pytest.raises(ParseError):
        parse_algebra('{"name": "x", "dim": 1, "gamma": []}')


def test_bad_dim_rejected():
    for doc in ('{"dim": 0}', '{"dim": -1}', '{"dim": "2"}', '{"name": "x"}'):
        with pytest.raises(ParseError):
            parse_algebra(doc)


def test_map_shape_enforced():
    doc = {"name": "x", "dim": 2, "alpha": [["0", "0"]], "beta": [["0", "0"], ["0", "0"]]}
    with pytest.raises(ParseError):
        parse_algebra(json.dumps(doc))


def test_operator_round_trip():
    op = catalog_get("BTas_2^3").algebra.beta
    text = serialize_operator(op)
    assert parse_operator(text) == op
    assert parse_operator(text, expected_dim=2) == op
    with pytest.raises(DimensionError):
        parse_operator(text, expected_dim=3)


def test_operator_document_rejects_ragged():
    with pytest.raises(ParseError):
        parse_operator('[["0", "0"], ["0"]]')


@pytest.mark.parametrize(
    "dim, expected_dim",
    [(3, 2), (MAX_DIM + 1, None)],
    ids=["mismatched", "over-the-limit"],
)
def test_operator_shape_is_checked_before_any_cell_is_parsed(monkeypatch, dim, expected_dim):
    calls = []
    original = documents.parse_scalar

    def counted(text, location=None):
        calls.append(location)
        return original(text, location)

    monkeypatch.setattr(documents, "parse_scalar", counted)
    text = json.dumps([["1"] * dim] * dim)
    with pytest.raises(DimensionError):
        parse_operator(text, expected_dim=expected_dim)
    assert calls == []
