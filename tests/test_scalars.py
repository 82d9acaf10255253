import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bihomtrias.errors import ParseError
from bihomtrias.scalars import (
    Scalar,
    format_scalar,
    parse_scalar,
    rational_sqrt,
    scalar_sqrt,
)

from oracles import random_scalar, seeded


fractions_st = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)
scalars_st = st.builds(Scalar, fractions_st, fractions_st)


@pytest.mark.parametrize(
    "text, re_, im_",
    [
        ("1", 1, 0),
        ("-3/2", Fraction(-3, 2), 0),
        ("1/2+1/3i", Fraction(1, 2), Fraction(1, 3)),
        ("1/2-1/3i", Fraction(1, 2), Fraction(-1, 3)),
        ("2i", 0, 2),
        ("-2i", 0, -2),
        ("1i", 0, 1),
        ("0", 0, 0),
        ("2/4", Fraction(1, 2), 0),
        ("-4/2+6/4i", -2, Fraction(3, 2)),
    ],
)
def test_parse_grammar(text, re_, im_):
    s = parse_scalar(text)
    assert s.re == Fraction(re_) and s.im == Fraction(im_)


@pytest.mark.parametrize(
    "bad",
    ["", "i", "+1", "1+i", "1//2", "1/0", "1.5", "one", "1 + 1i",
     "\u0661/\u0662", "\uff11", "1+\u0662i"],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


def test_parse_rejects_integers_too_long_to_convert():
    for text in ("7" * 5000, "1/" + "3" * 5000, "1+" + "9" * 5000 + "i"):
        with pytest.raises(ParseError):
            parse_scalar(text)


def test_parse_reports_location():
    with pytest.raises(ParseError) as e:
        parse_scalar("x", location="alpha[0][1]")
    assert "alpha[0][1]" in str(e.value)


@pytest.mark.parametrize(
    "s, text",
    [
        (Scalar(0), "0"),
        (Scalar(Fraction(-3, 2)), "-3/2"),
        (Scalar(Fraction(1, 2), Fraction(1, 3)), "1/2+1/3i"),
        (Scalar(Fraction(1, 2), Fraction(-1, 3)), "1/2-1/3i"),
        (Scalar(0, 1), "1i"),
        (Scalar(0, -2), "-2i"),
    ],
)
def test_format_canonical(s, text):
    assert format_scalar(s) == text


@given(scalars_st)
def test_parse_format_roundtrip(s):
    assert parse_scalar(format_scalar(s)) == s


@given(scalars_st, scalars_st)
def test_addition_exact(a, b):
    assert (a + b) - b == a


@given(scalars_st, scalars_st)
def test_multiplication_field_axioms(a, b):
    assert a * b == b * a
    if b:
        assert (a / b) * b == a


def test_gaussian_arithmetic_spot():
    i = Scalar(0, 1)
    assert i * i == Scalar(-1)
    assert (Scalar(1) + i) * (Scalar(1) - i) == Scalar(2)
    assert Scalar(1) / i == -i


def test_no_rounding_on_random_sweep():
    rng = seeded("scalars")
    for _ in range(500):
        a, b = random_scalar(rng), random_scalar(rng)
        assert (a + b) - b == a
        if b:
            assert (a * b) / b == a


def test_format_integers_beyond_the_str_digit_limit():
    """Canonical strings stay exact where str(int) refuses (over 4,300 digits)."""
    big = 7 ** 20000  # 16,902 digits
    cases = [
        (Scalar(big), lambda s: s),
        (Scalar(-big), lambda s: "-" + s),
        (Scalar(Fraction(1, big)), lambda s: "1/" + s),
        (Scalar(3, -big), lambda s: "3-" + s + "i"),
    ]
    for value, expected in cases:
        text = format_scalar(value)
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert text == expected(str(big))
        finally:
            sys.set_int_max_str_digits(saved)
    assert format_scalar(Scalar(10 ** 4000)) == "1" + "0" * 4000
    assert format_scalar(Scalar(10 ** 4000 - 1)) == "9" * 4000


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None


def test_scalar_sqrt():
    assert scalar_sqrt(Scalar(-1)) in (Scalar(0, 1), Scalar(0, -1))
    r = scalar_sqrt(Scalar(0, 2))
    assert r is not None and r * r == Scalar(0, 2)
    r = scalar_sqrt(Scalar(3, 4))
    assert r is not None and r * r == Scalar(3, 4)
    assert scalar_sqrt(Scalar(2)) is None
    rng = seeded("sqrt")
    for _ in range(100):
        w = random_scalar(rng)
        r = scalar_sqrt(w * w)
        assert r is not None and r * r == w * w


def test_immutability():
    s = Scalar(1)
    with pytest.raises(AttributeError):
        s.re = Fraction(2)


@pytest.mark.parametrize("inexact", [0.1, 1.0, 1j, complex(2, 0)])
def test_inexact_values_rejected(inexact):
    with pytest.raises(TypeError):
        Scalar(inexact)
    with pytest.raises(TypeError):
        Scalar(0, inexact)


def test_hash_agrees_with_equality():
    assert len({Scalar(1), 1, Fraction(1)}) == 1
    assert {Fraction(1, 2): "half"}[Scalar(Fraction(1, 2))] == "half"
    assert Scalar(1, 1) != 1 and len({Scalar(1, 1), Scalar(1)}) == 2


@given(fractions_st, fractions_st)
def test_hash_consistent_with_eq(re_, im_):
    s = Scalar(re_, im_)
    if im_ == 0:
        assert s == re_ and hash(s) == hash(re_)
