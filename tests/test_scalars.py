import importlib.util
import math
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

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
    assert scalar_sqrt(Scalar(1, 1)) is None  # the norm 2 is not a square
    assert scalar_sqrt(Scalar(0, 4)) is None  # norm 16 = 4^2, but (0 + 4)/2 = 2 is not
    rng = seeded("sqrt")
    for _ in range(100):
        w = random_scalar(rng)
        r = scalar_sqrt(w * w)
        assert r is not None and r * r == w * w


def test_immutability():
    s = Scalar(1)
    with pytest.raises(AttributeError):
        s.re = Fraction(2)


@pytest.mark.parametrize(
    "inexact",
    [
        0.1, 1.0, 1j, complex(2, 0),
        pytest.param("0.1", id="decimal-string"),
        pytest.param("1e-3", id="exponent-string"),
        pytest.param(Decimal("2.5"), id="decimal"),
    ],
)
def test_inexact_values_rejected(inexact):
    """Only int and Fraction parts are accepted; the error names the type."""
    for args in ((inexact,), (0, inexact)):
        with pytest.raises(TypeError, match=type(inexact).__name__):
            Scalar(*args)


def test_bool_counts_as_an_int():
    assert Scalar(True) == Scalar(1) and Scalar(0, False) == Scalar(0)


def test_hash_agrees_with_equality():
    assert len({Scalar(1), 1, Fraction(1)}) == 1
    assert {Fraction(1, 2): "half"}[Scalar(Fraction(1, 2))] == "half"
    assert Scalar(1, 1) != 1 and len({Scalar(1, 1), Scalar(1)}) == 2


@given(fractions_st, fractions_st)
def test_hash_consistent_with_eq(re_, im_):
    s = Scalar(re_, im_)
    if im_ == 0:
        assert s == re_ and hash(s) == hash(re_)


# -- differential check against a plain (Fraction, Fraction) reference ------

def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


_REF_OPS = {
    "+": (lambda s, t: s + t, lambda x, y: (x[0] + y[0], x[1] + y[1])),
    "-": (lambda s, t: s - t, lambda x, y: (x[0] - y[0], x[1] - y[1])),
    "*": (lambda s, t: s * t, _ref_mul),
    "/": (lambda s, t: s / t, _ref_div),
}


def _ref_rat(f):
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _ref_str(x):
    re_, im_ = x
    if not im_:
        return _ref_rat(re_)
    if not re_:
        return _ref_rat(im_) + "i"
    return _ref_rat(re_) + ("+" if im_ > 0 else "-") + _ref_rat(abs(im_)) + "i"


def _stored(s):
    """The stored triple (a, b, d) of s = (a + b i)/d; read here only to check
    the normalization invariant of the representation itself."""
    return tuple(getattr(s, name) for name in Scalar.__slots__)


def _check_against_reference(s, x):
    a, b, d = _stored(s)
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (s.re, s.im) == x and type(s.re) is Fraction and type(s.im) is Fraction
    assert s == Scalar(*x) and not s != Scalar(*x)
    assert str(s) == _ref_str(x)
    assert bool(s) == (x != (0, 0)) and s.is_zero == (x == (0, 0))
    if x[1] == 0:
        assert s == x[0] and x[0] == s and hash(s) == hash(x[0])
        if x[0].denominator == 1:
            assert s == x[0].numerator and hash(s) == hash(x[0].numerator)
    else:
        assert s != x[0] and hash(s) == hash(Scalar(*x))


def _differential_values():
    rng = seeded("scalars-differential")
    big = 10 ** 4400 + 7  # a numerator past the 4,300-digit int-to-str limit
    pairs = [(Fraction(0), Fraction(0)), (Fraction(-7, 3), Fraction(0)), (Fraction(5), Fraction(0)),
             (Fraction(0), Fraction(2, 9)), (Fraction(0), Fraction(-1)),
             (Fraction(big, 3), Fraction(0)), (Fraction(-1, 2), Fraction(big, big + 2))]
    for _ in range(24):
        s = random_scalar(rng, complex_part=rng.random() < 0.7)
        pairs.append((s.re, s.im))
    return pairs


def test_kernel_matches_a_fraction_pair_reference():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the reference formats with str(int)
    try:
        values = _differential_values()
        plain = [Fraction(0), Fraction(3), Fraction(-2, 5)]
        for x in values:
            s = Scalar(*x)
            _check_against_reference(s, x)
            _check_against_reference(-s, (-x[0], -x[1]))
            _check_against_reference(s.conjugate(), (x[0], -x[1]))
            for y in values:
                t = Scalar(*y)
                assert (s == t) == (x == y)
                for name, (op, ref) in _REF_OPS.items():
                    if name == "/" and y == (0, 0):
                        with pytest.raises(ZeroDivisionError):
                            op(s, t)
                        continue
                    _check_against_reference(op(s, t), ref(x, y))
            for q in plain:
                for operand in (q, int(q)) if q.denominator == 1 else (q,):
                    y = (q, Fraction(0))
                    for name, (op, ref) in _REF_OPS.items():
                        if name == "/" and not q:
                            with pytest.raises(ZeroDivisionError):
                                op(s, operand)
                        else:
                            _check_against_reference(op(s, operand), ref(x, y))
                        if name == "/" and x == (0, 0):
                            with pytest.raises(ZeroDivisionError):
                                op(operand, s)
                        else:  # __radd__, __rsub__, __rmul__, __rtruediv__
                            _check_against_reference(op(operand, s), ref(y, x))
    finally:
        sys.set_int_max_str_digits(saved)


def test_scalar_keeps_every_method_the_benchmark_tracer_binds():
    """perfbench/tracer.py rebinds each name of its SCALAR_METHODS from
    Scalar.__dict__, so a name inherited or renamed away breaks --trace 1."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [name for name in tracer.SCALAR_METHODS if name not in Scalar.__dict__]
    assert not missing, f"Scalar.__dict__ lacks {missing}"
    assert isinstance(Scalar.__dict__["is_zero"], property)
    assert all(callable(Scalar.__dict__[name])
               for name in tracer.SCALAR_METHODS if name != "is_zero")
