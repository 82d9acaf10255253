"""Gaussian rational scalars.

The field of computation is Q(i).  A Scalar stores three arbitrary-precision
ints (a, b, d) and means (a + b i)/d.  Every Scalar is normalized:
gcd(a, b, d) = 1 and d >= 1, so each element of Q(i) has exactly one triple
and ``==`` compares ints.  Every operation works on the ints directly and
restores the invariant with one multi-argument ``math.gcd``; ``re`` and
``im`` are ``Fraction`` views made on demand.

Text grammar (used by every file format)::

    scalar := rat | rat sign rat "i" | rat "i"
    rat    := ["-"] int ["/" posint]
    sign   := "+" | "-"

with ASCII digits only.  A Scalar is built from exact values: its real and
imaginary parts must be ``int`` or ``Fraction`` (``bool`` counts as an int),
and any other type, float, complex, str or Decimal, raises TypeError.

Examples: "1", "-3/2", "1/2+1/3i", "2i".  Parsing reduces to canonical
form; formatting always emits the canonical spelling, so parse/format
round-trips are the identity on canonical strings.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import ParseError

_RAT = r"-?\d+(?:/\d+)?"
_SCALAR_RE = re.compile(
    rf"^(?:(?P<re>{_RAT})(?P<im_signed>[+-]\d+(?:/\d+)?)i"
    rf"|(?P<only_im>{_RAT})i"
    rf"|(?P<only_re>{_RAT}))$",
    re.ASCII,
)


class Scalar:
    """An element (a + b i)/d of Q(i), immutable, with gcd(a, b, d) = 1 and d >= 1."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            _set_a(self, re)
            _set_b(self, im)
            _set_d(self, 1)
            return
        for x in (re, im):
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"Scalar takes int or Fraction values, not {type(x).__name__}")
        # ints and Fractions are already reduced and carry numerator/denominator
        rd, id_ = re.denominator, im.denominator
        d = lcm(rd, id_)  # both Fractions are reduced, so gcd(a, b, d) = 1
        _set_a(self, re.numerator * (d // rd))
        _set_b(self, im.numerator * (d // id_))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    # -- arithmetic -------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        a2, b2, d2 = other._a, other._b, other._d
        if not a2 and not b2:
            return self
        a1, b1, d1 = self._a, self._b, self._d
        if not a1 and not b1:
            return other
        if d1 == d2:
            return _reduced(a1 + a2, b1 + b2, d1)
        return _reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        a2, b2, d2 = other._a, other._b, other._d
        if not a2 and not b2:
            return self
        a1, b1, d1 = self._a, self._b, self._d
        if d1 == d2:
            return _reduced(a1 - a2, b1 - b2, d1)
        return _reduced(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = other._a, other._b, other._d
        if not b1 and not b2:
            if not a1 or not a2:
                return ZERO
            return _reduced(a1 * a2, 0, d1 * d2)
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # ((a1 + b1 i)/d1) / ((a2 + b2 i)/d2) = (a1 + b1 i)(a2 - b2 i) d2 / (d1 (a2^2 + b2^2))
        if type(other) is not Scalar:
            other = _coerce(other)
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = other._a, other._b, other._d
        if not b2:
            if not a2:
                raise ZeroDivisionError("division by zero Scalar")
            if a2 < 0:
                a2, d2 = -a2, -d2
            return _reduced(a1 * d2, b1 * d2, d1 * a2)
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                        d1 * (a2 * a2 + b2 * b2))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        return _reduced(-self._a, -self._b, self._d)

    def conjugate(self):
        return _reduced(self._a, -self._b, self._d)

    # -- comparison / hashing ---------------------------------------

    def __eq__(self, other):
        # normalized triples are unique, so equality is equality of ints
        if type(other) is Scalar:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return not self._b and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        # a real Scalar equals, so must hash like, its int or Fraction value
        if self._b:
            return hash((self._a, self._b, self._d))
        return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))

    def __bool__(self):
        return bool(self._a or self._b)

    @property
    def is_zero(self):
        return not self._a and not self._b

    # -- text form ---------------------------------------------------

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar({format_scalar(self)!r})"


# __setattr__ refuses every assignment, so the constructors store through
# the slot descriptors directly.
_set_a, _set_b, _set_d = (Scalar.__dict__[f].__set__ for f in Scalar.__slots__)


def _reduced(a: int, b: int, d: int) -> Scalar:
    """The internal constructor: (a + b i)/d for ints with d >= 1, normalized."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    s = object.__new__(Scalar)
    _set_a(s, a)
    _set_b(s, b)
    _set_d(s, d)
    return s


def _coerce(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Scalar")


ZERO = Scalar(0)
ONE = Scalar(1)


_CHUNK_DIGITS = 4000  # below the interpreter's default int-to-str limit of 4,300 digits
_CHUNK = 10 ** _CHUNK_DIGITS


def _format_int(n: int) -> str:
    """Decimal digits of n, in 4,000-digit chunks where str(n) would refuse."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    high, low = divmod(abs(n), _CHUNK)
    return ("-" if n < 0 else "") + _format_int(high) + str(low).zfill(_CHUNK_DIGITS)


def _format_rat(n: int, d: int) -> str:
    """Canonical text of the rational n/d, d >= 1."""
    g = gcd(n, d)
    num = _format_int(n // g)
    return num if d == g else f"{num}/{_format_int(d // g)}"


def format_scalar(s: Scalar) -> str:
    """Canonical text form under the scalar grammar."""
    a, b, d = s._a, s._b, s._d
    if not b:
        return _format_rat(a, d)
    if not a:
        return _format_rat(b, d) + "i"
    return _format_rat(a, d) + ("+" if b > 0 else "-") + _format_rat(abs(b), d) + "i"


def rational_sqrt(q: Fraction):
    """Exact square root in Q, or None when q is not a rational square."""
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def scalar_sqrt(z: Scalar):
    """Exact square root in Q(i), or None when no such element exists.

    Solves (x + yi)^2 = a + bi: the norm a^2 + b^2 must be a rational
    square s^2, and then x^2 = (a + s)/2 must be one as well.
    """
    a, b = z.re, z.im
    if b == 0:
        x = rational_sqrt(a)
        if x is not None:
            return Scalar(x)
        y = rational_sqrt(-a)
        if y is not None:
            return Scalar(0, y)
        return None
    s = rational_sqrt(a * a + b * b)
    if s is None:
        return None
    x = rational_sqrt((a + s) / 2)
    if x is None or x == 0:
        return None
    return Scalar(x, b / (2 * x))


def parse_scalar(text: str, location=None) -> Scalar:
    """Parse a scalar string, reducing to canonical form."""
    if not isinstance(text, str):
        raise ParseError(f"scalar must be a string, got {type(text).__name__}", location)
    m = _SCALAR_RE.match(text.strip())
    if m is None:
        raise ParseError(f"malformed scalar {text!r}", location)
    try:
        if m.group("only_re") is not None:
            return Scalar(Fraction(m.group("only_re")))
        if m.group("only_im") is not None:
            return Scalar(0, Fraction(m.group("only_im")))
        return Scalar(Fraction(m.group("re")), Fraction(m.group("im_signed")))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in scalar {text!r}", location) from None
    except ValueError:  # more digits than int() converts
        raise ParseError(f"scalar of {len(text)} characters is too long", location) from None
