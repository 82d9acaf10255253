"""Gaussian rational scalars.

The field of computation is Q(i): pairs of reduced arbitrary-precision
rationals.  ``fractions.Fraction`` already maintains the reduced-form
invariant (gcd(|num|, den) = 1, den >= 1), so a scalar is just a pair of
Fractions with field arithmetic on top.

Text grammar (used by every file format)::

    scalar := rat | rat sign rat "i" | rat "i"
    rat    := ["-"] int ["/" posint]
    sign   := "+" | "-"

with ASCII digits only.  A Scalar holds exact values: float and complex
arguments raise TypeError.

Examples: "1", "-3/2", "1/2+1/3i", "2i".  Parsing reduces to canonical
form; formatting always emits the canonical spelling, so parse/format
round-trips are the identity on canonical strings.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt

from .errors import ParseError

_RAT = r"-?\d+(?:/\d+)?"
_SCALAR_RE = re.compile(
    rf"^(?:(?P<re>{_RAT})(?P<im_signed>[+-]\d+(?:/\d+)?)i"
    rf"|(?P<only_im>{_RAT})i"
    rf"|(?P<only_re>{_RAT}))$",
    re.ASCII,
)


class Scalar:
    """An element of Q(i), immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, (float, complex)) or isinstance(im, (float, complex)):
            raise TypeError("Scalar takes exact values (int, Fraction), not float or complex")
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- arithmetic -------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        if not other.re and not other.im:
            return self
        if not self.re and not self.im:
            return other
        return _mk(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        if not other.re and not other.im:
            return self
        return _mk(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        sim, oim = self.im, other.im
        if not sim and not oim:
            sre, ore = self.re, other.re
            if not sre or not ore:
                return ZERO
            return _mk(sre * ore, sim)
        return _mk(
            self.re * other.re - sim * oim,
            self.re * oim + sim * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        if not other.im:
            if not other.re:
                raise ZeroDivisionError("division by zero Scalar")
            return _mk(self.re / other.re, self.im / other.re)
        n = other.re * other.re + other.im * other.im
        return _mk(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        return _mk(-self.re, -self.im)

    def conjugate(self):
        return _mk(self.re, -self.im)

    # -- comparison / hashing ---------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real Scalar equals, so must hash like, its int or Fraction value
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    @property
    def is_zero(self):
        return self.re == 0 and self.im == 0

    # -- text form ---------------------------------------------------

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar({format_scalar(self)!r})"


def _mk(re: Fraction, im: Fraction) -> Scalar:
    """Internal fast constructor; both arguments must already be Fractions."""
    s = object.__new__(Scalar)
    object.__setattr__(s, "re", re)
    object.__setattr__(s, "im", im)
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


def _format_rat(f: Fraction) -> str:
    num = _format_int(f.numerator)
    return num if f.denominator == 1 else f"{num}/{_format_int(f.denominator)}"


def format_scalar(s: Scalar) -> str:
    """Canonical text form under the scalar grammar."""
    if s.im == 0:
        return _format_rat(s.re)
    if s.re == 0:
        return _format_rat(s.im) + "i"
    sign = "+" if s.im > 0 else "-"
    return _format_rat(s.re) + sign + _format_rat(abs(s.im)) + "i"


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
