"""Exact scalar arithmetic underlying every computation in this package.

Every quantity that enters a sign decision (eigenvalue crossings, spectral
flow counts, characteristic-number integrals) is represented exactly:
arbitrary-precision rationals and algebraic values of the shape
``a + b*sqrt(A)``.  Floating point never appears in a decision path.

Rationals are plain :class:`fractions.Fraction` (already reduced, positive
denominator) and are the only scalar of the characteristic-class side: a
polynomial is a sequence of them, index = exponent, and a class is a table
of such polynomials (``series`` multiplies both).
:class:`GaussianRational` is a plain value with no arithmetic: the result
of a transgression in the ``paper_i`` convention, whose real and
imaginary parts ``eta`` computes in integers (``transgression_raw``) or
sums by the parity of the delta exponent (``eval_at_i``).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

ZERO = Fraction(0)

# Most digits printed in a numerator or denominator, below the 4300 that
# Python prints: a larger answer is refused with a message naming the limit.
MAX_RATIONAL_DIGITS = 4000
_DIGITS_BOUND = 10**MAX_RATIONAL_DIGITS

# Longest printed form of an outside value that a message echoes whole.
MAX_QUOTED = 100


class Record:
    """Base of the package's plain value records: equality, hash and repr
    over the attributes that ``__init__`` assigns, in that order.  A record
    that is changed after construction sets ``__hash__ = None``."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


def sign(x) -> int:
    """Exact sign of a rational: -1, 0 or +1."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def as_fraction(value) -> Fraction:
    """Coerce ``value`` to an exact rational.  Floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def quoted(value, form=repr) -> str:
    """``form(value)`` for a message that echoes a value read from outside,
    or, when that is longer than MAX_QUOTED characters, the repr of the
    first 20 characters of its string form followed by '...'."""
    text = form(value)
    return text if len(text) <= MAX_QUOTED else f"{str(value)[:20]!r}..."


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", "-3", "2" (or an exact decimal literal like "0.5").

    Exponent literals such as "1e1000000" are refused: their size is not
    bounded by the length of the text.
    """
    if "e" in text.lower():
        raise ValueError(
            f"not a rational: {quoted(text)} (accepted forms: p/q, an integer, or a "
            "plain decimal such as 0.5; no exponents)"
        )
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        limit = sys.get_int_max_str_digits()  # 0: no limit
        if limit and sum(map(str.isdigit, text)) > limit:
            raise ValueError(f"not a rational: {quoted(text)} has more than "
                             f"sys.get_int_max_str_digits() = {limit} digits") from exc
        raise ValueError(f"not a rational: {quoted(text)}") from exc


def rational_str(q, den: int | None = None) -> str:
    """Canonical string form "p/q", or "p" when the denominator is 1, of the
    rational q, or of q/den for integers q and den > 0 (no Fraction built)."""
    if den is None:
        q = as_fraction(q)
        q, den = q.numerator, q.denominator
    else:
        g = math.gcd(q, den)
        q, den = q // g, den // g
    if abs(q) >= _DIGITS_BOUND or den >= _DIGITS_BOUND:
        raise ValueError(f"cannot print a rational of more than MAX_RATIONAL_DIGITS = "
                         f"{MAX_RATIONAL_DIGITS} digits")
    return f"{q}/{den}" if den != 1 else str(q)


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    value = as_fraction(value)
    if value < 0:
        raise ValueError("negative radicand")
    rn = math.isqrt(value.numerator)
    rd = math.isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None


class GaussianRational:
    """Exact complex value re + im*i with rational parts: the value type of a
    transgression in the ``paper_i`` convention.  It is built only in
    ``eta`` and carries no arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", as_fraction(re))
        object.__setattr__(self, "im", as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        # consistent with int/Fraction hashing when the value is real
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return rational_str(self.re)
        if self.re == 0:
            return f"{rational_str(self.im)}*i"
        op = "+" if self.im > 0 else "-"
        return f"{rational_str(self.re)}{op}{rational_str(abs(self.im))}*i"

    __repr__ = __str__

    def to_json(self):
        """Rational string when real, else {"re": ..., "im": ...}."""
        if self.im == 0:
            return rational_str(self.re)
        return {"re": rational_str(self.re), "im": rational_str(self.im)}


def sqrt_sign(a, b, A) -> int:
    """Exact sign of a + b*sqrt(A) for rationals a, b and A >= 0."""
    a, b, A = map(as_fraction, (a, b, A))
    if A < 0:
        raise ValueError("negative radicand")
    if A == 0 or b == 0:
        return sign(a)
    if a == 0:
        return sign(b)
    sa, sb = sign(a), sign(b)
    if sa == sb:
        return sa
    # opposite signs: the comparison reduces to a^2 vs b^2*A
    return sa * sign(a * a - b * b * A)


class SqrtValue(Record):
    """Exact algebraic value a + b*sqrt(radicand), radicand not a square."""

    def __init__(self, a: Fraction, b: Fraction, radicand: Fraction):
        self.a, self.b, self.radicand = a, b, radicand

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt({self.radicand})"

    def to_json(self):
        return {
            "a": rational_str(self.a),
            "b": rational_str(self.b),
            "radicand": rational_str(self.radicand),
        }


def sqrt_value(a, b, A):
    """Build a + b*sqrt(A) exactly, folding to a Fraction when possible."""
    a, b, A = map(as_fraction, (a, b, A))
    if A < 0:
        raise ValueError("negative radicand")
    root = rational_sqrt(A)
    if root is not None:
        return a + b * root
    if b == 0:
        return a
    return SqrtValue(a, b, A)


def exact_value_to_json(value):
    """JSON form of an exact value: a SqrtValue or GaussianRational by its
    ``to_json``, a rational as its string."""
    if isinstance(value, (SqrtValue, GaussianRational)):
        return value.to_json()
    return rational_str(value)
