"""Exact scalar arithmetic underlying every computation in this package.

Every quantity that enters a sign decision (eigenvalue crossings, spectral
flow counts, characteristic-number integrals) is represented exactly:
arbitrary-precision rationals and algebraic values of the shape
``a + b*sqrt(A)``.  Floating point never appears in a decision path.

Rationals are plain :class:`fractions.Fraction` (already reduced, positive
denominator) and are the only scalar of the characteristic-class side: a
polynomial is a sequence of them, index = exponent, multiplied by
``truncated_product``, and a class is a table of such polynomials (see
``series``).
:class:`GaussianRational` is a plain value with no arithmetic: the result
of a transgression in the ``paper_i`` convention, whose real and
imaginary parts ``eta`` computes in integers (``transgression_raw``) or
sums by the parity of the delta exponent (``eval_at_i``).
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO = Fraction(0)

# Most digits printed in a numerator or denominator, below the 4300 that
# Python prints: a larger answer is refused with a message naming the limit.
MAX_RATIONAL_DIGITS = 4000
_DIGITS_BOUND = 10**MAX_RATIONAL_DIGITS


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


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", "-3", "2" (or an exact decimal literal like "0.5").

    Exponent literals such as "1e1000000" are refused: their size is not
    bounded by the length of the text.
    """
    if "e" in text.lower():
        raise ValueError(
            f"not a rational: {text!r} (accepted forms: p/q, an integer, or a "
            "plain decimal such as 0.5; no exponents)"
        )
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def rational_str(q: Fraction) -> str:
    """Canonical string form "p/q", or "p" when the denominator is 1."""
    q = as_fraction(q)
    if abs(q.numerator) >= _DIGITS_BOUND or q.denominator >= _DIGITS_BOUND:
        raise ValueError(f"cannot print a rational of more than MAX_RATIONAL_DIGITS = "
                         f"{MAX_RATIONAL_DIGITS} digits")
    return str(q)


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


def truncated_product(a, b, size: int) -> list:
    """The first ``size`` coefficients of the product of two polynomials
    with rational coefficients, given by their coefficient sequences
    (index = exponent): the one polynomial product of the package."""
    out = [ZERO] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[: size - i]):
                if y:
                    out[i + j] = out[i + j] + x * y
    return out


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

    def sign(self) -> int:
        return sqrt_sign(self.a, self.b, self.radicand)

    def cmp(self, q) -> int:
        """Sign of self - q for rational q."""
        return sqrt_sign(self.a - as_fraction(q), self.b, self.radicand)

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
    if isinstance(value, SqrtValue):
        return value.to_json()
    return rational_str(value)


def cmp_exact(value, q) -> int:
    """Sign of value - q, where value is a Fraction or SqrtValue."""
    if isinstance(value, SqrtValue):
        return value.cmp(q)
    return sign(as_fraction(value) - as_fraction(q))


QUAD_NONNEGATIVE = "nonnegative"
QUAD_TOUCHES_ZERO = "touches_zero"
QUAD_NEGATIVE = "negative_somewhere"


class QuadVerdict(Record):
    """Outcome of classifying c2*x^2 + c1*x + c0 on [0, hi].

    ``roots`` lists the zeros inside the interval when the polynomial is
    nonnegative there (verdict "touches_zero"); ``witness`` is a rational
    point with a strictly negative value when the verdict is
    "negative_somewhere".  An identically zero polynomial reports
    ``identically_zero`` with an empty root list.
    """

    def __init__(self, kind: str, roots: tuple = (),
                 witness: Fraction | None = None, identically_zero: bool = False):
        self.kind = kind
        self.roots = roots
        self.witness = witness
        self.identically_zero = identically_zero

    @property
    def is_nonnegative(self) -> bool:
        return self.kind != QUAD_NEGATIVE


def quad_nonneg_on_interval(c2, c1, c0, hi) -> QuadVerdict:
    """Exact classification of Q(x) = c2*x^2 + c1*x + c0 on [0, hi].

    The minimum of a quadratic over a closed interval is attained at an
    endpoint or at the interior vertex, so checking those finitely many
    rational points decides nonnegativity exactly.
    """
    c2, c1, c0, hi = map(as_fraction, (c2, c1, c0, hi))
    if hi <= 0:
        raise ValueError("interval [0, hi] needs hi > 0")

    def q(x):
        return (c2 * x + c1) * x + c0

    if c2 == 0 and c1 == 0 and c0 == 0:
        return QuadVerdict(QUAD_TOUCHES_ZERO, identically_zero=True)

    candidates = [ZERO, hi]
    if c2 > 0:
        vertex = -c1 / (2 * c2)
        if 0 < vertex < hi:
            candidates.insert(0, vertex)
    for x in candidates:
        if q(x) < 0:
            return QuadVerdict(QUAD_NEGATIVE, witness=x)

    # Q >= 0 on [0, hi]; collect the zeros inside the interval.  Whenever
    # the verdict is nonnegative, any zero in the interval is rational:
    # an irrational root would force strictly negative values nearby.
    roots = []
    if c2 == 0:
        if c1 != 0:
            x0 = -c0 / c1
            if 0 <= x0 <= hi:
                roots.append(x0)
    else:
        disc = c1 * c1 - 4 * c2 * c0
        if disc == 0:
            vertex = -c1 / (2 * c2)
            if 0 <= vertex <= hi:
                roots.append(vertex)
        elif disc > 0:
            root = rational_sqrt(disc)
            if root is not None:
                r1 = (-c1 - root) / (2 * c2)
                r2 = (-c1 + root) / (2 * c2)
                roots.extend(r for r in sorted((r1, r2)) if 0 <= r <= hi)
    if roots:
        return QuadVerdict(QUAD_TOUCHES_ZERO, roots=tuple(sorted(set(roots))))
    return QuadVerdict(QUAD_NONNEGATIVE)


def quad_sign_changes(c2, c1, c0, hi):
    """Sign transitions of Q(x) = c2*x^2 + c1*x + c0 on the open (0, hi).

    Returns [(root, transition)] with transition +1 where Q passes from
    negative to positive as x increases and -1 for the reverse.  Roots are
    Fractions or SqrtValues; touch points (no sign change) are excluded.
    """
    c2, c1, c0, hi = map(as_fraction, (c2, c1, c0, hi))
    changes = []
    if c2 == 0:
        if c1 != 0:
            x0 = -c0 / c1
            if 0 < x0 < hi:
                changes.append((x0, sign(c1)))
        return changes
    disc = c1 * c1 - 4 * c2 * c0
    if disc <= 0:
        return changes
    lo_root = sqrt_value(-c1 / (2 * c2), -abs(Fraction(1) / (2 * c2)), disc)
    hi_root = sqrt_value(-c1 / (2 * c2), abs(Fraction(1) / (2 * c2)), disc)
    # rising/falling pattern: for c2 > 0 the polynomial falls through the
    # smaller root and rises through the larger; reversed for c2 < 0
    pattern = [(lo_root, -sign(c2)), (hi_root, sign(c2))]
    for root, transition in pattern:
        if cmp_exact(root, 0) > 0 and cmp_exact(root, hi) < 0:
            changes.append((root, transition))
    return changes
