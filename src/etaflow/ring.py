"""Truncated cohomology ring in one generator.

The characteristic-class integrands depend on the base X only through
the polarization class c and the power sums of the tangent Chern roots
(see ``catalog.ManifoldSpec``), so every class they need lives in
Q[delta][c]/(c^{n+1}).  A class is stored as at most n + 1 coefficients,
one per power of c, each an ``exact.ParamPoly`` in the formal deformation
parameter delta.  The integral over X picks off the coefficient of c^n
times the normalization ``top_integral``, the integral of c^n.  A power
series enters as its tuple of coefficients (index = power), evaluated at a
class by ``eval_series`` or over formal roots by ``eval_power_sums``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import ParamPoly, Record, as_fraction, truncated_product


class RingMismatchError(ValueError):
    """Operands belong to different rings."""


class NonNilpotentError(ValueError):
    """A nilpotent class was required but a degree-0 part is present."""


class SeriesOrderError(ValueError):
    """A series was truncated below the order needed by an evaluation."""


class RingSpec(Record):
    """Q[c]/(c^{complex_dim + 1}) with c of degree 2 and the integral of
    c^complex_dim equal to ``top_integral``."""

    def __init__(self, name: str, complex_dim: int,
                 top_integral: Fraction = Fraction(1)):
        if complex_dim < 1:
            raise ValueError("complex dimension must be >= 1")
        self.name = name
        self.complex_dim = complex_dim
        self.top_integral = as_fraction(top_integral)
        if self.top_integral == 0:
            raise ValueError("top integral must be nonzero")


class GradedClass:
    """Element of a truncated ring with ParamPoly coefficients.

    ``_terms[k]`` is the coefficient of c^k; trailing zeros are dropped,
    so equal classes have equal tuples.  Immutable; supports +, -, * (by
    classes, scalars, or ParamPoly) with truncation applied during
    multiplication.
    """

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: RingSpec, coefficients=()):
        terms = [ParamPoly.coerce(c) for c in coefficients]
        while terms and terms[-1].is_zero:
            terms.pop()
        if len(terms) > ring.complex_dim + 1:
            raise ValueError(f"c^{len(terms) - 1} violates truncation")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", tuple(terms))

    def __setattr__(self, name, value):
        raise AttributeError("GradedClass is immutable")

    @staticmethod
    def zero(ring: RingSpec) -> "GradedClass":
        return GradedClass(ring)

    @staticmethod
    def one(ring: RingSpec) -> "GradedClass":
        return GradedClass(ring, [1])

    @staticmethod
    def generator(ring: RingSpec) -> "GradedClass":
        """The degree-2 generator c."""
        return GradedClass(ring, [0, 1])

    def items(self):
        """(power of c, coefficient) for every nonzero coefficient."""
        return [(k, c) for k, c in enumerate(self._terms) if not c.is_zero]

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_nilpotent(self) -> bool:
        """No ring-degree-0 part."""
        return self.coefficient(0).is_zero

    def coefficient(self, k: int) -> ParamPoly:
        """Coefficient of c^k."""
        return self._terms[k] if 0 <= k < len(self._terms) else ParamPoly.zero()

    def degrees(self):
        return [2 * k for k, _ in self.items()]

    def _check_ring(self, other: "GradedClass"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"rings differ: {self.ring.name} vs {other.ring.name}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedClass):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __add__(self, other):
        if not isinstance(other, GradedClass):
            return NotImplemented
        self._check_ring(other)
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        return GradedClass(self.ring, [x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __neg__(self):
        return GradedClass(self.ring, [-c for c in self._terms])

    def __sub__(self, other):
        if not isinstance(other, GradedClass):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, GradedClass):
            # scalar or ParamPoly multiplication
            c = ParamPoly.coerce(other)
            return GradedClass(self.ring, [c0 * c for c0 in self._terms])
        self._check_ring(other)
        a, b = self._terms, other._terms
        size = min(len(a) + len(b) - 1, self.ring.complex_dim + 1)
        return GradedClass(
            self.ring, truncated_product(a, b, size, ParamPoly.zero())
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a GradedClass")
        result = GradedClass.one(self.ring)
        for _ in range(n):
            result = result * self
        return result

    def subs_delta(self, value) -> "GradedClass":
        return GradedClass(self.ring, [c.subs_delta(value) for c in self._terms])

    def derivative_delta(self) -> "GradedClass":
        return GradedClass(self.ring, [c.derivative_delta() for c in self._terms])

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"({c})*c^{k}" for k, c in self.items())

    __repr__ = __str__


def integrate_top(x: GradedClass) -> ParamPoly:
    """Integral over X: coefficient of c^n times the normalization; every
    lower-degree term contributes zero."""
    return x.coefficient(x.ring.complex_dim) * ParamPoly.constant(
        x.ring.top_integral
    )


def exp_nilpotent(x: GradedClass) -> GradedClass:
    """exp(x) = sum x^j / j! for nilpotent x; the sum is finite."""
    n = x.ring.complex_dim
    return _sum_powers([Fraction(1, math.factorial(j)) for j in range(n + 1)], x)


def eval_series(f, x: GradedClass) -> GradedClass:
    """Evaluate a series, given by its coefficient tuple ``f`` (index =
    power), at a nilpotent class: sum f_j x^j.

    Raises SeriesOrderError when the truncation order len(f) - 1 is too
    small for the nilpotency degree of ``x`` (never silently truncates).
    """
    result = _sum_powers(f, x)
    lowest = next((k for k, _ in x.items()), None)
    if lowest is not None:
        require_series_order(len(f) - 1, lowest, x.ring.complex_dim)
    return result


def require_series_order(order: int, lowest: int, n: int):
    """Raise SeriesOrderError unless a series truncated at ``order`` can be
    evaluated at a class whose lowest power of c is c^lowest, in a ring
    truncated above c^n."""
    # x^j starts with (lowest term of x)^j, which never vanishes because
    # Q[delta] has no zero divisors; so x^(order+1) = 0 exactly when
    # (order + 1) * lowest > n
    if (order + 1) * lowest <= n:
        raise SeriesOrderError(
            f"series order {order} too small for argument of nilpotency "
            f"degree > {order}"
        )


def _sum_powers(coeffs, x: GradedClass) -> GradedClass:
    """sum_j coeffs[j] x^j for nilpotent x, stopping once x^j vanishes."""
    if not x.is_nilpotent:
        raise NonNilpotentError("series argument must have zero degree-0 part")
    result = GradedClass.one(x.ring) * ParamPoly.constant(coeffs[0])
    power = GradedClass.one(x.ring)
    for c in coeffs[1:]:
        power = power * x
        if power.is_zero:
            break
        result = result + power * ParamPoly.constant(c)
    return result


def eval_power_sums(f, ring: RingSpec, power_sums) -> GradedClass:
    """sum_i f(y_i) over formal roots y_i known only by their power sums
    sum_i y_i^j = power_sums[j] * c^j (j = 0..n): the class
    sum_j f_j power_sums[j] c^j, for the coefficient tuple ``f``.

    Raises SeriesOrderError when ``f`` is truncated below a power whose
    power sum survives (never silently truncates).
    """
    terms = []
    for j, s in enumerate(power_sums[: ring.complex_dim + 1]):
        s = ParamPoly.coerce(s)
        if s.is_zero:
            terms.append(s)
        elif j < len(f):
            terms.append(s * f[j])
        else:
            raise SeriesOrderError(
                f"series order {len(f) - 1} too small for a power sum of degree {j}"
            )
    return GradedClass(ring, terms)
