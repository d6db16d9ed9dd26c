"""Characteristic power series and characteristic forms.

Builds the defect series p(z) = (1/2)log((z/2)/sinh(z/2)) and everything
derived from it: its derivative, the A-hat class exp(2 sum p(x_j)), the
boundary eta series (regular part of exp(alpha*c/2)/sinh(c/2) - 2/c, with
alpha = 1 - 2{r}), and the two transgression forms Omega_0, Omega_2 whose
delta-integral measures the change of the A-hat form along the adiabatic
family.  All series arithmetic is exact and truncation-aware: operations
never silently drop information below the stated order.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import ZERO, ParamPoly, as_fraction, rational_str, truncated_product
from .ring import (
    GradedClass,
    RingSpec,
    SeriesOrderError,
    eval_power_sums,
    exp_nilpotent,
)

class FormalSeries:
    """Truncated power series in one variable with rational coefficients.

    ``coefficients[j]`` is the coefficient of z^j for j = 0..order.  All
    operations are exact to the order of the result; combining series of
    different orders truncates to the smaller one.
    """

    __slots__ = ("coefficients", "order")

    def __init__(self, coefficients, order=None):
        coeffs = [as_fraction(c) for c in coefficients]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(coeffs) < order + 1:
            coeffs.extend([ZERO] * (order + 1 - len(coeffs)))
        object.__setattr__(self, "coefficients", tuple(coeffs[: order + 1]))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("FormalSeries is immutable")

    @staticmethod
    def zero(order: int) -> "FormalSeries":
        return FormalSeries([], order)

    @staticmethod
    def one(order: int) -> "FormalSeries":
        return FormalSeries([1], order)

    @staticmethod
    def identity(order: int) -> "FormalSeries":
        return FormalSeries([0, 1], order)

    def coeff(self, j: int) -> Fraction:
        if j < 0 or j > self.order:
            raise IndexError(f"coefficient {j} beyond truncation order {self.order}")
        return self.coefficients[j]

    def truncate(self, order: int) -> "FormalSeries":
        if order > self.order:
            raise SeriesOrderError(
                f"cannot extend a series of order {self.order} to {order}"
            )
        return FormalSeries(self.coefficients[: order + 1], order)

    @property
    def is_zero(self) -> bool:
        return not any(self.coefficients)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self.order == other.order and self.coefficients == other.coefficients

    def __add__(self, other):
        if not isinstance(other, FormalSeries):
            other = FormalSeries([other], self.order)
        order = min(self.order, other.order)
        return FormalSeries(
            [self.coefficients[j] + other.coefficients[j] for j in range(order + 1)],
            order,
        )

    __radd__ = __add__

    def __neg__(self):
        return FormalSeries([-c for c in self.coefficients], self.order)

    def __sub__(self, other):
        if not isinstance(other, FormalSeries):
            other = FormalSeries([other], self.order)
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, FormalSeries):
            c = as_fraction(other)
            return FormalSeries([a * c for a in self.coefficients], self.order)
        order = min(self.order, other.order)
        coeffs = truncated_product(
            self.coefficients, other.coefficients, order + 1, ZERO
        )
        return FormalSeries(coeffs, order)

    __rmul__ = __mul__

    def derivative(self) -> "FormalSeries":
        if self.order == 0:
            return FormalSeries.zero(0)
        return FormalSeries(
            [self.coefficients[j] * j for j in range(1, self.order + 1)],
            self.order - 1,
        )

    def divide(self, other: "FormalSeries") -> "FormalSeries":
        """Power series division; the divisor needs a nonzero constant term."""
        if not other.coefficients[0]:
            raise ZeroDivisionError("divisor has zero constant term")
        order = min(self.order, other.order)
        inv0 = 1 / other.coefficients[0]
        coeffs = []
        for n in range(order + 1):
            acc = self.coefficients[n]
            for j in range(n):
                acc = acc - coeffs[j] * other.coefficients[n - j]
            coeffs.append(acc * inv0)
        return FormalSeries(coeffs, order)

    def compose(self, inner: "FormalSeries") -> "FormalSeries":
        """self(inner(z)); the inner series must have zero constant term."""
        if inner.coefficients[0]:
            raise ValueError("inner series must have zero constant term")
        order = min(self.order, inner.order)
        g = inner.truncate(order)
        # Horner scheme; every product keeps exactness to `order`
        result = FormalSeries([self.coefficients[order]], order)
        for j in range(order - 1, -1, -1):
            result = result * g + FormalSeries([self.coefficients[j]], order)
        return result

    def shift_down(self, k: int) -> "FormalSeries":
        """Divide by z^k; the first k coefficients must vanish."""
        if any(self.coefficients[:k]):
            raise ValueError(f"series is not divisible by z^{k}")
        if k > self.order:
            raise SeriesOrderError("shift exceeds truncation order")
        return FormalSeries(self.coefficients[k:], self.order - k)

    def shift_up(self, k: int) -> "FormalSeries":
        """Multiply by z^k (order grows by k)."""
        return FormalSeries((ZERO,) * k + self.coefficients, self.order + k)

    def scale_variable(self, s) -> "FormalSeries":
        """f(s*z): rescale the variable by an exact scalar."""
        s = as_fraction(s)
        coeffs = []
        power = Fraction(1)
        for c in self.coefficients:
            coeffs.append(c * power)
            power = power * s
        return FormalSeries(coeffs, self.order)

    def partial_sum(self, z):
        """Exact partial sum at a rational point."""
        z = as_fraction(z)
        total = ZERO
        power = Fraction(1)
        for c in self.coefficients:
            total = total + c * power
            power = power * z
        return total

    def __str__(self) -> str:
        parts = []
        for j, c in enumerate(self.coefficients):
            if c:
                parts.append(f"({c})*z^{j}" if j else f"({c})")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(z^{self.order + 1})"

    __repr__ = __str__

    def to_json(self):
        return [rational_str(c) for c in self.coefficients]


def exp_series(order: int) -> FormalSeries:
    coeffs = []
    fact = 1
    for j in range(order + 1):
        coeffs.append(Fraction(1, fact))
        fact *= j + 1
    return FormalSeries(coeffs, order)


def log1p_series(order: int) -> FormalSeries:
    """log(1 + z) = z - z^2/2 + z^3/3 - ..."""
    coeffs = [Fraction(0)]
    for j in range(1, order + 1):
        coeffs.append(Fraction((-1) ** (j + 1), j))
    return FormalSeries(coeffs, order)


def series_log(f: FormalSeries) -> FormalSeries:
    """log of a series with constant term 1."""
    if f.coefficients[0] != 1:
        raise ValueError("log needs constant term 1")
    return log1p_series(f.order).compose(f - 1)


def series_exp(f: FormalSeries) -> FormalSeries:
    """exp of a series with constant term 0."""
    return exp_series(f.order).compose(f)


def sinh_over_x_series(order: int) -> FormalSeries:
    """sinh(z)/z = sum z^{2j} / (2j+1)!"""
    coeffs = [Fraction(0)] * (order + 1)
    fact = 1  # (2j+1)!
    for j in range(order // 2 + 1):
        coeffs[2 * j] = Fraction(1, fact)
        fact *= (2 * j + 2) * (2 * j + 3)
    return FormalSeries(coeffs, order)


def sinh_half_ratio_series(order: int) -> FormalSeries:
    """sinh(z/2)/(z/2) = 1 + z^2/24 + z^4/1920 + ..."""
    return sinh_over_x_series(order).scale_variable(Fraction(1, 2))


def cosh_series(order: int) -> FormalSeries:
    coeffs = [Fraction(0)] * (order + 1)
    fact = 1  # (2j)!
    for j in range(order // 2 + 1):
        coeffs[2 * j] = Fraction(1, fact)
        fact *= (2 * j + 1) * (2 * j + 2)
    return FormalSeries(coeffs, order)


def tanh_series(order: int) -> FormalSeries:
    """tanh(z) = sinh(z)/cosh(z) = z - z^3/3 + 2z^5/15 - ..."""
    sinh = sinh_over_x_series(order).shift_up(1).truncate(order)
    return sinh.divide(cosh_series(order))


def series_p(order: int) -> FormalSeries:
    """p(z) = (1/2) log((z/2)/sinh(z/2)): even, zero constant term.

    Starts -z^2/48 + z^4/5760 - ...
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    return series_log(sinh_half_ratio_series(order)) * Fraction(-1, 2)


def series_p_prime(order: int) -> FormalSeries:
    """Formal derivative of p: odd series starting -z/24."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return series_p(order + 1).derivative()


def eta_hat_series_from_alpha(alpha, order: int) -> FormalSeries:
    """Regular part of exp(alpha*x)/sinh(x) - 1/x written at x = c/2.

    Computed as [exp(alpha*x) * (x/sinh x) - 1] / x followed by the
    substitution x = c/2; the constant term of the result is alpha.
    """
    alpha = as_fraction(alpha)
    work = order + 2
    g = series_exp(FormalSeries.identity(work) * alpha) * (
        FormalSeries.one(work).divide(sinh_over_x_series(work))
    )
    h = (g - 1).shift_down(1)
    return h.truncate(order).scale_variable(Fraction(1, 2))


def eta_hat_series_integer(order: int) -> FormalSeries:
    """(x - tanh x)/(x tanh x) at x = c/2: odd in c, starting c/6."""
    work = order + 4
    num = FormalSeries.identity(work) - tanh_series(work)
    den = FormalSeries.identity(work) * tanh_series(work)
    quotient = num.shift_down(3).divide(den.shift_down(2))
    return (
        quotient.shift_up(1).truncate(order).scale_variable(Fraction(1, 2))
    )


def series_eta_hat(r, order: int) -> FormalSeries:
    """Boundary eta series in the variable c for twist parameter r.

    For r not an integer this is the regular part of
    exp((1 - 2{r}) c/2)/sinh(c/2) - 2/c; for integer r it is the series of
    (c/2 - tanh(c/2)) / ((c/2) tanh(c/2)).  Both are genuine power series.
    """
    r = as_fraction(r)
    if r.denominator == 1:
        return eta_hat_series_integer(order)
    alpha = 1 - 2 * (r - math.floor(r))
    return eta_hat_series_from_alpha(alpha, order)


# Largest truncation order the command line accepts.  Series cost grows
# about as order^3 while any order >= n gives the same classes; the
# default 2n + 2 stays below it for every catalog base (66 on cp1x32).
MAX_SERIES_ORDER = 100


def default_order(ring: RingSpec) -> int:
    """Default series truncation: comfortably past the nilpotency bound."""
    return 2 * ring.complex_dim + 2


def a_hat_class(ring: RingSpec, power_sums, order=None) -> GradedClass:
    """A-hat class of a tangent bundle given by the power sums of its
    Chern roots (``power_sums[k] * c^k`` for k = 0..n).

    A-hat is the multiplicative sequence of (x/2)/sinh(x/2) = exp(2p(x)),
    so A-hat = exp(2 sum_i p(x_i)) = exp(2 sum_k p_k s_k).
    """
    if order is None:
        order = default_order(ring)
    return exp_nilpotent(eval_power_sums(series_p(order), ring, power_sums) * 2)


def omega_forms(ring: RingSpec, power_sums, order=None):
    """Transgression forms (Omega_0, Omega_2) for the adiabatic family:
        Omega_0 = 2 sum_j p(x_j + 2 delta c) + 2 p(2 delta c),
        Omega_2 = 2 sum_j p'(x_j + 2 delta c) + 2 p'(2 delta c),
    with delta the formal deformation parameter and x_j the tangent Chern
    roots.  They satisfy the transgression identity
    d/d(delta) Omega_0 = 2 c Omega_2.  The paper_i convention is their
    rotation delta -> i delta, applied by ``eta.convention_integral``.

    The sums only need the power sums of the shifted roots y = x_j + tc
    together with the extra root y = tc:
    sum_y y^m = sum_k C(m, k) s_k (tc)^{m-k} + (tc)^m.
    """
    if order is None:
        order = default_order(ring)
    p = series_p(order)
    pp = series_p_prime(order)
    t = ParamPoly.delta() * 2
    n = ring.complex_dim
    sums = list(power_sums[: n + 1])
    sums[0] += 1  # the extra root tc
    t_powers = [t**m for m in range(n + 1)]
    shifted = [
        sum((t_powers[m - k] * (math.comb(m, k) * sums[k]) for k in range(m + 1)),
            ParamPoly.zero())
        for m in range(n + 1)
    ]
    omega0 = eval_power_sums(p, ring, shifted) * 2
    omega2 = eval_power_sums(pp, ring, shifted) * 2
    return omega0, omega2
