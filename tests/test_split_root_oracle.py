"""Split-root oracle for the characteristic-class side on (P^1)^n.

The classes are rebuilt here with sympy in the ring
Q[a_1, ..., a_n, delta]/(a_i^2): the tangent roots are x_j = 2 a_j, the
polarization is c = a_1 + ... + a_n and the integral over X picks the
coefficient of a_1 ... a_n.  The Taylor coefficients come from sympy's
own series of the closed forms, so nothing here goes through etaflow's
series or ring code.
"""

import math
from fractions import Fraction as F
from functools import lru_cache

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from etaflow.catalog import product_cp1_model
from etaflow.eta import (
    CONVENTION_PAPER_I,
    CONVENTION_REAL,
    adiabatic_limit_eta,
    transgression_raw,
)
from etaflow.exact import GaussianRational
from etaflow.series import a_hat_class, transgression_forms

Z = sp.Symbol("z")
DELTA = sp.Symbol("delta")
R_VALUES = (F(0), F(1, 2), F(-2, 3), F(1))
EPS_VALUES = (F(1, 3), F(1))
MAX_ORDER = 7  # p' on cp1x6 needs p to z^7


@lru_cache(maxsize=None)
def _taylor(expr):
    poly = sp.series(expr, Z, 0, MAX_ORDER + 1).removeO()
    return [sp.Rational(poly.coeff(Z, j)) for j in range(MAX_ORDER + 1)]


def taylor(expr, order):
    return _taylor(expr)[: order + 1]


class SplitRing:
    """Polynomials in a_1..a_n and delta with a_i^2 = 0."""

    def __init__(self, n):
        self.n = n
        self.a = sp.symbols(f"a1:{n + 1}")
        self.gens = self.a + (DELTA,)

    def poly(self, expr):
        return self.trunc(sp.Poly(expr, *self.gens, domain="QQ_I"))

    def trunc(self, poly):
        terms = {m: c for m, c in poly.terms() if max(m[: self.n]) <= 1}
        return sp.Poly.from_dict(terms or {(0,) * (self.n + 1): 0},
                                 *self.gens, domain="QQ_I")

    def mul(self, x, y):
        return self.trunc(x * y)

    def eval(self, coeffs, x):
        """sum_j coeffs[j] x^j; x has no constant term, so x^(n+1) = 0."""
        total = self.poly(coeffs[0])
        power = self.poly(1)
        for c in coeffs[1: self.n + 1]:
            power = self.mul(power, x)
            total = total + power * c
        return total

    def exp(self, x):
        return self.eval([sp.Rational(1, math.factorial(j))
                          for j in range(self.n + 1)], x)

    def top(self, poly):
        """Coefficient of a_1 ... a_n: a polynomial in delta."""
        return sum(c * DELTA ** m[-1] for m, c in poly.terms()
                   if m[: self.n] == (1,) * self.n)


def eta_hat_expr(r):
    r = sp.Rational(r.numerator, r.denominator)
    if r == sp.floor(r):
        return (Z / 2 - sp.tanh(Z / 2)) / ((Z / 2) * sp.tanh(Z / 2))
    alpha = 1 - 2 * (r - sp.floor(r))
    return sp.exp(alpha * Z / 2) / sp.sinh(Z / 2) - 2 / Z


def as_exact(value):
    value = sp.nsimplify(sp.expand(value))
    re, im = (F(str(sp.Rational(part))) for part in (sp.re(value), sp.im(value)))
    return GaussianRational(re, im)


class SplitOracle:
    def __init__(self, n):
        ring = SplitRing(n)
        self.ring = ring
        self.c = ring.poly(sum(ring.a))
        self.a_hat = ring.poly(1)
        f = taylor((Z / 2) / sp.sinh(Z / 2), n)
        for a in ring.a:
            self.a_hat = ring.mul(self.a_hat, ring.eval(f, ring.poly(2 * a)))
        p = taylor(sp.log((Z / 2) / sp.sinh(Z / 2)) / 2, n + 1)
        self.p = p[: n + 1]
        self.p_prime = [(j + 1) * p[j + 1] for j in range(n + 1)]
        self.forms = {}

    def exp_rc(self, r):
        return self.ring.exp(self.c * sp.Rational(r.numerator, r.denominator))

    def adiabatic(self, r):
        ring = self.ring
        eta = ring.eval(taylor(eta_hat_expr(r), ring.n), self.c)
        integrand = ring.mul(ring.mul(self.a_hat, eta), self.exp_rc(r))
        return as_exact(ring.top(integrand) / 2)

    def omega_part(self, convention):
        """Omega_2 e^{Omega_0}, built root by root."""
        if convention not in self.forms:
            ring = self.ring
            unit = 1 if convention == CONVENTION_REAL else sp.I
            tail = self.c * (2 * unit * DELTA)
            args = [tail] + [tail + ring.poly(2 * a) for a in ring.a]
            omega0 = sum((ring.eval(self.p, x) * 2 for x in args), ring.poly(0))
            omega2 = sum((ring.eval(self.p_prime, x) * 2 for x in args),
                         ring.poly(0)) * unit
            self.forms[convention] = ring.mul(omega2, ring.exp(omega0))
        return self.forms[convention]

    def transgression(self, r, eps, convention):
        ring = self.ring
        integrand = ring.top(ring.mul(self.omega_part(convention), self.exp_rc(r)))
        eps = sp.Rational(eps.numerator, eps.denominator)
        return as_exact(sp.integrate(integrand, (DELTA, 0, eps)))


@lru_cache(maxsize=None)
def split_oracle(n):
    return SplitOracle(n)


@pytest.fixture(params=[2, 4], ids=["cp1x2", "cp1x4"])
def base(request):
    spec, _ = product_cp1_model(request.param)
    return spec, split_oracle(request.param)


def test_adiabatic_limit_matches_split_roots(base):
    spec, oracle = base
    for r in R_VALUES:
        assert adiabatic_limit_eta(spec, r) == oracle.adiabatic(r)


@pytest.mark.parametrize("convention", [CONVENTION_REAL, CONVENTION_PAPER_I])
def test_transgression_matches_split_roots(base, convention):
    spec, oracle = base
    for r in R_VALUES:
        for eps in EPS_VALUES:
            expected = oracle.transgression(r, eps, convention)
            assert transgression_raw(spec, r, eps, convention) == expected


def test_split_oracle_reproduces_known_values():
    oracle = split_oracle(2)
    assert oracle.adiabatic(F(1, 2)) == F(-1, 24)
    assert oracle.transgression(F(1, 2), F(1), CONVENTION_REAL) == F(-5, 12)
    assert split_oracle(4).transgression(F(1, 2), F(1), CONVENTION_REAL) == \
        F(491, 120)


@pytest.mark.parametrize("factors, value", [
    (6, F(-442795, 4032)),
    (8, F(9705799, 1728)),
])
def test_transgression_pinned_on_larger_products(factors, value):
    spec, _ = product_cp1_model(factors)
    assert transgression_raw(spec, F(1, 2), 1) == value


# computed with literal Gaussian arithmetic in the paper_i integrand (arguments
# x_j + 2i delta c, a global i on Omega_2), not with the delta -> i delta rotation
@pytest.mark.parametrize("factors, value", [
    (6, GaussianRational(F(9281, 192), F(-101239, 2016))),
    (8, GaussianRational(F(19169839, 8640), F(-10902689, 4320))),
], ids=["cp1x6", "cp1x8"])
def test_paper_i_transgression_pinned_on_larger_products(factors, value):
    spec, _ = product_cp1_model(factors)
    assert transgression_raw(spec, F(1, 2), 1, CONVENTION_PAPER_I) == value


@pytest.mark.parametrize("factors", [2, 4, 6])
def test_class_side_antisymmetric_in_r(factors):
    spec, _ = product_cp1_model(factors)
    for r in (F(1, 2), F(1, 3), F(1)):
        assert adiabatic_limit_eta(spec, -r) == -adiabatic_limit_eta(spec, r)
        assert transgression_raw(spec, -r, 1) == -transgression_raw(spec, r, 1)


@settings(max_examples=30, deadline=None)
@given(st.fractions(min_value=-3, max_value=3, max_denominator=12),
       st.fractions(min_value=0, max_value=3, max_denominator=8))
def test_class_side_antisymmetric_in_r_property(r, eps):
    spec, _ = product_cp1_model(4)
    assert adiabatic_limit_eta(spec, -r) == -adiabatic_limit_eta(spec, r)
    assert transgression_raw(spec, -r, eps) == -transgression_raw(spec, r, eps)


def split_coefficient(oracle, poly, k):
    """[c^k] of a symmetric class of the split ring: c^k = k! e_k(a), so it
    is the coefficient of a_1 ... a_k divided by k!."""
    n = oracle.ring.n
    monomial = (1,) * k + (0,) * (n - k)
    return sp.expand(sp.Add(*(c * DELTA ** m[-1] for m, c in poly.terms()
                              if m[:n] == monomial)) / sp.factorial(k))


@pytest.mark.parametrize("factors", [2, 4, 6], ids=["cp1x2", "cp1x4", "cp1x6"])
def test_class_side_memo_matches_split_roots(factors):
    spec, _ = product_cp1_model(factors)
    oracle = split_oracle(factors)
    a_hat = [row[0] for row in a_hat_class(spec.power_sums)]
    w = transgression_forms(spec)[2]
    assert len(a_hat) == len(w) == factors + 1
    for k in range(factors + 1):
        assert sp.Rational(str(a_hat[k])) == split_coefficient(oracle, oracle.a_hat, k)
        real = sp.Add(*(sp.Rational(str(a)) * DELTA**d for d, a in enumerate(w[k])))
        # paper_i: i Omega_2(i delta) e^{Omega_0(i delta)}
        paper_i = sp.I * real.subs(DELTA, sp.I * DELTA)
        for convention, expected in ((CONVENTION_REAL, real),
                                     (CONVENTION_PAPER_I, paper_i)):
            got = split_coefficient(oracle, oracle.omega_part(convention), k)
            assert sp.expand(got - expected) == 0
    # every (r, eps) is then evaluated from the memo alone
    for r in R_VALUES + (F(7, 5),):
        assert adiabatic_limit_eta(spec, r) == oracle.adiabatic(r)
        for eps in EPS_VALUES:
            for convention in (CONVENTION_REAL, CONVENTION_PAPER_I):
                assert transgression_raw(spec, r, eps, convention) == \
                    oracle.transgression(r, eps, convention)
