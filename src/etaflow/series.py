"""Characteristic power series and characteristic classes.

A series is a tuple of ``Fraction`` coefficients: entry j is the
coefficient of z^j, so its truncation order is ``len - 1``.  Both
generating series of the paper are Bernoulli generating functions, so
every coefficient comes from a closed form in the Bernoulli numbers B_m
(with B_1 = -1/2):

- the defect series p(z) = (1/2)log((z/2)/sinh(z/2)) has z^{2k}
  coefficient -B_{2k}/(4k (2k)!); the A-hat class exp(2 sum p(x_j)) is
  its multiplicative sequence;
- the boundary eta series, the regular part of
  exp(alpha c/2)/sinh(c/2) - 2/c with alpha = 1 - 2{r}, has c^j
  coefficient 2 B_{j+1}(t)/(j+1)! with t = (1 + alpha)/2 = 1 - {r}.

The integrands depend on the base X only through the polarization class
c and the power sums of the tangent Chern roots (see
``catalog.ManifoldSpec``), so every class they need lives in
Q[delta][c]/(c^{n+1}), with delta the formal deformation parameter.  Delta
enters only through 2 delta c, so the c^k coefficient of every class is a
polynomial in delta of degree at most k.  A class is therefore a
triangular table: a tuple of n + 1 rows, row k a tuple of exactly k + 1
``Fraction``s, entry d the coefficient of c^k delta^d.  The integral over
X is row n times the integral of c^n.  From p and its derivative come the
A-hat class (exp of a class, by a row recurrence) and the transgression
forms Omega_0, Omega_2, whose delta-integral measures the change of the
A-hat form along the adiabatic family.  Each B_m is computed once, by
``eta._bernoulli``.  This is the ``Fraction`` reference of the integer
tables of ``eta``, checked by the suite ``_identity_suite`` of
``check-identities``, the one command that loads it; no other module
imports it, and ``import etaflow`` does not.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .eta import (CONVENTION_PAPER_I, CONVENTION_REAL, CONVENTIONS, _bernoulli,
                  corollary_check, eval_at_i)
from .exact import ZERO, as_fraction


def series_p(order: int) -> tuple:
    """p(z) = (1/2) log((z/2)/sinh(z/2)): even, zero constant term, with
    z^{2k} coefficient -B_{2k}/(4k (2k)!).

    Starts -z^2/48 + z^4/5760 - ...
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    bernoulli = _bernoulli(order)
    coeffs = [ZERO] * (order + 1)
    for j in range(2, order + 1, 2):
        coeffs[j] = -bernoulli[j] / (2 * j * math.factorial(j))
    return tuple(coeffs)


def _p_and_p_prime(order: int):
    """p and its formal derivative p', both to ``order``, from one build of
    p to ``order + 1``."""
    if order < 1:
        raise ValueError("order must be >= 1")
    p = series_p(order + 1)
    return p[: order + 1], tuple(j * p[j] for j in range(1, order + 2))


def series_p_prime(order: int) -> tuple:
    """Formal derivative of p: odd series starting -z/24."""
    return _p_and_p_prime(order)[1]


def eta_hat_series_from_alpha(alpha, order: int) -> tuple:
    """Regular part of exp(alpha*x)/sinh(x) - 1/x written at x = c/2.

    That is 2 e^{tc}/(e^c - 1) - 2/c with t = (1 + alpha)/2, so the c^j
    coefficient is 2 B_{j+1}(t)/(j+1)!; the constant term is alpha.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    t = (1 + as_fraction(alpha)) / 2
    bernoulli = _bernoulli(order + 1)
    coeffs = []
    for m in range(1, order + 2):
        # B_m(t) = sum_k C(m, k) B_k t^{m-k}, by Horner's rule in t
        value = ZERO
        for k in range(m + 1):
            value = value * t + math.comb(m, k) * bernoulli[k]
        coeffs.append(2 * value / math.factorial(m))
    return tuple(coeffs)


def eta_hat_series_integer(order: int) -> tuple:
    """(x - tanh x)/(x tanh x) = coth x - 1/x at x = c/2: odd in c, with
    c^{2k-1} coefficient 2 B_{2k}/(2k)!, starting c/6."""
    if order < 0:
        raise ValueError("order must be >= 0")
    bernoulli = _bernoulli(order + 1)
    coeffs = [ZERO] * (order + 1)
    for j in range(1, order + 1, 2):
        coeffs[j] = 2 * bernoulli[j + 1] / math.factorial(j + 1)
    return tuple(coeffs)


def series_eta_hat(r, order: int) -> tuple:
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


def default_order(n: int) -> int:
    """Default series order of ``check-identities`` on a base of complex
    dimension n: comfortably past the nilpotency bound."""
    return 2 * n + 2


def constant_class(values) -> tuple:
    """The delta-free class sum_k values[k] c^k, one row per entry."""
    return tuple((as_fraction(v),) + (ZERO,) * k for k, v in enumerate(values))


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


def horner(poly, x) -> Fraction:
    """The value of the polynomial with coefficients ``poly`` (index =
    exponent) at the rational x."""
    total = ZERO
    for a in reversed(poly):
        total = total * x + a
    return total


def convention_integral(poly, eps, convention=CONVENTION_REAL):
    """Integral over [0, eps] of the real integrand ``poly``, a polynomial
    in delta given by its coefficients, in ``convention``: the series form
    of ``eta.transgression_raw``.  With F the antiderivative of ``poly``
    (F(0) = 0) the real value is F(eps).  The paper_i integrand
    i * poly(i delta) has i^(d+1) times the delta^d coefficient, so its
    integral is F(i eps), split by ``eta.eval_at_i``."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    antiderivative = (ZERO,) + tuple(a / (d + 1) for d, a in enumerate(poly))
    if convention == CONVENTION_REAL:
        return horner(antiderivative, as_fraction(eps))
    return eval_at_i(antiderivative, eps)


def class_product(a, b) -> tuple:
    """Product of two classes on one base, truncated above c^n: row k is
    the sum over i + j = k of the delta-products of rows i and j."""
    out = [[ZERO] * (k + 1) for k in range(len(a))]
    for i, x in enumerate(a):
        if any(x):
            for j, y in enumerate(b[: len(a) - i]):
                if any(y):
                    row = out[i + j]
                    for d, v in enumerate(truncated_product(x, y, i + j + 1)):
                        row[d] += v
    return tuple(map(tuple, out))


def exp_class(x) -> tuple:
    """exp(x) for a class x with no c^0 term, by the recurrence
    k E_k = sum_{j=1..k} j x_j E_{k-j} for its rows E_k (from
    c dE/dc = (c dx/dc) E): O(n^2) row products, none with a zero row."""
    if any(x[0]):
        raise ValueError("exp_class needs a class with no c^0 term")
    rows = [(Fraction(1),)]
    for k in range(1, len(x)):
        row = [ZERO] * (k + 1)
        for j in range(1, k + 1):
            if any(x[j]) and any(rows[k - j]):
                for d, v in enumerate(truncated_product(x[j], rows[k - j], k + 1)):
                    row[d] += j * v
        rows.append(tuple(v / k for v in row))
    return tuple(rows)


def eval_power_sums(f, power_sums) -> tuple:
    """sum_i f(y_i) over formal roots y_i known only by their power sums
    sum_i y_i^j = power_sums[j] c^j (j = 0..n), each power_sums[j] a row
    in delta: the class with row j equal to f_j power_sums[j], for the
    coefficient tuple ``f`` of at least n + 1 entries.
    """
    return tuple(tuple(s * f[j] for s in row) if any(row) else row
                 for j, row in enumerate(power_sums))


def a_hat_class(power_sums) -> tuple:
    """A-hat class of a tangent bundle given by the power sums of its
    Chern roots (``power_sums[k] * c^k`` for k = 0..n).

    A-hat is the multiplicative sequence of (x/2)/sinh(x/2) = exp(2p(x)),
    so A-hat = exp(2 sum_i p(x_i)) = exp(2 sum_k p_k s_k), with p truncated
    at z^n, which is exact in Q[delta][c]/(c^{n+1}).
    """
    two_p = tuple(2 * a for a in series_p(len(power_sums) - 1))
    return exp_class(eval_power_sums(two_p, constant_class(power_sums)))


def omega_forms(power_sums):
    """Transgression forms (Omega_0, Omega_2) for the adiabatic family:
        Omega_0 = 2 sum_j p(x_j + 2 delta c) + 2 p(2 delta c),
        Omega_2 = 2 sum_j p'(x_j + 2 delta c) + 2 p'(2 delta c),
    with delta the formal deformation parameter and x_j the tangent Chern
    roots.  They satisfy the transgression identity
    d/d(delta) Omega_0 = 2 c Omega_2.  The paper_i convention is their
    rotation delta -> i delta, applied by ``convention_integral``.

    The sums only need the power sums of the shifted roots y = x_j + 2 delta c
    together with the extra root y = 2 delta c:
    sum_y y^m = sum_d C(m, d) s'_{m-d} 2^d delta^d c^m, with s' the power
    sums of the x_j plus 1 in degree 0 for the extra root.  p and p' are
    truncated at z^n, which is exact.
    """
    n = len(power_sums) - 1
    p, pp = _p_and_p_prime(n)
    sums = [as_fraction(s) for s in power_sums]
    sums[0] += 1  # the extra root 2 delta c
    shifted = tuple(tuple(math.comb(m, d) * 2**d * sums[m - d] for d in range(m + 1))
                    for m in range(n + 1))
    omega0 = eval_power_sums(tuple(2 * a for a in p), shifted)
    omega2 = eval_power_sums(tuple(2 * a for a in pp), shifted)
    return omega0, omega2


def transgression_forms(manifold):
    """(Omega_0, Omega_2, W), W = Omega_2 e^{Omega_0}: the class side that
    ``_identity_suite`` checks, none of which depends on (r, eps)."""
    omega0, omega2 = omega_forms(manifold.power_sums)
    return omega0, omega2, class_product(omega2, exp_class(omega0))


def _identity_suite(manifold, r):
    """Deterministic symbolic self-checks on one catalog manifold."""
    n = manifold.n
    c = constant_class((0, 1) + (0,) * (n - 1))
    checks = []
    omega0, omega2, w = transgression_forms(manifold)  # w = Omega_2 e^{Omega_0}
    ahat = [row[0] for row in a_hat_class(manifold.power_sums)]

    def scaled(x, s):
        return tuple(tuple(a * s for a in row) for row in x)

    def integral(x):  # over X: only the c^n row survives
        return tuple(a * manifold.top_integral for a in x[n])

    def check(name, fn):
        try:
            ok = bool(fn())
            note = ""
        except Exception as exc:  # report, never crash the suite
            ok = False
            note = f"{type(exc).__name__}: {exc}"
        item = {"name": name, "pass": ok}
        if note:
            item["note"] = note
        checks.append(item)

    one = constant_class((1,) + (0,) * n)
    check("exp_inverse",
          lambda: class_product(exp_class(c), exp_class(scaled(c, -1))) == one)
    check("series_p_derivative",
          lambda: series_p_prime(12)
          == tuple(j * a for j, a in enumerate(series_p(13)))[1:])
    check("eta_hat_integer_is_average_of_one_sided_limits",
          lambda: tuple(2 * a for a in eta_hat_series_integer(12))
          == tuple(a + b for a, b in zip(eta_hat_series_from_alpha(1, 12),
                                         eta_hat_series_from_alpha(-1, 12))))
    check("eta_hat_at_r_constant_term",
          lambda: series_eta_hat(r, 0)[0]
          == (0 if r.denominator == 1 else 1 - 2 * (r - math.floor(r))))
    check("a_hat_degrees_divisible_by_four",
          lambda: all(k % 2 == 0 for k, a in enumerate(ahat) if a))
    check("transgression_derivative_real",
          lambda: tuple(tuple(d * a for d, a in enumerate(row))[1:] + (ZERO,)
                        for row in omega0)
          == class_product(scaled(c, 2), omega2))
    two_c_w = class_product(scaled(c, 2), w)

    def derivative_paper_i():
        # paper_i turns Omega_0 into Omega_0(i delta), of derivative
        # 2c i Omega_2(i delta): the paper_i integral over [0, 1] of the top
        # degree of 2c Omega_2 e^{Omega_0} is P(i) - P(0), P = top e^{Omega_0}
        lhs = convention_integral(integral(two_c_w), 1, CONVENTION_PAPER_I)
        top = integral(exp_class(omega0))
        return lhs == eval_at_i((ZERO,) + top[1:], 1)

    check("transgression_derivative_paper_i", derivative_paper_i)

    def ftc(rr, ee):
        erc = exp_class(scaled(c, rr))
        lhs = convention_integral(integral(class_product(two_c_w, erc)), ee)
        at_eps = exp_class(constant_class([horner(row, ee) for row in omega0]))
        difference = tuple((row[0] - a,) + row[1:] for row, a in zip(at_eps, ahat))
        return lhs == integral(class_product(difference, erc))[0]  # delta-free

    for rr, ee in ((Fraction(0), Fraction(1, 3)), (Fraction(1, 2), Fraction(1))):
        check(f"fundamental_theorem_r={rr}_eps={ee}",
              lambda rr=rr, ee=ee: ftc(rr, ee))

    if manifold.n % 2 == 0:
        check("corollary_parity",
              lambda: corollary_check(manifold).both_terms_zero)
    return checks
