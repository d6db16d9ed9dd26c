"""Class-side oracle for (P^1)^n, written apart from etaflow.

On (P^1)^n with generators a_j (a_j^2 = 0) and c = sum a_j, every class the
eta formula needs is a polynomial in the single variable c, truncated at
c^(n+1), with integral c^n = n!.  The A-hat class is 1.  The series come
from Bernoulli numbers and Bernoulli polynomials rather than from series
division, so this file shares no code path with etaflow.series or
etaflow.ring:

    p(z)        = -1/2 * sum_{k>=1} B_2k z^2k / (2k (2k)!)
    eta_hat_r(c) = 2 * sum_{m>=1} B_m(1 - {r}) c^(m-1) / m!      (r not integral)
                 = 2 * sum_{m>=2} B_m c^(m-1) / m!               (r integral)
    Omega_0 = 2(n+1) p(t) + 4c p'(t),  Omega_2 = 2(n+1) p'(t) + 4c p''(t),
    t = 2 delta c.

The paper_i integrand is i * I(i delta), where I is the real integrand, so
its value over [0, eps] is sum_d i^(d+1) I_d eps^(d+1) / (d+1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """B_m with B_1 = -1/2, from sum_{j<=m} C(m+1, j) B_j = 0."""
    if m == 0:
        return Fraction(1)
    acc = sum(math.comb(m + 1, j) * bernoulli(j) for j in range(m))
    return -acc / (m + 1)


def bernoulli_poly(m: int, x: Fraction) -> Fraction:
    return sum(math.comb(m, j) * bernoulli(j) * x ** (m - j) for j in range(m + 1))


def p_coefficients(order: int):
    """Coefficients p_0..p_order of p(z) = (1/2) log((z/2)/sinh(z/2))."""
    out = [Fraction(0)] * (order + 1)
    for k in range(1, order // 2 + 1):
        out[2 * k] = -bernoulli(2 * k) / (2 * 2 * k * math.factorial(2 * k))
    return out


def eta_hat_coefficients(r: Fraction, order: int):
    if r.denominator == 1:
        return [2 * bernoulli(m) / math.factorial(m) if m >= 2 else Fraction(0)
                for m in range(1, order + 2)]
    beta = 1 - (r - math.floor(r))
    return [2 * bernoulli_poly(m, beta) / math.factorial(m)
            for m in range(1, order + 2)]


def adiabatic(n: int, r: Fraction) -> Fraction:
    """(1/2) n! [c^n] eta_hat_r(c) e^{rc}."""
    eta = eta_hat_coefficients(r, n)
    top = sum(eta[j] * r ** (n - j) / math.factorial(n - j) for j in range(n + 1))
    return math.factorial(n) * top / 2


# Bivariate truncated polynomials: A[k][d] is the coefficient of c^k delta^d,
# k = 0..n.


def _zero(n):
    return [[Fraction(0)] * (n + 1) for _ in range(n + 1)]


def _mul(a, b, n):
    out = _zero(n)
    for i in range(n + 1):
        for di, x in enumerate(a[i]):
            if not x:
                continue
            for j in range(n + 1 - i):
                row = out[i + j]
                for dj, y in enumerate(b[j]):
                    if y:
                        row[di + dj] += x * y
    return out


def _exp(a, n):
    """exp of a nilpotent class (no c^0 term)."""
    result = _zero(n)
    result[0][0] = Fraction(1)
    term = [row[:] for row in result]
    for j in range(1, n + 1):
        term = _mul(term, a, n)
        term = [[x / j for x in row] for row in term]
        result = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(result, term)]
    return result


@lru_cache(maxsize=None)
def integrand(n: int, r: Fraction):
    """Coefficients I_d of n! [c^n] Omega_2 exp(Omega_0) e^{rc} in delta."""
    p = p_coefficients(n + 2)
    omega0 = _zero(n)
    omega2 = _zero(n)
    for k in range(1, n + 1):
        # [c^k] Omega_0 = p_k (2(n+1) (2 delta)^k + 4k (2 delta)^(k-1))
        omega0[k][k] += p[k] * 2 * (n + 1) * 2**k
        omega0[k][k - 1] += p[k] * 4 * k * 2 ** (k - 1)
    for k in range(1, n + 2):
        # [c^(k-1)] Omega_2 = k p_k (2(n+1) (2 delta)^(k-1) + 4(k-1) (2 delta)^(k-2))
        if k - 1 > n:
            continue
        omega2[k - 1][k - 1] += k * p[k] * 2 * (n + 1) * 2 ** (k - 1)
        if k >= 2:
            omega2[k - 1][k - 2] += k * p[k] * 4 * (k - 1) * 2 ** (k - 2)
    erc = _zero(n)
    for k in range(n + 1):
        erc[k][0] = r**k / math.factorial(k)
    total = _mul(_mul(omega2, _exp(omega0, n), n), erc, n)
    return tuple(math.factorial(n) * x for x in total[n])


def transgression(n: int, r: Fraction, eps: Fraction) -> Fraction:
    return sum(x * eps ** (d + 1) / (d + 1) for d, x in enumerate(integrand(n, r)))


def transgression_paper_i(n: int, r: Fraction, eps: Fraction):
    """(re, im) of the paper_i value, via the rotation delta -> i delta."""
    re = im = Fraction(0)
    for d, x in enumerate(integrand(n, r)):
        term = x * eps ** (d + 1) / (d + 1)
        power = (d + 1) % 4  # i^(d+1) = 1, i, -1, -i
        if power == 0:
            re += term
        elif power == 1:
            im += term
        elif power == 2:
            re -= term
        else:
            im -= term
    return re, im


def eta_total(n: int, r: Fraction, eps: Fraction, flow: int) -> Fraction:
    return adiabatic(n, r) + transgression(n, r, eps) + 2 * flow
