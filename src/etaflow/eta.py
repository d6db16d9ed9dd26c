"""Assembly of the eta invariant, its corollary checks and the APS index.

For a circle bundle over a Fano base of complex dimension n = 2m the eta
invariant at deformation eps and twist r splits into three exactly
computable pieces:

    eta(r, eps) = adiabatic + N * transgression + 2 * spectral_flow,

where the adiabatic term is (1/2) integral of A-hat * eta_hat_r * e^{rc},
the transgression term is the delta-integral over [0, eps] of the
top-degree part of Omega_2 e^{Omega_0} e^{rc}, and N is a single exposed
convention constant (default 1) absorbing the 2*pi*i normalization of the
transgression.  Every acceptance-level statement here is invariant under
rescaling N.

On a fixed base neither A-hat nor W = Omega_2 e^{Omega_0} depends on
(r, eps), while eta_hat_r and e^{rc} are polynomials in t = 1 - {r} and r.
Every class lives in Q[delta][c]/(c^{n+1}), so the series behind them are
built to order n, which is already exact.  Each term is one integer table
per base, built once in a bounded memo; a query evaluates it by Horner's
rule in integers and reduces by one gcd, and the adiabatic term is
memoized per (base, r).
The ``paper_i`` convention, with literal factors of i, takes the same
antiderivative at i*eps.  ``convention_integral`` keeps the series form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .catalog import ManifoldSpec
from .exact import ZERO, GaussianRational, Record, as_fraction, rational_str
from .series import (
    _bernoulli,
    a_hat_class,
    class_product,
    exp_class,
    omega_forms,
)
from .spectral import (
    ON_UNKNOWN_ERROR,
    SF_SIGN_PAPER,
    SpectralFlowReport,
    SpectralModel,
    _scaled,
    spectral_flow,
)

CONVENTION_REAL = "real"
CONVENTION_PAPER_I = "paper_i"
CONVENTIONS = (CONVENTION_REAL, CONVENTION_PAPER_I)


@lru_cache(maxsize=8)
def a_hat_coefficients(manifold: ManifoldSpec) -> tuple:
    """[c^k] A-hat for k = 0..n, built once per base."""
    return tuple(row[0] for row in a_hat_class(manifold.power_sums))


@lru_cache(maxsize=8)
def transgression_forms(manifold: ManifoldSpec):
    """(Omega_0, Omega_2, W) with W the n + 1 coefficients [c^k] of
    Omega_2 e^{Omega_0}, none of which depend on (r, eps); built once per
    base."""
    omega0, omega2 = omega_forms(manifold.power_sums)
    return omega0, omega2, class_product(omega2, exp_class(omega0))


def _homogeneous(poly, x: int, scale: int) -> int:
    """scale^K * poly(x / scale) in integers, K = len(poly) - 1."""
    value, power = 0, 1
    for g in reversed(poly):
        value, power = value * x + g * power, power * scale
    return value


def _integer_table(rows):
    """(L, rows * L), L the least common denominator of the Fraction rows."""
    L = _scaled(*(x for row in rows for x in row))[0]
    return L, tuple(tuple(x.numerator * (L // x.denominator) for x in row)
                    for row in rows)


@lru_cache(maxsize=8)
def _adiabatic_table(manifold: ManifoldSpec):
    """(L, G) with ``adiabatic_top`` = sum G[l][m] t^l r^m / L, t = 1 - {r}:
    eta_hat_r has c^j coefficient 2 B_{j+1}(t)/(j+1)!, B_{j+1}(t) = sum_l
    C(j+1, l) B_{j+1-l} t^l, and e^{rc} has r^m/m!."""
    n = manifold.n
    ahat = a_hat_coefficients(manifold)
    bernoulli = _bernoulli(n + 1)
    rows = [[sum((2 * ahat[n - j - m] * math.comb(j + 1, l) * bernoulli[j + 1 - l]
                  / (math.factorial(j + 1) * math.factorial(m))
                  for j in range(max(l - 1, 0), n + 1 - m)
                  if ahat[n - j - m] and bernoulli[j + 1 - l]), ZERO)
             for m in range(n + 2)] for l in range(n + 2)]
    return _integer_table(rows)


@lru_cache(maxsize=8)
def _transgression_table(manifold: ManifoldSpec):
    """(L, H) with the delta-antiderivative of the transgression integrand
    F(eps) = sum H[j][e] eps^e r^j / L, column j over e = 0..n + 1 - j:
    H[j][e] is W_{n-j}[e-1] / (j! e) times the integral of c^n, H[j][0] 0."""
    n, w = manifold.n, transgression_forms(manifold)[2]
    return _integer_table([[ZERO] + [manifold.top_integral * w[n - j][e - 1]
                                     / (math.factorial(j) * e)
                                     for e in range(1, n + 2 - j)] for j in range(n + 2)])


def adiabatic_top(manifold: ManifoldSpec, r) -> Fraction:
    """[c^n] of A-hat * eta_hat_r(c) * e^{rc}: Horner's rule in t = 1 - {r}
    leaves a polynomial in r.  An integer r takes the average of the values
    at t = 0 and t = 1, which is the integer eta_hat series."""
    L, table = _adiabatic_table(manifold)
    r = as_fraction(r)
    D, R = r.denominator, r.numerator
    if D == 1:
        poly, L = [g + sum(column) for g, column in zip(table[0], zip(*table))], 2 * L
    else:  # the degree in r stays <= n + 1, so zip truncates only zeros
        a, poly = R // D + 1, [0] * len(table)
        for row in reversed(table):
            poly = [g + a * x - y for g, x, y in zip(row, poly, [0] + poly)]
    return Fraction(_homogeneous(poly, R, D), L * D ** (len(poly) - 1))


@lru_cache(maxsize=8, typed=True)
def adiabatic_limit_eta(manifold: ManifoldSpec, r) -> Fraction:
    """Small-eps limit of the eta invariant:
    (1/2) * integral of A-hat * eta_hat_r * exp(rc), memoized per (base, r);
    typed, so a float r is refused, not matched to a Fraction."""
    return adiabatic_top(manifold, r) * manifold.top_integral / 2


def transgression_integrand_poly(manifold: ManifoldSpec, r) -> tuple:
    """Integral over X of Omega_2 e^{Omega_0} e^{rc}: the sum over j of
    W_{n-j} r^j / j! times the integral of c^n, a polynomial in delta with
    rational coefficients (the real convention), as its n + 1
    coefficients, read off the transgression table."""
    L, columns = _transgression_table(manifold)
    r, top = as_fraction(r), manifold.n + 1
    return tuple(Fraction(e * _homogeneous([c[e] for c in columns[: top + 1 - e]], r.numerator,
                                           r.denominator), L * r.denominator ** (top - e))
                 for e in range(1, top + 1))


def horner(poly, x) -> Fraction:
    """The value of the polynomial with coefficients ``poly`` (index =
    exponent) at the rational x."""
    total = ZERO
    for a in reversed(poly):
        total = total * x + a
    return total


def eval_at_i(poly, x):
    """The value of ``poly`` at i * x, by a parity split: i^d is (-1)^(d/2)
    for even d and (-1)^((d-1)/2) i for odd d, so the even-degree terms sum
    to the real part and the odd-degree terms to the imaginary part.  A
    Fraction when the value is real, else a GaussianRational."""
    x = as_fraction(x)
    parts = [ZERO, ZERO]  # real, imaginary
    for d, c in enumerate(poly):
        if c:
            term = c * x**d
            parts[d % 2] += -term if d % 4 >= 2 else term
    re, im = parts
    return re if im == 0 else GaussianRational(re, im)


def convention_integral(poly, eps, convention=CONVENTION_REAL):
    """Integral over [0, eps] of the real integrand ``poly``, a polynomial
    in delta given by its coefficients, in ``convention``: the series form
    of ``transgression_raw``.  With F the antiderivative of ``poly``
    (F(0) = 0) the real value is F(eps).  The paper_i integrand
    i * poly(i delta) has i^(d+1) times the delta^d coefficient, so its
    integral is F(i eps), split by ``eval_at_i``."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    antiderivative = (ZERO,) + tuple(a / (d + 1) for d, a in enumerate(poly))
    if convention == CONVENTION_REAL:
        return horner(antiderivative, as_fraction(eps))
    return eval_at_i(antiderivative, eps)


def transgression_raw(manifold: ManifoldSpec, r, eps, convention=CONVENTION_REAL):
    """Exact delta-integral over [0, eps] of the transgression integrand,
    before the convention constant is applied."""
    eps = as_fraction(eps)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if convention not in CONVENTIONS:  # before the class side is built
        raise ValueError(f"unknown convention {convention!r}")
    L, columns = _transgression_table(manifold)
    E, De, r = eps.numerator, eps.denominator, as_fraction(r)
    # Horner's rule in eps (at E, or at iE in Gaussian integers) on each
    # column, then in r over their real and imaginary parts: O(n) long products
    parts = []
    for column in columns:
        re, im, power = 0, 0, 1  # power = De^(K - e), K the column's degree
        for g in reversed(column):
            if convention == CONVENTION_REAL:
                re = re * E + g * power
            else:  # (re + i im) iE + g = (g - im E) + i re E
                re, im = g * power - im * E, re * E
            power *= De
        parts.append((re, im))
    re, im = (_homogeneous(part, r.numerator * De, r.denominator) for part in zip(*parts))
    den = L * (De * r.denominator) ** (manifold.n + 1)
    if im == 0:
        return Fraction(re, den)
    return GaussianRational(Fraction(re, den), Fraction(im, den))


class EtaResult(Record):
    """Exact decomposition of the eta invariant.

    ``transgression_term`` stores the raw integral; the convention
    constant is applied in the total, so that always
    total = adiabatic_term + N * transgression_term + 2 * spectral_flow
    (in the selected flow-sign convention).  When the spectral flow is
    indeterminate both flow and totals are None, never silently zero.
    """

    __hash__ = None

    def __init__(self, r: Fraction, eps: Fraction, adiabatic_term: Fraction,
                 transgression_term: Fraction, convention_constant: Fraction,
                 convention: str, sf_sign: str, flow_report: SpectralFlowReport):
        self.r = r
        self.eps = eps
        self.adiabatic_term = adiabatic_term
        self.transgression_term = transgression_term
        self.convention_constant = convention_constant
        self.convention = convention
        self.sf_sign = sf_sign
        self.flow_report = flow_report

    @property
    def spectral_flow(self) -> int | None:
        return self.flow_report.total if self.flow_report.is_exact else None

    def _total_for(self, sf: int) -> Fraction | None:
        if not self.flow_report.is_exact:
            return None
        return (
            self.adiabatic_term
            + self.convention_constant * self.transgression_term
            + 2 * sf
        )

    @property
    def total(self) -> Fraction | None:
        return self._total_for(self.flow_report.total)

    @property
    def total_paper_sf(self) -> Fraction | None:
        return self._total_for(self.flow_report.total_paper)

    @property
    def total_standard_sf(self) -> Fraction | None:
        return self._total_for(self.flow_report.total_standard)

    def to_json(self):
        def opt(x):
            return None if x is None else rational_str(x)

        return {
            "r": rational_str(self.r),
            "eps": rational_str(self.eps),
            "adiabatic_term": rational_str(self.adiabatic_term),
            "transgression_term": rational_str(self.transgression_term),
            "convention_constant": rational_str(self.convention_constant),
            "convention": self.convention,
            "sf_sign": self.sf_sign,
            "spectral_flow": self.spectral_flow,
            "total": opt(self.total),
            "total_paper_sf": opt(self.total_paper_sf),
            "total_standard_sf": opt(self.total_standard_sf),
            "flow": self.flow_report.to_json(),
        }


def eta_invariant(
    manifold: ManifoldSpec,
    model: SpectralModel,
    r,
    eps,
    *,
    N=1,
    convention=CONVENTION_REAL,
    sf_sign=SF_SIGN_PAPER,
    window_factor=1,
    on_unknown=ON_UNKNOWN_ERROR,
) -> EtaResult:
    """Eta invariant at (r, eps): adiabatic piece, transgression piece and
    certified spectral flow.  The flow is always computed, never assumed
    zero, even when the curvature bound already forces it to vanish."""
    r, eps = as_fraction(r), as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    adiabatic = adiabatic_limit_eta(manifold, r)
    raw = transgression_raw(manifold, r, eps, convention)
    if not isinstance(raw, Fraction):
        raise ValueError(
            "the paper_i convention yields a Gaussian-valued transgression; "
            "use transgression_raw for side-by-side comparison"
        )
    report = spectral_flow(
        model, r, eps, sf_sign=sf_sign, window_factor=window_factor,
        on_unknown=on_unknown,
    )
    return EtaResult(
        r=r,
        eps=eps,
        adiabatic_term=adiabatic,
        transgression_term=raw,
        convention_constant=as_fraction(N),
        convention=convention,
        sf_sign=sf_sign,
        flow_report=report,
    )


def aps_terms(n: int, table, eps):
    """Terms of the APS index sum: (p, k, h^{p,k}) for every 0 <= p <= n
    whose twist k = -eps (p - n/2) is an integer.  Only rational eps is
    accepted."""
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    terms = []
    for p in range(n + 1):
        kv = -eps * (Fraction(p) - Fraction(n, 2))
        if kv.denominator == 1:
            terms.append((p, int(kv), table.h(p, int(kv))))
    return terms


def aps_index(manifold_or_n, table, eps) -> Fraction:
    """Index of the boundary-value problem on the disc bundle:
    -(1/2) * sum of h^{p,k} over the terms of ``aps_terms``; the sum is
    exact."""
    n = (
        manifold_or_n.n
        if isinstance(manifold_or_n, ManifoldSpec)
        else int(manifold_or_n)
    )
    return -Fraction(sum(h for _, _, h in aps_terms(n, table, eps)), 2)


class CorollaryCheck(Record):
    """Symbolic verification that both integrands of the r = 0 formula
    vanish in top degree (for all delta, as a polynomial identity)."""

    def __init__(self, adiabatic_top_zero: bool, transgression_top_zero: bool,
                 witness: dict | None):
        self.adiabatic_top_zero = adiabatic_top_zero
        self.transgression_top_zero = transgression_top_zero
        self.witness = witness

    @property
    def both_terms_zero(self) -> bool:
        return self.adiabatic_top_zero and self.transgression_top_zero


def corollary_check(manifold: ManifoldSpec) -> CorollaryCheck:
    """Check the parity argument behind the vanishing at r = 0: the
    top-degree components of A-hat * eta_hat_0 and of Omega_2 e^{Omega_0}
    are both identically zero on a base of dimension divisible by four."""
    if manifold.n % 2:
        raise ValueError("needs real dimension divisible by four (n even)")
    ad_top = adiabatic_top(manifold, 0)
    tg_top = transgression_forms(manifold)[2][manifold.n]
    witness = None
    if ad_top:
        witness = {"part": "adiabatic", "coefficient": {"1": rational_str(ad_top)}}
    elif any(tg_top):
        names = ["1", "delta"] + [f"delta^{d}" for d in range(2, len(tg_top))]
        witness = {"part": "transgression", "coefficient": {
            names[d]: rational_str(a) for d, a in enumerate(tg_top) if a}}
    return CorollaryCheck(not ad_top, not any(tg_top), witness)
