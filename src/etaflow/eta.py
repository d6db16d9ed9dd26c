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

On a fixed base neither A-hat nor Omega_0 depends on (r, eps).  Every
class lives in Q[delta][c]/(c^{n+1}), and both terms are read off one
exponential E = e^{Omega_0}, built once per base in integers to c^{n+1}:
the adiabatic term A is A-hat (E at delta = 0) against a Bernoulli
polynomial at floor(r) + 1 less a power of r, and the transgression T is
(E - A-hat)/(2c) at eps, by the fundamental theorem in delta: two integer
tables, built in a bounded memo per base.  At a fixed r, A does not depend
on eps and T is a polynomial of degree n + 1 in eps, so a bounded memo per
(base, r) holds A and T's eps-coefficients as integers over one
denominator, and a query makes one lookup and one Horner's rule in eps.
``corollary_check`` reads the same tables; the ``Fraction`` reference that
checks them is ``series``, which this module never imports.  The
``paper_i`` convention, with literal factors of i, takes the same
polynomial at i*eps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .catalog import ManifoldSpec
from .exact import ZERO, GaussianRational, Record, as_fraction, rational_str
from .spectral import (
    SF_SIGN_PAPER,
    SpectralFlowReport,
    SpectralModel,
    _scaled,
    spectral_flow,
)

CONVENTION_REAL = "real"
CONVENTION_PAPER_I = "paper_i"
CONVENTIONS = (CONVENTION_REAL, CONVENTION_PAPER_I)

_BERNOULLI = (1,)  # T_j = (j + 1)! B_j for j = 0..m, the largest m asked so far


@lru_cache(maxsize=8)
def _bernoulli(m: int) -> tuple:
    """B_0..B_m as Fractions (B_1 = -1/2) from T_j = (j + 1)! B_j in integers:
    sum_{k<=j} C(j+1, k) B_k = 0 reads T_j = -sum_{k<j} C(j+1, k) (j!/(k+1)!) T_k.
    A miss extends one module-level prefix of the T_j, so a process computes
    each number once; it is rebound, never changed in place, and threads that
    extend it at once compute equal numbers."""
    global _BERNOULLI
    numbers = list(_BERNOULLI)
    for j in range(len(numbers), m + 1):
        factorial = math.factorial(j)
        numbers.append(-sum(math.comb(j + 1, k) * (factorial // math.factorial(k + 1))
                            * numbers[k] for k in range(j)))
    _BERNOULLI = max(_BERNOULLI, tuple(numbers), key=len)
    return tuple(Fraction(t, math.factorial(j + 1)) for j, t in enumerate(numbers[: m + 1]))


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
def _class_tables(manifold: ManifoldSpec):
    """(A-hat, (L, P, Q), (L', H)), read off E = e^{Omega_0} to c^{n+1}.

    Row m of Omega_0 has delta^d coefficient 2 p_m C(m, d) 2^d s'_{m-d},
    2 p_m = -B_m/(m m!) for m >= 2, with s' the power sums plus 1 in degree
    0 (the root 2 delta c), and s_{n+1} = 0: it reaches only
    [c^{n+1} delta^0] E, which nothing reads.  With M the least common
    denominator of the B_m/m times that of s', the rows y_m = m! M^m
    Omega_0_m and e_k = k! M^k E_k are integers, and
    k E_k = sum_j j Omega_0_j E_{k-j} reads e_k = sum_j C(k-1, j-1) y_j e_{k-j}.
    Then:
    - A-hat_i is E_i at delta = 0;
    - eta_hat_r e^{rc} = 2 e^{ac}/(e^c - 1) - 2 e^{rc}/c, a = floor(r) + 1,
      so ``adiabatic_top`` is (P(a) - Q(r))/L with P(a) the sum over i of
      2 A-hat_i B_{m+1}(a)/(m+1)! and Q(r) that of 2 A-hat_i r^{m+1}/(m+1)!,
      m = n - i;
    - d Omega_0/d delta = 2c Omega_2 makes E_{k+1}/2 the delta-antiderivative
      of the c^k row of W = Omega_2 e^{Omega_0}, so the transgression table
      is H[j][e]/L' = top E_{n+1-j}[e]/(2 j!) for e >= 1, H[j][0] = 0."""
    n, top = manifold.n, manifold.top_integral
    bernoulli = _bernoulli(n + 1)
    sums = [as_fraction(s) for s in manifold.power_sums] + [ZERO]
    sums[0] += 1
    Lb, *b = _scaled(*(-bernoulli[m] / m if m > 1 else ZERO for m in range(n + 2)))
    Ls, *s = _scaled(*sums)
    M = Lb * Ls
    y = [[(d, b[j] * M ** (j - 1) * math.comb(j, d) * 2**d * s[j - d])
          for d in range(j + 1) if b[j] and s[j - d]] for j in range(n + 2)]
    e = [[1]]
    for k in range(1, n + 2):
        row = [0] * (k + 1)
        for j in range(1, k + 1):
            for d, x in y[j]:
                x *= math.comb(k - 1, j - 1)
                for i, z in enumerate(e[k - j], d):
                    if z:
                        row[i] += x * z
        e.append(row)
    ahat = tuple(Fraction(e[i][0], math.factorial(i) * M**i) for i in range(n + 1))
    P, Q = [ZERO] * (n + 2), [ZERO] * (n + 2)
    for i, a in enumerate(ahat):
        if a:
            m = n - i + 1
            Q[m] += 2 * a / math.factorial(m)
            for l in range(m + 1):
                if bernoulli[m - l]:
                    P[l] += 2 * a * bernoulli[m - l] / (math.factorial(l) * math.factorial(m - l))
    L, (P, Q) = _integer_table((P, Q))
    H = [[0] + [top.numerator * math.comb(n + 1, j) * M**j * x for x in e[n + 1 - j][1:]]
         for j in range(n + 2)]
    den = 2 * top.denominator * math.factorial(n + 1) * M ** (n + 1)
    g = math.gcd(den, *(x for column in H for x in column))
    return ahat, (L, P, Q), (den // g, tuple(tuple(x // g for x in column) for column in H))


def adiabatic_top(manifold: ManifoldSpec, r) -> Fraction:
    """[c^n] of A-hat * eta_hat_r(c) * e^{rc}: P at the integer
    a = floor(r) + 1 less Q at r.  An integer r takes the average of the
    values at a = r and a = r + 1, which is the integer eta_hat series."""
    L, P, Q = _class_tables(manifold)[1]
    r = as_fraction(r)
    D, R = r.denominator, r.numerator
    q = _homogeneous(Q, R, D)  # D^(n+1) Q(r)
    if D == 1:
        return Fraction(_homogeneous(P, R, 1) + _homogeneous(P, R + 1, 1) - 2 * q, 2 * L)
    scale = D ** (len(Q) - 1)
    return Fraction(_homogeneous(P, R // D + 1, 1) * scale - q, L * scale)


def adiabatic_limit_eta(manifold: ManifoldSpec, r) -> Fraction:
    """Small-eps limit of the eta invariant:
    (1/2) * integral of A-hat * eta_hat_r * exp(rc)."""
    return adiabatic_top(manifold, r) * manifold.top_integral / 2


@lru_cache(maxsize=8, typed=True)
def _eps_free(manifold: ManifoldSpec, r):
    """(A, den, t) for one (base, r): the adiabatic term A and the integers
    t with T(eps) = sum_e t[e] eps^e / den, t[0] = 0, den = L' D^(n+1) for
    r = R/D.  Column j of the transgression table weighs R^j D^(n+1-j), each
    power made once, so t is a sum of short-by-long products.  Typed, so a
    float r is refused, not matched to a Fraction."""
    L, columns = _class_tables(manifold)[2]
    r = as_fraction(r)
    powers, scale = [1], 1  # R^j, then R^j D^(n+1-j)
    for _ in columns[1:]:
        powers.append(powers[-1] * r.numerator)
    for j in reversed(range(len(powers) - 1)):
        scale *= r.denominator
        powers[j] *= scale
    t = [0] * len(columns)
    for column, power in zip(columns, powers):
        for e, h in enumerate(column):
            t[e] += h * power
    return adiabatic_limit_eta(manifold, r), L * scale, tuple(t)


def transgression_integrand_poly(manifold: ManifoldSpec, r) -> tuple:
    """Integral over X of Omega_2 e^{Omega_0} e^{rc}: the sum over j of
    W_{n-j} r^j / j! times the integral of c^n, a polynomial in delta with
    rational coefficients (the real convention), as its n + 1
    coefficients: the derivative of T."""
    _, den, t = _eps_free(manifold, r)
    return tuple(Fraction(e * t[e], den) for e in range(1, len(t)))


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


def _terms(manifold: ManifoldSpec, r, eps: Fraction, convention):
    """(A, T(eps)) from one ``_eps_free`` lookup, T by Horner's rule in
    integers at E = eps.numerator, or at iE in Gaussian integers (paper_i);
    an unknown convention is refused before the class side is built."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    adiabatic, den, t = _eps_free(manifold, r)
    E, De = eps.numerator, eps.denominator
    re, im, power = 0, 0, 1  # power = De^(n + 1 - e)
    if convention == CONVENTION_REAL:
        for g in reversed(t):
            re = re * E + g * power
            power *= De
    else:
        for g in reversed(t):  # (re + i im) iE + g = (g - im E) + i re E
            re, im = g * power - im * E, re * E
            power *= De
    den *= power // De
    if im == 0:
        return adiabatic, Fraction(re, den)
    return adiabatic, GaussianRational(Fraction(re, den), Fraction(im, den))


def transgression_raw(manifold: ManifoldSpec, r, eps, convention=CONVENTION_REAL):
    """Exact delta-integral over [0, eps] of the transgression integrand,
    before the convention constant is applied."""
    eps = as_fraction(eps)
    if eps.numerator < 0:
        raise ValueError("eps must be >= 0")
    return _terms(manifold, r, eps, convention)[1]


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
                 convention: str, flow_report: SpectralFlowReport):
        self.r = r
        self.eps = eps
        self.adiabatic_term = adiabatic_term
        self.transgression_term = transgression_term
        self.convention_constant = convention_constant
        self.convention = convention
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
            "sf_sign": self.flow_report.sf_sign,
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
) -> EtaResult:
    """Eta invariant at (r, eps): adiabatic piece, transgression piece and
    certified spectral flow.  The flow is always computed, never assumed
    zero, even when the curvature bound already forces it to vanish, and
    an unknown cohomology cell raises UnknownCohomologyError: no total is
    made from a partial flow."""
    r, eps = as_fraction(r), as_fraction(eps)
    if eps.numerator <= 0:
        raise ValueError("eps must be positive")
    adiabatic, raw = _terms(manifold, r, eps, convention)
    if not isinstance(raw, Fraction):
        raise ValueError(
            "the paper_i convention yields a Gaussian-valued transgression; "
            "use transgression_raw for side-by-side comparison"
        )
    report = spectral_flow(model, r, eps, sf_sign=sf_sign)
    return EtaResult(
        r=r,
        eps=eps,
        adiabatic_term=adiabatic,
        transgression_term=raw,
        convention_constant=as_fraction(N),
        convention=convention,
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
    tg_top = [a / manifold.top_integral for a in transgression_integrand_poly(manifold, 0)]
    witness = None
    if ad_top:
        witness = {"part": "adiabatic", "coefficient": {"1": rational_str(ad_top)}}
    elif any(tg_top):
        names = ["1", "delta"] + [f"delta^{d}" for d in range(2, len(tg_top))]
        witness = {"part": "transgression", "coefficient": {
            names[d]: rational_str(a) for d, a in enumerate(tg_top) if a}}
    return CorollaryCheck(not ad_top, not any(tg_top), witness)
