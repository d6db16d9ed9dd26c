"""Dirac eigenvalue families, certified crossing analysis, spectral flow.

The restriction of the circle-bundle Dirac operator to the Fourier mode k
has two kinds of eigenvalue families over the deformation interval
delta in (0, eps]:

  Type 1 (harmonic):   lambda(delta) = (-1)^q (k - delta(q - n/2) - r),
                       multiplicity h^{q,k} = dim H^q(X, K^{1/2} (x) L^k);
  Type 2 (excited):    lambda(delta) =
                       ((-1)^{q+1} delta +- sqrt(A(delta))) / 2,
                       A(delta) = (2k - delta(2q+1-n) - 2r)^2 + 4 mu^2 delta,
                       with mu^2/2 a positive eigenvalue of the Kodaira
                       Laplacian in degree q and twist k.

A Type 1 family has the root 2(k - r)/(2q - n), compared with 0 and eps
in the integers of their common denominator; a Fraction is made only for
a crossing that is reported.  Of the two Type 2 branches of a level only
one can vanish, + for even q and - for odd q, so only that one is built:
the other is strictly signed.  It vanishes only where
Q(delta) = A(delta) - delta^2 does, a quadratic in delta, monotone in
mu^2.  With r and eps over D and mu^2/2 = P/H, H D^2 Q(x/D) has integer
coefficients, so the sign of Q on [0, eps] is decided in integers from
its ends, its vertex and its discriminant, and a Fraction or SqrtValue is
made only for a root that is reported.  Q is read with either tabulated
Laplacian eigenvalues or, when the model has no spectrum
(``spectrum=None``, bound-only mode), the
curvature lower bound  mu^2/2 >= max(q(k + kappa/2), (n-q)(-k + kappa/2)).
A crossing forces |2k - 2r| <= eps(n+2) and mu^2 <= eps/4.  These windows
grow linearly in eps, but one integer pass over one denominator of r, eps
and kappa (``_plan``) visits only the k that can report: for Type 2 the
k-range of each q, found in closed form from the Nakano bound, which every
tabulated eigenvalue also satisfies, and for Type 1 on a complete
cohomology table the k between r and the family's root.  The flow and the
kernel at delta = eps read the same pass.  A partial table reports the
cells of the window it lacks, and a tabulated spectrum those outside its
k-range, as one entry per q and maximal run of k, so no report grows with
eps.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import (
    _DIGITS_BOUND,
    MAX_RATIONAL_DIGITS,
    Record,
    as_fraction,
    exact_value_to_json,
    quoted,
    rational_str,
    sqrt_value,
)

TYPE1 = "type1"
TYPE2_PLUS = "type2+"
TYPE2_MINUS = "type2-"

MODE_NAKANO = "nakano_certified"
MODE_EXPLICIT = "explicit_spectrum"

SF_SIGN_PAPER = "paper"  # +1 per positive-to-negative crossing
SF_SIGN_STANDARD = "standard"  # the opposite orientation

MUST_VANISH = "must_vanish"
UNCONSTRAINED = "unconstrained"


class UnknownCohomologyError(LookupError):
    """A cohomology dimension was requested outside the tabulated range."""


class SpectralWindowError(ValueError):
    """The spectral model does not cover the required search window."""


class IndeterminateSpectralFlow(RuntimeError):
    """The available spectral data cannot decide a sign question."""


def spin_vanishing_predicate(q: int, k: int, kappa, n: int) -> str:
    """Vanishing of H^q(X, K^{1/2} (x) L^k) forced by the curvature bound:
    must_vanish iff (q > 0 and k > -kappa/2) or (q < n and k < kappa/2)."""
    kappa = as_fraction(kappa)
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    if not 0 <= q <= n:
        raise ValueError(f"q = {q} outside 0..{n}")
    half = kappa / 2
    if (q > 0 and k > -half) or (q < n and k < half):
        return MUST_VANISH
    return UNCONSTRAINED


class CohomologyTable:
    """Provider of h^{q,k} = dim H^q(X, K^{1/2} (x) L^k)."""

    name = "table"
    # every h^{q,k} is known, so the flow visits only the Type 1 cells that
    # can report; a partial table (known_ks) lists its window's gaps as k-runs
    complete = True

    def h(self, q: int, k: int) -> int:
        raise NotImplementedError

    def k_support(self, q: int, lo: int, hi: int) -> range:
        """The k in lo..hi at which h^{q,k} may be nonzero, a range of step 1."""
        return range(lo, hi + 1)

    def is_known(self, q: int, k: int) -> bool:
        return True

    def is_lower_bound(self, q: int, k: int) -> bool:
        return False


class LaplacianSpectrum(Record):
    """Tabulated positive Kodaira-Laplacian eigenvalues per (q, k).

    ``entries[(q, k)]`` is an ascending tuple of (mu^2/2, d), d >= 0 the
    alternating multiplicity e_q - e_{q-1} + ... +- e_0 of the Type 2
    family at that eigenvalue (e_j its multiplicity in degree j); every
    mu^2/2 is at least the Nakano bound.  The table lists every eigenvalue
    up to the cutoff ``half_mu_sq_max`` for each k of the inclusive
    ``k_range`` (lo, hi): a (q, k) in the range with no entry has no
    positive eigenvalue below the cutoff.
    """

    def __init__(self, entries: dict, half_mu_sq_max: Fraction, k_range: tuple):
        self.entries = entries
        self.half_mu_sq_max = half_mu_sq_max
        self.k_range = k_range

    def eigenvalues(self, q: int, k: int):
        return self.entries.get((q, k), ())


class SpectralModel(Record):
    """Everything the engine needs about a base manifold: the complex
    dimension, the Ricci lower bound (None for non-Fano entries), the
    cohomology table and an optional explicit Laplacian spectrum.  With
    ``spectrum`` None the Type 2 families are certified from the Nakano
    bound alone (``MODE_NAKANO``)."""

    __hash__ = None

    def __init__(self, name: str, n: int, kappa: Fraction | None,
                 table: CohomologyTable, spectrum: LaplacianSpectrum | None = None):
        self.name = name
        self.n = n
        self.kappa = kappa
        self.table = table
        self.spectrum = spectrum

    @property
    def mode(self) -> str:
        return MODE_NAKANO if self.spectrum is None else MODE_EXPLICIT


class EigenvalueFamily(Record):
    """One eigenvalue family of the deformed Dirac operator.

    For Type 2 in bound-only mode, ``half_mu_sq`` carries the Nakano lower
    bound rather than an actual eigenvalue (``half_mu_sq_is_bound``) and
    the multiplicity is unknown (None); certification is monotone in
    mu^2, so a bound-level certificate covers every actual eigenvalue.
    """

    def __init__(self, kind: str, q: int, k: int, n: int, multiplicity: int | None,
                 half_mu_sq: Fraction | None = None, half_mu_sq_is_bound: bool = False,
                 mult_is_lower_bound: bool = False):
        self.kind = kind
        self.q = q
        self.k = k
        self.n = n
        self.multiplicity = multiplicity
        self.half_mu_sq = half_mu_sq
        self.half_mu_sq_is_bound = half_mu_sq_is_bound
        self.mult_is_lower_bound = mult_is_lower_bound

    def label(self) -> str:
        extra = ""
        if self.half_mu_sq is not None:
            tag = "bound" if self.half_mu_sq_is_bound else "mu^2/2"
            extra = f", {tag}={self.half_mu_sq}"
        return f"{self.kind}(q={self.q}, k={self.k}{extra})"

    def to_json(self):
        data = {"kind": self.kind, "q": self.q, "k": self.k}
        if self.kind == TYPE1:
            data["muSq"] = None
        else:
            data["muSq"] = rational_str(2 * self.half_mu_sq)
            if self.half_mu_sq_is_bound:
                data["muSqIsBound"] = True
        data["multiplicity"] = self.multiplicity
        if self.mult_is_lower_bound:
            data["multiplicityIsLowerBound"] = True
        return data


CERTIFIED = "certified"
CROSSING = "crossing"
INDETERMINATE = "indeterminate"


class CertOutcome(Record):
    """Result of certifying a single family on (0, eps].

    ``crossings`` holds (delta_star, direction) pairs with direction +1
    for a positive-to-negative crossing as delta increases; zeros at the
    endpoints are reported separately and never counted as flow.  Only an
    indeterminate outcome carries a ``note``.
    """

    def __init__(self, status: str, crossings: tuple = (), zero_at_start: bool = False,
                 zero_at_eps: bool = False, note: str = ""):
        self.status = status
        self.crossings = crossings
        self.zero_at_start = zero_at_start
        self.zero_at_eps = zero_at_eps
        self.note = note


def _root_sign(u: int, t: int, disc: int) -> int:
    """Sign of u + t*sqrt(disc) for integers u, t = +-1 and disc > 0."""
    if u * t >= 0 or u * u < disc:
        return t
    return -t if u * u > disc else 0


def certify_no_crossing(family: EigenvalueFamily, r, eps) -> CertOutcome:
    """Exact sign certification of one eigenvalue family on (0, eps].

    Type 1 families are affine in delta; Type 2 families reduce to the
    quadratic Q(delta) = A(delta) - delta^2, whose nonnegativity pins the
    sign of the vulnerable branch.  With a Nakano bound in place of the
    eigenvalue, a nonnegative verdict is still a certificate (Q grows
    with mu^2) while a negative one is only inconclusive.  Both are
    decided in the integers r = R/D, eps = E/D; a Fraction or SqrtValue is
    built only for a crossing that is reported.
    """
    r, eps = as_fraction(r), as_fraction(eps)
    D, R, E = (r.denominator * eps.denominator, r.numerator * eps.denominator,
               eps.numerator * r.denominator)
    if E <= 0:
        raise ValueError("eps must be positive")
    if family.n % 2:
        raise ValueError("only even complex dimension is supported")
    gap = family.k * D - R

    if family.kind == TYPE1:
        # (-1)^q (k - r - delta(q - n/2)) has the root num/(D den) with
        # num = 2(kD - R), den = 2q - n
        num, den = 2 * gap, 2 * family.q - family.n
        if den == 0:
            return CertOutcome(CERTIFIED, zero_at_start=gap == 0, zero_at_eps=gap == 0)
        if den < 0:
            num, den = -num, -den
        if num <= 0:
            return CertOutcome(CERTIFIED, zero_at_start=num == 0)
        if num < E * den:
            # the value at delta = 0, (-1)^q gap/D, is positive: + to -
            direction = 1 if (gap > 0) == (family.q % 2 == 0) else -1
            return CertOutcome(CROSSING, crossings=((Fraction(num, D * den), direction),))
        return CertOutcome(CERTIFIED, zero_at_eps=num == E * den)

    # Type 2: only one branch per parity can reach zero
    if (family.q % 2 == 0) != (family.kind == TYPE2_PLUS):
        return CertOutcome(CERTIFIED)

    # H D^2 Q(x/D) = a2 x^2 + a1 x + a0 on x in [0, E], with mu^2/2 = P/H and
    # C = 2q + 1 - n odd, so a2 = (C^2 - 1) H >= 0 and a0 = 4 gap^2 H >= 0:
    # Q >= 0 on [0, eps] unless it is negative at eps or at an interior vertex.
    # Q never touches zero inside (0, eps): disc = 0 with a vertex in (0, E)
    # needs gap != 0 and C^2 - 1 = 4j(j + 1) (C = 2j + 1) a nonzero square,
    # which j(j + 1) never is
    P, H = family.half_mu_sq.numerator, family.half_mu_sq.denominator
    C = 2 * family.q + 1 - family.n
    a2, a1, a0 = (C * C - 1) * H, 8 * P * D - 4 * gap * C * H, 4 * gap * gap * H
    at_eps = (a2 * E + a1) * E + a0
    disc = a1 * a1 - 4 * a2 * a0
    if at_eps >= 0 and not (0 < -a1 < 2 * a2 * E and disc > 0):
        # Q(0) = 0 holds for every eigenvalue; Q(eps) = 0 at a bound level 0
        # for none, since Q(eps) grows by 8 (mu^2/2) eps and mu^2/2 > 0
        zero_at_eps = at_eps == 0 and not (P == 0 and family.half_mu_sq_is_bound)
        return CertOutcome(CERTIFIED, zero_at_start=a0 == 0, zero_at_eps=zero_at_eps)

    if family.half_mu_sq_is_bound:
        return CertOutcome(
            INDETERMINATE,
            note=(
                "curvature bound too weak to certify; supply an explicit "
                "spectrum or restrict to |r| <= kappa/2"
            ),
        )

    parity = 1 if family.q % 2 == 0 else -1
    if a2 == 0:
        # Q is linear and falls (a1 < 0) from Q(0) >= 0 to Q(eps) < 0
        crossings = ((Fraction(-a0, a1 * D), parity),) if a0 else ()
    else:
        # disc > 0: Q falls through its root (-a1 - sqrt(disc))/(2 a2) and
        # rises through (-a1 + sqrt(disc))/(2 a2); a root in (0, E) reports
        crossings = tuple(
            (sqrt_value(Fraction(-a1, 2 * a2 * D), Fraction(t * H, 2 * a2),
                        Fraction(disc, (H * D) ** 2)), -t * parity)
            for t in (-1, 1)
            if _root_sign(-a1, t, disc) > 0 and _root_sign(-a1 - 2 * a2 * E, t, disc) < 0)
    return CertOutcome(
        CROSSING if crossings else CERTIFIED,
        crossings=crossings,
        zero_at_start=a0 == 0,
        zero_at_eps=at_eps == 0,
    )


ON_UNKNOWN_ERROR = "error"
ON_UNKNOWN_SKIP = "skip"

# Largest number of candidate families that a query's k-ranges list: the
# Type 1 k of a complete cohomology table and the Type 2 k of every q.  They
# grow with |r|, not with eps; 88,500 of them (cp1xcp1, eps = 27777) are
# listed in a second.
MAX_FAMILIES = 100_000


def _scaled(*values):
    """(D, x_1 D, ..., x_m D) as integers, D the least common denominator
    of the rationals x_i; an integer ceiling is then -((-p) // q)."""
    pairs = [x.as_integer_ratio() for x in values]
    d = 1
    for _, e in pairs:
        if d % e:
            d = d * e // math.gcd(d, e)
    return (d, *[p * (d // e) for p, e in pairs])


def _scaled_bound(q: int, k: int, n: int, D: int, H: int) -> int:
    """D times the Nakano bound max(q(k + kappa/2), (n - q)(kappa/2 - k)),
    kappa/2 = H/D: given Ric >= kappa omega, every positive Kodaira-Laplacian
    eigenvalue mu^2/2 of degree q and twist k is at least the bound."""
    return max(q * (k * D + H), (n - q) * (H - k * D))


def _unknown_handler(on_unknown, skipped):
    """Raise UnknownCohomologyError at the first of a list of messages about
    missing data, or record them all in ``skipped`` under on_unknown="skip"."""
    if on_unknown == ON_UNKNOWN_SKIP:
        return skipped.extend
    if on_unknown != ON_UNKNOWN_ERROR:
        raise ValueError(f"on_unknown must be {ON_UNKNOWN_ERROR!r} or "
                         f"{ON_UNKNOWN_SKIP!r}, got {on_unknown!r}")

    def refuse(messages):
        if messages:
            raise UnknownCohomologyError(messages[0])

    return refuse


def _plan(model: SpectralModel, r, eps, factor):
    """The integer plan of a query, found in one pass before any family is
    built.  ``_scaled`` puts r, eps, the factor and kappa (0 without a Ricci
    bound, which a table still meets) over one denominator D as R, E, G, K.
    The windows |k - r| <= eps*factor*n/2 (Type 1) and with n + 2 (Type 2)
    hold every zero on (0, eps].  Within them, per q, are found the Type 1
    k between r and the root's end r + eps(q - n/2) on a complete table,
    and the Type 2 k where a bound-level family can report: with S = 8D^2,
    half_mu_max = M/S and kappa/2 = H/S, where the Nakano bound is at most
    half_mu_max and where c1 < 0 in Q = c2 delta^2 + c1 delta + B^2
    (c2 = C^2 - 1 >= 0, C = 2q + 1 - n odd), or B = 0 at k = r.  The bound
    gives c1 = max(f1, f2) for f1 = 4(n - 1)k + 4(q kappa + C r) and
    f2 = -4(n + 1)k + 4((n - q)kappa + C r), so c1 < 0 on one open
    k-interval, whatever eps is.

    Refuses a nonpositive eps, a factor below 1, an n that is odd or not
    positive, a window k of more than MAX_RATIONAL_DIGITS digits and more
    than MAX_FAMILIES candidate families.  Returns ((D, R, E, G, K),
    (k1_lo, k1_hi, k2_lo, k2_hi), type1, type2, missing): type1[q] the
    Type 1 k of degree q (complete tables only), type2 the (q, k, S times
    the bound, the tabulated (mu^2/2, multiplicity) levels or None) in
    (q, k) order, and missing the maximal runs (lo, hi) of Type 2 k
    outside a spectrum's k-range.
    """
    r, eps = as_fraction(r), as_fraction(eps)
    if eps.numerator <= 0:
        raise ValueError("eps must be positive")
    if not isinstance(factor, int):
        factor = as_fraction(factor)  # a float is refused
    if factor.numerator < factor.denominator:
        # a narrower window drops families that can cross
        raise ValueError(f"window_factor must be >= 1, got {factor}")
    n, table, spectrum = model.n, model.table, model.spectrum
    if n % 2 or n <= 0:
        raise ValueError("only positive even complex dimension is supported")
    scaled = D, R, E, G, K = _scaled(r, eps, factor, model.kappa or 0)
    centre, span, reach = 2 * R * D, 2 * D * D, n * E * G
    k1_lo, k1_hi = -((reach - centre) // span), (centre + reach) // span
    reach += 2 * E * G
    k2_lo, k2_hi = -((reach - centre) // span), (centre + reach) // span
    if -k2_lo >= _DIGITS_BOUND or k2_hi >= _DIGITS_BOUND:
        # refused before any k is printed; the Type 2 window holds the Type 1 one
        raise SpectralWindowError(
            f"search window for eps = {quoted(eps, str)} has a k of more than "
            f"MAX_RATIONAL_DIGITS = {MAX_RATIONAL_DIGITS} digits")
    lo2, hi2, missing = k2_lo, k2_hi, []
    if spectrum is not None:
        # the window's k below and above the covered k-range, or all of them
        # when it covers none; only the covered ones are read
        lo2, hi2 = max(k2_lo, spectrum.k_range[0]), min(k2_hi, spectrum.k_range[1])
        missing = [(lo, hi) for lo, hi in (((k2_lo, lo2 - 1), (hi2 + 1, k2_hi))
                                           if lo2 <= hi2 else ((k2_lo, k2_hi),))
                   if lo <= hi]

    S, M, R8, H = 8 * D * D, E * G, 8 * D * R, 4 * D * K
    r_lo, r_hi = -(-R // D), R // D  # ceil(r), floor(r); k = r where r_lo == r_hi
    bounded = spectrum is not None or model.kappa is not None
    type1, type2, count = [], [], 0
    for q in range(n + 1):
        if table.complete:
            # the k between r and the root's end, all inside the window
            end = R + E * (q - n // 2)
            ks = table.k_support(q, -(-end // D), r_hi) if end < R else \
                table.k_support(q, r_lo, end // D)
            type1.append(ks)
            if ks:
                count += ks.stop - ks.start
        if bounded:
            C = 2 * q + 1 - n
            lo = -((M - (n - q) * H) // ((n - q) * S)) if q < n else lo2
            hi = (M - q * H) // (q * S) if q else hi2
            lo, hi = lo if lo > lo2 else lo2, hi if hi < hi2 else hi2
            start = (2 * (n - q) * H + C * R8) // ((n + 1) * S) + 1
            stop = -((2 * q * H + C * R8) // ((n - 1) * S)) - 1
            start, stop = start if start > lo else lo, stop if stop < hi else hi
            at_r = r_lo == r_hi and lo <= r_lo <= hi and not start <= r_lo <= stop
            count += (stop - start + 1 if start <= stop else 0) + at_r
        if count > MAX_FAMILIES:
            raise SpectralWindowError(
                f"more than MAX_FAMILIES = {MAX_FAMILIES} candidate families in the "
                f"search window for eps = {quoted(eps, str)}")
        if bounded and (start <= stop or at_r):
            ks = range(start, stop + 1)
            if at_r:
                ks = (r_lo, *ks) if r_lo < start else (*ks, r_lo)
            type2 += [(q, k, _scaled_bound(q, k, n, S, H),
                       None if spectrum is None else spectrum.eigenvalues(q, k))
                      for k in ks]
    return scaled, (k1_lo, k1_hi, k2_lo, k2_hi), type1, type2, missing


def _type2_unknowns(model: SpectralModel, eps, M: int, S: int, missing, handle_unknown):
    """Refuse a tabulated spectrum whose cutoff is below the window's
    half_mu_max = M/S, and report what the Type 2 levels lack: a Ricci
    lower bound, in bound-only mode, or each ``missing`` run of k
    (``_plan``) in every degree q."""
    spectrum = model.spectrum
    if spectrum is None:
        if model.kappa is None:
            handle_unknown(("Type 2 certification needs a Ricci lower bound or an "
                            "explicit Laplacian spectrum",))
        return
    cutoff = spectrum.half_mu_sq_max
    if cutoff.numerator * S < M * cutoff.denominator:
        raise SpectralWindowError(
            f"spectrum cutoff mu^2/2 <= {quoted(cutoff, str)} below the required "
            f"{quoted(Fraction(M, S), str)} for eps = {quoted(eps, str)}"
        )
    suffix = f"); covered k-range is {quoted(spectrum.k_range, str)}"
    handle_unknown([f"Laplacian spectrum missing (q={q}, k"
                    + (f"={quoted(lo, str)}" if lo == hi
                       else f" in {quoted(lo, str)}..{quoted(hi, str)}") + suffix
                    for q in range(model.n + 1) for lo, hi in missing])


def enumerate_families(model: SpectralModel, r, eps, window_factor=1,
                       on_unknown=ON_UNKNOWN_ERROR):
    """The eigenvalue families that could change sign or report on (0, eps].

    Type 1 needs |k - r| <= eps*n/2; a Type 2 crossing needs
    |2k - 2r| <= eps(n + 2) and mu^2 <= eps/4 (both follow from
    A(delta) <= delta^2 at a crossing).  ``window_factor`` >= 1 widens the
    windows for soundness testing.  Within them, a complete cohomology
    table lists only the Type 1 families whose root (k - r)/(q - n/2)
    lies in [0, eps], and both spectrum kinds only the Type 2 levels at
    the k that ``_plan`` keeps, each in the one branch that can vanish.
    A partial table reports the cells of its Type 1 window that it does
    not list, one entry per q and maximal run of k: "h^{q,k} unknown in
    table <name> for k in lo..hi", or "h^{q,lo} unknown in table <name>"
    for a run of one.  A Fraction is built only for a listed
    family.  Returns (families, skipped, window) where ``skipped``
    describes entries omitted under on_unknown="skip".
    """
    (D, R, E, G, _), (k_lo, k_hi, k2_lo, k2_hi), type1, type2, missing = _plan(
        model, r, eps, window_factor)
    n = model.n
    families = []
    skipped = []
    handle_unknown = _unknown_handler(on_unknown, skipped)
    table = model.table
    if not table.complete:
        tail = f" unknown in table {quoted(table.name)}"
    for q in range(n + 1):
        if table.complete:
            ks = type1[q]
        else:
            ks = table.known_ks(q, k_lo, k_hi)
            # the unknown k are the runs between the ascending known ones
            handle_unknown([f"h^{{{q},{quoted(lo, str)}}}{tail}" if lo == hi else
                            f"h^{{{q},k}}{tail} for k in {quoted(lo, str)}..{quoted(hi, str)}"
                            for lo, hi in zip((k_lo, *(k + 1 for k in ks)),
                                              (*(k - 1 for k in ks), k_hi))
                            if lo <= hi])
        for k in ks:
            mult = table.h(q, k)
            if mult:
                families.append(EigenvalueFamily(
                    TYPE1, q, k, n, mult, mult_is_lower_bound=table.is_lower_bound(q, k)))

    S, M = 8 * D * D, E * G  # half_mu_max = M/S
    window = {
        "type1_k": [k_lo, k_hi],
        "type2_k": [k2_lo, k2_hi],
        "half_mu_sq_max": rational_str(M, S),
        "factor": rational_str(G, D),
    }
    _type2_unknowns(model, eps, M, S, missing, handle_unknown)
    for q, k, bound, levels in type2:
        # the other branch is strictly signed: it never reports
        kind = TYPE2_MINUS if q % 2 else TYPE2_PLUS
        if levels is None:  # bound-only mode: the Nakano bound is the level
            levels = ((Fraction(bound, S), None),)
        for half, mult in levels:
            if half.numerator * S > M * half.denominator:
                break
            # in bound-only mode the multiplicity is unknown (None)
            if mult != 0:
                families.append(EigenvalueFamily(kind, q, k, n, mult, half_mu_sq=half,
                                                 half_mu_sq_is_bound=mult is None))
    return families, skipped, window


class Crossing(Record):
    def __init__(self, family: EigenvalueFamily, delta_star, direction: int,
                 multiplicity: int):
        self.family = family
        self.delta_star = delta_star  # Fraction or SqrtValue
        self.direction = direction  # +1 = positive-to-negative as delta increases
        self.multiplicity = multiplicity

    def to_json(self):
        data = self.family.to_json()
        data["delta_star"] = exact_value_to_json(self.delta_star)
        data["direction"] = self.direction
        data["multiplicity"] = self.multiplicity
        return data


class EndpointZero(Record):
    def __init__(self, family: EigenvalueFamily, where: str,  # "start" or "eps"
                 multiplicity: int | None):
        self.family, self.where, self.multiplicity = family, where, multiplicity

    def to_json(self):
        data = self.family.to_json()
        data["where"] = self.where
        data["multiplicity"] = self.multiplicity
        return data


class SpectralFlowReport(Record):
    """Outcome of the flow computation over (0, eps].

    ``total_paper`` counts a positive-to-negative crossing as +1 (and a
    negative-to-positive one as -1), each weighted by multiplicity;
    ``total_standard`` is its negative.  ``indeterminate`` lists families
    the available data could not certify; when nonempty no total should
    be quoted (``is_exact`` is False).
    """

    __hash__ = None

    def __init__(self, mode: str, sf_sign: str, crossings: list, endpoint_zeros: list,
                 indeterminate: list, skipped: list, window: dict, total_paper: int):
        self.mode = mode
        self.sf_sign = sf_sign
        self.crossings = crossings
        self.endpoint_zeros = endpoint_zeros
        self.indeterminate = indeterminate
        self.skipped = skipped
        self.window = window
        self.total_paper = total_paper

    @property
    def total_standard(self) -> int:
        return -self.total_paper

    @property
    def total(self) -> int:
        return (
            self.total_paper if self.sf_sign == SF_SIGN_PAPER else self.total_standard
        )

    @property
    def is_exact(self) -> bool:
        return not self.indeterminate

    @property
    def partial(self) -> bool:
        return bool(self.skipped)

    def to_json(self):
        return {
            "mode": self.mode,
            "sf_sign": self.sf_sign,
            "total": self.total if self.is_exact else None,
            "total_paper": self.total_paper if self.is_exact else None,
            "total_standard": self.total_standard if self.is_exact else None,
            "crossings": [c.to_json() for c in self.crossings],
            "endpoint_zeros": [z.to_json() for z in self.endpoint_zeros],
            # no family touches zero inside (0, eps) without crossing (see
            # certify_no_crossing); the key stays for the report schema
            "touch_points": [],
            "indeterminate": list(self.indeterminate),
            "partial": self.partial,
            "skipped": list(self.skipped),
            "window": dict(self.window),
        }


def _sort_key(family: EigenvalueFamily):
    return (family.q, family.k, family.kind, family.half_mu_sq or 0)


def spectral_flow(model: SpectralModel, r, eps, *, sf_sign=SF_SIGN_PAPER,
                  window_factor=1, on_unknown=ON_UNKNOWN_ERROR) -> SpectralFlowReport:
    """Signed count of eigenvalue crossings over delta in (0, eps].

    Enumerates the families of the finite search window that can report
    (``enumerate_families``), certifies each one exactly, and sums
    direction * multiplicity over the crossings.
    Endpoint zeros count toward the kernel, not the flow.
    """
    if sf_sign not in (SF_SIGN_PAPER, SF_SIGN_STANDARD):
        raise ValueError(f"unknown sf sign convention {sf_sign!r}")
    families, skipped, window = enumerate_families(model, r, eps, window_factor, on_unknown)
    crossings = []
    endpoint_zeros = []
    indeterminate = []
    total = 0
    for family in sorted(families, key=_sort_key):
        outcome = certify_no_crossing(family, r, eps)
        if outcome.status == INDETERMINATE:
            indeterminate.append(f"{family.label()}: {outcome.note}")
            continue
        for delta_star, direction in outcome.crossings:
            crossings.append(Crossing(family, delta_star, direction,
                                      family.multiplicity))
            total += direction * family.multiplicity
        if outcome.zero_at_start:
            endpoint_zeros.append(EndpointZero(family, "start",
                                               family.multiplicity))
        if outcome.zero_at_eps:
            endpoint_zeros.append(EndpointZero(family, "eps",
                                               family.multiplicity))
    return SpectralFlowReport(model.mode, sf_sign, crossings, endpoint_zeros,
                              indeterminate, skipped, window, total)


def kernel_dimension(model: SpectralModel, r, eps) -> int:
    """dim ker of the deformed operator at delta = eps (exact zero tests).

    Sums h^{q,k} over Type 1 zeros and the alternating multiplicities
    over Type 2 zeros at eps, reading the Type 2 levels at the k that
    ``spectral_flow`` visits, from the same pass (``_plan``), which refuses
    what the flow refuses.  A Type 2 zero at (q, k) needs mu^2/2 equal
    to the value half* that vanishes at eps.  In bound-only mode, if half*
    is positive and not below the Nakano bound the data cannot decide, and
    IndeterminateSpectralFlow is raised rather than guessed, and an unknown
    cell raises UnknownCohomologyError: a count that skipped it would be
    partial.
    """
    (D, R, E, G, _), _, _, type2, missing = _plan(model, r, eps, 1)
    handle_unknown = _unknown_handler(ON_UNKNOWN_ERROR, [])
    n = model.n
    total = 0

    # Type 1 zeros at eps: k = r + eps (q - n/2) must be an integer
    for q in range(n + 1):
        k, rem = divmod(2 * R + E * (2 * q - n), 2 * D)
        if rem:
            continue
        if not model.table.is_known(q, k):
            raise UnknownCohomologyError(
                f"h^{{{q},{quoted(k, str)}}} unknown in table {quoted(model.table.name)}")
        total += model.table.h(q, k)

    # Type 2 zeros at eps: Q(eps) = 0, that is mu^2/2 = half* = N/scale
    # (N below), the unique eigenvalue that would vanish at eps.  Then
    # c1 eps = -(c2 eps^2 + B^2) <= 0 at half*, so c1 < 0 at the bound
    # <= half* or B = 0: every such k is in the flow's k-range.  A level
    # needs half* > 0 and half* >= bound, which a tabulated eigenvalue
    # equal to half* meets
    _type2_unknowns(model, eps, E * G, 8 * D * D, missing, handle_unknown)
    scale = 8 * E * D
    for q, k, bound, levels in type2:
        N = E * E - (2 * (k * D - R) - (2 * q + 1 - n) * E) ** 2
        if N <= 0:
            continue
        # in bound-only mode half* = N/scale must reach the bound, bound/(8D^2)
        if levels is None and N * D >= E * bound:
            raise IndeterminateSpectralFlow(
                f"kernel at eps={quoted(eps, str)} hinges on whether mu^2/2 = "
                f"{quoted(Fraction(N, scale), str)} occurs at (q={q}, k={quoted(k, str)}); "
                "supply an explicit spectrum"
            )
        for half, mult in levels or ():  # None in bound-only mode
            if half.numerator * scale == N * half.denominator:
                total += mult
    return total
