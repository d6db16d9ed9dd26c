"""Independent oracles for the integer and memoized fast paths of a query.

- The search windows of ``spectral`` are found in the integers of one
  common denominator; here they are recomputed with ``Fraction`` ceilings
  and floors, and each query is checked to scale its inputs once.
- ``eta._bernoulli`` extends one prefix of Bernoulli numbers, kept as the
  integers (j + 1)! B_j; here the numbers come from sympy, and each one is
  counted as it is computed.
- ``series.exp_class`` uses the recurrence k E_k = sum_j j x_j E_{k-j};
  here exp(x) is sympy's sum of x^j / j! in the variables c and delta.
- ``eta._eps_free`` memoizes the adiabatic term and the eps-coefficients
  of the transgression per (base, r).
- ``spectral.certify_no_crossing`` decides a Type 2 family in integers;
  here the quadratic Q(delta) = A(delta) - delta^2 is classified in
  Fractions, from its minimum over 0, eps and the vertex, its rational
  zeros and its sign changes, as the package did before.
- ``spectral._root_sign`` decides the sign of u + t sqrt(disc) in
  integers; here ``exact.sqrt_sign`` decides it in rationals.
- A partial cohomology table lists the cells it lacks as runs of k between
  its known k; here every cell is asked on its own and the unknown ones
  are collapsed into runs (``test_message_memo.collapse``).

The references share no code with ``spectral`` or ``series``.
"""

import math
import random
import sys
import threading
from collections import namedtuple
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etaflow import eta, spectral
from etaflow.catalog import PartialCohomology, product_cp1_model, resolve_manifold
from etaflow.eta import adiabatic_limit_eta, adiabatic_top, transgression_raw
from etaflow.exact import SqrtValue, exact_value_to_json, sqrt_sign, sqrt_value
from etaflow.series import exp_class
from etaflow.spectral import (
    CERTIFIED,
    CROSSING,
    INDETERMINATE,
    ON_UNKNOWN_SKIP,
    TYPE2_MINUS,
    TYPE2_PLUS,
    CertOutcome,
    EigenvalueFamily,
    LaplacianSpectrum,
    SpectralModel,
    certify_no_crossing,
    enumerate_families,
    kernel_dimension,
    spectral_flow,
)
from test_message_memo import collapse, unknown_message

# ------------------------------------------------------- integer windows


def fraction_window(n, r, eps, factor):
    """type1_k, type2_k and the mu^2/2 cutoff, in Fractions."""
    spans = [(math.ceil(r - eps * m / 2 * factor), math.floor(r + eps * m / 2 * factor))
             for m in (n, n + 2)]
    return [list(span) for span in spans], eps / 8 * factor


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([2, 4, 6]),
       r=st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
       eps=st.fractions(min_value=0, max_value=10**5, max_denominator=10**6)
       .filter(lambda e: e > 0),
       factor=st.one_of(st.just(F(1)),
                        st.fractions(min_value=1, max_value=5, max_denominator=10**4)))
@example(n=2, r=F(-7, 3), eps=F(1, 999983), factor=F(1))
@example(n=4, r=F(-1, 2), eps=F(3, 2), factor=F(7, 3))
@example(n=6, r=F(5), eps=F(100000), factor=F(5))  # 4.2 million Type 1 cells
def test_integer_windows_match_fraction_reference(n, r, eps, factor):
    spans, half_mu_max = fraction_window(n, r, eps, factor)
    spec, table = product_cp1_model(n)
    # a complete table lists no cell one by one, whatever the window's size
    model = SpectralModel(spec.name, n, F(2), table)
    _, _, window = enumerate_families(model, r, eps, window_factor=factor)
    assert window == {"type1_k": spans[0], "type2_k": spans[1],
                      "half_mu_sq_max": str(half_mu_max),
                      "factor": str(factor)}
    # an empty partial table lists its whole Type 1 window as one run per q,
    # however many cells it holds
    partial = SpectralModel("partial", n, F(2), PartialCohomology("partial", {}))
    lo, hi = spans[0]
    expected = [unknown_message(q, lo, hi, "partial") for q in range(n + 1)] if lo <= hi else []
    assert enumerate_families(partial, r, eps, window_factor=factor,
                              on_unknown=ON_UNKNOWN_SKIP)[1] == expected


def test_each_query_scales_its_inputs_once(monkeypatch):
    calls = []
    scaled = spectral._scaled
    monkeypatch.setattr(spectral, "_scaled", lambda *v: calls.append(v) or scaled(*v))
    spec, table = product_cp1_model(4)
    nakano = SpectralModel(spec.name, 4, F(2), table)
    explicit = SpectralModel(spec.name, 4, F(2), table, LaplacianSpectrum(
        {(0, 1): ((F(5, 2), 1),)}, F(100), (-40, 40)))
    for model in (nakano, explicit):
        for r, eps in ((F(1, 3), F(7, 5)), (F(-5, 2), F(4)), (F(1), F(3, 7))):
            calls.clear()
            spectral_flow(model, r, eps)
            assert len(calls) == 1
            calls.clear()
            kernel_dimension(model, r, eps)
            assert len(calls) == 1


ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
              "__neg__", "__lt__", "__le__", "__gt__", "__ge__")


def test_windows_and_levels_do_no_fraction_arithmetic(monkeypatch):
    # the whole integer pass of a query: scaling, windows, limits, k-ranges
    spec, table = product_cp1_model(4)
    spectrum = LaplacianSpectrum({(q, k): ((F(abs(k) + q + 1, 3), 1),)
                                  for q in range(5) for k in range(-9, 10)}, F(50), (-30, 30))
    models = [SpectralModel(spec.name, 4, F(2), table),
              SpectralModel(spec.name, 4, F(2), table, spectrum)]
    for r, eps, factor in ((F(5, 2), F(3), F(1)), (F(-5, 2), F(9), F(3, 2))):
        with monkeypatch.context() as patch:
            for name in ARITHMETIC:
                patch.setattr(F, name, lambda *a, name=name: pytest.fail(f"Fraction.{name}"))
            plans = [spectral._plan(model, r, eps, factor) for model in models]
        for _, windows, type1, type2, _ in plans:
            assert [list(windows[:2]), list(windows[2:])] == \
                fraction_window(4, r, eps, factor)[0]
            assert len(type1) == 5 and type2


def test_a_query_that_lists_no_family_builds_no_fraction(monkeypatch):
    built = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    queries = [(r, eps) for r in (F(0), F(1, 3), F(-1, 2), F(3, 4))
               for eps in (F(1, 4), F(1), F(3, 2), F(2))]
    for name in ("cp1xcp1", "cp1x4", "cp1x6"):
        model = resolve_manifold(name).model
        quiet = [(r, eps) for r, eps in queries if not enumerate_families(model, r, eps)[0]]
        assert len(quiet) >= 4
        with monkeypatch.context() as patch:
            patch.setattr(F, "__new__", counting)
            reports = [(spectral_flow(model, r, eps), kernel_dimension(model, r, eps))
                       for r, eps in quiet]
            during = list(built)
        assert during == []
        assert all(report.total == 0 and not report.crossings for report, _ in reports)
    # the counter sees a Fraction that a listed family builds
    with monkeypatch.context() as patch:
        patch.setattr(F, "__new__", counting)
        spectral_flow(resolve_manifold("cp1xcp1").model, F(1), F(1))
    assert built


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from([2, 4, 6]),
       r=st.fractions(min_value=-20, max_value=20, max_denominator=10**6),
       eps=st.fractions(min_value=0, max_value=40, max_denominator=10**6)
       .filter(lambda e: e > 0), data=st.data())
def test_gap_listing_matches_per_cell_reference(n, r, eps, data):
    # known k at both ends of the Type 1 window, in its middle, just outside
    # it and at random, per q; every other cell of the window is reported
    (k_lo, k_hi), _ = fraction_window(n, r, eps, 1)[0]
    places = [k_lo, k_hi, (k_lo + k_hi) // 2, k_lo - 1, k_hi + 1, k_hi + 9]
    cells = {(q, k) for q in range(n + 1)
             for k in data.draw(st.lists(st.one_of(st.sampled_from(places),
                                                   st.integers(k_lo - 3, k_hi + 3))))}
    table = PartialCohomology("partial", {cell: 1 for cell in cells}, [])
    expected = [unknown_message(q, lo, hi, "partial") for q, lo, hi in collapse(
        [(q, k) for q in range(n + 1) for k in range(k_lo, k_hi + 1) if not table.is_known(q, k)])]
    model = SpectralModel("partial", n, F(2), table)  # the Nakano bound reports nothing
    assert enumerate_families(model, r, eps, on_unknown=ON_UNKNOWN_SKIP)[1] == expected


# --------------------------------------------------- the Bernoulli prefix

M_VALUES = [3, 19, 5, 0, 14, 6, 11, 1, 18, 7, 9, 15, 10, 2, 40, 25]


@pytest.fixture(scope="module")
def sympy_bernoulli():
    # sympy 1.14 takes B_1 = +1/2; the package uses B_1 = -1/2
    return [F(-1, 2) if m == 1 else F(str(sp.bernoulli(m))) for m in range(max(M_VALUES) + 1)]


@pytest.fixture
def fresh_bernoulli(monkeypatch):
    """An empty prefix and memo, restored afterwards, with a counter of the
    numbers the recurrence computes: B_j costs one C(j + 1, 0)."""
    computed = []

    class CountingMath:
        factorial = staticmethod(math.factorial)

        @staticmethod
        def comb(a, b):
            if b == 0:
                computed.append(a - 1)
            return math.comb(a, b)

    eta._bernoulli.cache_clear()
    monkeypatch.setattr(eta, "_BERNOULLI", (1,))
    monkeypatch.setattr(eta, "math", CountingMath)
    yield computed
    eta._bernoulli.cache_clear()


def test_bernoulli_prefix_serial(fresh_bernoulli, sympy_bernoulli):
    order = list(M_VALUES)
    random.Random(7).shuffle(order)
    for m in order:
        numbers = eta._bernoulli(m)
        assert type(numbers) is tuple and len(numbers) == m + 1
        assert list(numbers) == sympy_bernoulli[: m + 1]
        assert all(type(b) is F for b in numbers)
    # each number was computed exactly once, however the m arrived
    assert sorted(fresh_bernoulli) == list(range(1, max(M_VALUES) + 1))
    assert len(eta._BERNOULLI) == max(M_VALUES) + 1


def test_bernoulli_prefix_threads(fresh_bernoulli, sympy_bernoulli):
    results, errors = [], []

    def worker(seed):
        order = list(M_VALUES)
        random.Random(seed).shuffle(order)
        try:
            results.extend((m, eta._bernoulli(m)) for m in order)
        except Exception as exc:  # reported below, in the main thread
            errors.append(exc)

    # more threads than cores, switching often, so that extensions overlap
    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 4 * len(M_VALUES)
    for m, numbers in results:
        assert list(numbers) == sympy_bernoulli[: m + 1]
    # a prefix that a slower thread rebinds may be shorter, never wrong
    prefix = eta._BERNOULLI
    assert type(prefix) is tuple and [F(t, math.factorial(j + 1)) for j, t in enumerate(prefix)] \
        == sympy_bernoulli[: len(prefix)]


# ----------------------------------------------------- the class exponential

C, DELTA = sp.symbols("c delta")


def random_delta_class(n, rng):
    """A triangular table with no c^0 term: row k (k + 1 entries, the
    coefficients of c^k delta^d) is zero or has random entries."""
    rows = [(F(0),)]
    for k in range(1, n + 1):
        if rng.random() < 0.3:
            rows.append((F(0),) * (k + 1))
        else:
            rows.append(tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(k + 1)))
    return tuple(rows)


def sympy_exp(x):
    """The rows of sum_j x^j / j!, truncated above c^n, computed by sympy."""
    n = len(x) - 1
    expr = sum(sp.Rational(a.numerator, a.denominator) * C**k * DELTA**d
               for k, row in enumerate(x) for d, a in enumerate(row))
    total, power = sp.Integer(0), sp.Integer(1)
    for j in range(n + 1):
        total += power / sp.factorial(j)
        power = sp.expand(power * expr)
        power = sum(power.coeff(C, k) * C**k for k in range(n + 1))
    poly = sp.Poly(sp.expand(total), C, DELTA)
    return tuple(tuple(F(str(poly.coeff_monomial(C**k * DELTA**d))) for d in range(k + 1))
                 for k in range(n + 1))


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_exp_class_against_sympy(n):
    rng = random.Random(n)
    for _ in range(6):
        x = random_delta_class(n, rng)
        assert exp_class(x) == sympy_exp(x)


# ------------------------------------------------------ the (base, r) memo


def test_adiabatic_memo_hit_equals_miss():
    spec = resolve_manifold("cp1x4").manifold
    r = F(-7, 13)
    memo = eta._eps_free
    miss = memo.__wrapped__(spec, r)
    assert miss[0] == adiabatic_top(spec, r) * spec.top_integral / 2
    first = memo(spec, r)
    hits = memo.cache_info().hits
    assert memo(spec, r) == first == miss
    assert memo.cache_info().hits == hits + 1
    assert memo.cache_info().maxsize == 8
    assert adiabatic_limit_eta(spec, r) == miss[0]
    # typed: an equal float is refused, not matched to the stored Fraction
    transgression_raw(spec, F(1, 2), 1)
    with pytest.raises(TypeError):
        transgression_raw(spec, 0.5, 1)


# ------------------------------------------------ Type 2 certification

Verdict = namedtuple("Verdict", "negative roots witness identically_zero")


def quad_coefficients(family, r):
    """(c2, c1, c0) of Q(delta) = A(delta) - delta^2 for a Type 2 family."""
    B = 2 * (family.k - r)
    C = 2 * family.q + 1 - family.n
    return F(C * C - 1), 8 * family.half_mu_sq - 2 * B * C, B * B


def quad_nonneg(c2, c1, c0, hi):
    """Q(x) = c2 x^2 + c1 x + c0 on [0, hi] in Fractions: ``negative`` with a
    ``witness`` where Q < 0, from the minimum over 0, hi and the vertex, or
    else the ``roots`` of Q in [0, hi], which are then rational."""
    c2, c1, c0, hi = map(F, (c2, c1, c0, hi))
    if c2 == c1 == c0 == 0:
        return Verdict(False, (), None, True)
    candidates = [F(0), hi]
    if c2 > 0 and 0 < -c1 / (2 * c2) < hi:
        candidates.insert(0, -c1 / (2 * c2))
    for x in candidates:
        if (c2 * x + c1) * x + c0 < 0:
            return Verdict(True, (), x, False)
    roots = []
    if c2 == 0:
        if c1 != 0 and 0 <= -c0 / c1 <= hi:
            roots.append(-c0 / c1)
    else:
        disc = c1 * c1 - 4 * c2 * c0
        num, den = math.isqrt(max(disc.numerator, 0)), math.isqrt(disc.denominator)
        if disc >= 0 and num * num == disc.numerator and den * den == disc.denominator:
            root = F(num, den)
            roots += [x for x in ((-c1 - root) / (2 * c2), (-c1 + root) / (2 * c2))
                      if 0 <= x <= hi]
    return Verdict(False, tuple(sorted(set(roots))), None, False)


def cmp_value(value, q):
    """Sign of value - q for a Fraction or a SqrtValue."""
    if isinstance(value, SqrtValue):
        return sqrt_sign(value.a - q, value.b, value.radicand)
    return (value > q) - (value < q)


def quad_sign_changes(c2, c1, c0, hi):
    """[(root, transition)] for the sign changes of Q on the open (0, hi):
    transition +1 where Q rises through zero, -1 where it falls."""
    c2, c1, c0, hi = map(F, (c2, c1, c0, hi))
    if c2 == 0:
        if c1 != 0 and 0 < -c0 / c1 < hi:
            return [(-c0 / c1, 1 if c1 > 0 else -1)]
        return []
    disc = c1 * c1 - 4 * c2 * c0
    if disc <= 0:
        return []
    half_width = abs(1 / (2 * c2))
    sign2 = 1 if c2 > 0 else -1
    pattern = [(sqrt_value(-c1 / (2 * c2), -half_width, disc), -sign2),
               (sqrt_value(-c1 / (2 * c2), half_width, disc), sign2)]
    return [(root, transition) for root, transition in pattern
            if cmp_value(root, 0) > 0 and cmp_value(root, hi) < 0]


BOUND_NOTE = ("curvature bound too weak to certify; supply an explicit "
              "spectrum or restrict to |r| <= kappa/2")


def reference_type2(family, r, eps):
    """The CertOutcome of a Type 2 family, classified in Fractions."""
    if (family.q % 2 == 0) != (family.kind == TYPE2_PLUS):
        return CertOutcome(CERTIFIED)
    c2, c1, c0 = quad_coefficients(family, r)
    verdict = quad_nonneg(c2, c1, c0, eps)
    if not verdict.negative:
        everywhere = verdict.identically_zero
        # no family touches zero inside (0, eps): see
        # test_no_type2_family_touches_zero_inside
        assert not any(0 < x < eps for x in verdict.roots), "a zero inside (0, eps)"
        # a bound level 0 stands for eigenvalues mu^2/2 > 0, whose Q(eps) > 0
        no_eigenvalue = family.half_mu_sq_is_bound and family.half_mu_sq == 0
        return CertOutcome(CERTIFIED, zero_at_start=everywhere or 0 in verdict.roots,
                           zero_at_eps=(everywhere or eps in verdict.roots)
                           and not no_eigenvalue)
    if family.half_mu_sq_is_bound:
        return CertOutcome(INDETERMINATE, note=BOUND_NOTE)
    parity = 1 if family.q % 2 == 0 else -1
    crossings = tuple((root, -transition * parity)
                      for root, transition in quad_sign_changes(c2, c1, c0, eps))
    return CertOutcome(CROSSING if crossings else CERTIFIED, crossings=crossings,
                       zero_at_start=c0 == 0,
                       zero_at_eps=(c2 * eps + c1) * eps + c0 == 0)


# the Q of (n, q) is c2 delta^2 + c1 delta + c0 with c2 = C^2 - 1, C = 2q + 1 - n
# and c0 = B^2, B = 2(k - r); mu^2/2 sets c1 = 8 mu^2/2 - 2BC, so a level can
# be chosen that puts a zero of Q at a given delta > 0
def level_with_zero_at(n, q, k, r, delta):
    B, C = 2 * (k - r), 2 * q + 1 - n
    return (2 * B * C * delta - (C * C - 1) * delta * delta - B * B) / (8 * delta)


@st.composite
def type2_cases(draw):
    """(family, r, eps): n in {2, 4, 6}, r and eps with denominators up to
    10^6, r negative as often as positive, and a level that is random, that
    puts a zero of Q at eps, beyond it or at a random point inside (0, eps),
    or one near such a level, in either branch, as an eigenvalue or as a
    bound; a level may be zero or negative, which the certification admits
    and the tables do not."""
    n = draw(st.sampled_from([2, 4, 6]))
    q = draw(st.integers(0, n))
    k = draw(st.integers(-30, 30))
    r = draw(st.one_of(
        st.fractions(min_value=-40, max_value=40, max_denominator=10**6),
        st.integers(-30, 30).map(F),
        st.fractions(min_value=-3, max_value=3, max_denominator=12).map(lambda d: k - d)))
    eps = draw(st.one_of(
        st.fractions(min_value=0, max_value=200, max_denominator=10**6),
        st.fractions(min_value=0, max_value=20, max_denominator=12)).filter(lambda e: e > 0))
    how = draw(st.sampled_from(["random", "small", "zero", "at eps", "inside", "near",
                                "beyond"]))
    if how == "random":
        half = draw(st.fractions(min_value=-50, max_value=50, max_denominator=10**6))
    elif how == "small":
        half = draw(st.fractions(min_value=-1, max_value=1, max_denominator=100))
    elif how == "zero":
        half = F(0)
    else:
        t = {"at eps": F(1), "beyond": F(3, 2)}.get(how) or draw(
            st.fractions(min_value=0, max_value=1, max_denominator=50)
            .filter(lambda t: 0 < t < 1))
        half = level_with_zero_at(n, q, k, r, eps * t)
        if how == "near":  # most often two irrational roots, or none
            half += draw(st.fractions(min_value=-1, max_value=1, max_denominator=1000))
    vulnerable = TYPE2_PLUS if q % 2 == 0 else TYPE2_MINUS
    kind = draw(st.sampled_from([vulnerable] * 5 + [TYPE2_PLUS, TYPE2_MINUS]))
    bound = draw(st.sampled_from([False, False, True]))
    family = EigenvalueFamily(kind, q, k, n, None if bound else 1, half_mu_sq=half,
                              half_mu_sq_is_bound=bound)
    return family, r, eps


def payload(outcome):
    return [(exact_value_to_json(x), d) for x, d in outcome.crossings]


# Q = 8 delta^2: gap = 0, mu^2/2 = 0, C = 3, a zero of disc at the vertex 0
VERTEX_AT_START = (EigenvalueFamily(TYPE2_PLUS, 2, 1, 2, 1, half_mu_sq=F(0)), F(1), F(3))


@settings(max_examples=600, deadline=None)
@given(case=type2_cases())
# Q identically zero: C = 1, gap = 0, mu^2/2 = 0
@example(case=(EigenvalueFamily(TYPE2_MINUS, 1, 3, 2, 1, half_mu_sq=F(0)), F(3), F(2)))
# C = -1: Q = -(23/25) delta + 1/4 is linear, with its root inside, at eps, beyond
@example(case=(EigenvalueFamily(TYPE2_PLUS, 0, 2, 2, 3, half_mu_sq=F(1, 100)), F(9, 4), F(1)))
@example(case=(EigenvalueFamily(TYPE2_PLUS, 0, 2, 2, 3, half_mu_sq=F(1, 100)), F(9, 4),
               F(25, 92)))
@example(case=(EigenvalueFamily(TYPE2_PLUS, 0, 2, 2, 3, half_mu_sq=F(1, 100)), F(9, 4),
               F(1, 5)))
@example(case=VERTEX_AT_START)
# disc a perfect square: Q = 8 (delta - 2)(delta - 9/4), roots inside and at eps
@example(case=(EigenvalueFamily(TYPE2_PLUS, 2, 3, 2, 1, half_mu_sq=F(1, 4)), F(0), F(3)))
@example(case=(EigenvalueFamily(TYPE2_PLUS, 2, 3, 2, 1, half_mu_sq=F(1, 4)), F(0), F(2)))
@example(case=(EigenvalueFamily(TYPE2_PLUS, 2, 3, 2, 1, half_mu_sq=F(1, 4)), F(0), F(9, 4)))
# a zero at 0 of a Q that then falls: only a negative level gives one
@example(case=(EigenvalueFamily(TYPE2_PLUS, 0, 1, 2, 1, half_mu_sq=F(-1, 3)), F(1), F(2)))
@example(case=(EigenvalueFamily(TYPE2_PLUS, 2, 1, 2, 1, half_mu_sq=F(-1, 3)), F(1), F(2)))
# negative r with large denominators, and a bound-level family
@example(case=(EigenvalueFamily(TYPE2_MINUS, 3, -4, 4, 1, half_mu_sq=F(1, 999983)),
               F(-3999931, 999983), F(123457, 1000000)))
@example(case=(EigenvalueFamily(TYPE2_PLUS, 0, 2, 2, None, half_mu_sq=F(0),
                                half_mu_sq_is_bound=True), F(9, 4), F(1)))
def test_integer_type2_certification_matches_fraction_reference(case):
    family, r, eps = case
    expected = reference_type2(family, r, eps)
    got = certify_no_crossing(family, r, eps)
    assert got == expected
    assert payload(got) == payload(expected)


@settings(max_examples=300, deadline=None)
@given(u=st.integers(-10**6, 10**6), t=st.sampled_from([-1, 1]),
       disc=st.one_of(st.integers(1, 10**6), st.integers(1, 1000).map(lambda x: x * x)))
def test_root_sign_matches_sqrt_sign(u, t, disc):
    # the engine's integer sign of u + t sqrt(disc) against the rational one
    assert spectral._root_sign(u, t, disc) == sqrt_sign(u, t, disc)


def test_no_type2_family_touches_zero_inside():
    # with disc = 0 the vertex is the double root; inside (0, eps) it needs
    # (C^2 - 1) B^2 to be a nonzero square, but C is odd and C^2 - 1 = 4j(j + 1)
    assert [C for C in range(-999, 1000, 2)
            if C * C > 1 and math.isqrt(C * C - 1) ** 2 == C * C - 1] == []
    # the nearest case, disc = 0 at the vertex 0, is a zero at the start
    outcome = certify_no_crossing(*VERTEX_AT_START)
    assert outcome == reference_type2(*VERTEX_AT_START) == CertOutcome(
        CERTIFIED, zero_at_start=True)
    # while a quadratic with a double root inside would report it
    assert quad_nonneg(1, -2, 1, 3) == Verdict(False, (F(1),), None, False)


FRACTION_OPS = ARITHMETIC + ("__new__", "__eq__", "__ne__", "__bool__", "__abs__")


def certify_without_fractions(family, r, eps):
    """certify_no_crossing with every Fraction operation patched to fail."""
    with pytest.MonkeyPatch.context() as patch:
        for name in FRACTION_OPS:
            patch.setattr(F, name, lambda *a, name=name, **kw: pytest.fail(f"Fraction.{name}"))
        return certify_no_crossing(family, r, eps)


@settings(max_examples=200, deadline=None)
@given(case=type2_cases())
def test_unreported_type2_families_build_no_fraction(case):
    expected = reference_type2(*case)
    if not expected.crossings:
        assert certify_without_fractions(*case) == expected


def test_a_reported_crossing_builds_its_fraction():
    # the patch is felt: a reported root is a Fraction
    family = EigenvalueFamily(TYPE2_PLUS, 0, 2, 2, 3, half_mu_sq=F(1, 100))
    with pytest.raises(pytest.fail.Exception, match="Fraction.__new__"):
        certify_without_fractions(family, F(9, 4), F(1))


# moved here with the Fraction classification that they check


def test_reference_quad_examples():
    v = quad_nonneg(1, -3, 2, 1)
    assert not v.negative and v.roots == (F(1),)

    v = quad_nonneg(0, 0, 4, 10)
    assert not v.negative and v.roots == () and not v.identically_zero

    v = quad_nonneg(1, -3, 2, F(3, 2))
    assert v.negative
    # a known interior point with a negative value: Q(5/4) = -3/16
    assert F(25, 16) - 3 * F(5, 4) + 2 == F(-3, 16)
    # any witness must actually verify
    w = v.witness
    assert 0 <= w <= F(3, 2) and w * w - 3 * w + 2 < 0


def test_reference_quad_identically_zero():
    v = quad_nonneg(0, 0, 0, 5)
    assert v.identically_zero and not v.negative


small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
intervals = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=8)


@settings(max_examples=200)
@given(small_fractions, small_fractions, small_fractions, intervals)
def test_reference_quad_agrees_with_dense_sampling(c2, c1, c0, hi):
    v = quad_nonneg(c2, c1, c0, hi)

    def q(x):
        return (c2 * x + c1) * x + c0

    if v.negative:
        assert 0 <= v.witness <= hi and q(v.witness) < 0
    else:
        step = hi / 1000
        assert all(q(i * step) >= 0 for i in range(1001))
        for root in v.roots:
            assert q(root) == 0


@settings(max_examples=150)
@given(small_fractions, small_fractions, small_fractions, intervals)
def test_reference_quad_sign_changes_match_sampling(c2, c1, c0, hi):
    changes = quad_sign_changes(c2, c1, c0, hi)

    def q(x):
        return float(c2) * x * x + float(c1) * x + float(c0)

    for root, transition in changes:
        if isinstance(root, SqrtValue):
            r = float(root.a) + float(root.b) * float(root.radicand) ** 0.5
        else:
            r = float(root)
        lo, hi_s = max(r - 1e-4, 1e-9), r + 1e-4
        before, after = q(lo), q(hi_s)
        if abs(before) > 1e-12 and abs(after) > 1e-12:
            assert (before < 0 < after) == (transition == 1)
            assert (after < 0 < before) == (transition == -1)
