"""Independent oracles for the integer and memoized fast paths of a query.

- The search windows of ``spectral`` are found in the integers of one
  common denominator; here they are recomputed with ``Fraction`` ceilings
  and floors, and each query is checked to scale its inputs once.
- ``series._bernoulli`` extends one prefix of Bernoulli numbers; here the
  numbers come from sympy, and each one is counted as it is computed.
- ``series.exp_class`` uses the recurrence k E_k = sum_j j x_j E_{k-j};
  here exp(x) is sympy's sum of x^j / j! in the variables c and delta.
- ``eta.adiabatic_limit_eta`` is memoized per (base, r, order).

The references share no code with ``spectral`` or ``series``.
"""

import math
import random
import sys
import threading
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etaflow import series, spectral
from etaflow.catalog import product_cp1_model, resolve_manifold
from etaflow.eta import adiabatic_limit_eta, adiabatic_top
from etaflow.series import SeriesOrderError, exp_class
from etaflow.spectral import (
    MAX_WINDOW_CELLS,
    LaplacianSpectrum,
    SpectralModel,
    SpectralWindowError,
    enumerate_families,
    kernel_dimension,
    spectral_flow,
)

# ------------------------------------------------------- integer windows


def fraction_window(n, r, eps, factor):
    """type1_k, type2_k, the mu^2/2 cutoff and the cell count, in Fractions."""
    spans = [(math.ceil(r - eps * m / 2 * factor), math.floor(r + eps * m / 2 * factor))
             for m in (n, n + 2)]
    cells = (n + 1) * sum(max(hi - lo + 1, 0) for lo, hi in spans)
    return [list(span) for span in spans], eps / 8 * factor, cells


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([2, 4, 6]),
       r=st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
       eps=st.fractions(min_value=0, max_value=10**5, max_denominator=10**6)
       .filter(lambda e: e > 0),
       factor=st.one_of(st.just(F(1)),
                        st.fractions(min_value=1, max_value=5, max_denominator=10**4)))
@example(n=2, r=F(-7, 3), eps=F(1, 999983), factor=F(1))
@example(n=4, r=F(-1, 2), eps=F(3, 2), factor=F(7, 3))
@example(n=6, r=F(5), eps=F(100000), factor=F(5))  # far over the cell limit
def test_integer_windows_match_fraction_reference(n, r, eps, factor):
    spans, half_mu_max, cells = fraction_window(n, r, eps, factor)
    spec, table = product_cp1_model(n)
    model = SpectralModel(spec.name, n, F(2), table)
    if cells > MAX_WINDOW_CELLS:
        message = (f"search window of {cells} (q, k) cells for eps = {eps} "
                   f"exceeds MAX_WINDOW_CELLS = {MAX_WINDOW_CELLS}")
        with pytest.raises(SpectralWindowError) as info:
            enumerate_families(model, r, eps, window_factor=factor)
        assert str(info.value) == message
        return
    _, _, window = enumerate_families(model, r, eps, window_factor=factor)
    assert window == {"type1_k": spans[0], "type2_k": spans[1],
                      "half_mu_sq_max": str(half_mu_max),
                      "factor": str(factor)}


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
    spec, table = product_cp1_model(4)
    spectrum = LaplacianSpectrum({(q, k): ((F(abs(k) + q + 1, 3), 1),)
                                  for q in range(5) for k in range(-9, 10)}, F(50), (-30, 30))
    models = [SpectralModel(spec.name, 4, F(2), table),
              SpectralModel(spec.name, 4, F(2), table, spectrum)]
    for r, eps, factor in ((F(5, 2), F(3), F(1)), (F(-5, 2), F(9), F(3, 2))):
        scaled = spectral._scaled(r, eps, factor, F(2))
        with monkeypatch.context() as patch:
            for name in ARITHMETIC:
                patch.setattr(F, name, lambda *a, name=name: pytest.fail(f"Fraction.{name}"))
            windows = spectral._windows(4, eps, *scaled[:4])
            levels = [list(spectral._type2_levels(model, eps, windows[2], windows[3],
                                                  scaled, lambda m: None))
                      for model in models]
        assert [list(windows[:2]), list(windows[2:])] == fraction_window(4, r, eps, factor)[0]
        assert levels[0] and levels[1]


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
        @staticmethod
        def comb(a, b):
            if b == 0:
                computed.append(a - 1)
            return math.comb(a, b)

    series._bernoulli.cache_clear()
    monkeypatch.setattr(series, "_BERNOULLI", (F(1),))
    monkeypatch.setattr(series, "math", CountingMath)
    yield computed
    series._bernoulli.cache_clear()


def test_bernoulli_prefix_serial(fresh_bernoulli, sympy_bernoulli):
    order = list(M_VALUES)
    random.Random(7).shuffle(order)
    for m in order:
        numbers = series._bernoulli(m)
        assert type(numbers) is tuple and len(numbers) == m + 1
        assert list(numbers) == sympy_bernoulli[: m + 1]
        assert all(type(b) is F for b in numbers)
    # each number was computed exactly once, however the m arrived
    assert sorted(fresh_bernoulli) == list(range(1, max(M_VALUES) + 1))
    assert len(series._BERNOULLI) == max(M_VALUES) + 1


def test_bernoulli_prefix_threads(fresh_bernoulli, sympy_bernoulli):
    results, errors = [], []

    def worker(seed):
        order = list(M_VALUES)
        random.Random(seed).shuffle(order)
        try:
            results.extend((m, series._bernoulli(m)) for m in order)
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
    prefix = series._BERNOULLI
    assert type(prefix) is tuple and list(prefix) == sympy_bernoulli[: len(prefix)]


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


# ------------------------------------------------------ the adiabatic memo


def test_adiabatic_memo_hit_equals_miss():
    spec = resolve_manifold("cp1x4").manifold
    r = F(-7, 13)
    miss = adiabatic_limit_eta.__wrapped__(spec, r)
    assert miss == adiabatic_top(spec, r) * spec.top_integral / 2
    first = adiabatic_limit_eta(spec, r)
    hits = adiabatic_limit_eta.cache_info().hits
    assert adiabatic_limit_eta(spec, r) == first == miss
    assert adiabatic_limit_eta.cache_info().hits == hits + 1
    assert adiabatic_limit_eta.cache_info().maxsize == 8
    # typed: an equal float is refused, not matched to the stored Fraction
    adiabatic_limit_eta(spec, F(1, 2))
    with pytest.raises(TypeError):
        adiabatic_limit_eta(spec, 0.5)


def test_adiabatic_memo_does_not_store_a_refusal():
    spec = resolve_manifold("cp1x4").manifold
    for _ in range(2):
        size = adiabatic_limit_eta.cache_info().currsize
        with pytest.raises(SeriesOrderError):
            adiabatic_limit_eta(spec, F(1, 3), 2)
        assert adiabatic_limit_eta.cache_info().currsize == size
