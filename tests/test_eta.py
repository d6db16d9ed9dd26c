import math
from fractions import Fraction as F
from functools import lru_cache
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

from etaflow import eta, series
from etaflow.catalog import ConfigError, ManifoldSpec, product_cp1_model, resolve_manifold
from etaflow.cli import MAX_SERIES_ORDER, main
from etaflow.eta import (
    CONVENTION_PAPER_I,
    CONVENTION_REAL,
    CorollaryCheck,
    EtaResult,
    adiabatic_limit_eta,
    adiabatic_top,
    aps_index,
    aps_terms,
    corollary_check,
    eta_invariant,
    transgression_raw,
)
from etaflow.exact import GaussianRational
from etaflow.series import (
    a_hat_class,
    class_product,
    convention_integral,
    exp_class,
    omega_forms,
    series_eta_hat,
)
from etaflow.spectral import (
    SF_SIGN_STANDARD,
    SpectralModel,
    UnknownCohomologyError,
    kernel_dimension,
)

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def cp1xcp1():
    return product_cp1_model(2)


@pytest.fixture(scope="module")
def cp1x4():
    return product_cp1_model(4)


def model_of(spec_table):
    spec, table = spec_table
    return SpectralModel(spec.name, spec.n, spec.kappa, table)


# ------------------------------------------------------- adiabatic limit


def adiabatic_series_oracle(r):
    """Independent check on (CP1)^2: expand the integrand as a plain power
    series in the single variable c up to c^2, using the closed forms,
    and integrate with  int c^2 = 2, int c = int 1 = 0.

    On this base the A-hat class is 1 (the tangent roots square to zero),
    so the integrand series is eta_hat_r(c) * exp(rc).
    """
    z = sp.symbols("z")
    r = sp.Rational(r)
    if r == sp.floor(r):
        eta = (z / 2 - sp.tanh(z / 2)) / ((z / 2) * sp.tanh(z / 2))
    else:
        alpha = 1 - 2 * (r - sp.floor(r))
        eta = sp.exp(alpha * z / 2) / sp.sinh(z / 2) - 2 / z
    integrand = sp.series(eta * sp.exp(r * z), z, 0, 3).removeO()
    c2_coeff = integrand.coeff(z, 2)
    return F(1, 2) * F(str(c2_coeff)) * 2  # (1/2) * coeff * int c^2


def test_adiabatic_limit_matches_series_oracle(cp1xcp1):
    spec, _ = cp1xcp1
    assert adiabatic_series_oracle(F(1, 2)) == F(-1, 24)
    assert adiabatic_limit_eta(spec, F(1, 2)) == F(-1, 24)
    for r in (F(0), F(1, 3), F(2, 3), F(5, 4)):
        assert adiabatic_limit_eta(spec, r) == adiabatic_series_oracle(r)


def test_adiabatic_limit_vanishes_at_r0(cp1xcp1, cp1x4):
    assert adiabatic_limit_eta(cp1xcp1[0], 0) == 0
    assert adiabatic_limit_eta(cp1x4[0], 0) == 0


# ------------------------------------------------------- transgression


def test_transgression_vanishes_at_r0(cp1xcp1, cp1x4):
    for spec, _ in (cp1xcp1, cp1x4):
        for eps in (F(1, 10), F(1), F(4)):
            assert transgression_raw(spec, 0, eps) == 0


def test_transgression_empty_interval(cp1xcp1):
    assert transgression_raw(cp1xcp1[0], F(1, 2), 0) == 0


def test_transgression_rejects_negative_eps(cp1xcp1):
    for convention in (CONVENTION_REAL, CONVENTION_PAPER_I):
        with pytest.raises(ValueError, match="eps must be >= 0"):
            transgression_raw(cp1xcp1[0], F(1, 2), eps=-1, convention=convention)


def test_transgression_fundamental_theorem_cross_check(cp1xcp1):
    # int_0^eps int_X 2c Omega_2 e^{Omega_0} e^{rc} computed two ways:
    # through the delta-integral and through the endpoint difference
    # int_X [e^{Omega_0 at eps} - A-hat] e^{rc}
    from etaflow.series import a_hat_class, class_product, constant_class, exp_class

    spec, _ = cp1xcp1
    r, eps = F(1, 2), F(1)
    omega0, omega2 = omega_forms(spec.power_sums)
    erc = exp_class(constant_class((0, r, 0)))
    ahat = a_hat_class(spec.power_sums)
    integrand = class_product(class_product(constant_class((0, 2, 0)), omega2),
                              class_product(exp_class(omega0), erc))
    lhs = convention_integral(tuple(a * spec.top_integral for a in integrand[2]), eps)
    at_eps = exp_class(constant_class([series.horner(row, eps) for row in omega0]))
    difference = tuple(tuple(a - b for a, b in zip(x, y)) for x, y in zip(at_eps, ahat))
    rhs = class_product(difference, erc)[2]
    assert tuple(a * spec.top_integral for a in rhs) == (lhs, 0, 0)


def test_transgression_paper_i_is_gaussian(cp1xcp1):
    spec, _ = cp1xcp1
    value = transgression_raw(spec, F(1, 2), 1, CONVENTION_PAPER_I)
    # the literal-i convention produces a different (complex-normalized)
    # number; only its N-invariant vanishing statements are shared
    assert value != transgression_raw(spec, F(1, 2), 1)
    assert isinstance(value, GaussianRational) and value.im != 0
    # at r = 0 the value is real and comes back as a Fraction
    assert type(transgression_raw(spec, 0, 1, CONVENTION_PAPER_I)) is F
    with pytest.raises(ValueError, match="unknown convention"):
        transgression_raw(spec, F(1, 2), 1, "imaginary")


# ------------------------------------------------------- assembly


def test_eta_invariant_r0(cp1xcp1):
    spec, table = cp1xcp1
    model = model_of(cp1xcp1)
    res = eta_invariant(spec, model, 0, 1)
    assert res.total == 0
    assert res.adiabatic_term == 0
    assert res.transgression_term == 0
    assert res.spectral_flow == 0


def test_eta_invariant_decomposition(cp1xcp1):
    spec, _ = cp1xcp1
    model = model_of(cp1xcp1)
    res = eta_invariant(spec, model, F(1, 2), F(1, 10))
    assert res.adiabatic_term == F(-1, 24)
    assert res.spectral_flow == 0
    # assembly identity, for any convention constant
    for N in (F(1), F(-7, 3), F(355, 113)):
        res_n = EtaResult(
            r=res.r, eps=res.eps, adiabatic_term=res.adiabatic_term,
            transgression_term=res.transgression_term,
            convention_constant=N, convention=res.convention,
            flow_report=res.flow_report,
        )
        assert (
            res_n.total - 2 * res_n.spectral_flow
            - N * res_n.transgression_term
            == res_n.adiabatic_term
        )
    # a result is a value; it is never hashed
    assert res == eta_invariant(spec, model, F(1, 2), F(1, 10))
    assert res != res_n
    with pytest.raises(TypeError):
        hash(res)


def test_eta_invariant_reports_both_sign_conventions(cp1xcp1):
    spec, _ = cp1xcp1
    model = model_of(cp1xcp1)
    res = eta_invariant(spec, model, F(1, 2), 1, sf_sign=SF_SIGN_STANDARD)
    assert res.total == res.total_standard_sf
    assert res.total_paper_sf == res.total_standard_sf  # flow is zero here
    data = res.to_json()
    assert data["total_paper_sf"] == data["total_standard_sf"]


def test_eta_invariant_indeterminate_not_zeroed(cp1xcp1):
    spec, _ = cp1xcp1
    model = model_of(cp1xcp1)
    res = eta_invariant(spec, model, F(9, 4), 1)
    assert res.spectral_flow is None
    assert res.total is None
    assert res.flow_report.indeterminate
    assert res.to_json()["total"] is None


def test_eta_refuses_general_type():
    entry = resolve_manifold("hyp:n=4,d=8")
    with pytest.raises(ConfigError):
        entry.require_manifold()


# ------------------------------------------------------- APS index


def aps_brute_force(table, n, eps):
    total = 0
    for p in range(n + 1):
        k = -eps * (F(p) - F(n, 2))
        if k.denominator == 1:
            total += table.h(p, int(k))
    return -F(total, 2)


def test_aps_index_examples(cp1xcp1):
    spec, table = cp1xcp1
    # oracle first: enumerate p in {0, 1, 2} against the Kunneth table
    assert aps_brute_force(table, 2, F(3, 7)) == 0
    assert aps_brute_force(table, 2, F(1)) == -1
    assert aps_index(spec, table, F(3, 7)) == 0
    assert aps_index(spec, table, 1) == -1
    # only p = n/2 gives an integral twist at denominator n + 1
    assert aps_index(spec, table, F(1, 3)) == -F(table.h(1, 0), 2) == 0


def test_aps_terms_list_every_integral_twist(cp1xcp1):
    spec, table = cp1xcp1
    assert aps_terms(2, table, 1) == [(0, 1, 1), (1, 0, 0), (2, -1, 1)]
    assert aps_terms(2, table, F(3, 7)) == [(1, 0, 0)]
    with pytest.raises(ValueError):
        aps_terms(2, table, 0)


def test_aps_index_piecewise_constant(cp1xcp1):
    spec, table = cp1xcp1
    # the index can jump only at eps = k/(n/2 - p) with h^{p,k} > 0: 1 and 2
    for eps in (F(3, 5), F(7, 10), F(9, 10), F(999, 1000)):
        assert aps_index(spec, table, eps) == 0
    assert aps_index(spec, table, 1) == -1
    for eps in (F(1001, 1000), F(3, 2), F(1999, 1000)):
        assert aps_index(spec, table, eps) == 0
    assert aps_index(spec, table, 2) == -4  # h^{0,2} = h^{2,-2} = 4


# ------------------------------------------------------- corollary


def test_corollary_check(cp1xcp1, cp1x4):
    for spec_table in (cp1xcp1, cp1x4):
        check = corollary_check(spec_table[0])
        assert check.both_terms_zero
        assert check.witness is None


def test_corollary_check_is_a_value(cp1x4):
    spec, _ = cp1x4
    check = corollary_check(spec)
    assert check == CorollaryCheck(True, True, None)
    assert hash(check) == hash(CorollaryCheck(adiabatic_top_zero=True,
                                              transgression_top_zero=True,
                                              witness=None))
    assert check != CorollaryCheck(True, False, None)


def test_corollary_witness_names_delta_powers(cp1xcp1, monkeypatch):
    # the parity argument makes both tops vanish on every even-dimensional
    # base, so a witness is only seen with a perturbed class side
    spec, _ = cp1xcp1
    perturbed = tuple(a * spec.top_integral for a in (F(1), F(0), F(-3, 2)))
    monkeypatch.setattr(eta, "transgression_integrand_poly", lambda m, r: perturbed)
    check = corollary_check(spec)
    assert (check.adiabatic_top_zero, check.transgression_top_zero) == (True, False)
    assert check.witness == {"part": "transgression",
                             "coefficient": {"1": "1", "delta^2": "-3/2"}}
    monkeypatch.setattr(eta, "adiabatic_top", lambda m, r: F(1, 2))
    assert corollary_check(spec).witness == {"part": "adiabatic",
                                             "coefficient": {"1": "1/2"}}


def test_corollary_negative_control(cp1xcp1):
    # at r = 1/3 the eta-hat series has even powers of c: the adiabatic
    # integrand no longer cancels in top degree
    spec, _ = cp1xcp1
    assert adiabatic_top(spec, F(1, 3)) != 0
    assert adiabatic_limit_eta(spec, F(1, 3)) != 0


def test_convention_invariance_of_acceptance_values(cp1xcp1):
    # scaling the convention constant never touches the r = 0 statements:
    # the transgression integrand is identically zero there
    spec, _ = cp1xcp1
    model = model_of(cp1xcp1)
    for N in (F(1), F(17), F(-3, 5)):
        res = eta_invariant(spec, model, 0, 1, N=N)
        assert res.total == 0


# ------------------------------------------------------- class-side memos


@pytest.fixture
def fresh_memos():
    """Empty class-side memos before and after the test, so that no memo
    state passes between tests."""
    eta._class_tables.cache_clear()
    eta._eps_free.cache_clear()
    yield
    eta._class_tables.cache_clear()
    eta._eps_free.cache_clear()


def test_class_side_built_once_per_base(cp1x4, fresh_memos, capsys):
    spec, _ = cp1x4
    model = model_of(cp1x4)
    tables = eta._class_tables
    queries = [(F(k, 7) - 1, F(k + 1, 5)) for k in range(10)]
    expected = [eta_invariant(spec, model, r, e) for r, e in queries]
    assert tables.cache_info().misses == 1
    for (r, e), res in zip(queries, expected):
        assert eta_invariant(spec, model, r, e).to_json() == res.to_json()
    # every entry point, and the CLI at any --order, read the same entries
    for _ in range(2):
        adiabatic_limit_eta(spec, F(1, 3))
        transgression_raw(spec, F(1, 3), 1, CONVENTION_PAPER_I)
        corollary_check(spec)
    for order in (spec.n, spec.n + 1, 2 * spec.n + 2, MAX_SERIES_ORDER):
        for command in (["eta", "--eps", "1"], ["check-identities"]):
            assert main([*command, "--manifold", "cp1x4", "--r", "1/3",
                         "--order", str(order)]) == 0
    capsys.readouterr()
    info = tables.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    other = resolve_manifold("cp1xcp1").manifold
    for _ in range(2):
        eta_invariant(other, model_of(product_cp1_model(2)), F(1, 3), 1)
    info = tables.cache_info()
    assert (info.misses, info.currsize) == (2, 2)


def test_hot_path_builds_no_class_product(fresh_memos, monkeypatch):
    # a cold base answers every query from the integer exponential alone
    def refuse(*args):
        raise AssertionError("a reference class builder ran on the hot path")

    for name in ("a_hat_class", "omega_forms", "class_product", "exp_class"):
        monkeypatch.setattr(series, name, refuse)
    eta._eps_free.cache_clear()
    for name in ("cp1xcp1", "cp1x6", "three-roots", "tripled"):
        spec = _spec(name)
        if name.startswith("cp1"):
            eta_invariant(spec, model_of(product_cp1_model(spec.n)), F(1, 3), F(1, 2))
        for r in (F(0), F(2), F(-5, 3)):
            adiabatic_limit_eta(spec, r)
            for convention in (CONVENTION_REAL, CONVENTION_PAPER_I):
                transgression_raw(spec, r, F(3, 2), convention)
        if spec.n % 2 == 0:  # corollary_check reads the integer tables too
            corollary_check(spec)
    assert eta._class_tables.cache_info().misses == 4
    eta._eps_free.cache_clear()
    # the patch is felt by the reference path
    with pytest.raises(AssertionError, match="hot path"):
        series.transgression_forms(_spec("cp1x4"))


def test_equal_specs_share_the_memo(fresh_memos):
    # each resolve builds a new ManifoldSpec; equal fields must find the
    # same memo entry
    first = resolve_manifold("cp1x4").manifold
    second = resolve_manifold("cp1x4").manifold
    assert first is not second
    tables = eta._class_tables(first)
    assert eta._class_tables(second) is tables
    info = eta._class_tables.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


# ------------------------------------------- integer tables against series


# every catalog builtin with a class side: the even products up to the
# factor limit
CLASS_BASES = ("cp1xcp1",) + tuple(f"cp1x{k}" for k in range(2, 33, 2))
# bases whose power sums are nonzero in degree >= 2, so that A-hat is not 1:
# roots c, 2c and -3c on Q[c]/(c^4), and the sums (2, 2, 2) with the
# integral of c^2 equal to 3
OTHER_SPECS = {
    "three-roots": ManifoldSpec("three-roots", 3, 1,
                                tuple(sum(m**k for m in (1, 2, -3)) for k in range(4)), None),
    "tripled": ManifoldSpec("tripled", 2, 3, (2, 2, 2), None),
}


def _spec(name):
    return OTHER_SPECS[name] if name in OTHER_SPECS else resolve_manifold(name).manifold


@lru_cache(maxsize=32)
def _series_classes(name):
    """(spec, [c^k] A-hat, W = Omega_2 e^{Omega_0}) built from the series
    module alone, apart from the memos and tables of ``eta``."""
    spec = _spec(name)
    ahat = tuple(row[0] for row in a_hat_class(spec.power_sums))
    omega0, omega2 = omega_forms(spec.power_sums)
    return spec, ahat, class_product(omega2, exp_class(omega0))


def _erc(r, n):
    """r^j / j!, the c^j coefficients of e^{rc}, for j = 0..n."""
    return [r**j / math.factorial(j) for j in range(n + 1)]


def series_adiabatic_top(name, r):
    """[c^n] of A-hat * eta_hat_r * e^{rc}, summed in Fractions from the
    closed-form series, apart from the integer tables."""
    spec, ahat, _ = _series_classes(name)
    n = spec.n
    eta_hat, erc = series_eta_hat(r, n), _erc(r, n)
    return sum((a * eta_hat[j] * erc[n - i - j]
                for i, a in enumerate(ahat) for j in range(n + 1 - i)), F(0))


def series_integrand_poly(name, r):
    """The delta-coefficients of the integral of W e^{rc}: the rows of W
    times r^j / j!, times the integral of c^n."""
    spec, _, w = _series_classes(name)
    n = spec.n
    erc = _erc(r, n)
    return tuple(spec.top_integral
                 * sum((w[n - j][d] * erc[j] for j in range(n + 1 - d)), F(0))
                 for d in range(n + 1))


RATIONALS = st.one_of(
    st.integers(-60, 60).map(F),
    st.builds(F, st.integers(-10**13, 10**13), st.integers(1, 10**12)),
    st.builds(F, st.integers(-200, 200), st.integers(1, 12)),
)
LONG_R = F(-(10**50 + 77), 3 * 10**49 + 1)  # a 51-digit numerator


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(CLASS_BASES + tuple(OTHER_SPECS)), r=RATIONALS,
       eps=st.one_of(st.just(F(0)), RATIONALS.map(abs)))
@example(name="cp1x32", r=LONG_R, eps=F(7, 3))
@example(name="three-roots", r=LONG_R, eps=F(7, 3))
@example(name="three-roots", r=F(-2), eps=F(5, 2))
@example(name="tripled", r=F(3), eps=F(1, 3))
@example(name="tripled", r=F(-7, 4), eps=F(4))
@example(name="cp1x8", r=LONG_R, eps=F(0))
@example(name="cp1x4", r=F(-3), eps=F(10**12 + 1, 10**12))
def test_tables_match_the_series_oracle(name, r, eps):
    spec, ahat, _ = _series_classes(name)
    assert eta._class_tables(spec)[0] == ahat
    top = series_adiabatic_top(name, r)
    assert adiabatic_top(spec, r) == top
    assert adiabatic_limit_eta(spec, r) == top * spec.top_integral / 2
    poly = series_integrand_poly(name, r)
    assert eta.transgression_integrand_poly(spec, r) == poly
    for convention in (CONVENTION_REAL, CONVENTION_PAPER_I):
        value = transgression_raw(spec, r, eps, convention)
        expected = convention_integral(poly, eps, convention)
        assert value == expected and type(value) is type(expected)


# ------------------------------------------------------ the (base, r) memo

# r: zero, integers of both signs, a negative fraction, long ones; eps: large
# denominators, the last of them prime
MEMO_R = (F(0), F(5), F(-3), F(-7, 4), LONG_R, F(10**40 + 1))
MEMO_EPS = (F(10**12 + 1, 10**12), F(7, 3**40), F(10**30 + 7, 2**61 - 1))


@pytest.mark.parametrize("name", CLASS_BASES + tuple(OTHER_SPECS))
def test_eps_polynomial_matches_convention_integral(name):
    # T(eps) from the (base, r) memo against the Fraction reference: its
    # coefficients are the antiderivative of the series integrand, and its
    # values are those of series.convention_integral in both conventions
    spec = _spec(name)
    for r in MEMO_R:
        poly = series_integrand_poly(name, r)
        adiabatic, den, t = eta._eps_free(spec, r)
        assert adiabatic == series_adiabatic_top(name, r) * spec.top_integral / 2
        assert [F(c, den) for c in t] == [F(0)] + [a / (d + 1) for d, a in enumerate(poly)]
        for eps in MEMO_EPS:
            for convention in (CONVENTION_REAL, CONVENTION_PAPER_I):
                value = eta._terms(spec, r, eps, convention)
                expected = convention_integral(poly, eps, convention)
                assert value == (adiabatic, expected)
                assert type(value[1]) is type(expected)


def _parts(value):
    """(real, imaginary) of a transgression value."""
    if isinstance(value, GaussianRational):
        return value.re, value.im
    return value, F(0)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(CLASS_BASES + tuple(OTHER_SPECS)), r=RATIONALS,
       start=RATIONALS.map(abs), step=RATIONALS.map(abs).filter(bool),
       convention=st.sampled_from((CONVENTION_REAL, CONVENTION_PAPER_I)))
@example(name="cp1x32", r=LONG_R, start=F(0), step=F(1, 3**40),
         convention=CONVENTION_PAPER_I)
@example(name="three-roots", r=F(-2), start=F(5, 2), step=F(7, 10**12),
         convention=CONVENTION_REAL)
def test_transgression_has_degree_n_plus_one_in_eps(name, r, start, step, convention):
    # the (n + 2)-th finite difference over n + 3 equally spaced eps vanishes
    spec = _spec(name)
    values = [_parts(transgression_raw(spec, r, start + k * step, convention))
              for k in range(spec.n + 3)]
    for _ in range(spec.n + 2):
        values = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(values, values[1:])]
    assert values == [(0, 0)]
    assert transgression_raw(spec, r, 0, convention) == 0


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from((2, 4, 6)),
       r=st.builds(F, st.integers(-24, 24), st.integers(1, 12)),
       eps=st.lists(st.builds(F, st.integers(1, 96), st.integers(1, 12)),
                    min_size=2, max_size=6))
def test_adiabatic_term_is_the_same_at_every_eps(n, r, eps):
    spec, table = product_cp1_model(n)
    model = SpectralModel(spec.name, spec.n, spec.kappa, table)
    terms = {eta_invariant(spec, model, r, e).adiabatic_term for e in eps}
    assert terms == {adiabatic_limit_eta(spec, r)}


# ten (base, r) pairs for a memo of eight; 2 and F(2) are distinct keys
EVICTION_POOL = (("cp1xcp1", F(1, 3)), ("cp1xcp1", F(-1, 3)), ("cp1xcp1", F(0)),
                 ("cp1x4", 2), ("cp1x4", F(2)), ("cp1x4", F(-5, 7)), ("cp1x8", LONG_R),
                 ("three-roots", F(-2)), ("tripled", F(7, 4)), ("cp1x32", F(1, 2)))


@settings(max_examples=15, deadline=None)
@given(rounds=st.lists(st.permutations(range(len(EVICTION_POOL))), min_size=2, max_size=3),
       eps=RATIONALS.map(abs))
@example(rounds=[list(range(len(EVICTION_POOL)))] * 2, eps=F(7, 3))
def test_memo_eviction_keeps_every_answer(rounds, eps):
    # each round asks all ten pairs, so the memo evicts; every answer is the
    # one computed apart from the memo
    eta._eps_free.cache_clear()
    for i in (i for order in rounds for i in order):
        name, r = EVICTION_POOL[i]
        spec = _spec(name)
        adiabatic, den, t = eta._eps_free.__wrapped__(spec, r)
        assert adiabatic_limit_eta(spec, r) == adiabatic
        assert transgression_raw(spec, r, eps) == sum(F(c, den) * eps**e
                                                      for e, c in enumerate(t))
        assert eta.transgression_integrand_poly(spec, r) == tuple(
            F(e * c, den) for e, c in enumerate(t) if e)
    info = eta._eps_free.cache_info()
    assert info.currsize == 8 and info.misses > len(EVICTION_POOL)
    eta._eps_free.cache_clear()


# ------------------------------------------------ (P^1)^n in closed form


def bernoulli_closed_form(n, r):
    """(B_{n+1}(floor(r) + 1) - r^{n+1})/(n + 1) by sympy, at a rational r
    that is not an integer: the adiabatic term of (P^1)^n, where A-hat = 1."""
    r = sp.Rational(r.numerator, r.denominator)
    return F(str((sp.bernoulli(n + 1, sp.floor(r) + 1) - r ** (n + 1)) / (n + 1)))


def _one_sided_limit(name, m, side):
    """The adiabatic term's limit at r = m from the right (side = 1) or the
    left (side = -1): the term is a polynomial of degree n + 1 on each open
    unit interval, so the library's values at n + 2 points inside it,
    interpolated by Lagrange's formula, give its value at m."""
    spec = _spec(name)
    xs = [m + side * F(k, spec.n + 3) for k in range(1, spec.n + 3)]
    ys = [adiabatic_limit_eta(spec, x) for x in xs]
    total = F(0)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        weight = yi
        for j, xj in enumerate(xs):
            if j != i:
                weight *= (m - xj) / (xi - xj)
        total += weight
    return total


CLOSED_FORM_BASES = ("cp1xcp1", "cp1x4", "cp1x8")


@pytest.mark.parametrize("name", CLOSED_FORM_BASES)
def test_adiabatic_term_is_one_bernoulli_polynomial(name):
    n = _spec(name).n
    rs = [F(1, 2), F(1, 3), F(-7, 3), F(29, 4), F(-1, 10**6), F(10**20 + 1, 7)]
    for r in rs:
        assert adiabatic_limit_eta(_spec(name), r) == bernoulli_closed_form(n, r)


@pytest.mark.parametrize("name", CLOSED_FORM_BASES)
def test_adiabatic_term_at_an_integer_is_the_one_sided_average(name):
    spec = _spec(name)
    n = spec.n
    for m in (-3, -1, 0, 1, 2, 5, 10**12):
        right = F(str((sp.bernoulli(n + 1, m + 1) - sp.Integer(m) ** (n + 1)) / (n + 1)))
        left = F(str((sp.bernoulli(n + 1, m) - sp.Integer(m) ** (n + 1)) / (n + 1)))
        assert adiabatic_limit_eta(spec, m) == (left + right) / 2
        assert adiabatic_limit_eta(spec, m) == left + F(m) ** n / 2


@pytest.mark.parametrize("name", CLOSED_FORM_BASES)
def test_adiabatic_term_jumps_by_m_to_the_n(name):
    spec = _spec(name)
    for m in (-3, -1, 1, 2, 4):
        right, left = _one_sided_limit(name, m, 1), _one_sided_limit(name, m, -1)
        assert right - left == F(m) ** spec.n
        assert adiabatic_limit_eta(spec, m) == (left + right) / 2
    # no jump at 0, where m^n = 0
    assert _one_sided_limit(name, 0, 1) == _one_sided_limit(name, 0, -1) == 0


def hurwitz_type1_limit(n, r):
    """The delta -> 0 limit of the Type 1 spectrum of (P^1)^n at a rational
    r off the integers, by sympy: the sum over k of chi(k) sign(k - r)
    |k - r|^{-s} at s = 0, with chi(k) = k^n the alternating sum of the
    h^{q,k}.  With m = floor(r), k = m + 1 + j above r and k = m - j below,
    the binomial expansion of k^n about r and zeta(-i, x) = -B_{i+1}(x)/(i+1)
    give the sum over i of C(n, i) r^{n-i} [(-1)^i B_{i+1}(r - m)
    - B_{i+1}(m + 1 - r)]/(i + 1)."""
    r = sp.Rational(r.numerator, r.denominator)
    m = sp.floor(r)
    return F(str(sum(sp.binomial(n, i) * r ** (n - i)
                     * ((-1) ** i * sp.bernoulli(i + 1, r - m)
                        - sp.bernoulli(i + 1, m + 1 - r)) / (i + 1)
                     for i in range(n + 1))))


@pytest.mark.parametrize("name", ("cp1xcp1", "cp1x4", "cp1x6"))
def test_type1_hurwitz_limit_is_minus_twice_the_adiabatic_term(name):
    # records today's normalization of the adiabatic term against the
    # spectral model; the choice between the two is still open
    spec = _spec(name)
    for r in (F(1, 2), F(1, 3), F(3, 4), F(7, 3), F(-5, 2), F(-1, 7), F(11, 5)):
        assert hurwitz_type1_limit(spec.n, r) == -2 * adiabatic_limit_eta(spec, r), r


R_JUMP_R = [F(i, 4) for i in range(-20, 21)]  # -5 to 5 in quarters
R_JUMP_EPS = (F(1, 2), F(1), F(3, 2), F(2), F(5, 2))


def _r_jumps(rs):
    """(r, eps, |eta(r+) - eta(r-)|, 2 dim ker at (r, eps)) on the shipped
    explicit config for each r of ``rs`` and eps of R_JUMP_EPS, the
    one-sided totals taken at r +- 10^-12 and their difference rounded.  A
    point that needs a cell outside the table's k-range -8..8 (at eps = 2
    and 5/2) raises UnknownCohomologyError and is left out."""
    entry = resolve_manifold(str(ROOT / "configs" / "cp1xcp1_explicit.json"))
    h = F(1, 10**12)
    points = []
    for r in rs:
        for eps in R_JUMP_EPS:
            try:
                jump = (eta_invariant(entry.manifold, entry.model, r + h, eps).total
                        - eta_invariant(entry.manifold, entry.model, r - h, eps).total)
                kernel = kernel_dimension(entry.model, r, eps)
            except UnknownCohomologyError:
                continue
            points.append((r, eps, abs(round(jump)), 2 * kernel))
    return points


def test_r_jump_law_off_the_nonzero_integers():
    # at a fixed eps, eta can change in r only where an eigenvalue at
    # delta = eps crosses zero, by 2 per eigenvalue (Atiyah, Patodi & Singer)
    points = _r_jumps([r for r in R_JUMP_R if r.denominator > 1 or r == 0])
    assert len(points) == 149  # 144 off the integers and 5 at r = 0; 6 left out
    assert [point for point in points if point[2] != point[3]] == []


@pytest.mark.xfail(strict=True, reason=(
    "at a nonzero integer r = m the adiabatic term jumps by +m^n and 2 SF by -2 m^n "
    "with no kernel: the normalization of the adiabatic term against the flow is open "
    "(ROADMAP, open items)"))
def test_r_jump_law_at_the_nonzero_integers():
    # 44 points, 6 left out; the law breaks at 40 of them
    points = _r_jumps([r for r in R_JUMP_R if r.denominator == 1 and r != 0])
    assert [point for point in points if point[2] != point[3]] == []


def test_a_hat_is_one_on_every_catalog_base():
    for name in CLASS_BASES:
        spec = _spec(name)
        one = (F(1),) + (F(0),) * spec.n
        assert eta._class_tables(spec)[0] == one, name
        assert _series_classes(name)[1] == one, name
