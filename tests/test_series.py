import math
import random
from fractions import Fraction as F

import mpmath
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from etaflow import eta
from etaflow.catalog import ManifoldSpec, product_cp1_model
from etaflow.eta import CONVENTION_PAPER_I, CONVENTION_REAL, transgression_integrand_poly
from etaflow.exact import GaussianRational
from etaflow.series import (
    _bernoulli,
    a_hat_class,
    class_product,
    constant_class,
    convention_integral,
    eta_hat_series_from_alpha,
    eta_hat_series_integer,
    eval_power_sums,
    exp_class,
    horner,
    omega_forms,
    series_eta_hat,
    series_p,
    series_p_prime,
    transgression_forms,
    truncated_product,
)

ORDER = 12
# order of the closed-form oracle tests; each sympy series takes 1-2 s
ORACLE_ORDER = 40

Z = sp.symbols("z")


def sympy_coeffs(expr, z, order):
    """Exact Taylor coefficients via sympy: the independent oracle."""
    poly = sp.series(expr, z, 0, order + 1).removeO()
    return [F(str(poly.coeff(z, j))) for j in range(order + 1)]


def alpha_of(r):
    return 1 - 2 * (r - math.floor(r))


def eta_hat_expr(r):
    """The closed form whose regular part is the boundary eta series."""
    if r.denominator == 1:
        x = Z / 2
        return (x - sp.tanh(x)) / (x * sp.tanh(x))
    alpha = alpha_of(r)
    alpha = sp.Rational(alpha.numerator, alpha.denominator)
    return sp.exp(alpha * Z / 2) / sp.sinh(Z / 2) - 2 / Z


@pytest.fixture(scope="module")
def p_oracle():
    """p up to z^(ORACLE_ORDER + 1), enough for p' at ORACLE_ORDER."""
    return sympy_coeffs(sp.log((Z / 2) / sp.sinh(Z / 2)) / 2, Z, ORACLE_ORDER + 1)


@pytest.fixture(scope="module")
def eta_hat_oracle():
    """r -> sympy coefficients of the eta series up to c^ORACLE_ORDER."""
    cache = {}

    def coefficients(r):
        if r not in cache:
            cache[r] = sympy_coeffs(eta_hat_expr(r), Z, ORACLE_ORDER)
        return cache[r]

    return coefficients


def as_fr(series, j):
    c = series[j]
    assert type(c) is F
    return c


def partial_sum(series, z):
    """Exact partial sum of a coefficient tuple at a rational point."""
    return sum((c * z**j for j, c in enumerate(series)), F(0))


def derivative(series):
    return tuple(j * c for j, c in enumerate(series))[1:]


def test_series_p_against_symbolic_oracle(p_oracle):
    p = series_p(ORDER)
    assert len(p) == ORDER + 1
    for j in range(ORDER + 1):
        assert as_fr(p, j) == p_oracle[j]
    assert as_fr(p, 0) == 0
    assert as_fr(p, 1) == 0
    assert as_fr(p, 2) == F(-1, 48)


def test_series_p_numeric_closed_form():
    mpmath.mp.dps = 50
    p = series_p(ORDER)
    for z in (F(1, 10), F(1, 7)):
        zf = mpmath.mpf(z.numerator) / z.denominator
        closed = mpmath.log((zf / 2) / mpmath.sinh(zf / 2)) / 2
        partial = partial_sum(p, z)
        assert type(partial) is F
        truncation_bound = mpmath.mpf(2) * zf ** (ORDER + 1)
        assert abs(closed - mpmath.mpf(partial.numerator) /
                   partial.denominator) < truncation_bound


def test_series_p_prime(p_oracle):
    pp = series_p_prime(ORDER)
    assert as_fr(pp, 0) == 0
    assert as_fr(pp, 1) == F(-1, 24)  # 2 * (-1/48)
    assert pp == derivative(series_p(ORDER + 1))
    for j in range(ORDER):
        assert as_fr(pp, j) == (j + 1) * p_oracle[j + 1]


def test_eta_hat_integer_against_oracle(eta_hat_oracle):
    oracle = eta_hat_oracle(F(0))
    eh = series_eta_hat(0, ORDER)
    for j in range(ORDER + 1):
        assert as_fr(eh, j) == oracle[j]
    assert as_fr(eh, 0) == 0
    assert as_fr(eh, 1) == F(1, 6)


def test_eta_hat_integer_only_odd_powers():
    eh = series_eta_hat(3, ORDER)
    assert eh == series_eta_hat(0, ORDER)  # depends only on r mod 1
    for j in range(0, ORDER + 1, 2):
        assert not eh[j]


def test_eta_hat_half_against_oracle(eta_hat_oracle):
    # alpha = 1 - 2{1/2} = 0: regular part of 1/sinh(z/2) - 2/z
    oracle = eta_hat_oracle(F(1, 2))
    eh = series_eta_hat(F(1, 2), ORDER)
    for j in range(ORDER + 1):
        assert as_fr(eh, j) == oracle[j]
    assert as_fr(eh, 0) == 0
    assert as_fr(eh, 1) == F(-1, 12)


def test_eta_hat_generic_r_numeric():
    mpmath.mp.dps = 50
    for r in (F(1, 3), F(-2, 5), F(9, 4)):
        alpha = alpha_of(r)
        eh = series_eta_hat(r, ORDER)
        for z in (F(1, 10), F(1, 7)):
            zf = mpmath.mpf(z.numerator) / z.denominator
            closed = mpmath.exp(alpha.numerator / mpmath.mpf(alpha.denominator)
                                * zf / 2) / mpmath.sinh(zf / 2) - 2 / zf
            partial = partial_sum(eh, z)
            assert type(partial) is F
            assert abs(closed - mpmath.mpf(partial.numerator) /
                       partial.denominator) < mpmath.mpf(4) * zf ** (ORDER + 1)


def test_eta_hat_constant_term_is_alpha():
    rng = random.Random(42)
    for _ in range(10):
        r = F(rng.randint(-30, 30), rng.randint(2, 9))
        if r.denominator == 1:
            continue
        assert series_eta_hat(r, 8)[0] == alpha_of(r)


def test_integer_case_is_average_of_one_sided_limits():
    avg = tuple((a + b) / 2 for a, b in zip(eta_hat_series_from_alpha(1, ORDER),
                                            eta_hat_series_from_alpha(-1, ORDER)))
    assert avg == eta_hat_series_integer(ORDER)


# ------------------------------------------------- closed forms at order 40


def test_bernoulli_helper_against_sympy():
    numbers = _bernoulli(ORACLE_ORDER)
    assert len(numbers) == ORACLE_ORDER + 1
    # one shared prefix of the integers (j + 1)! B_j, a tuple, so no caller
    # can change it; a second call reads it and extends nothing
    prefix = eta._BERNOULLI
    assert type(prefix) is tuple and len(prefix) > ORACLE_ORDER
    assert all(type(t) is int for t in prefix)
    assert _bernoulli(ORACLE_ORDER) == numbers and eta._BERNOULLI is prefix
    assert numbers[1] == F(-1, 2)  # sympy 1.14 uses B_1 = +1/2
    for m in range(ORACLE_ORDER + 1):
        assert type(numbers[m]) is F
        if m != 1:
            assert numbers[m] == F(str(sp.bernoulli(m)))


def test_p_and_p_prime_closed_forms_at_order_40(p_oracle):
    assert series_p(ORACLE_ORDER) == tuple(p_oracle[: ORACLE_ORDER + 1])
    assert series_p_prime(ORACLE_ORDER) == tuple(
        (j + 1) * p_oracle[j + 1] for j in range(ORACLE_ORDER + 1))


@pytest.mark.parametrize("r", [F(0), F(1, 2), F(1, 3), F(-2, 5), F(9, 4)],
                         ids=str)
def test_eta_hat_closed_forms_at_order_40(eta_hat_oracle, r):
    eh = series_eta_hat(r, ORACLE_ORDER)
    assert eh == tuple(eta_hat_oracle(r))
    assert all(type(c) is F for c in eh)


# -------------------------------------------------------------- classes


def power_of_c(k, n):
    """c^k as a class on a base of complex dimension n."""
    return constant_class([int(j == k) for j in range(n + 1)])


def scaled(x, s):
    return tuple(tuple(a * s for a in row) for row in x)


def added(*classes):
    return tuple(tuple(sum(entries, F(0)) for entries in zip(*rows))
                 for rows in zip(*classes))


def times_delta(x):
    """delta * x, for a class whose rows all have a zero top entry."""
    assert not any(row[-1] for row in x)
    return tuple((F(0),) + row[:-1] for row in x)


def d_delta(x):
    """The delta-derivative of a class, each row padded back to k + 1."""
    return tuple(tuple(d * a for d, a in enumerate(row))[1:] + (F(0),) for row in x)


def product(*classes):
    result = classes[0]
    for x in classes[1:]:
        result = class_product(result, x)
    return result


def integral(spec, x):
    """Integral over the base: row n times the integral of c^n."""
    return tuple(a * spec.top_integral for a in x[spec.n])


def at_class(f, x):
    """sum_j f_j x^j, summed power by power with no early stop."""
    one = power_of_c(0, len(x) - 1)
    result, power = scaled(one, f[0]), one
    for coeff in f[1:]:
        power = class_product(power, x)
        result = added(result, scaled(power, coeff))
    return result


def random_class(n, rng, nilpotent=False):
    """A random triangular table: row k has k + 1 entries, at most one of
    them nonzero, in a random delta degree."""
    rows = []
    for k in range(n + 1):
        row = [F(0)] * (k + 1)
        if not (nilpotent and k == 0) and rng.random() < 0.5:
            row[rng.randint(0, k)] = F(rng.randint(-4, 4), rng.randint(1, 3))
        rows.append(tuple(row))
    return tuple(rows)


def test_class_product_examples():
    c, one = power_of_c(1, 2), power_of_c(0, 2)
    assert class_product(c, c) == power_of_c(2, 2)
    assert class_product(c, class_product(c, c)) == scaled(one, 0)
    assert class_product(added(one, c), added(one, scaled(c, -1))) == \
        added(one, scaled(power_of_c(2, 2), -1))


def test_class_product_axioms_randomized():
    rng = random.Random(7)
    for _ in range(60):
        x, y, z = (random_class(2, rng) for _ in range(3))
        assert product(x, y, z) == class_product(x, class_product(y, z))
        assert class_product(x, y) == class_product(y, x)
        assert class_product(x, added(y, z)) == \
            added(class_product(x, y), class_product(x, z))


def test_truncation_soundness():
    rng = random.Random(11)
    for _ in range(40):
        x, y = random_class(4, rng), random_class(4, rng)
        result = class_product(x, y)
        assert len(result) == 5
        # every surviving c^k delta^d is a sum over c^i delta^a times
        # c^(k-i) delta^(d-a), each factor inside its triangular row
        for k, row in enumerate(result):
            assert len(row) == k + 1
            for d, coeff in enumerate(row):
                assert coeff == sum((x[i][a] * y[k - i][d - a]
                                     for i in range(k + 1) for a in range(d + 1)
                                     if a <= i and d - a <= k - i), F(0))


CB, DB = sp.symbols("c delta")
table_entries = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def triangular_tables(n, nilpotent=False):
    """Classes on a base of dimension n: row k holds k + 1 Fractions."""
    rows = [st.tuples(*[table_entries] * (k + 1)) for k in range(n + 1)]
    if nilpotent:
        rows[0] = st.just((F(0),))
    return st.tuples(*rows)


def to_bivariate(x):
    return sp.Poly(sp.Add(*(sp.Rational(a.numerator, a.denominator) * CB**k * DB**d
                            for k, row in enumerate(x) for d, a in enumerate(row))),
                   CB, DB)


def truncated(poly, n):
    """The bivariate polynomial without its terms above c^n."""
    return sp.Poly(sp.Add(*(coeff * CB**k * DB**d for (k, d), coeff in poly.terms()
                            if k <= n)), CB, DB)


def from_bivariate(poly, n):
    """The triangular table of a polynomial in (c, delta) of c-degree <= n,
    after checking that no delta^d with d > k sits at c^k."""
    assert all(d <= k for (k, d), _ in poly.terms())
    return tuple(tuple(F(str(poly.coeff_monomial(CB**k * DB**d))) for d in range(k + 1))
                 for k in range(n + 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(triangular_tables(n), triangular_tables(n),
                        triangular_tables(n, nilpotent=True))))
def test_class_product_and_exp_match_sympy_bivariate(tables):
    # the oracle multiplies in Q[c, delta] with sympy and truncates above c^n
    x, y, z = tables
    n = len(x) - 1
    assert class_product(x, y) == \
        from_bivariate(truncated(to_bivariate(x) * to_bivariate(y), n), n)
    power = one = sp.Poly(1, CB, DB)
    exp_z = one
    for j in range(1, n + 1):
        power = truncated(power * to_bivariate(z), n)
        exp_z += power * sp.Rational(1, math.factorial(j))
    assert exp_class(z) == from_bivariate(exp_z, n)
    assert all(type(a) is F for row in class_product(x, y) for a in row)


@pytest.mark.parametrize("factors", [2, 4, 6, 8])
def test_memoized_classes_are_triangular(factors):
    spec, _ = product_cp1_model(factors)
    omega0, omega2, w = transgression_forms(spec)
    for x in (a_hat_class(spec.power_sums), omega0, omega2, w):
        assert [len(row) for row in x] == list(range(1, factors + 2))


def test_exp_class_examples(monkeypatch):
    c, one = power_of_c(1, 2), power_of_c(0, 2)
    assert exp_class(scaled(one, 0)) == one
    r = F(2, 7)
    x = scaled(c, r)
    assert exp_class(x) == added(one, x, scaled(power_of_c(2, 2), r * r / 2))
    c2_delta = times_delta(power_of_c(2, 2))
    assert exp_class(c2_delta) == added(one, c2_delta)
    with pytest.raises(ValueError, match=r"^exp_class needs a class with no c\^0 term$"):
        exp_class(added(one, c))
    # the recurrence skips zero rows: on a base of dimension 4 the rows of
    # c^2 and of its exponential are zero in odd degree, so only E_2 = x_2 E_0
    # and E_4 = x_2 E_2 / 2 take a product, and no class product is formed
    products = []
    monkeypatch.setattr("etaflow.series.truncated_product",
                        lambda a, b, size: products.append((a, b)) or
                        truncated_product(a, b, size))
    monkeypatch.setattr("etaflow.series.class_product",
                        lambda a, b: pytest.fail("exp_class formed a class product"))
    assert exp_class(power_of_c(2, 4)) == \
        added(power_of_c(0, 4), power_of_c(2, 4), scaled(power_of_c(4, 4), F(1, 2)))
    assert len(products) == 2
    assert all(any(a) and any(b) for a, b in products)


def exp_coefficients(order):
    """Coefficients 1/j! of exp(z) up to z^order."""
    return tuple(F(1, math.factorial(j)) for j in range(order + 1))


def test_exp_class_matches_exp_series():
    rng = random.Random(5)
    f = exp_coefficients(12)
    for _ in range(100):
        x = random_class(2 if rng.random() < 0.5 else 4, rng, nilpotent=True)
        assert at_class(f, x) == exp_class(x)


def test_exp_inverse_property():
    rng = random.Random(3)
    for n in (2, 4):
        for _ in range(30):
            x = random_class(n, rng, nilpotent=True)
            assert class_product(exp_class(x), exp_class(scaled(x, -1))) == \
                power_of_c(0, n)


def test_eval_power_sums_matches_root_by_root_evaluation():
    # roots c, 2c and -3c: sum_i f(x_i) through the power sums
    # s_j = (1 + 2^j + (-3)^j) c^j equals the sum of the evaluations
    c = power_of_c(1, 4)
    multiples = (1, 2, -3)
    sums = [sum(m**j for m in multiples) for j in range(5)]
    f = (F(1, 3), F(-1, 2), F(5, 7), 0, F(2, 9))
    expected = added(*(at_class(f, scaled(c, m)) for m in multiples))
    assert eval_power_sums(f, constant_class(sums)) == expected
    # a single root c is plain evaluation at c
    assert eval_power_sums(f, constant_class([1] * 5)) == at_class(f, c)


@pytest.fixture
def cp1sq():
    """(CP1)^2: classes in Q[delta][c]/(c^3) with integral of c^2 equal
    to 2; tangent roots 2a, 2b with power sums 2, 2c, 0."""
    return product_cp1_model(2)[0]


def a_hat_factor(order):
    """(z/2)/sinh(z/2), the per-root A-hat factor, from sympy."""
    return tuple(sympy_coeffs((Z / 2) / sp.sinh(Z / 2), Z, order))


def test_a_hat_trivial_on_products(cp1sq):
    one = power_of_c(0, 2)
    assert a_hat_class(cp1sq.power_sums) == one
    assert a_hat_class((0, 0, 0)) == one
    assert a_hat_class((4, 2, 0, 0, 0)) == power_of_c(0, 4)


def test_a_hat_degrees_divisible_by_four():
    # a base where the A-hat class is nontrivial: roots g, g with g^3 = 0
    g = power_of_c(1, 2)
    ahat = a_hat_class((2, 2, 2))
    assert ahat != power_of_c(0, 2)
    assert all(k % 2 == 0 for k, a in enumerate(ahat) if any(a))
    # and it agrees with exp(2 sum p(x_j)) and with the product of the
    # per-root factors, both evaluated root by root
    p = series_p(6)
    total = added(scaled(at_class(p, g), 2), scaled(at_class(p, g), 2))
    assert ahat == exp_class(total)
    factor = at_class(a_hat_factor(6), g)
    assert ahat == class_product(factor, factor)


def test_a_hat_factor_equals_exp_2p():
    # Q[z]/(z^(order+1)) holds the series truncated at z^order
    order = 10
    z = power_of_c(1, order)
    exp_2p = exp_class(scaled(at_class(series_p(order), z), 2))
    assert exp_2p == constant_class(a_hat_factor(order))


def test_omega_forms_delta_zero_specialization(cp1sq):
    omega0, _ = omega_forms(cp1sq.power_sums)
    at_zero = constant_class([horner(row, 0) for row in omega0])
    assert exp_class(at_zero) == a_hat_class(cp1sq.power_sums)


def test_omega2_is_odd_degree_two(cp1sq):
    _, omega2 = omega_forms(cp1sq.power_sums)
    # p' is odd, so on this base only the c^1 term survives up to
    # truncation effects
    assert all(k == 1 for k, a in enumerate(omega2) if any(a))


def rat(q):
    return sp.Rational(q.numerator, q.denominator)


def to_sympy(value):
    """A Fraction or a GaussianRational as an exact sympy number."""
    if isinstance(value, GaussianRational):
        return rat(value.re) + sp.I * rat(value.im)
    return rat(value)


def at_point(poly, x):
    """The polynomial ``poly`` in delta at the sympy number x."""
    return sp.expand(sum(rat(c) * x**d for d, c in enumerate(poly)))


@pytest.mark.parametrize("convention", [CONVENTION_REAL, CONVENTION_PAPER_I])
def test_transgression_derivative_identity(cp1sq, convention):
    c = power_of_c(1, 2)
    omega0, omega2 = omega_forms(cp1sq.power_sums)
    assert d_delta(omega0) == class_product(scaled(c, 2), omega2)
    # in each convention the integrated identity holds: the integral over
    # [0, eps] of the top degree of 2c Omega_2 e^{Omega_0} e^{rc} is
    # P(x) - P(0) with P the top degree of e^{Omega_0} e^{rc} and x = eps,
    # or x = i eps under paper_i, where Omega_0 becomes Omega_0(i delta)
    for r, eps in ((F(0), F(1, 3)), (F(1, 2), F(1)), (F(2, 3), F(5, 2))):
        erc = exp_class(scaled(c, r))
        top = integral(cp1sq, class_product(exp_class(omega0), erc))
        lhs = convention_integral(
            integral(cp1sq, product(scaled(c, 2), omega2, exp_class(omega0), erc)),
            eps, convention,
        )
        x = rat(eps) if convention == CONVENTION_REAL else sp.I * rat(eps)
        assert to_sympy(lhs) == at_point(top, x) - rat(top[0])


def test_paper_i_convention_carries_gaussian_factors(cp1sq):
    c = power_of_c(1, 2)
    omega0, omega2 = omega_forms(cp1sq.power_sums)
    poly = integral(cp1sq, product(omega2, exp_class(omega0),
                                   exp_class(scaled(c, F(1, 2)))))
    real = convention_integral(poly, 1, CONVENTION_REAL)
    rotated = convention_integral(poly, 1, CONVENTION_PAPER_I)
    # arguments 2 i delta c flip the sign of even powers relative to real,
    # and the global i leaves an imaginary part
    assert rotated != real
    assert isinstance(rotated, GaussianRational) and rotated.im != 0
    with pytest.raises(ValueError):
        convention_integral(poly, 1, "imaginary")


def three_roots():
    """Roots c, 2c and -3c on Q[c]/(c^4): the power sums s_k = sigma_k c^k
    are nonzero in every degree, so every binomial term of the shifted
    power sums is exercised."""
    multiples = (1, 2, -3)
    sums = tuple(sum(m**k for m in multiples) for k in range(4))
    return ManifoldSpec("three-roots", 3, 1, sums, None), multiples


def sympy_transgression_top(multiples, unit, order):
    """Top degree (coefficient of c^3) of Omega_2 e^{Omega_0}, built root
    by root with sympy from the closed form of p and the literal
    arguments y = m c + 2 unit delta c (unit = 1 or i), y = 2 unit delta c;
    the i in Omega_2 = 2 unit sum p'(y) is literal too."""
    z, c, delta = sp.symbols("z c delta")
    p = sympy_coeffs(sp.log((z / 2) / sp.sinh(z / 2)) / 2, z, order + 1)
    p_poly = sum(sp.Rational(p[j].numerator, p[j].denominator) * z**j
                 for j in range(order + 1))
    pp_poly = sp.diff(p_poly, z)
    args = [2 * unit * delta * c] + [m * c + 2 * unit * delta * c
                                     for m in multiples]
    omega0 = sum(2 * p_poly.subs(z, y) for y in args)
    omega2 = unit * sum(2 * pp_poly.subs(z, y) for y in args)
    exp0 = sum(omega0**j / math.factorial(j) for j in range(4))
    top = sp.expand(omega2 * exp0).coeff(c, 3)
    return sp.Poly(top, delta)


@pytest.mark.parametrize("convention", [CONVENTION_REAL, CONVENTION_PAPER_I])
def test_omega_forms_match_root_by_root_sums(convention):
    spec, multiples = three_roots()
    c = power_of_c(1, 3)
    omega0, omega2 = omega_forms(spec.power_sums)
    if convention == CONVENTION_REAL:
        tail = scaled(times_delta(c), 2)
        args = [tail] + [added(scaled(c, m), tail) for m in multiples]
        p, pp = series_p(8), series_p_prime(8)
        root0 = added(*(scaled(at_class(p, x), 2) for x in args))
        root2 = added(*(scaled(at_class(pp, x), 2) for x in args))
        assert (omega0, omega2) == (root0, root2)
    # the convention's integral of the top degree of Omega_2 e^{Omega_0}
    # against the root-by-root build with a literal unit 1 or i
    unit = 1 if convention == CONVENTION_REAL else sp.I
    top = sympy_transgression_top(multiples, unit, 8)
    poly = integral(spec, class_product(omega2, exp_class(omega0)))
    antiderivative = top.integrate()
    for eps in (F(1, 3), F(2)):
        value = sp.expand(antiderivative.eval(sp.Rational(eps.numerator,
                                                          eps.denominator)))
        re, im = (F(str(part)) for part in (sp.re(value), sp.im(value)))
        assert convention_integral(poly, eps, convention) == \
            GaussianRational(re, im)


def scalars(value):
    """Every scalar coefficient inside a series, a class or a polynomial,
    zeros included."""
    if isinstance(value, tuple):
        return [x for a in value for x in scalars(a)]
    return [value]


@pytest.mark.parametrize("base", ["cp1x4", "three-roots"])
def test_class_side_scalars_are_fractions(base):
    if base == "cp1x4":
        spec, _ = product_cp1_model(4)
    else:
        spec, _ = three_roots()
    sums = spec.power_sums
    values = [series_p(10), series_p_prime(10), series_eta_hat(0, 10),
              series_eta_hat(F(1, 3), 10), a_hat_class(sums),
              *omega_forms(sums),
              transgression_integrand_poly(spec, F(1, 2))]
    for value in values:
        coefficients = scalars(value)
        assert coefficients
        assert all(type(x) is F for x in coefficients)


def test_fundamental_theorem_of_calculus_in_delta(cp1sq):
    c = power_of_c(1, 2)
    omega0, omega2 = omega_forms(cp1sq.power_sums)
    ahat = a_hat_class(cp1sq.power_sums)
    for r, eps in ((F(0), F(1, 3)), (F(1, 2), F(1)), (F(2, 3), F(5, 2))):
        erc = exp_class(scaled(c, r))
        lhs = convention_integral(
            integral(cp1sq, product(scaled(c, 2), omega2, exp_class(omega0), erc)),
            eps,
        )
        at_eps = exp_class(constant_class([horner(row, eps) for row in omega0]))
        rhs = integral(cp1sq, class_product(added(at_eps, scaled(ahat, -1)), erc))
        assert rhs == (lhs, 0, 0)


def test_omega_forms_builds_p_once(cp1sq, monkeypatch):
    sums = cp1sq.power_sums
    expected = omega_forms(sums)
    orders = []
    monkeypatch.setattr("etaflow.series.series_p",
                        lambda order: orders.append(order) or series_p(order))
    assert omega_forms(sums) == expected
    assert orders == [3]  # p and p' to the order n = 2 need p to 3
    # the order-0 failure of series_p_prime is kept
    with pytest.raises(ValueError, match="order must be >= 1"):
        series_p_prime(0)


# ------------------------------------------------- the one delta-integral


def _simpson(f, lo, hi, n=2000):
    h = (hi - lo) / n
    total = f(lo) + f(hi)
    for i in range(1, n):
        total += (4 if i % 2 else 2) * f(lo + i * h)
    return total * h / 3


def test_convention_integral_power_rule_and_quadrature():
    d = (F(0), F(1))
    # power rule and constant
    assert convention_integral(d, 1) == F(1, 2)
    for eps in (F(1, 3), F(2), F(7, 5)):
        assert convention_integral((F(1),), eps) == eps
    # 3 delta^2 + b on [0, 2] -> 8 + 2b, cross-checked against numeric
    # quadrature at sampled constants b
    for b in (F(0), F(1, 3), F(-7, 2)):
        exact = convention_integral((b, F(0), F(3)), 2)
        assert exact == 8 + 2 * b
        assert type(exact) is F
        numeric = _simpson(lambda t: 3 * t * t + float(b), 0.0, 2.0)
        assert abs(float(exact) - numeric) < 1e-9


DELTA = sp.Symbol("delta")
small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(max_examples=100, deadline=None)
@given(st.lists(small_fractions, max_size=9), st.booleans(),
       st.fractions(min_value=0, max_value=5, max_denominator=12).filter(bool))
def test_convention_integral_matches_sympy(coefficients, odd_only, eps):
    # degree <= 8; with odd powers only the paper_i value is real
    if odd_only:
        coefficients = [x if d % 2 else F(0) for d, x in enumerate(coefficients)]
    poly = tuple(coefficients)
    p = sum((rat(x) * DELTA**d for d, x in enumerate(coefficients)), sp.Integer(0))

    def integral(integrand):  # over [0, eps]; sympy's antiderivative has F(0) = 0
        return sp.expand(sp.Poly(integrand, DELTA).integrate().eval(rat(eps)))

    real = integral(p)
    rotated = integral(sp.I * p.subs(DELTA, sp.I * DELTA))
    value = convention_integral(poly, eps, CONVENTION_REAL)
    assert type(value) is F and rat(value) == real
    value = convention_integral(poly, eps, CONVENTION_PAPER_I)
    assert to_sympy(value) == rotated
    # a real paper_i value, as with odd powers only, is a Fraction
    assert (type(value) is F) == (sp.im(rotated) == 0)
    assert type(value) is F or not odd_only
