import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from etaflow.eta import eval_at_i
from etaflow.exact import (
    MAX_RATIONAL_DIGITS,
    GaussianRational,
    SqrtValue,
    parse_rational,
    rational_sqrt,
    rational_str,
    sqrt_sign,
    sqrt_value,
)
from etaflow.series import horner, truncated_product

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def test_parse_and_format_round_trip():
    for text, value in [("3/10", F(3, 10)), ("-1", F(-1)), ("2", F(2))]:
        assert parse_rational(text) == value
        assert parse_rational(rational_str(value)) == value
    with pytest.raises(ValueError):
        parse_rational("not-a-number")
    assert parse_rational("0.5") == F(1, 2)


def test_rational_str_digit_limit():
    # Python refuses to print an integer of more than 4300 digits; the
    # named limit refuses first, on the numerator or the denominator
    assert MAX_RATIONAL_DIGITS < 4300
    largest = 10**MAX_RATIONAL_DIGITS - 1
    assert rational_str(F(-largest, 2)) == f"-{largest}/2"
    assert rational_str(F(2, largest)) == f"2/{largest}"
    for value in (F(10**MAX_RATIONAL_DIGITS), F(-(10**5000), 3), F(1, 10**4300 + 1)):
        with pytest.raises(ValueError, match=f"MAX_RATIONAL_DIGITS = {MAX_RATIONAL_DIGITS}"):
            rational_str(value)


def test_parse_rational_refuses_exponents():
    # an exponent literal would build an integer of unbounded size
    for text in ("1e1000000", "1E5", "2.5e-3", "-3e2"):
        with pytest.raises(ValueError) as err:
            parse_rational(text)
        assert "p/q" in str(err.value) and "decimal" in str(err.value)


def test_rational_sqrt():
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    assert rational_sqrt(F(0)) == 0
    assert rational_sqrt(F(2)) is None
    with pytest.raises(ValueError):
        rational_sqrt(F(-1))


# ---------------------------------------------------------------- Gaussian


def test_gaussian_i_square():
    # i^2 = -1 through the parity split, which returns a real value as a
    # Fraction; the Gaussian value type itself carries no arithmetic
    assert eval_at_i((F(0), F(0), F(1)), 1) == -1
    assert type(eval_at_i((F(0), F(0), F(1)), 1)) is F
    assert GaussianRational(F(1, 2)).to_json() == "1/2"
    assert eval_at_i((F(0), F(1)), F(1, 3)).to_json() == {"re": "0", "im": "1/3"}


@given(fractions, fractions)
def test_gaussian_value_type(re, im):
    x = GaussianRational(re, im)
    assert (x.re, x.im) == (re, im)
    assert x == GaussianRational(re, im) and hash(x) == hash(GaussianRational(re, im))
    # equal to a rational, with the same hash, exactly when real
    assert (x == re) == (im == 0)
    if im == 0:
        assert hash(x) == hash(re) and str(x) == str(re) and x.to_json() == str(re)
    else:
        assert x.to_json() == {"re": str(re), "im": str(im)}
    with pytest.raises(AttributeError):
        x.re = F(0)
    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__",
               "conjugate", "norm_sq", "coerce"):
        assert not hasattr(x, op)


def test_gaussian_rejects_floats():
    with pytest.raises(TypeError):
        GaussianRational(0.5)


# ------------------------------------------------- polynomials in delta


@given(st.lists(fractions, max_size=5))
def test_horner_is_ring_homomorphism(coefficients):
    p = tuple(coefficients)
    q = (F(-1), F(2))  # 2 delta - 1
    for d0 in (F(2, 3), F(-1, 5)):
        lhs = horner(truncated_product(p, q, len(p) + 1), d0)
        assert lhs == horner(p, d0) * horner(q, d0)
        total = tuple(a + b for a, b in zip(p + (F(0),) * 2, q + (F(0),) * len(p)))
        assert horner(total, d0) == horner(p, d0) + horner(q, d0)
        # the value agrees with summing c_d * d0^d term by term
        value = sum((c * d0**d for d, c in enumerate(coefficients)), F(0))
        assert horner(p, d0) == value


def test_truncated_product_and_horner_basics():
    d = (F(0), F(1))
    p = (F(1), F(0), F(3))  # 3 delta^2 + 1
    assert truncated_product(d, d, 3) == [0, 0, 1]
    assert truncated_product(p, p, 5) == [1, 0, 6, 0, 9]
    assert truncated_product(p, p, 3) == [1, 0, 6]  # truncated above delta^2
    assert all(type(a) is F for a in truncated_product(p, d, 4))
    assert horner(p, F(1, 2)) == F(7, 4) and type(horner(p, F(1, 2))) is F
    assert horner(p + (F(0),), F(1, 2)) == F(7, 4)  # trailing zeros change nothing
    assert horner((), F(5)) == 0


# ---------------------------------------------------------------- sqrt_sign


def test_sqrt_sign_examples():
    assert sqrt_sign(-1, 1, 2) == 1
    assert sqrt_sign(0, 0, 5) == 0
    assert sqrt_sign(-3, 2, F(9, 4)) == 0
    with pytest.raises(ValueError):
        sqrt_sign(1, 1, -1)


def test_sqrt_sign_against_high_precision_floats():
    import mpmath

    mpmath.mp.dps = 50
    rng = random.Random(20260810)
    n_checked = 0
    for _ in range(10_000):
        a = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
        b = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
        A = F(rng.randint(0, 10**6), rng.randint(1, 10**3))
        value = mpmath.mpf(a.numerator) / a.denominator + (
            mpmath.mpf(b.numerator) / b.denominator
        ) * mpmath.sqrt(mpmath.mpf(A.numerator) / A.denominator)
        if abs(value) < mpmath.mpf(10) ** -40:
            continue  # numerically indistinguishable from zero; skip
        n_checked += 1
        expected = 1 if value > 0 else -1
        assert sqrt_sign(a, b, A) == expected
    assert n_checked > 9_900


def test_sqrt_value_folds_perfect_squares():
    assert sqrt_value(1, 2, F(9, 4)) == F(4)
    assert sqrt_value(F(1, 2), 0, 2) == F(1, 2)
    v = sqrt_value(0, 1, 2)
    assert isinstance(v, SqrtValue)
    assert sqrt_sign(v.a, v.b, v.radicand) == 1
    assert sqrt_sign(v.a - F(3, 2), v.b, v.radicand) == -1  # sqrt(2) < 3/2
    assert sqrt_sign(v.a - F(7, 5), v.b, v.radicand) == 1  # sqrt(2) > 7/5


def test_exact_records_are_values():
    v, w = SqrtValue(F(1), F(2), F(3)), SqrtValue(a=F(1), b=F(2), radicand=F(3))
    assert v == w and hash(v) == hash(w) and len({v, w}) == 1
    assert v != SqrtValue(F(1), F(2), F(5)) and v != (F(1), F(2), F(3))
    assert repr(v) == ("SqrtValue(a=Fraction(1, 1), b=Fraction(2, 1), "
                       "radicand=Fraction(3, 1))")
