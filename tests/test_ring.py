import itertools
import math
import random
from fractions import Fraction as F

import pytest

from etaflow.exact import ParamPoly
from etaflow.ring import (
    GradedClass,
    NonNilpotentError,
    RingMismatchError,
    RingSpec,
    SeriesOrderError,
    eval_power_sums,
    eval_series,
    exp_nilpotent,
    integrate_top,
)


@pytest.fixture
def cp1sq():
    return RingSpec("(CP1)^2", 2, F(2))


@pytest.fixture
def cp1x4_ring():
    return RingSpec("(CP1)^4", 4, F(24))


def test_ring_spec_validation(cp1sq):
    with pytest.raises(ValueError, match="^complex dimension must be >= 1$"):
        RingSpec("bad", 0)
    with pytest.raises(ValueError, match="^top integral must be nonzero$"):
        RingSpec("bad", 1, 0)
    with pytest.raises(TypeError):
        RingSpec("bad", 1, 0.5)
    spec = RingSpec("ok", 2)
    assert spec.complex_dim == 2 and spec.top_integral == 1
    assert type(RingSpec("ok", 2, 3).top_integral) is F
    # a value: equal fields give equal, equally hashed rings
    assert spec == RingSpec(name="ok", complex_dim=2, top_integral=F(1))
    assert hash(spec) == hash(RingSpec("ok", 2, 1)) and spec != RingSpec("ok", 3)
    assert repr(spec) == "RingSpec(name='ok', complex_dim=2, top_integral=Fraction(1, 1))"
    # a class beyond c^n is refused; trailing zeros are not stored
    with pytest.raises(ValueError):
        GradedClass(cp1sq, [0, 0, 0, 1])
    assert GradedClass(cp1sq, [1, 0, 0, 0]) == GradedClass.one(cp1sq)


def test_mul_examples(cp1sq):
    c = GradedClass.generator(cp1sq)
    one = GradedClass.one(cp1sq)
    assert c * c == GradedClass(cp1sq, [0, 0, 1])
    assert (c * (c * c)).is_zero
    assert (one + c) * (one - c) == one - c * c
    assert c**2 == c * c and c**0 == one


def test_ring_mismatch(cp1sq):
    other = RingSpec("other", 2, F(3))
    with pytest.raises(RingMismatchError):
        GradedClass.one(cp1sq) * GradedClass.one(other)


def test_integrate_top_examples(cp1sq, cp1x4_ring):
    c = GradedClass.generator(cp1sq)
    one = GradedClass.one(cp1sq)
    # on (CP1)^2, c = a + b with a^2 = b^2 = 0, so c^2 = 2ab integrates to 2
    assert integrate_top(c**2) == ParamPoly.constant(2)
    assert integrate_top(c + one * 3).is_zero
    # (a+b+c+d)^4 on (CP1)^4: the multinomial count of square-free
    # degree-8 monomials is the number of orderings of {a,b,c,d} = 4!
    count = sum(
        1
        for perm in itertools.product(range(4), repeat=4)
        if sorted(perm) == [0, 1, 2, 3]
    )
    assert count == 24 == cp1x4_ring.top_integral
    c4 = GradedClass.generator(cp1x4_ring)
    assert integrate_top(c4**4) == ParamPoly.constant(count)
    assert integrate_top((c4 * 3) ** 4) == ParamPoly.constant(81 * count)


def test_exp_nilpotent_examples(cp1sq):
    c = GradedClass.generator(cp1sq)
    one = GradedClass.one(cp1sq)
    assert exp_nilpotent(GradedClass.zero(cp1sq)) == one
    r = F(2, 7)
    x = c * r
    assert exp_nilpotent(x) == one + x + c * c * (r * r / 2)
    delta = ParamPoly.delta()
    assert exp_nilpotent(c * c * delta) == one + c * c * delta
    with pytest.raises(NonNilpotentError):
        exp_nilpotent(one + c)


def exp_coefficients(order):
    """Coefficients 1/j! of exp(z) up to z^order."""
    return tuple(F(1, math.factorial(j)) for j in range(order + 1))


def test_eval_series_examples(cp1sq):
    c = GradedClass.generator(cp1sq)
    one = GradedClass.one(cp1sq)
    x = c * (ParamPoly.delta() * 2)
    assert eval_series((0, 1, 0, 0, 0), x) == x
    f = (0, 0, F(-1, 48), 0, 0)
    assert eval_series(f, c * c * 2).is_zero  # (c^2)^2 = 0
    assert eval_series(exp_coefficients(4), c) == exp_nilpotent(c)
    with pytest.raises(NonNilpotentError):
        eval_series(exp_coefficients(4), one)


def test_eval_series_detects_insufficient_order(cp1sq):
    c = GradedClass.generator(cp1sq)
    with pytest.raises(SeriesOrderError):
        eval_series((0, 1), c)  # c^2 != 0


def random_class(ring, rng, nilpotent=False):
    coeffs = []
    for k in range(ring.complex_dim + 1):
        if (nilpotent and k == 0) or rng.random() >= 0.5:
            coeffs.append(0)
            continue
        coeff = F(rng.randint(-4, 4), rng.randint(1, 3))
        if rng.random() < 0.3:
            coeffs.append(ParamPoly.delta() * coeff)
        else:
            coeffs.append(ParamPoly.constant(coeff))
    return GradedClass(ring, coeffs)


def test_ring_axioms_randomized(cp1sq):
    rng = random.Random(7)
    for _ in range(60):
        x = random_class(cp1sq, rng)
        y = random_class(cp1sq, rng)
        z = random_class(cp1sq, rng)
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z


def test_truncation_soundness(cp1x4_ring):
    rng = random.Random(11)
    for _ in range(40):
        x = random_class(cp1x4_ring, rng)
        y = random_class(cp1x4_ring, rng)
        product = x * y
        for k, _ in product.items():
            assert k <= cp1x4_ring.complex_dim
        assert all(d <= 2 * cp1x4_ring.complex_dim for d in product.degrees())
        # every surviving power of c is the sum of two input powers
        for k, coeff in product.items():
            expected = sum(
                (x.coefficient(i) * y.coefficient(k - i) for i in range(k + 1)),
                ParamPoly.zero(),
            )
            assert coeff == expected


def test_exp_inverse_property(cp1sq, cp1x4_ring):
    rng = random.Random(3)
    for ring in (cp1sq, cp1x4_ring):
        one = GradedClass.one(ring)
        for _ in range(30):
            x = random_class(ring, rng, nilpotent=True)
            assert exp_nilpotent(x) * exp_nilpotent(-x) == one


def test_eval_series_matches_exp(cp1sq, cp1x4_ring):
    rng = random.Random(5)
    f = exp_coefficients(12)
    for _ in range(100):
        ring = cp1sq if rng.random() < 0.5 else cp1x4_ring
        x = random_class(ring, rng, nilpotent=True)
        assert eval_series(f, x) == exp_nilpotent(x)


def test_integrate_top_linear_and_kills_lower_degrees(cp1sq):
    rng = random.Random(9)
    for _ in range(30):
        x = random_class(cp1sq, rng)
        y = random_class(cp1sq, rng)
        assert integrate_top(x + y) == integrate_top(x) + integrate_top(y)
        for k, coeff in x.items():
            if k < cp1sq.complex_dim:
                component = GradedClass(cp1sq, [0] * k + [coeff])
                assert integrate_top(component).is_zero


def test_nonunit_top_integral():
    ring = RingSpec("scaled", 2, F(3))
    h = GradedClass.generator(ring)
    assert integrate_top(h * h) == ParamPoly.constant(3)
    assert integrate_top(h).is_zero


def test_eval_power_sums_matches_root_by_root_evaluation(cp1x4_ring):
    # roots c, 2c and -3c: sum_i f(x_i) through the power sums
    # s_j = (1 + 2^j + (-3)^j) c^j equals the sum of the evaluations
    c = GradedClass.generator(cp1x4_ring)
    multiples = (1, 2, -3)
    sums = [sum(m**j for m in multiples) for j in range(5)]
    f = (F(1, 3), F(-1, 2), F(5, 7), 0, F(2, 9))
    expected = GradedClass.zero(cp1x4_ring)
    for m in multiples:
        expected = expected + eval_series(f, c * m)
    assert eval_power_sums(f, cp1x4_ring, sums) == expected
    # a single root c is plain evaluation at c
    assert eval_power_sums(f, cp1x4_ring, [1] * 5) == eval_series(f, c)


def test_eval_power_sums_detects_insufficient_order(cp1x4_ring):
    f = (0, 1, F(1, 2))
    with pytest.raises(SeriesOrderError):
        eval_power_sums(f, cp1x4_ring, [4, 2, 0, 1, 0])
    # power sums that vanish beyond the order need nothing more
    assert eval_power_sums(f, cp1x4_ring, [4, 2, 0, 0, 0]) == \
        GradedClass(cp1x4_ring, [0, 2])
