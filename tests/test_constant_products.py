"""Products with a unit ``p/q * e^(k/N)``: the same value and structure as the
constructor builds from plain ``Fraction`` dicts, and no polynomial gcd."""

from fractions import Fraction as F

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from test_constant_oracle import EXPONENTS, FACTORS, assert_close, constant_value, mul_terms, value

from stieltjes import Constant
from stieltjes import constants

DERANDOMIZED = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@st.composite
def units(draw) -> tuple[dict, dict]:
    """``p/q * e^(k/N)`` on the grids 1, 2, 3, 4 and 6, a rational a third of
    the time."""
    coeff = F(draw(st.integers(-12, 12).filter(bool)), draw(st.integers(1, 12)))
    exponent = draw(st.one_of(st.just(F(0)), st.builds(
        F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))))
    return {exponent: coeff}, {F(0): F(1)}


@st.composite
def fractions(draw) -> tuple[dict, dict]:
    """``num / (content * e^q * product of FACTORS)`` on the grids 1, 2 and 3."""
    coeff = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 4))
    num = draw(st.dictionaries(st.sampled_from(EXPONENTS), coeff, min_size=1, max_size=3))
    den = {draw(st.sampled_from(EXPONENTS)): F(draw(st.sampled_from([1, 2, 3, 4, 6, 10])))}
    for i in draw(st.lists(st.integers(0, len(FACTORS) - 1), max_size=2)):
        den = mul_terms(den, FACTORS[i])
    return num, den


@DERANDOMIZED
@given(units(), st.one_of(units(), fractions()))
def test_unit_products_match_the_constructor_and_the_value_at_e(unit, other):
    a, b = Constant(*unit), Constant(*other)
    num, den = mul_terms(unit[0], other[0]), mul_terms(unit[1], other[1])
    expected = Constant(num, den)
    for product in (a * b, b * a):
        assert product == expected
        assert hash(product) == hash(expected)
        assert (product._n, product._num, product._den) == (expected._n, expected._num, expected._den)
        exact = value(num) / value(den)
        assert_close(constant_value(product), exact, abs(exact))


def test_half_powers_multiply_onto_grid_one():
    half = Constant.e_power(F(1, 2))
    product = half * half
    assert product._n == 1
    assert product == Constant.e_power(1)
    assert hash(product) == hash(Constant.e_power(1))


def test_integer_content_cancels_against_the_other_denominator():
    e = Constant.e_power(1)
    x = 1 / (2 + 2 * e)
    assert x._den == ((1, 2), (0, 2))  # joint content 1, denominator content 2
    product = 2 * x
    assert product == 1 / (1 + e)
    assert product._num == ((0, 1),) and product._den == ((1, 1), (0, 1))
    # a coefficient divides the other numerator's content the same way
    assert F(1, 3) * ((3 * e + 6) / (e - 1)) == (e + 2) / (e - 1)


def test_negative_rational_keeps_a_positive_leading_denominator():
    e = Constant.e_power(1)
    x = (e + 1) / (2 * e - 3)
    product = F(-3, 4) * x
    assert product._den[0][1] > 0
    assert product == Constant({F(1): F(-3), F(0): F(-3)}, {F(1): F(8), F(0): F(-12)})
    assert -product == F(3, 4) * x


def test_rational_products_and_zero():
    assert (F(4, 6) * Constant.from_rational(F(9, 2)))._num == ((0, 3),)
    product = Constant.from_rational(F(-2, 3)) * F(3, 4)
    assert (product._n, product._num, product._den) == (1, ((0, -1),), ((0, 2),))
    x = (Constant.e_power(1) + 1) / (Constant.e_power(F(1, 2)) - 2)
    for zero in (0, F(0), Constant.zero()):
        assert (zero * x).is_zero() and (x * zero).is_zero()
        assert zero * x is Constant.zero()


def test_small_integers_are_prebuilt():
    assert Constant.from_rational(3) is Constant.from_rational(F(3))
    assert Constant.from_rational(1) is Constant.one()
    assert Constant.from_rational(0) is Constant.zero()
    assert Constant.from_rational(10**6).as_rational() == 10**6


def test_unit_products_never_reach_the_polynomial_gcd(monkeypatch):
    e, half = Constant.e_power(1), Constant.e_power(F(1, 2))
    units = [Constant.from_rational(F(-3, 4)), Constant.from_rational(5), 3 * half,
             Constant.e_power(F(-2, 3), F(7, 2))]
    others = units + [(e + 1) / (2 * e - 3), (half - 2) / (6 * e * e + 6 * e + 6),
                      (4 * e - 2) / ((e - 1) * Constant.e_power(F(1, 3))), e + half]
    calls = []
    poly_gcd = constants._poly_gcd

    def counted(a, b):
        calls.append(1)
        return poly_gcd(a, b)

    monkeypatch.setattr(constants, "_poly_gcd", counted)
    for u in units:
        assert u * 2 == F(2, 1) * u
        for x in others:
            assert u * x == x * u
    assert not calls
    others[4] * others[5]  # two non-units still cancel crosswise
    assert calls
