"""The n-ary ``Constant.sum``: structurally the same value as a left fold of
the pairwise Henrici step, numerically the sum at e, and one gcd per group of
summands that share a primitive denominator."""

from fractions import Fraction as F
from functools import reduce

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_constant_oracle import EXPONENTS, FACTORS, assert_close, constant_value, mul_terms

from stieltjes import Constant
from stieltjes import constants

DERANDOMIZED = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def fold(xs) -> Constant:
    return reduce(constants._henrici, map(Constant._coerce, xs), Constant.zero())


@st.composite
def operands(draw) -> Constant:
    """``num / (content * e^q * product of FACTORS)``.  The factor pool is
    small and the content is drawn from a few integers, so that summands often
    share a primitive denominator, equal or up to integer content, and the
    exponents mix the grids 1, 2 and 3."""
    coeff = st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    num = draw(st.dictionaries(st.sampled_from(EXPONENTS), coeff, min_size=1, max_size=3))
    den = {draw(st.sampled_from(EXPONENTS)): F(draw(st.sampled_from([1, 2, 3, 6, 10])))}
    for i in draw(st.lists(st.integers(0, 2), max_size=2)):
        den = mul_terms(den, FACTORS[i])
    return Constant(num, den)


@st.composite
def summands(draw) -> list:
    """Operands and rationals, with some of them negated back in (partial
    cancellation) or, now and then, all of them (a sum of zero)."""
    xs = draw(st.lists(st.one_of(operands(), st.fractions(max_denominator=12)), max_size=8))
    if xs and draw(st.booleans()):
        xs += [-Constant._coerce(x) for x in draw(st.lists(st.sampled_from(xs), max_size=3))]
    if xs and draw(st.integers(0, 5)) == 0:
        xs += [-Constant._coerce(x) for x in xs]
    return draw(st.permutations(xs))


@DERANDOMIZED
@given(summands())
def test_sum_is_the_fold_of_henrici_and_the_value_at_e(xs):
    total = Constant.sum(xs)
    expected = fold(xs)
    assert total == expected
    assert hash(total) == hash(expected)
    assert (total._n, total._num, total._den) == (expected._n, expected._num, expected._den)
    values = [constant_value(Constant._coerce(x)) for x in xs]
    value = mpmath.fsum(values)
    scale = mpmath.fsum(abs(v) for v in values)
    if total.is_zero():
        assert abs(value) <= mpmath.mpf(10) ** -35 * (1 + scale)
    else:
        assert_close(constant_value(total), value, scale)


@DERANDOMIZED
@given(operands(), operands())
def test_binary_operators_are_the_sum(a, b):
    assert a + b == Constant.sum((a, b)) == constants._henrici(a, b)
    assert a - b == Constant.sum((a, -b))
    assert 3 - a == Constant.sum((3, -a))
    assert F(1, 2) + a == a + F(1, 2) == Constant.sum((a, F(1, 2)))


def test_empty_and_one_element_sums():
    e = Constant.e_power(1)
    a = (e + 1) / (e - 1)
    assert Constant.sum([]) is Constant.zero()
    assert Constant.sum(iter(())).is_zero()
    assert Constant.sum([a]) is a
    assert Constant.sum([Constant.zero(), a, Constant.zero()]) is a
    assert Constant.sum([F(2, 3)]) == Constant.from_rational(F(2, 3))
    assert Constant.sum(x for x in (1, 2, F(1, 2))) == Constant.from_rational(F(7, 2))
    with pytest.raises(TypeError):
        Constant.sum([a, 1.5])


def test_denominators_equal_up_to_content_share_one_group():
    e = Constant.e_power(1)
    half = Constant.e_power(F(1, 2))
    d = (e - 1) * (2 * e - 3)
    # stored denominators 2*D, 3*D and 5*D on grid 2 and D on grid 1
    xs = [half / (2 * d), (e + 2) / (3 * d), (half + 1) / (5 * d), e / d]
    assert Constant.sum(xs) == fold(xs)
    # one group whose numerators add up to a factor of D: the single gcd of
    # the group cancels it
    ys = [e / (2 * d), (e - 2) / (2 * d), Constant.from_rational(F(1, 3))]
    assert Constant.sum(ys) == 1 / (2 * e - 3) + F(1, 3)
    assert Constant.sum(ys) == fold(ys)


def test_one_primitive_denominator_needs_at_most_one_coprimality_test(monkeypatch):
    e = Constant.e_power(1)
    d = (e - 1) * (2 * e - 3) * (e * e + e + 1)
    xs = [(Constant.e_power(F(k, 3)) + k) / (k * d) for k in range(1, 9)]
    assert len({x._den for x in xs}) > 1  # equal only up to the integer content
    calls = []
    at = constants._at

    def counted(p, k):
        calls.append(k)
        return at(p, k)

    monkeypatch.setattr(constants, "_at", counted)
    total = Constant.sum(xs)
    assert len(calls) <= 2  # both operands of one gcd, evaluated once
    calls.clear()
    assert total == fold(xs)
    assert len(calls) > 2  # the pairwise fold tests every step
