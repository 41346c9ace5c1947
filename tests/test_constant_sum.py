"""The n-ary ``Constant.sum``: structurally the same value as a left fold of
the pairwise Henrici step, numerically the sum at e, one gcd per group of
summands that share a primitive denominator, and at most one gcd per
further group and one for the total.

``_henrici`` is the pairwise sum that ``constants`` used before it folded
every group over one running denominator; it is kept here, verbatim, as the
reference of this module and of ``test_unit_multiples.py``."""

from fractions import Fraction as F
from functools import reduce
from math import lcm

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_constant_oracle import EXPONENTS, FACTORS, assert_close, constant_value, mul_terms

from stieltjes import Constant
from stieltjes import constants
from stieltjes.constants import _make, _padd, _pmul, _poly_gcd

DERANDOMIZED = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def _henrici(a: Constant, b: Constant) -> Constant:
    """``a + b`` by Henrici's method (Knuth, TAOCP vol. 2, 4.5.1): with
    ``g = gcd(d1, d2)``, only ``gcd(num, g)`` can cancel."""
    if not a._num:
        return b
    if not b._num:
        return a
    n = lcm(a._n, b._n)
    n1, d1 = a._polys(n)
    n2, d2 = b._polys(n)
    r = _poly_gcd(d1, d2)
    if r is None:
        return _make(n, _padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))
    g, e1, e2 = r
    num, den = _padd(_pmul(n1, e2), _pmul(n2, e1)), _pmul(d1, e2)
    if num:
        # den = g * e1 * e2, and only g can cancel against num
        r = _poly_gcd(num, g)
        if r is not None:
            _, num, g = r
            den = _pmul(_pmul(g, e1), e2)
    return _make(n, num, den)


def fold(xs) -> Constant:
    return reduce(_henrici, map(Constant._coerce, xs), Constant.zero())


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


# Two dense denominators of 26 terms on the grid 2, alone and times a factor
# of FACTORS: sums over several of them fold by packed products.
DENSE = [{F(i, 2): F((7 * i) % 11 - 5 or 6) for i in range(26)},
         {F(i, 2): F((5 * i) % 9 - 4 or 5) for i in range(26)}]
DENOMINATORS = (FACTORS[:3] + DENSE + [mul_terms(d, f) for d in DENSE for f in FACTORS[:2]]
                + [mul_terms(FACTORS[0], FACTORS[2])])


@st.composite
def grouped(draw) -> list:
    """One to three operands over each of 3 to 6 distinct denominators of
    ``DENOMINATORS``, under the contents 1, 2 and 3: several groups, some of
    them over the same factors, some dense."""
    coeff = st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    xs = []
    for i in draw(st.lists(st.integers(0, len(DENOMINATORS) - 1), min_size=3, max_size=6,
                           unique=True)):
        for _ in range(draw(st.integers(1, 3))):
            num = draw(st.dictionaries(st.sampled_from(EXPONENTS), coeff, min_size=1, max_size=3))
            content = draw(st.sampled_from([1, 2, 3]))
            xs.append(Constant(num, {q: c * content for q, c in DENOMINATORS[i].items()}))
    return xs


@st.composite
def summands(draw) -> list:
    """Operands and rationals, or operands in several denominator groups,
    with some of them negated back in (partial cancellation) or, now and
    then, all of them (a sum of zero)."""
    xs = draw(st.one_of(
        st.lists(st.one_of(operands(), st.fractions(max_denominator=12)), max_size=8),
        grouped()))
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
    assert a + b == Constant.sum((a, b)) == _henrici(a, b)
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


@pytest.fixture
def gcd_calls(monkeypatch):
    """One entry per ``constants._poly_gcd`` call."""
    calls = []
    poly_gcd = constants._poly_gcd

    def counted(a, b):
        calls.append(1)
        return poly_gcd(a, b)

    monkeypatch.setattr(constants, "_poly_gcd", counted)
    return calls


def test_distinct_denominators_take_at_most_one_gcd_each(gcd_calls):
    """k summands over k distinct primitive denominators, which share the
    factor e - 1: one gcd per further group and one for the total.  The
    pairwise fold takes two per step, a gcd of the denominators and one of
    the numerator with their common factor."""
    e = Constant.e_power(1)
    for k in range(2, 6):
        xs = [(e + j) / ((e - 1) * (e - j - 1)) for j in range(1, k + 1)]
        gcd_calls.clear()
        total = Constant.sum(xs)
        assert 0 < len(gcd_calls) <= k
        assert total == fold(xs)


def test_a_sum_that_vanishes_skips_the_last_gcd(gcd_calls):
    """k - 1 summands over denominators that share the factor e - 1 and
    minus their sum: k distinct denominators, at most k - 1 gcds.  The
    pairwise fold takes one more for each step whose sum is not zero."""
    e = Constant.e_power(1)
    for k in range(3, 6):
        xs = [(e + j) / ((e - 1) * (e - j - 1)) for j in range(1, k)]
        xs.append(-Constant.sum(xs))
        assert len({x._den for x in xs}) == k
        gcd_calls.clear()
        assert Constant.sum(xs).is_zero()
        assert len(gcd_calls) <= k - 1


def test_reduced_summands_over_overlapping_denominators_cancel_their_overlap():
    """Two reduced summands whose denominators share e - 1 need the final
    gcd: the sum cancels that factor."""
    e = Constant.e_power(1)
    a, b = 1 / ((e - 1) * (e - 2)), -2 / ((e - 1) * (e - 3))
    total = Constant.sum([a, b])
    assert (total._n, total._num, total._den) == (1, ((0, -1),), ((2, 1), (1, -5), (0, 6)))
    assert total == fold([a, b]) == -1 / ((e - 2) * (e - 3))
    # over coprime denominators nothing cancels
    assert Constant.sum([1 / (e - 2), -1 / (e - 3)]) == -1 / ((e - 2) * (e - 3))
