import random
from fractions import Fraction as F
from math import gcd

import pytest

from stieltjes import Constant, const_arith


def C(num, den=None):
    return Constant({F(q): F(c) for q, c in num.items()},
                    {F(q): F(c) for q, c in den.items()} if den else None)


def test_sigma_expansion():
    e = Constant.e_power(1)
    sigma = const_arith(const_arith(e * 2 - 3, e - 1, "mul"),
                        Constant.from_rational(2), "mul")
    assert sigma == C({2: 4, 1: -10, 0: 6})


def test_group_law_identity():
    assert Constant.e_power(1) * Constant.e_power(-1) == Constant.one()


def test_division_reduces_to_polynomial_quotient():
    a = C({2: 1, 0: -1})   # e^2 - 1
    b = C({1: 1, 0: -1})   # e - 1
    q = const_arith(a, b, "div")
    expected = C({1: 1, 0: 1})
    assert q == expected
    # cross-multiplication oracle: (e+1)(e-1) = e^2 - 1
    assert expected * b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        Constant.one() / Constant.zero()
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        Constant({F(0): F(1)}, {})


def _finished_values():
    """Values from every route that finishes one, each with its value as a
    function of mpmath's e and sqrt(e): the constructor (unanchored
    denominators, one with a negative leading term and content 2, one given
    zero coefficients), a unit product, an inverse, Henrici's sum, a
    one-group sum and non-unit products."""
    E, H = Constant.e_power(1), Constant.e_power(F(1, 2))
    return [
        (C({1: 2, 0: 2}, {2: 3, 1: -3}), lambda e, h: (2 * e + 2) / (3 * e**2 - 3 * e)),
        (C({F(1, 2): -4}, {F(3, 2): -6, F(1, 2): 2}), lambda e, h: -4 / (-6 * e + 2)),
        (C({F(1, 2): 0, 2: 2, 0: 2}, {2: 3, 1: -3, F(1, 2): 0}),
         lambda e, h: (2 * e**2 + 2) / (3 * e**2 - 3 * e)),
        (Constant.e_power(F(1, 2), F(-3, 2)) * C({F(1, 2): 2, 0: 4}, {1: 3, 0: 1}),
         lambda e, h: F(-3, 2) * h * (2 * h + 4) / (3 * e + 1)),
        ((2 * H - 4 / H).inverse(), lambda e, h: 1 / (2 * h - 4 / h)),
        (1 / (E - 1) + 1 / (2 * E + 2), lambda e, h: 1 / (e - 1) + 1 / (2 * e + 2)),
        (Constant.sum([H / (E - 1), 3 / (E - 1), -H / (E - 1)]), lambda e, h: 3 / (e - 1)),
        ((2 * H + 2) * (3 * H - 3), lambda e, h: 6 * e - 6),
        (H * H, lambda e, h: e),
    ]


def test_canonical_form_invariants():
    for c, _value in _finished_values():
        n, num, den = c._n, c._num, c._den
        assert den[-1][0] == 0 and den[0][1] > 0  # anchored, positive leading term
        assert all(a for _k, a in num + den)  # no zero coefficient is stored
        for terms in (num, den):
            exponents = [k for k, _a in terms]
            assert exponents == sorted(set(exponents), reverse=True)
        assert gcd(*[a for _k, a in num + den]) == 1  # joint content 1
        assert gcd(n, *[k for k, _a in num + den]) == 1  # minimal grid
    # the views scale the denominator to be monic
    den = C({1: 2, 0: 2}, {2: 3, 1: -3}).den
    assert min(den) == 0 and den[max(den)] == 1


def test_canonical_form_keeps_the_value():
    import mpmath  # a test dependency: its absence fails, not skips, this test

    with mpmath.workdps(50):
        e, h = mpmath.e, mpmath.sqrt(mpmath.e)
        for c, value in _finished_values():
            top, bottom = (mpmath.fsum(a * mpmath.exp(mpmath.mpf(k) / c._n) for k, a in terms)
                           for terms in (c._num, c._den))
            assert abs(top / bottom - value(e, h)) < mpmath.mpf(10) ** -40


def test_rationals_hash_like_the_numbers_they_equal():
    assert {1: "a"}.get(Constant.one()) == "a"
    assert {F(1, 2): "b"}.get(Constant.from_rational(F(1, 2))) == "b"
    e = Constant.e_power(1)
    for x in (0, 1, -1, 7, -64, 65, 10**20, F(1, 2), F(-3, 4), F(10**20, 3)):
        for c in (Constant.from_rational(x), C({0: x}), e * x / e):
            assert c == x and hash(c) == hash(x)
    assert len({Constant.one(), 1, F(1), e * e.inverse()}) == 1


def test_fractional_exponents():
    a = Constant.e_power(F(1, 2))
    assert a * a == Constant.e_power(1)
    assert a / Constant.e_power(F(3, 2)) == Constant.e_power(-1)


def test_field_laws_randomized():
    rng = random.Random(7)

    def rand_constant():
        num = {F(rng.randint(-2, 2)): F(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))}
        den = {F(rng.randint(-1, 1)): F(rng.randint(1, 3))}
        try:
            return Constant(num, den)
        except ZeroDivisionError:
            return Constant.one()

    for _ in range(60):
        a, b, c = rand_constant(), rand_constant(), rand_constant()
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        if not a.is_zero():
            assert a / a == Constant.one()
            assert a * a.inverse() == Constant.one()
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)


def test_as_rational_and_monomial():
    assert Constant.from_rational(F(3, 4)).as_rational() == F(3, 4)
    assert Constant.e_power(2).as_rational() is None
    assert Constant.e_power(2, 5).as_monomial() == (F(2), F(5))
    assert (Constant.e_power(1) + 1).as_monomial() is None


def test_latex_exponents_are_fractions_like_every_other_rational():
    from stieltjes import ExpPoly

    c = Constant.e_power(F(1, 2), 3)
    assert c.to_latex() == r"3 e^{\tfrac{1}{2}}" == ExpPoly.const(c).to_latex()
    assert c.to_text() == "3*exp(1/2)" == ExpPoly.const(c).to_text()
    quotient = Constant.e_power(F(-3, 2)) / (Constant.e_power(1) - 1)
    assert quotient.to_latex() == r"\frac{e^{-\tfrac{3}{2}}}{e^{1}-1}"
    assert quotient.to_text() == "(exp(-3/2))/(exp(1) - 1)"


def test_json_roundtrip():
    c = C({2: 4, 1: -10, 0: 6}, {1: 1, 0: -1})
    assert Constant.from_json(c.to_json()) == c


def test_rational_coercion():
    assert Constant.from_rational(2) + 1 == Constant.from_rational(3)
    assert 2 * Constant.e_power(1) == Constant.e_power(1, 2)
    assert 1 / Constant.e_power(1) == Constant.e_power(-1)
