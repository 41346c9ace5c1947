import random
from fractions import Fraction as F

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


def test_canonical_form_invariants():
    c = C({1: 2, 0: 2}, {2: 3, 1: -3})  # (2e+2)/(3e^2-3e) = 2(e+1)/(3e(e-1))
    # denominator anchored: min exponent 0, leading coefficient 1
    den = c.den
    assert min(den) == 0
    assert den[max(den)] == 1
    assert all(v != 0 for v in c.num.values())
    assert all(v != 0 for v in den.values())


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
