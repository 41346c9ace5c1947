import random
from fractions import Fraction as F

import pytest

from conftest import random_exppoly

from stieltjes import (
    BivariateExpPoly,
    Constant,
    ExpPoly,
    ParseError,
    parse_bivariate,
    parse_exppoly,
    parse_rational,
)


def test_basic_terms():
    assert parse_exppoly("3/2*x^2*exp(-x) - 1") == (
        ExpPoly.monomial(-1, 2, F(3, 2)) - ExpPoly.one()
    )
    assert parse_exppoly("x") == ExpPoly.x()
    assert parse_exppoly("0") == ExpPoly.zero()
    assert parse_exppoly("-x + x") == ExpPoly.zero()


def test_exponent_offsets():
    assert parse_exppoly("exp(x+2)") == ExpPoly.monomial(1, 0, Constant.e_power(2))
    assert parse_exppoly("exp(2)") == ExpPoly.const(Constant.e_power(2))
    assert parse_exppoly("exp(1/2*x)") == ExpPoly.exponential(F(1, 2))


def test_division_by_constants():
    assert parse_exppoly("x/2") == ExpPoly.monomial(0, 1, F(1, 2))
    assert parse_exppoly("x/exp(1)") == ExpPoly.monomial(0, 1, Constant.e_power(-1))
    assert parse_exppoly("(exp(2)-1)/(exp(1)-1)") == ExpPoly.const(Constant.e_power(1) + 1)


def test_powers_and_parens():
    assert parse_exppoly("(x+1)^2") == parse_exppoly("x^2 + 2*x + 1")
    assert parse_exppoly("2^3") == ExpPoly.const(8)


def test_bivariate():
    b = parse_bivariate("3*exp(x+2+xi)")
    assert b == BivariateExpPoly.tensor(
        ExpPoly.monomial(1, 0, Constant.e_power(2) * 3), ExpPoly.exponential(1))
    assert parse_bivariate("x*xi - x") == BivariateExpPoly.from_pairs(
        [(ExpPoly.x(), ExpPoly.x()), (-ExpPoly.x(), ExpPoly.one())])


def test_errors():
    with pytest.raises(ParseError):
        parse_exppoly("xi")  # bivariate variable in univariate context
    with pytest.raises(ParseError):
        parse_exppoly("x +")
    with pytest.raises(ParseError):
        parse_exppoly("exp(x^2)")
    with pytest.raises(ParseError):
        parse_exppoly("x/(x+1)")
    with pytest.raises(ParseError):
        parse_exppoly("x^(1/2)")
    with pytest.raises(ParseError):
        parse_exppoly("y")
    with pytest.raises(ParseError):
        parse_rational("one")


@pytest.mark.parametrize("text, value", [
    ("1e4299", F(10**4299)), ("-1e-4299", F(-1, 10**4299)), ("0.25e2", F(25)), ("0e999", F(0)),
])
def test_rational_literals_up_to_the_digit_limit(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["1e4300", "-1e-4300", "0.5e-4300", "1e9999999", "1e-9999999",
                                  "0e9999999"])
def test_rational_literals_over_the_digit_limit_are_refused_at_once(text):
    # 10^e is not built for an exponent e beyond twice the limit
    import time

    start = time.perf_counter()
    with pytest.raises(ParseError, match="has over 4300 digits"):
        parse_rational(text)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("text, value", [
    ("1/3", F(1, 3)), ("-1/2", F(-1, 2)), ("+4/6", F(2, 3)), (" 1 / 2 ", F(1, 2)),
    ("7\t/ 14", F(1, 2)), ("3", F(3)), (3, F(3)), (".5", F(1, 2)), ("5.", F(5)),
    ("-1.5E-1", F(-3, 20)), ("0.25e+2", F(25)),
])
def test_rational_literals_read_alike_on_every_python(text, value):
    # Fraction(str) takes underscores from Python 3.11 and spaces around '/'
    # from 3.12; parse_rational has a grammar of its own
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", [
    "1_0", "1_000/3", "1/1_0", "0.2_5", "1e1_0", "1 0", "1. 5", "- 1", "1 e5", "1/-2", "1/0",
    "1/2/3", "1/2e3", "1.5/2", "", ".", "e5", "0x10", "inf",
])
def test_rational_literals_outside_the_grammar_are_refused_on_every_python(text):
    with pytest.raises(ParseError, match="^bad rational literal "):
        parse_rational(text)


def test_text_roundtrip_randomized():
    rng = random.Random(23)
    for _ in range(30):
        f = random_exppoly(rng)
        assert parse_exppoly(f.to_text()) == f


def test_text_roundtrip_with_symbolic_constants():
    sigma = (Constant.e_power(1) * 2 - 3) * (Constant.e_power(1) - 1) * 2
    f = ExpPoly.monomial(1, 1, Constant.one() / sigma) + ExpPoly.const(Constant.e_power(F(1, 2)))
    assert parse_exppoly(f.to_text()) == f


def test_bivariate_roundtrip():
    rng = random.Random(29)
    for _ in range(15):
        h = BivariateExpPoly.from_pairs(
            [(random_exppoly(rng), random_exppoly(rng)) for _ in range(2)])
        assert parse_bivariate(h.to_text()) == h
