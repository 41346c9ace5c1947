"""Numeric oracle for the scalar field, independent of how ``Constant`` stores
its values: every operand is described by plain ``Fraction -> Fraction``
numerator and denominator dicts, evaluated at e with mpmath at 50 digits,
and every result is compared with the same operation done in mpmath."""

import random
from fractions import Fraction as F

import mpmath

from stieltjes import Constant

mpmath.mp.dps = 50
E = mpmath.e

EXPONENTS = [F(-1), F(-1, 2), F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2)]
# denominator factors; several share a factor with another after expansion
FACTORS = [
    {F(1): F(1), F(0): F(-1)},                 # e - 1
    {F(1): F(1), F(0): F(1)},                  # e + 1
    {F(1): F(2), F(0): F(-3)},                 # 2e - 3
    {F(1, 2): F(1), F(0): F(-2)},              # e^(1/2) - 2
    {F(2): F(1), F(1): F(1), F(0): F(1)},      # e^2 + e + 1
    {F(2, 3): F(3), F(-1, 3): F(1, 2)},        # 3e^(2/3) + e^(-1/3)/2
]


def value(terms: dict) -> mpmath.mpf:
    return mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator
                       * mpmath.exp(mpmath.mpf(q.numerator) / q.denominator)
                       for q, c in terms.items())


def constant_value(c: Constant) -> mpmath.mpf:
    return value(c.num) / value(c.den)


def mul_terms(a: dict, b: dict) -> dict:
    out: dict = {}
    for qa, ca in a.items():
        for qb, cb in b.items():
            out[qa + qb] = out.get(qa + qb, 0) + ca * cb
    return {q: c for q, c in out.items() if c}


def random_terms(rng: random.Random, size: int) -> dict:
    return {rng.choice(EXPONENTS): F(rng.randint(-4, 4) or 1, rng.randint(1, 3))
            for _ in range(size)}


def random_operand(rng: random.Random):
    """(description, Constant); the description is never reduced."""
    num = random_terms(rng, rng.randint(1, 3))
    den = random_terms(rng, 1)
    for _ in range(rng.randint(0, 2)):
        den = mul_terms(den, rng.choice(FACTORS))
    if rng.random() < 0.4:  # a common factor the constructor must cancel
        common = rng.choice(FACTORS)
        num, den = mul_terms(num, common), mul_terms(den, common)
    if not num:
        num = {F(0): F(1)}
    return (num, den), Constant(num, den)


def assert_close(got, expected, scale):
    assert abs(got - expected) <= mpmath.mpf(10) ** -35 * (1 + scale)


def check_result(result: Constant, expected, scale):
    if abs(expected) <= mpmath.mpf(10) ** -35 * (1 + scale):
        assert result.is_zero()
        return
    assert not result.is_zero()
    assert_close(constant_value(result), expected, scale)
    rational = result.as_rational()
    if rational is not None:
        assert_close(mpmath.mpf(rational.numerator) / rational.denominator, expected, scale)


def test_operands_evaluate_like_their_description():
    rng = random.Random(11)
    for _ in range(40):
        (num, den), c = random_operand(rng)
        expected = value(num) / value(den)
        assert_close(constant_value(c), expected, abs(expected))


def check_random_operations():
    """Assert that 250 seeded field operations on a growing pool of operands
    agree with mpmath, and that a sum or product undone is the operand."""
    rng = random.Random(2024)
    pool = [random_operand(rng)[1] for _ in range(12)]
    pool += [Constant.from_rational(F(3, 7)), Constant.e_power(F(1, 2), -2)]
    for _ in range(250):
        a = rng.choice(pool)
        b = a if rng.random() < 0.2 else rng.choice(pool)  # a - a, a / a, ...
        va, vb = constant_value(a), constant_value(b)
        op = rng.choice("+-*/i")
        if op == "+":
            check_result(a + b, va + vb, abs(va) + abs(vb))
            assert (a + b) - b == a  # a reduced result undoes structurally
        elif op == "-":
            check_result(a - b, va - vb, abs(va) + abs(vb))
        elif op == "*":
            check_result(a * b, va * vb, abs(va * vb))
            assert (a * b) / b == a
        elif op == "/":
            check_result(a / b, va / vb, abs(va / vb))
        else:
            check_result(a.inverse(), 1 / va, abs(1 / va))
        # feed results back so that operands grow and share denominators
        grown = a * b + a
        if rng.random() < 0.3 and len(pool) < 40 and not grown.is_zero():
            pool.append(grown)


def test_random_operations_match_numeric_oracle():
    check_random_operations()


def test_shared_factor_denominators():
    e = Constant.e_power(1)
    a = 1 / ((e - 1) * (e + 1))
    b = 1 / ((e - 1) * (2 * e - 3))
    ev = E
    expected = 1 / ((ev - 1) * (ev + 1)) + 1 / ((ev - 1) * (2 * ev - 3))
    total = a + b
    assert_close(constant_value(total), expected, abs(expected))
    # (3e - 2) / ((e - 1)(e + 1)(2e - 3)): only one copy of e - 1 survives
    assert total == (3 * e - 2) / ((e - 1) * (e + 1) * (2 * e - 3))


def test_results_that_cancel_to_zero_or_a_rational():
    e = Constant.e_power(1)
    root = Constant.e_power(F(1, 2))
    a = (e + 1) / ((e - 1) * (2 * e - 3))
    b = (root - 2) / (e * e + e + 1)
    assert (a + b - a - b).is_zero()
    assert (a * b - b * a).is_zero()
    assert (a + F(5, 3)) - a == Constant.from_rational(F(5, 3))
    assert (a + F(5, 3) - a).as_rational() == F(5, 3)
    # (e - 1)(e + 1) / ((e - 1)(2e - 3)) times (2e - 3) / (e + 1) is 1
    p = ((e - 1) * (e + 1)) / ((e - 1) * (2 * e - 3))
    assert (p * ((2 * e - 3) / (e + 1))).as_rational() == 1
    # e^(1/2) - 2 divides e - 4: the quotient is a polynomial in e^(1/2)
    assert (e - 4) / (root - 2) == root + 2
    assert ((e - 4) / (root - 2) - root).as_rational() == 2


def test_same_value_built_by_different_paths_is_one_structure():
    e = Constant.e_power(1)
    half = Constant.e_power(F(1, 2))
    target = (2 * e + 1) / (3 * (e - 1) * half)
    # constructor with non-reduced input: scaled, shifted and multiplied by
    # a common non-monomial factor
    num = mul_terms({F(1): F(4), F(0): F(2)}, {F(1, 2): F(1), F(0): F(-2)})
    den = mul_terms({F(3, 2): F(6), F(1, 2): F(-6)}, {F(1, 2): F(1), F(0): F(-2)})
    built = [
        target,
        Constant(num, den),
        Constant({F(1): F(2, 3), F(0): F(1, 3)}, {F(3, 2): F(1), F(1, 2): F(-1)}),
        # sums and products
        (e / half) / (e - 1) * F(2, 3) + (1 / half) / (3 * e - 3),
        ((2 * e + 1) / 3) * ((e - 1) * half).inverse(),
        Constant.from_json(target.to_json()),
        -(-target),
        (target + half) - half,
    ]
    for c in built:
        assert c == target
        assert hash(c) == hash(target)
    assert len(set(built)) == 1


def test_grid_is_minimal_after_cancellation():
    half = Constant.e_power(F(1, 2))
    third = Constant.e_power(F(1, 3))
    # the fractional exponents cancel; the value lives on the integer grid
    c = (half * half + third * third * third) - (half + F(0)) * half
    assert c == Constant.e_power(1)
    assert hash(c) == hash(Constant.e_power(1))
    assert c.num == {F(1): F(1)}
