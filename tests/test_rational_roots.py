"""The rational roots of the characteristic polynomial, against sympy.

sympy expands the products and decides irreducibility; it shares no code with
the Sturm isolation in ``boundary._rational_roots``, whose answers must be
exactly the drawn multiset of roots, or None when a factor is irreducible."""

import random
import time
from fractions import Fraction as F

import pytest
import sympy

from stieltjes import ExpPoly, Operator
from stieltjes.boundary import MAX_ROOT_BITS, _rational_roots, fundamental_system
from stieltjes.cli import main
from stieltjes.errors import FundamentalSystemError

X = sympy.Symbol("x")


def monic_coeffs(expr) -> list[F]:
    """The coefficients of the monic multiple of ``expr``, constant first."""
    poly = sympy.Poly(expr, X, domain="QQ").monic()
    return [F(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]


def random_rational(rng: random.Random) -> sympy.Rational:
    return sympy.Rational(rng.randint(-60, 60), rng.randint(1, 24))


def random_roots(rng: random.Random, count: int) -> list[sympy.Rational]:
    """``count`` roots drawn with replacement from fewer distinct values, so
    that repeated factors occur."""
    pool = [random_rational(rng) for _ in range(rng.randint(1, count))]
    return [rng.choice(pool) for _ in range(count)]


def random_irreducible_quadratic(rng: random.Random):
    while True:
        a, b, c = rng.randint(1, 9), rng.randint(-30, 30), rng.randint(-30, 30)
        quadratic = sympy.Poly(a * X**2 + b * X + c, X, domain="QQ")
        if quadratic.is_irreducible:
            return quadratic.as_expr()


@pytest.mark.parametrize("seed", range(40))
def test_products_of_linear_factors_give_their_roots(seed):
    rng = random.Random(seed)
    roots = random_roots(rng, rng.randint(1, 10))
    coeffs = monic_coeffs(sympy.expand(sympy.prod([X - r for r in roots])))
    found = _rational_roots(coeffs)
    assert sorted(found) == sorted(F(int(r.p), int(r.q)) for r in roots)


@pytest.mark.parametrize("seed", range(40))
def test_an_irreducible_quadratic_factor_gives_none(seed):
    rng = random.Random(1000 + seed)
    roots = random_roots(rng, rng.randint(1, 8))
    quadratic = random_irreducible_quadratic(rng)
    coeffs = monic_coeffs(sympy.expand(quadratic * sympy.prod([X - r for r in roots])))
    assert _rational_roots(coeffs) is None


def test_real_irrational_roots_next_to_rational_ones_give_none():
    # x^2 - 2 has real roots; a root 1/2 and roots near sqrt(2) share no grid point
    coeffs = monic_coeffs(sympy.expand((X**2 - 2) * (2 * X - 1) * (X - sympy.Rational(141, 100))))
    assert _rational_roots(coeffs) is None


def ten_roots_near_the_bound(rng: random.Random):
    """Ten distinct roots a/d with pairwise different denominators, whose
    cleared coefficients fill the bit bound: the slowest kind to isolate."""
    size = MAX_ROOT_BITS // 10
    while True:
        roots = {sympy.Rational(rng.choice([-1, 1]) * rng.getrandbits(size),
                                rng.getrandbits(size) | 1) for _ in range(10)}
        cleared = sympy.Poly(sympy.prod([r.q * X - r.p for r in roots]), X)
        bits = max(int(c).bit_length() for c in cleared.all_coeffs())
        if len(roots) == 10 and MAX_ROOT_BITS - 16 <= bits <= MAX_ROOT_BITS:
            return sorted(roots), cleared
        size += 1 if bits < MAX_ROOT_BITS - 16 else -1


def test_worst_admitted_order_10_polynomial_isolates_within_a_second():
    roots, cleared = ten_roots_near_the_bound(random.Random(7))
    coeffs = monic_coeffs(cleared.as_expr())
    start = time.perf_counter()
    found = _rational_roots(coeffs)
    assert time.perf_counter() - start < 1
    assert sorted(found) == [F(int(r.p), int(r.q)) for r in roots]


def test_the_bound_admits_its_own_bit_length():
    # (2^320 x - 1)(2^319 x + 1) = 2^639 x^2 + 2^319 x - 1: 640-bit coefficients
    half = MAX_ROOT_BITS // 2
    coeffs = monic_coeffs((2**half * X - 1) * (2**(half - 1) * X + 1))
    assert _rational_roots(coeffs) == [F(1, 2**half), F(-1, 2**(half - 1))]


def test_one_bit_over_the_bound_is_rejected_at_once():
    # x^2 - 1/2^640: the cleared polynomial 2^640 x^2 - 1 has a 641-bit coefficient
    coeffs = monic_coeffs(X**2 - sympy.Rational(1, 2**MAX_ROOT_BITS))
    T = Operator.sum(Operator.derivative(i, ExpPoly.const(c)) for i, c in enumerate(coeffs))
    start = time.perf_counter()
    with pytest.raises(FundamentalSystemError, match=f"MAX_ROOT_BITS = {MAX_ROOT_BITS}"):
        fundamental_system(T)
    assert time.perf_counter() - start < 0.1


def test_one_bit_over_the_bound_exits_4(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text('{"operator": {"coeffs": ["%d", "0", "1"]}, "conditions": '
                    '[{"local": [{"point": "0", "order": 0, "coeff": "1"}]}, '
                    '{"local": [{"point": "1", "order": 0, "coeff": "1"}]}]}'
                    % -2**MAX_ROOT_BITS)
    start = time.perf_counter()
    assert main(["solve", str(path)]) == 4
    assert time.perf_counter() - start < 0.1
    assert capsys.readouterr().err == (
        f"error: the characteristic polynomial has {MAX_ROOT_BITS + 1}-bit coefficients, "
        f"denominators cleared, over the cap MAX_ROOT_BITS = {MAX_ROOT_BITS}: fundamental "
        f"system must be supplied\n")
