"""Numeric oracle for the function algebra, independent of how ``ExpPoly``
stores its terms: every operand is a plain list of ``(c, q, l, n)`` tuples
standing for ``sum c * e^q * x^n * exp(l*x)`` with rational entries, built
through ``ExpPoly.monomial`` and ``ExpPoly.sum`` and evaluated as a function
in mpmath.  Results are read only through ``eval_at`` at rational points and
compared to 30 digits with the same operation done numerically: pointwise
for ``f*g`` and ``f+g``, ``mpmath.diff`` for ``f'`` and ``mpmath.quad`` for
``f.integrate_from(a)``."""

import random
import time
from fractions import Fraction as F

import mpmath

from test_constant_oracle import constant_value

from stieltjes import Constant, ExpPoly

mpmath.mp.dps = 50

FREQUENCIES = [F(0), F(1), F(-1), F(1, 2), F(-3, 2), F(2)]
OFFSETS = [F(0), F(0), F(1), F(-1, 2)]
POINTS = [F(-1), F(-1, 3), F(0), F(1, 2), F(1), F(3, 2)]
SEEDS = range(12)


def mp(q: F) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def random_operand(rng: random.Random):
    """(description, ExpPoly); the description may repeat a monomial."""
    terms = [(F(rng.randint(-5, 5) or 1, rng.randint(1, 4)), rng.choice(OFFSETS),
              rng.choice(FREQUENCIES), rng.randint(0, 3))
             for _ in range(rng.randint(1, 4))]
    f = ExpPoly.sum([ExpPoly.monomial(l, n, Constant.e_power(q, c)) for c, q, l, n in terms])
    return terms, f


def function(terms):
    return lambda x: mpmath.fsum(mp(c) * mpmath.exp(mp(q)) * x ** n * mpmath.exp(mp(l) * x)
                                 for c, q, l, n in terms)


def assert_value(f: ExpPoly, x: F, expected):
    c = f.eval_at(x)
    got = mpmath.mpf(0) if c.is_zero() else constant_value(c)
    assert abs(got - expected) <= mpmath.mpf(10) ** -30 * (1 + abs(expected))


def test_algebra_and_calculus_agree_with_mpmath():
    start = time.perf_counter()
    for seed in SEEDS:
        rng = random.Random(seed)
        (ft, f), (gt, g) = random_operand(rng), random_operand(rng)
        fn, gn = function(ft), function(gt)
        a = rng.choice(POINTS)
        product, total, derivative, integral = f * g, f + g, f.derive(), f.integrate_from(a)
        assert integral.eval_at(a).is_zero()
        for x in rng.sample(POINTS, 2):
            xm = mp(x)
            assert_value(product, x, fn(xm) * gn(xm))
            assert_value(total, x, fn(xm) + gn(xm))
            assert_value(derivative, x, mpmath.diff(fn, xm))
            assert_value(integral, x, mpmath.quad(fn, [mp(a), xm]))
    assert time.perf_counter() - start < 2
