"""``constants._sum`` over unit multiples against the generic way.

A summand of ``_sum`` is the unit multiple ``(c, p, q, k, m)``, the value
``c * p/q * e^(k/m)`` for a canonical nonzero c and a unit in lowest terms.
``_sum`` scales and shifts each numerator where it adds it to its
denominator group, and normalises each stored denominator once per call.
Each test here builds every product the generic way instead, by ``_make``
of term dicts (as ``test_scalar_fast_paths.generic_unit_product`` does),
adds the products by a left fold of the pairwise Henrici step (the
reference ``_henrici`` of ``test_constant_sum.py``) and requires the
same stored form: grid, numerator and denominator terms.

The draws cover the grids 1-12, one primitive denominator with different
integer contents, one stored denominator tuple on several grids, lone
parts, rational c with a shift ``k != 0`` and sums that cancel to zero.
Two faults fail these tests: a rational branch that admits ``k != 0`` and a
denominator cache keyed without the grid.
"""

import random
from fractions import Fraction as F
from functools import reduce
from math import gcd, lcm

import pytest

from test_constant_sum import _henrici
from test_scalar_fast_paths import COEFFS, GRIDS, random_constant, stored

from stieltjes import Constant
from stieltjes import constants


def generic_product(part) -> Constant:
    """``c * p/q * e^(k/m)`` through ``_make`` of unsorted term dicts."""
    c, p, q, k, m = part
    n = lcm(c._n, m)
    f, s = n // c._n, k * (n // m)
    return constants._make(n, {e * f + s: a * p for e, a in c._num},
                           {e * f: a * q for e, a in c._den})


def generic_sum(parts) -> Constant:
    return reduce(_henrici, map(generic_product, parts), Constant.zero())


def random_unit(rng: random.Random, grids=GRIDS) -> tuple[int, int, int, int]:
    """``p/q * e^(k/m)`` in lowest terms with m drawn from ``grids``, ``k = 0``
    (and so ``m = 1``) half the time."""
    p, q = rng.choice((1, -1, 2, -3, 4, 6, -9, 12)), rng.choice((1, 2, 3, 4, 6, 9))
    k, m = rng.choice((0, rng.randint(-12, 12))), rng.choice(grids)
    g, h = gcd(p, q), gcd(k, m)
    return p // g, q // g, k // h, m // h


def shared_denominator(rng: random.Random, g: int) -> Constant:
    """``a e^(j/g) / (cont * (e^(1/g) - 2))``: the stored denominator is
    ``cont * (t - 2)`` on every grid g, up to the content that a cancels."""
    cont = rng.choice((1, 2, 3, 6))
    return Constant({F(rng.randint(-2 * g, 2 * g), g): F(rng.choice(COEFFS))},
                    {F(1, g): F(cont), F(0): F(-2 * cont)})


def random_rational(rng: random.Random) -> Constant:
    return Constant.from_rational(F(rng.choice(COEFFS), rng.choice((1, 2, 3, 4, 6, 9))))


def random_value(rng: random.Random, g: int) -> Constant:
    """A rational, a unit, ``N/q``, or ``N/D`` with a shared denominator on
    the grid 1 or g, or with ``D = cont * (e^(2/g) + e^(1/g) - 1)``."""
    kind = rng.randrange(5)
    if kind == 0:
        return random_rational(rng)
    if kind == 1:
        return Constant.e_power(F(rng.randint(-3 * g, 3 * g), g), F(rng.choice(COEFFS), 3))
    if kind == 2:
        return shared_denominator(rng, rng.choice((1, g)))
    num = {F(rng.randint(-3 * g, 3 * g), g): F(rng.choice(COEFFS), rng.choice((1, 2, 3)))
           for _ in range(rng.randint(1, 3))}
    cont = rng.choice((1, 2, 3, 6))
    den = ({F(0): F(cont)} if kind == 3
           else {F(2, g): F(cont), F(1, g): F(cont), F(0): F(-cont)})
    c = Constant(num, den)
    return c if not c.is_zero() else Constant.one()


def random_parts(rng: random.Random) -> list:
    """One to eight unit multiples on a grid g of 1-12 (units on 1, g or
    2g); a drawn c often recurs, with another unit, and a drawn part is
    sometimes followed by its negation."""
    g = rng.choice(GRIDS)
    parts = []
    for _ in range(rng.randint(1, 8)):
        c = (rng.choice([part[0] for part in parts]) if parts and rng.random() < 0.3
             else random_value(rng, g))
        parts.append((c, *random_unit(rng, (1, g, 2 * g))))
        if rng.random() < 0.15:
            c, p, q, k, m = rng.choice(parts)
            parts.append((c, -p, q, k, m))
    rng.shuffle(parts)
    return parts


@pytest.mark.parametrize("seed", range(6))
def test_sums_of_unit_multiples_match_the_generic_fold(seed):
    rng = random.Random(500 + seed)
    for _ in range(250):
        parts = random_parts(rng)
        assert stored(constants._sum(parts)) == stored(generic_sum(parts))


@pytest.mark.parametrize("seed", range(3))
def test_rational_multiples_with_a_shift_are_not_rationals(seed):
    rng = random.Random(600 + seed)
    for _ in range(200):
        parts = [(random_rational(rng), *random_unit(rng)) for _ in range(rng.randint(2, 5))]
        assert stored(constants._sum(parts)) == stored(generic_sum(parts))
    half, third = Constant.from_rational(F(1, 2)), Constant.from_rational(F(1, 3))
    total = constants._sum([(half, 1, 1, 1, 1), (third, 1, 1, 0, 1)])
    assert stored(total) == (1, ((1, 3), (0, 2)), ((0, 6),))


def test_one_denominator_tuple_on_two_grids():
    one = 1 / (Constant.e_power(1) - 2)                                   # 1/(t - 2), t = e
    two = Constant.e_power(F(1, 2)) / (Constant.e_power(F(1, 2)) - 2)     # t/(t - 2), t = e^(1/2)
    assert one._den == two._den and (one._n, two._n) == (1, 2)
    for parts in ([(one, 1, 1, 0, 1), (two, 1, 1, 0, 1), (one, 2, 3, 1, 2)],
                  [(two, 3, 1, 0, 1), (one, -1, 1, 0, 1), (two, 1, 2, -1, 3)]):
        for order in (parts, parts[::-1]):
            assert stored(constants._sum(order)) == stored(generic_sum(order))


def test_lone_parts_and_sums_that_cancel():
    rng = random.Random(700)
    for _ in range(100):
        c, unit = random_constant(rng), random_unit(rng)
        p, q, k, m = unit
        assert stored(constants._sum([(c, *unit)])) == stored(generic_product((c, *unit)))
        parts = [(c, *unit), (c, -p, q, k, m)]
        assert constants._sum(parts) is Constant.zero()
        d = shared_denominator(rng, rng.choice(GRIDS))
        # the group of c cancels, the part of d is left
        assert stored(constants._sum(parts + [(d, 1, 1, 0, 1)])) == stored(d)
    assert constants._sum([]) is Constant.zero()
