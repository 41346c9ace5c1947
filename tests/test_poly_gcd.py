"""The polynomial gcd of the scalar field against Euclid's algorithm over Q.

``constants._poly_gcd`` evaluates its operands at a power of two and reads
the gcd back from the digits of one integer gcd; the reference below knows
nothing of evaluation: it runs Euclid on ``Fraction`` coefficients and makes
the last nonzero remainder primitive with a positive leading coefficient.
Polynomials are ``{exponent: int}`` dicts in ``t = e^(1/N)``, Laurent like
the field's own.
"""

import random
import time
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from stieltjes import constants
from stieltjes.constants import _at, _digits, _exact_div, _poly_gcd


def mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def remainder(a, b):
    """a mod b over Q."""
    r = dict(a)
    db = max(b)
    while r and max(r) >= db:
        dr = max(r)
        f = r[dr] / b[db]
        for k, c in b.items():
            x = r.get(k + dr - db, 0) - f * c
            if x:
                r[k + dr - db] = x
            else:
                r.pop(k + dr - db, None)
    return r


def reference_gcd(a, b):
    """The primitive gcd of a and b with t-powers removed, None for a unit."""
    a = {k - min(a): F(c) for k, c in a.items()}
    b = {k - min(b): F(c) for k, c in b.items()}
    while b:
        a, b = b, remainder(a, b)
    if max(a) == 0:
        return None
    s = min(a)
    m = lcm(*(c.denominator for c in a.values()))
    g = {k - s: int(c * m) for k, c in a.items()}
    content = gcd(*g.values()) * (1 if g[max(g)] > 0 else -1)
    return {k: c // content for k, c in g.items()}


def random_poly(rng, degree, bound, terms=None, step=1):
    exponents = rng.sample(range(degree), min(terms or degree, degree)) + [degree]
    p = {k * step: rng.randint(-bound, bound) for k in exponents}
    p[degree * step] = rng.randint(1, bound) * rng.choice((1, -1))
    return {k: c for k, c in p.items() if c}


def shifted(p, s):
    return {k + s: c for k, c in p.items()}


def checked_gcd(u, v):
    """``_poly_gcd(u, v)`` without its cofactors, which must multiply back."""
    result = _poly_gcd(u, v)
    if result is None:
        return None
    g, qu, qv = result
    assert mul(g, qu) == u and mul(g, qv) == v
    return g


@pytest.fixture
def images(monkeypatch):
    """The exponent k of each image taken, the value of an operand at
    ``t = 2^k``, in order: one per operand and try."""
    ks = []
    at = constants._at

    def counted(p, k):
        ks.append(k)
        return at(p, k)

    monkeypatch.setattr(constants, "_at", counted)
    return ks


@pytest.mark.parametrize("seed", range(6))
def test_random_common_factors(seed):
    rng = random.Random(1000 + seed)
    for _ in range(25):
        g = random_poly(rng, rng.randint(0, 5), 20)
        a = random_poly(rng, rng.randint(1, 6), 20, terms=rng.randint(1, 4))
        b = random_poly(rng, rng.randint(1, 6), 20, terms=rng.randint(1, 4))
        u, v = mul(g, a), mul(g, b)
        if len(u) > 1 and len(v) > 1:
            assert checked_gcd(u, v) == reference_gcd(u, v)
            assert checked_gcd(shifted(u, -7), shifted(v, 3)) == reference_gcd(u, v)


def test_coefficients_near_1e40_give_the_reference_gcd(images):
    rng = random.Random(2024)
    for _ in range(5):
        g = random_poly(rng, 4, 10**40)
        u = mul(g, random_poly(rng, 3, 10**40))
        v = mul(g, random_poly(rng, 2, 10**40))
        expected = reference_gcd(u, v)
        images.clear()
        assert checked_gcd(u, v) == expected
        # the first point exceeds twice the smaller coefficient bound
        assert 2**images[0] >= 2 * min(max(map(abs, u.values())), max(map(abs, v.values()))) + 2


@pytest.mark.parametrize("step", [2, 3, 7])
def test_grid_steps_above_one(step):
    rng = random.Random(step)
    for _ in range(10):
        g = random_poly(rng, 3, 50, step=step)
        u = mul(g, random_poly(rng, 4, 50, step=step))
        v = mul(g, random_poly(rng, 2, 50, step=step))
        expected = reference_gcd(u, v)
        assert expected is None or all(k % step == 0 for k in expected)
        assert checked_gcd(shifted(u, 5 * step), shifted(v, -step)) == expected


def test_unlucky_first_point_is_retried(images):
    # at t = 2^8 = -1 mod 257 both values are multiples of 257 = 2^8 + 1,
    # whose digits give the candidate t + 1, which does not divide t^9 + 258
    assert _poly_gcd({1: 1, 0: 1}, {9: 1, 0: 258}) is None
    assert images == [8, 8, 16, 16]


def test_equal_primitive_parts_take_no_image(images):
    g = {4: 3, 1: -2, 0: 5}
    u, v = {k: 2 * c for k, c in g.items()}, {k + 3: -6 * c for k, c in g.items()}
    assert _poly_gcd(u, v) == (g, {0: 2}, {3: -6})
    assert images == []


def test_coprime_pair_takes_one_image(images):
    assert _poly_gcd({3: 1, 0: 1}, {2: 1, 0: 2}) is None
    assert images == [8, 8]  # both operands at 2^8


def test_sparse_pair_of_degree_a_million_is_fast():
    n = 10**6
    start = time.perf_counter()
    assert _poly_gcd({n: 1, 1: 1, 0: 1}, {n: 1, 0: 2}) is None
    assert time.perf_counter() - start < 2


def test_exact_div_divides_or_raises():
    g = {1: 2, 0: 1}
    assert _exact_div(mul(g, {3: 5, 1: -1}), g) == {3: 5, 1: -1}
    with pytest.raises(ArithmeticError):
        _exact_div({1: 3, 0: 1}, g)  # flooring 3 / 2 would leave no remainder
    with pytest.raises(ArithmeticError):
        _exact_div({2: 2, 0: 1}, {1: 1, 0: 1})  # a polynomial remainder: 3


def test_dense_pair_of_degree_2048_with_a_cubic_factor_is_fast():
    rng = random.Random(2048)
    g = {3: 2, 2: -3, 1: 1, 0: 5}
    u, v = mul(g, random_poly(rng, 2045, 100)), mul(g, random_poly(rng, 2045, 100))
    start = time.perf_counter()
    assert checked_gcd(u, v) == g
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("seed", range(4))
def test_dense_pairs_of_degree_64_to_256(seed):
    # a dense common factor of high degree, so that Euclid's algorithm over
    # Q, the reference, needs only a few steps
    rng = random.Random(64 + seed)
    for _ in range(3):
        bound = 2**rng.randint(20, 64)
        g = random_poly(rng, rng.randint(60, 252), bound)
        u = mul(g, random_poly(rng, rng.randint(1, 4), bound))
        v = mul(g, random_poly(rng, rng.randint(1, 4), bound))
        assert checked_gcd(u, v) == reference_gcd(u, v)


def test_retries_end_when_the_point_outgrows_the_spurious_factor(images):
    # with u/g = t + 1 and v/g = t^9 + 1 + 257 * 65537, the values at 2^8
    # and at 2^16 share 2^8 + 1 = 257 and 2^16 + 1 = 65537 beyond g, so the
    # candidates are g*(t + 1), which does not divide v; at 2^32 the
    # spurious factor is gcd(2^32 + 1, 257 * 65537) = 1
    g = {2: 1, 1: -1, 0: 3}
    u, v = mul(g, {1: 1, 0: 1}), mul(g, {9: 1, 0: 1 + 257 * 65537})
    assert checked_gcd(u, v) == g == reference_gcd(u, v)
    assert images == [8, 8, 16, 16, 32, 32]


def test_values_at_powers_of_two_read_back_as_digits():
    # coefficients in (-2^(k-1), 2^(k-1)] are the symmetric digits of the
    # value at 2^k, the bounds included; a dense polynomial of degree 300000
    # takes a fraction of a second each way (Horner's rule or one remainder
    # per digit would be quadratic: about 37 s and 13 s)
    rng = random.Random(8)
    for k in (8, 16, 64):
        half = 2 ** (k - 1)
        for _ in range(50):
            p = {e: rng.choice((half, 1 - half, -1, rng.randint(1 - half, half)))
                 for e in rng.sample(range(60), rng.randint(1, 12))}
            p[max(p) + 1] = rng.randint(1, half)
            p[0] = p.get(0) or 1
            assert _digits(_at(p, k), k) == p
    dense = {e: rng.randint(-127, 128) or 1 for e in range(300000)}
    dense[300000] = 1
    start = time.perf_counter()
    assert _digits(_at(dense, 8), 8) == dense
    assert time.perf_counter() - start < 3
