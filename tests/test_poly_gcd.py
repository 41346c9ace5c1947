"""The polynomial gcd of the scalar field against Euclid's algorithm over Q.

``constants._poly_gcd`` takes gcds modulo primes and lifts them; the
reference below knows nothing of primes: it runs Euclid on ``Fraction``
coefficients and makes the last nonzero remainder primitive with a positive
leading coefficient.  Polynomials are ``{exponent: int}`` dicts in
``t = e^(1/N)``, Laurent like the field's own.
"""

import random
import time
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from stieltjes import constants
from stieltjes.constants import _exact_div, _poly_gcd

P = 2**30 - 35  # the first prime the gcd works modulo


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


@pytest.fixture
def images(monkeypatch):
    """The primes of the gcd images taken, in order."""
    primes = []
    image = constants._gcd_mod

    def counted(u, v, p):
        primes.append(p)
        return image(u, v, p)

    monkeypatch.setattr(constants, "_gcd_mod", counted)
    return primes


@pytest.mark.parametrize("seed", range(6))
def test_random_common_factors(seed):
    rng = random.Random(1000 + seed)
    for _ in range(25):
        g = random_poly(rng, rng.randint(0, 5), 20)
        a = random_poly(rng, rng.randint(1, 6), 20, terms=rng.randint(1, 4))
        b = random_poly(rng, rng.randint(1, 6), 20, terms=rng.randint(1, 4))
        u, v = mul(g, a), mul(g, b)
        if len(u) > 1 and len(v) > 1:
            assert _poly_gcd(u, v) == reference_gcd(u, v)
            assert _poly_gcd(shifted(u, -7), shifted(v, 3)) == reference_gcd(u, v)


def test_coefficients_near_1e40_need_several_primes(images):
    rng = random.Random(2024)
    for _ in range(5):
        g = random_poly(rng, 4, 10**40)
        u = mul(g, random_poly(rng, 3, 10**40))
        v = mul(g, random_poly(rng, 2, 10**40))
        expected = reference_gcd(u, v)
        assert max(map(abs, expected.values())) > P**2
        images.clear()
        assert _poly_gcd(u, v) == expected
        assert len(set(images)) > 2


@pytest.mark.parametrize("step", [2, 3, 7])
def test_grid_steps_above_one(step):
    rng = random.Random(step)
    for _ in range(10):
        g = random_poly(rng, 3, 50, step=step)
        u = mul(g, random_poly(rng, 4, 50, step=step))
        v = mul(g, random_poly(rng, 2, 50, step=step))
        expected = reference_gcd(u, v)
        assert expected is None or all(k % step == 0 for k in expected)
        assert _poly_gcd(shifted(u, 5 * step), shifted(v, -step)) == expected


def test_unlucky_first_prime_is_skipped(images):
    # modulo P both are t*(t+1): the first image has too high a degree
    u = mul({1: 1, 0: 1}, {1: 1, 0: P})
    v = mul({1: 1, 0: 1}, {1: 1, 0: 2 * P})
    assert _poly_gcd(u, v) == {1: 1, 0: 1}
    assert images[0] == P and len(images) > 1


def test_prime_dividing_a_leading_coefficient_is_skipped(images):
    g = {1: P, 0: 1}
    u, v = mul(g, {1: 1, 0: 2}), mul(g, {2: 1, 0: -3})
    assert _poly_gcd(u, v) == g == reference_gcd(u, v)
    assert P not in images


def test_equal_primitive_parts_take_no_image(images):
    g = {4: 3, 1: -2, 0: 5}
    assert _poly_gcd({k: 2 * c for k, c in g.items()}, {k + 3: -6 * c for k, c in g.items()}) == g
    assert images == []


def test_coprime_pair_takes_one_image(images):
    assert _poly_gcd({3: 1, 0: 1}, {2: 1, 0: 2}) is None
    assert images == [P]


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
