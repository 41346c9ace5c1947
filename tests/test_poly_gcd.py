"""The polynomial gcd of the scalar field against Euclid's algorithm over Q.

``constants._poly_gcd`` evaluates its operands at a power of two and reads
the gcd back from the digits of one integer gcd; the reference below knows
nothing of evaluation: it runs Euclid on ``Fraction`` coefficients and makes
the last nonzero remainder primitive with a positive leading coefficient.
Products of dense polynomials, packed into one integer product, are checked
against the schoolbook product ``mul``.  Polynomials are ``{exponent: int}``
dicts in ``t = e^(1/N)``, Laurent like the field's own.
"""

import random
import time
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from test_certificate_mutations import install

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
    result = constants._poly_gcd(u, v)
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


# -- small pairs and packed products, with the faults they must catch -------------


def small_pairs():
    """2000 Laurent pairs of 2-8 terms with coefficients up to 2^20, a third
    of them with a planted common linear factor and a third with a quadratic
    one, of either sign.  A factor ``t - c`` with ``0 < c < 2^(k-1)`` has the
    value ``2^k - c`` at ``t = 2^k``, above ``2^(k-1)`` and below ``2^k``."""
    rng = random.Random(2000)
    for i in range(2000):
        if i % 3 == 0:
            u = random_poly(rng, rng.randint(1, 7), 2**20, terms=rng.randint(1, 7))
            v = random_poly(rng, rng.randint(1, 7), 2**20, terms=rng.randint(1, 7))
        else:  # t - c or a t + c, or a quadratic
            g = ({1: rng.choice((1, -1, rng.randint(-2**4, 2**4) or 1)),
                  0: rng.randint(-2**10, 2**10) or 1} if i % 3 == 1
                 else random_poly(rng, 2, rng.choice((3, 2**4, 2**10))))
            u = mul(g, random_poly(rng, rng.randint(0, 4), 2**16, terms=rng.randint(0, 3)))
            v = mul(g, random_poly(rng, rng.randint(0, 4), 2**16, terms=rng.randint(0, 3)))
        yield shifted(u, rng.randint(-5, 5)), shifted(v, rng.randint(-5, 5))


def gcd_mismatches() -> list:
    """The small pairs whose ``_poly_gcd`` differs from Euclid's."""
    out = []
    for u, v in small_pairs():
        if len(u) > 1 and len(v) > 1:
            try:
                if checked_gcd(u, v) != reference_gcd(u, v):
                    out.append((u, v))
            except (ArithmeticError, AssertionError):
                out.append((u, v))
    return out


def test_small_pairs_give_the_reference_gcd():
    assert gcd_mismatches() == []


def test_the_gcd_check_fails_when_the_early_return_is_widened(monkeypatch):
    # h < 2^k also takes the digits 1 and h - 2^k, a linear gcd, for a constant
    install(monkeypatch, constants, "_poly_gcd", "if h <= 1 << (k - 1):", "if h < 1 << k:")
    assert gcd_mismatches()


def dense(rng, size, bits, sign=None):
    """A polynomial with ``size`` consecutive exponents and coefficients of
    up to ``bits`` bits, all of one sign when ``sign`` is given."""
    return {e: rng.randint(1, 2**bits) * (sign or rng.choice((1, -1))) for e in range(size)}


def product_cases():
    """Operand pairs on both sides of the 24-term packing boundary: dense,
    with coefficients of 1 to 100 bits, signed or of one sign, shifted to
    Laurent exponents; coefficients all at their bound; sparse of high
    degree; and products that cancel to zero coefficients inside."""
    rng = random.Random(24)
    cases = []
    for n in (2, 23, 24, 25, 40):
        for m in (23, 24, 31):
            for bits in (1, 8, 33, 100):
                for sign in (None, 1, -1):
                    a, b = dense(rng, n, bits, sign), dense(rng, m, bits, sign and -sign)
                    cases.append((a, b))
                    cases.append((shifted(a, -rng.randint(1, 50)), shifted(b, rng.randint(-9, 9))))
    for n in (24, 30):
        top = 2**rng.randint(1, 70)
        cases.append(({e: top for e in range(n)}, {e: top for e in range(n)}))
        cases.append(({e: -top for e in range(n)}, {e: top for e in range(n + 3)}))
    for n in (24, 40):
        cases.append((random_poly(rng, 10**4, 50, terms=n), random_poly(rng, 10**4, 50, terms=n)))
        cases.append((random_poly(rng, 4 * n, 50, terms=n), dense(rng, n, 20)))
    ones, c = {e: 1 for e in range(30)}, dense(rng, 30, 12)
    cases.append((ones, mul({1: -1, 0: 1}, c)))  # (1 - t^30) * c
    cases.append((dense(rng, 26, 8), {}))  # a zero operand
    return cases


@pytest.fixture
def packed(monkeypatch):
    """The number of ``_pmul`` calls that read their product as digits."""
    calls = []
    digits = constants._digits

    def counted(h, k):
        calls.append(k)
        return digits(h, k)

    monkeypatch.setattr(constants, "_digits", counted)
    return calls


def product_mismatches() -> list:
    """The product cases, both ways round, whose ``_pmul`` differs from the
    schoolbook ``mul``."""
    out = []
    for a, b in product_cases():
        for x, y in ((a, b), (b, a)):
            try:
                if constants._pmul(x, y) != mul(x, y):
                    out.append((x, y))
            except (ValueError, ArithmeticError):
                out.append((x, y))
    return out


def test_packed_products_equal_schoolbook_products(packed):
    assert product_mismatches() == []
    assert len(packed) > 300  # the dense pairs were packed


def test_sparse_and_short_operands_are_not_packed(packed):
    rng = random.Random(23)
    for a, b in ((dense(rng, 23, 8), dense(rng, 40, 8)),
                 (random_poly(rng, 10**4, 50, terms=30), random_poly(rng, 10**4, 50, terms=30))):
        assert constants._pmul(a, b) == mul(a, b)
    assert packed == []


@pytest.mark.parametrize("name, snippet, replacement", [
    ("_pmul", "bit_length() + 1) // 8) * 8", "bit_length() + 1) // 8) * 8 - 8"),
    ("_digits", "carry = d > half", "carry = False"),
], ids=["k one byte short", "digits without their carry"])
def test_the_product_check_fails_on_a_broken_packing(monkeypatch, name, snippet, replacement):
    install(monkeypatch, constants, name, snippet, replacement)
    assert product_mismatches()
