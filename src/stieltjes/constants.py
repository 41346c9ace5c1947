"""Exact scalar field built from the group algebra of (Q, +).

A scalar is a quotient of two finite sums ``sum_q c_q * e^q`` with rational
exponents ``q`` and rational coefficients ``c_q``.  The symbols ``e^q`` are
treated as formally linearly independent over Q, which gives a decidable zero
test that is sound for the real number e: all exponents of a value are
multiples of ``1/N`` for some grid ``N``, so numerator and denominator are
Laurent polynomials in ``t = e^{1/N}``, and ``t`` is transcendental (else
``e = t^N`` would be algebraic), so such a polynomial vanishes at ``t`` only
when all its coefficients are zero.  Fractions are kept fully reduced, so
structural equality coincides with field equality.

Storage.  A value is converted once, when it is built, to its grid ``N`` and
two integer-coefficient Laurent polynomials in ``t``, held as tuples of
``(exponent, coefficient)`` integer pairs, largest exponent first.  All
arithmetic stays in Z[t, 1/t]: gcds are heuristic gcds, read from the
digits of one integer gcd of the values of their two operands at a power of
two, on the smallest grid of the operands (one evaluation and one comparison
prove most pairs coprime), and the gcd comes with both quotients, read
from the digits of the two values over the gcd's value: under a bound on
their coefficients these digits prove the quotients, with no polynomial
division.  Every operation cancels its polynomial gcds first and then hands
the terms to one routine, ``_canonical``, which divides out the joint
integer content and the grid step (the gcd of ``N`` and every exponent);
only a rational sum or product skips it.
``Fraction`` appears only at the boundary: the constructors and the
``num``/``den``/``as_rational``/``as_monomial`` views.  ``Constant(num,
den)`` is built by the field itself: the ``Constant.sum`` of the
``e_power`` terms of ``num`` times the inverse of that of ``den``.  Every
number a caller hands the package is read by ``parse_rational`` (rationals)
or ``_nonnegative_int`` (orders), defined here and re-exported by ``parsing``.

Sums.  Every sum, ``+`` and ``-`` included, is one ``_sum`` of unit
multiples ``c * p/q * e^(k/m)`` (the unit 1 for ``Constant.sum``; ``c = 1``
for a unit in the slot).  Rationals, once ``k/m`` joins c's exponent, take
one lcm and one gcd.  On the common grid each stored denominator is an
integer content ``h`` times a primitive polynomial ``D``.  If every ``D`` is
1 the sum is one group over ``lcm(q*h)``, finished by ``_canonical``.  Else
each ``D`` is normalised once per call and the summands are grouped by it:
all rationals and all ``c*e^q`` share ``D = 1``, and the entries of one
matrix row share the determinant.  ``_numerator`` scales and shifts a
group's numerators over ``lcm(q*h)*D`` where it adds them, and the groups
are folded over the running lcm ``L`` of their denominators: one gcd
``g = gcd(L, D)`` per further group, whose cofactors scale the numerators.
The total is reduced once, by ``gcd(num, L)``, skipped when it vanishes, or
when no ``g`` is a polynomial and each group is one summand or ``D = 1``: a
sum of reduced fractions over coprime denominators is reduced (Henrici;
Knuth, TAOCP vol. 2, 4.5.1).

Products.  Every product is one routine, ``_times_units``: ``c * d * u``
for two scalars and a unit ``u = p/q * t^k``, as a summand of ``_sum``;
``*`` is the case ``u = 1``, finished by ``_part_value``, and a unit
already in the slot, under ``d = 1``, needs no call.  A unit, one numerator
term over one denominator term, has no divisors but units, so no
polynomial gcd can cancel against it: u is merged with whichever of c and
d is itself a unit, and the summand is the other factor, a reduced
``N/D``, times the merged unit: ``p*t^k*N / (q*D)``, reduced up to an
integer and a power of ``t``.  A lone summand is reduced by
``_part_value``: the unit itself under ``c = 1``, c for ``u = 1``, one gcd
for a rational times a rational, else its terms scaled and shifted in their
order, with no dict and no sort, before ``_canonical`` (``e^(1/2) *
e^(1/2)`` is on grid 1).  Only two non-units cancel crosswise, by
``gcd(N1, D2)`` and ``gcd(N2, D1)``, so their product needs no further
gcd.  Two dense polynomials, of 24 terms or more each and degree under 4
times the product of their lengths, multiply as one integer product of
their values at ``t = 2^k``, read back by its digits (Kronecker
substitution; Harvey, JSC 2009).

Rendering reads the stored integers: each exponent ``k/N`` and each
coefficient over the leading denominator coefficient is put in lowest terms
by one integer gcd.  One output document (``_document``, entered once per
``cli.main`` call) renders each stored polynomial of two or more terms once
per format, keyed by its terms, grid and leading denominator coefficient:
most coefficients of G, its equitable form and the kernel share a few
denominators, and the two operators share most left factors.  Outside a
document nothing is kept.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from math import gcd, lcm

from .errors import ParseError

Poly = dict  # integer Laurent polynomial in t: int exponent -> nonzero int coefficient
Terms = tuple  # stored form of a Poly: ((exponent, coefficient), ...), largest exponent first

# Python prints no int of over 4300 digits (int_max_str_digits), but
# Fraction("1e9999") builds one; so a rational literal is capped there.
MAX_LITERAL_DIGITS = 4300
_LITERAL_BOUND = 10 ** MAX_LITERAL_DIGITS
# A rational literal: a sign, then p/q (spaces allowed around the '/') or a
# decimal with an exponent.  No underscores, as in expressions: Fraction's
# own grammar took them from Python 3.11 and the spaces from 3.12.
_RATIONAL = re.compile(r"[-+]?(?:\d+\s*/\s*\d+|(?=\.?\d)\d*(?:\.\d*)?(?:[eE]([-+]?\d+))?)")


def parse_rational(text) -> int | Fraction:
    """The value of a rational literal (see ``_RATIONAL``), between spaces;
    an ``int`` (not a ``bool``) or a ``Fraction`` is taken as it is."""
    if type(text) is int or type(text) is Fraction:
        return text
    if type(text) is float:  # its binary value is rarely the number meant
        raise ParseError(f"bad rational literal {text!r}: write it as a string")
    text = str(text).strip()
    quoted = repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"
    m = _RATIONAL.fullmatch(text)
    try:
        # a run of over 4300 digits is refused here, not by a setting of int()
        if m is None or max(map(len, re.findall(r"\d+", text))) > MAX_LITERAL_DIGITS:
            raise ValueError(text)
        # Fraction builds 10^e first; past twice the cap the literal is too long anyway
        if abs(int(m[1] or 0)) <= 2 * MAX_LITERAL_DIGITS:
            # with no spaces, every Python since 3.10 reads the literal alike
            q = Fraction("".join(text.split()))
            if max(abs(q.numerator), q.denominator) < _LITERAL_BOUND:
                return q
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {quoted}") from exc
    raise ParseError(f"rational literal {quoted} has over {MAX_LITERAL_DIGITS} digits")


def _nonnegative_int(value, what: str) -> int:
    # bool is an int subclass, int() truncates 1.5, and -1 would silently
    # act as order 0
    if type(value) is not int or value < 0:
        raise ParseError(f"{what} must be a nonnegative integer, got {value!r}")
    return value


def _instance(value, cls: type, what: str):
    """``value`` when a ``cls``, else a ``TypeError`` naming ``what``: the check
    of a function handed to a constructor."""
    if not isinstance(value, cls):
        raise TypeError(f"{what} must be of type {cls.__name__}, got {value!r}")
    return value


def _padd(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def _pmul(a: Poly, b: Poly) -> Poly:
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        (ka, ca), = a.items()
        return {ka + kb: ca * cb for kb, cb in b.items()}
    if len(a) >= 24 and max(a) - min(a) + max(b) - min(b) < 4 * len(a) * len(b):
        # dense: one product of the values at t = 2^k, 2^(k-1) above every
        # coefficient of a*b, read back by its signed digits (Kronecker)
        bound = max(map(abs, a.values())) * max(map(abs, b.values())) * len(a)
        k = -(-(bound.bit_length() + 1) // 8) * 8
        x = _at(_anchored(a), k) * _at(_anchored(b), k)
        f, s = -1 if x < 0 else 1, min(a) + min(b)
        return {e + s: c * f for e, c in _digits(x * f, k).items()}
    out: Poly = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _anchored(p: Poly, step: int = 1) -> Poly:
    """``p / t^min(p)`` as a polynomial in ``t^step``."""
    s = min(p)
    if s == 0 and step == 1:
        return p
    return {(k - s) // step: c for k, c in p.items()}


def _primitive(p: Poly) -> tuple[int, Poly]:
    """The content of p, signed like its leading coefficient, and p over it."""
    g = gcd(*p.values())
    if p[max(p)] < 0:
        g = -g
    return g, p if g == 1 else {k: c // g for k, c in p.items()}


def _at(p: Poly, k: int) -> int:
    """The value at ``t = 2^k`` of a polynomial with lowest exponent 0.

    The terms are split in halves by exponent, each half is evaluated on its
    own and the upper one is shifted over the lower, so the cost stays near
    linear in the bit length of the value (Horner's rule is quadratic).  Up
    to 8 terms are one sum, unsorted."""
    if len(p) <= 8:
        return sum([c << k * e for e, c in p.items()])
    terms = sorted(p.items())

    def value(i: int, j: int) -> int:  # terms[i:j] over t^(their lowest exponent)
        if j - i <= 8:
            low = terms[i][0]
            return sum([c << k * (e - low) for e, c in terms[i:j]])
        m = (i + j) // 2
        return value(i, m) + (value(m, j) << k * (terms[m][0] - terms[i][0]))

    return value(0, len(terms))


# the next byte that ends a run of digits 0: not 00 without a carry, not ff
# with one (2^k - 1 plus the carry is the digit 0 with a carry)
_NOT_ZERO_DIGIT = re.compile(rb"[^\x00]"), re.compile(rb"[^\xff]")


def _digits(h: int, k: int) -> Poly:
    """The polynomial with coefficients in ``(-2^(k-1), 2^(k-1)]`` whose value
    at ``t = 2^k`` is ``h > 0``, for k a multiple of 8: its base-``2^k``
    digits, read from the bytes of h, with one more digit for a carry.  After
    a digit 0 the next digits stay 0 up to the next byte that is not ``00``
    (``ff`` after a carry), found by one search, so the loop runs about once
    per nonzero digit."""
    w, half = k // 8, 1 << (k - 1)
    data = h.to_bytes((h.bit_length() // k + 1) * w, "little")
    out, carry, i, end = {}, 0, 0, len(data)
    while i < end:
        d = int.from_bytes(data[i:i + w], "little") + carry
        carry = d > half
        if carry:
            d -= 1 << k
        if d:
            out[i // w] = d
            i += w
            continue
        m = _NOT_ZERO_DIGIT[carry].search(data, i + w)
        if m is None:
            break
        i = m.start() - m.start() % w
    return out


def _poly_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly] | None:
    """The primitive gcd g of a and b in Z[t, 1/t], anchored at exponent 0
    with a positive leading coefficient, and the cofactors a/g and b/g; or
    None when g is a unit (a monomial).

    The heuristic gcd GCDHEU (Char, Geddes and Gonnet, JSC 1989) on the
    smallest grid of the two primitive operands u and v (the exponents are
    shifted to start at 0 and divided by their gcd first): ``h`` is the
    integer gcd of ``x = u(2^k)`` and ``y = v(2^k)``, and the candidate g is
    the primitive part of the polynomial of the symmetric base-``2^k`` digits
    of ``h``; the cofactors are the digits of ``x / g(2^k)`` and ``y /
    g(2^k)``.  With ``2^k >= 2 * min(|u|, |v|) + 2`` in the max norm, a
    candidate of degree 0 proves u and v coprime, and one that divides both
    is their gcd (Liao and Fateman, ISSAC 1995).  It divides both when
    ``|u|, |v| < 2^(k-1)`` and ``|g| * |q| * min(len g, len q) < 2^(k-1)``
    for each cofactor q: then ``g*q`` and its operand are both the symmetric
    digits of one integer, so they are equal.  Otherwise k is doubled.
    """
    if len(a) == 1 or len(b) == 1:
        return None
    sa, sb = min(a), min(b)
    step = gcd(*(k - sa for k in a), *(k - sb for k in b))
    (ca, u), (cb, v) = _primitive(_anchored(a, step)), _primitive(_anchored(b, step))
    if u == v:
        g, qu, qv = u, {0: 1}, {0: 1}
    else:
        nu, nv = max(map(abs, u.values())), max(map(abs, v.values()))
        k = -(-(2 * min(nu, nv) + 1).bit_length() // 8) * 8
        while True:
            # G(2^k) divides h, and h / G(2^k) = gcd((u/G)(2^k), (v/G)(2^k))
            # divides the resultant of u/G and v/G, a nonzero integer that
            # does not depend on k: once 2^(k-1) exceeds it times |G|, the
            # digits of h are that factor times G, so the candidate is G;
            # digits of h <= 2^(k-1) are a constant, which proves coprimality
            x, y = _at(u, k), _at(v, k)
            h = gcd(x, y)
            if h <= 1 << (k - 1):
                return None
            half = 1 << (k - 1)
            if nu < half and nv < half:
                c, g = _primitive(_digits(h, k))
                ng, gk = max(map(abs, g.values())), h // c  # gk = g(2^k)
                qu, qv = _digits(x // gk, k), _digits(y // gk, k)
                if all(ng * max(map(abs, q.values())) * min(len(g), len(q)) < half
                       for q in (qu, qv)):
                    break
            k *= 2
    return ({e * step: c for e, c in g.items()},
            {e * step + sa: c * ca for e, c in qu.items()},
            {e * step + sb: c * cb for e, c in qv.items()})


def _make(n: int, num: Poly, den: Poly) -> "Constant":
    """The Constant ``num/den`` on grid ``n``; the fraction must already be
    reduced up to units (monomials and integers)."""
    if not num:
        return _ZERO
    num, den = sorted(num.items(), reverse=True), sorted(den.items(), reverse=True)
    s, sign = den[-1][0], -1 if den[0][1] < 0 else 1
    if s or sign < 0:
        num = [(k - s, c * sign) for k, c in num]
        den = [(k - s, c * sign) for k, c in den]
    return _canonical(n, tuple(num), tuple(den))


def _stored(n: int, num: Terms, den: Terms) -> "Constant":
    c = Constant.__new__(Constant)
    c._n, c._num, c._den = n, num, den
    return c


def _canonical(n: int, num: Terms, den: Terms) -> "Constant":
    """The Constant of terms on grid ``n``, reduced up to integers and a grid
    step, with an anchored positive denominator: only the joint integer
    content and the grid step are left to divide out."""
    g = gcd(*[a for _e, a in num], *[a for _e, a in den])
    step = gcd(n, *[e for e, _a in num], *[e for e, _a in den]) if n > 1 else 1
    if g == 1 and step == 1:
        return _stored(n, num, den)
    return _stored(n // step, tuple([(e // step, a // g) for e, a in num]),
                   tuple([(e // step, a // g) for e, a in den]))


# A summand of ``_sum``: the unit multiple ``(c, p, q, k, m)``, meaning
# ``c * p/q * e^(k/m)`` for a canonical nonzero c and a unit in lowest terms
# with ``q, m > 0`` (m minimal under ``c = _ONE``), which is reduced up to an
# integer and a power of ``t``.
Part = tuple


def _times_units(c: "Constant", d: "Constant", p: int, q: int, k: int, m: int) -> Part:
    """The summand ``c * d * p/q * e^(k/m)`` of ``_sum``, for nonzero c and
    d and a unit in lowest terms with ``q > 0``.  The unit is merged with c
    or d, whichever is itself a unit; only two non-units are multiplied, by
    ``_cross_product``."""
    if len(c._num) == len(c._den) == 1:
        c, d = d, c
    elif len(d._num) != 1 or len(d._den) != 1:
        return (_cross_product(c, d), p, q, k, m)
    # d = a/b * e^(j/n) times p/q * e^(k/m), in lowest terms on the grid lcm(n, m)
    (j, a), = d._num
    if p == q == 1 and not k:
        return (c, a, d._den[0][1], j, d._n)
    n, grid = d._n, lcm(d._n, m)
    a, q, k = a * p, d._den[0][1] * q, j * (grid // n) + k * (grid // m)
    g, h = gcd(a, q), gcd(k, grid)
    return (c, a // g, q // g, k // h, grid // h)


def _cross_product(c: "Constant", d: "Constant") -> "Constant":
    """``c * d`` for two non-units: both are reduced, so cancelling
    ``gcd(N1, D2)`` and ``gcd(N2, D1)`` leaves a product that needs no gcd."""
    n = lcm(c._n, d._n)
    n1, d1 = c._polys(n)
    n2, d2 = d._polys(n)
    r = _poly_gcd(n1, d2)
    if r is not None:
        _, n1, d2 = r
    r = _poly_gcd(n2, d1)
    if r is not None:
        _, n2, d1 = r
    return _make(n, _pmul(n1, n2), _pmul(d1, d2))


def _part_value(part: Part) -> "Constant":
    """The canonical value of a summand: c itself for the unit 1, the unit
    under ``c = 1``, a rational times a rational by one gcd, else c's terms
    scaled and shifted in their order, finished by ``_canonical``."""
    c, p, q, k, m = part
    if p == q == 1 and not k:
        return c
    if c is _ONE:
        return _stored(m, ((k, p),), ((0, q),))
    num, den = c._num, c._den
    if not k and len(num) == len(den) == 1 and not num[0][0]:
        a, b = num[0][1] * p, den[0][1] * q
        g = gcd(a, b)
        return _stored(1, ((0, a // g),), ((0, b // g),))
    n = lcm(c._n, m)
    f, k = n // c._n, k * (n // m)
    return _canonical(n, tuple([(e * f + k, a * p) for e, a in num]),
                      tuple([(e * f, a * q) for e, a in den]))


def _numerator(members: list, n: int) -> tuple[Poly, int]:
    """m = lcm(h*q) and, on the grid n, the numerator over ``m*D`` of summands
    over one ``D`` with contents ``h*q``: c's terms times ``m/(h*q)*p``, shifted."""
    num: Poly = {}
    m = lcm(*[cont for cont, _part in members])
    for cont, (c, p, _q, k, grid) in members:
        s, f, k = m // cont * p, n // c._n, k * (n // grid)
        for e, a in c._num:
            e, a = e * f + k, a * s
            if e in num:
                x = num[e] + a
                if x:
                    num[e] = x
                else:
                    del num[e]
            else:
                num[e] = a
    return num, m


def _sum(parts: list[Part]) -> "Constant":
    """The sum of nonzero summands, reduced once (see ``Constant.sum``)."""
    if len(parts) < 2:
        return _part_value(parts[0]) if parts else _ZERO
    # gcd, lcm and tuple are fed lists, not generators: a tuple built from
    # a generator is allocated at a default length and shrunk, so it is
    # freed onto another length's free list, and over a solve those lists
    # fill up (1.4 MB of peak RSS on the benchmark's documents pass)
    rats = []
    for c, p, q, k, m in parts:
        num, den = c._num, c._den
        if len(num) != 1 or len(den) != 1 or num[0][0] * m + k * c._n:
            break
        rats.append((num[0][1] * p, den[0][1] * q))
    else:
        # rationals a/b: one lcm and one gcd
        m = lcm(*[b for _a, b in rats])
        s = sum([a * (m // b) for a, b in rats])
        if not s:
            return _ZERO
        g = gcd(s, m)
        return _stored(1, ((0, s // g),), ((0, m // g),))
    n = lcm(*[c._n for c, _p, _q, _k, _m in parts], *[m for _c, _p, _q, _k, m in parts])
    if max([len(part[0]._den) for part in parts]) == 1:  # integers: one group
        num, m = _numerator([(part[0]._den[0][1] * part[2], part) for part in parts], n)
        return _canonical(n, tuple(sorted(num.items(), reverse=True)), ((0, m),)) if num else _ZERO
    # each stored denominator on the grid n, as its content and primitive
    # part, once per grid and terms
    dens: dict[tuple, tuple] = {}
    groups: dict[Terms, list] = {}
    for part in parts:
        c, den = part[0], part[0]._den
        if len(den) == 1:
            cont, key = den[0][1], _UNIT
        else:
            d = dens.get((c._n, den))
            if d is None:
                cont, f = gcd(*[a for _e, a in den]), n // c._n
                d = dens[c._n, den] = cont, tuple([(e * f, a // cont) for e, a in den])
            cont, key = d
        groups.setdefault(key, []).append((cont * part[2], part))
    total: Poly = {}
    reduced = True  # each group is reduced and no two denominators overlap
    for key, members in groups.items():
        num, m = _numerator(members, n)
        if not num:
            continue
        d = dict(key)
        reduced = reduced and (len(members) == 1 or len(d) == 1)
        if not total:
            total, den, scale = num, d, m
            continue
        # num/(m*D) joins total/(scale*L) over lcm(scale, m) * lcm(L, D): the
        # cofactors L/g and D/g of g = gcd(L, D) scale the two numerators
        r = _poly_gcd(den, d)
        if r is None:
            a, b = den, d
        else:
            reduced, (_, a, b) = False, r
        lm = lcm(scale, m)
        total = _padd(_pmul(total, {e: c * (lm // scale) for e, c in b.items()}),
                      _pmul(num, {e: c * (lm // m) for e, c in a.items()}))
        den, scale = _pmul(den, b), lm
    if not total:
        return _ZERO
    if not reduced:
        r = _poly_gcd(total, den)
        if r is not None:
            _, total, den = r
    return _make(n, total, {e: a * scale for e, a in den.items()})


class Constant:
    """An element of the scalar field, stored in canonical form.

    With ``t = e^{1/N}``, the value is ``_num(t) / _den(t)`` for integer
    Laurent polynomials held as tuples of ``(exponent, coefficient)`` integer
    pairs, largest exponent first.  The stored form is canonical: the
    fraction is reduced, the denominator's lowest exponent is 0 and its
    leading coefficient is positive, the integer content of numerator and
    denominator together is 1, and the grid ``N`` is minimal.  So a rational
    ``p/q`` is stored as ``p`` over ``q``.

    The ``num`` and ``den`` views differ from the stored form: they are
    ``Fraction -> Fraction`` dicts (exponent ``k/N`` to coefficient) scaled
    so that the denominator is monic.
    """

    __slots__ = ("_n", "_num", "_den")

    def __init__(self, num: dict, den: dict | None = None):
        """``num / den``, maps of exponents to coefficients read by ``parse_rational``."""
        num, den = (Constant.sum([Constant.e_power(q, c) for q, c in terms.items()])
                    for terms in (num, {0: 1} if den is None else den))
        c = num * den.inverse()
        self._n, self._num, self._den = c._n, c._num, c._den

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Constant":
        return _ZERO

    @classmethod
    def one(cls) -> "Constant":
        return _ONE

    @classmethod
    def from_rational(cls, q) -> "Constant":
        """The rational ``q``, read by ``parse_rational``."""
        c = _SMALL.get(q := parse_rational(q))
        if c is None:
            c = _stored(1, ((0, q.numerator),), ((0, q.denominator),))
        return c

    @classmethod
    def e_power(cls, q, coeff=1) -> "Constant":
        """The scalar ``coeff * e^q``, q and coeff read by ``parse_rational``."""
        q, coeff = parse_rational(q), parse_rational(coeff)
        if not coeff:
            return _ZERO
        return _stored(q.denominator, ((q.numerator, coeff.numerator),),
                       ((0, coeff.denominator),))

    # -- views ------------------------------------------------------------

    def _view(self, terms: Terms) -> dict:
        n, lead = self._n, self._den[0][1]
        return {Fraction(k, n): Fraction(c, lead) for k, c in terms}

    @property
    def num(self) -> dict:
        """Numerator as ``Fraction -> Fraction``, over the monic ``den``."""
        return self._view(self._num)

    @property
    def den(self) -> dict:
        """Denominator as ``Fraction -> Fraction``, leading coefficient 1."""
        return self._view(self._den)

    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        return self == _ONE

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction, or None if it involves e-symbols."""
        if not self._num:
            return Fraction(0)
        if len(self._den) == 1 and len(self._num) == 1 and self._num[0][0] == 0:
            return Fraction(self._num[0][1], self._den[0][1])
        return None

    def as_monomial(self) -> tuple[Fraction, Fraction] | None:
        """Return (exponent, coefficient) if the value is ``c * e^q``."""
        if len(self._num) == 1 and len(self._den) == 1:
            (k, c), = self._num
            return Fraction(k, self._n), Fraction(c, self._den[0][1])
        return None

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Constant):
            return other
        if type(other) is int or type(other) is Fraction:  # a bool is not a scalar
            return Constant.from_rational(other)
        return None

    def _polys(self, n: int) -> tuple[Poly, Poly]:
        """Numerator and denominator on the grid ``n``, a multiple of ``_n``."""
        f = n // self._n
        if f == 1:
            return dict(self._num), dict(self._den)
        return {k * f: c for k, c in self._num}, {k * f: c for k, c in self._den}

    @classmethod
    def sum(cls, items) -> "Constant":
        """The sum of scalars, reduced once.

        On the common grid each denominator is an integer content ``k`` times
        a primitive polynomial ``D``.  Summands sharing ``D`` are put over
        ``lcm(k) * D``, the groups are added over the lcm of their
        denominators by one gcd per further group, and the total is reduced
        by at most one gcd (see the module docstring)."""
        parts = []
        for item in items:
            c = item if type(item) is Constant else cls._coerce(item)
            if c is None:
                raise TypeError(f"cannot add {type(item).__name__} to a Constant")
            if c._num:
                parts.append((c, 1, 1, 0, 1))
        return _sum(parts)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Constant.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return _stored(self._n, tuple([(k, -c) for k, c in self._num]), self._den)  # see sum

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Constant.sum((self, -other))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Constant.sum((other, -self))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._num or not other._num:
            return _ZERO
        return _part_value(_times_units(self, other, 1, 1, 0, 1))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("zero divisor")
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self) -> "Constant":
        if self.is_zero():
            raise ZeroDivisionError("zero divisor")
        return _make(self._n, dict(self._den), dict(self._num))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self._num == other._num and self._den == other._den
                and self._n == other._n)

    def __hash__(self):
        num, den = self._num, self._den  # a rational hashes as the int or Fraction it equals
        if len(num) == len(den) == 1 and not num[0][0]:
            return hash(num[0][1]) if den[0][1] == 1 else hash(Fraction(num[0][1], den[0][1]))
        return hash((self._n, num, den)) if num else 0

    # -- rendering --------------------------------------------------------

    def to_text(self) -> str:
        n, lead = self._n, self._den[0][1]
        num = _ga_markup(self._num, n, lead, _TEXT)
        return num if len(self._den) == 1 else f"({num})/({_ga_markup(self._den, n, lead, _TEXT)})"

    def to_latex(self) -> str:
        n, lead = self._n, self._den[0][1]
        num = _ga_markup(self._num, n, lead, _LATEX)
        if len(self._den) == 1:
            return num
        return rf"\frac{{{num}}}{{{_ga_markup(self._den, n, lead, _LATEX)}}}"

    def __repr__(self):
        return f"Constant({self.to_text()})"

    def __str__(self):
        return self.to_text()

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "num": {str(q): str(c) for q, c in self.num.items()},
            "den": {str(q): str(c) for q, c in self.den.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "Constant":
        from .parsing import _fields, _rational_terms  # parsing imports this module
        doc = "constant document"
        _fields(data, doc, ("num", "den"))
        try:
            return cls(_rational_terms(data, doc, "num"), _rational_terms(data, doc, "den"))
        except ZeroDivisionError as exc:
            raise ParseError(f"{doc} field 'den' is zero") from exc


def _scalar(c) -> Constant:
    """``c`` when a ``Constant``, else the rational ``c`` read by ``parse_rational``."""
    return c if isinstance(c, Constant) else Constant.from_rational(c)


def _ga_markup(terms: Terms, n: int, lead: int, fmt: dict) -> str:
    """The sum of ``c/lead * e^(k/n)`` over the stored ``(k, c)`` terms: by
    ``_poly_markup``, but inside a ``_document`` a polynomial of two or more
    terms only once per grid, leading denominator coefficient and format."""
    if len(terms) < 2 or (memo := _MARKUP.get()) is None:
        return _poly_markup(terms, n, lead, fmt)
    key = (fmt["name"], n, lead, terms)
    text = memo.get(key)
    if text is None:
        text = memo[key] = _poly_markup(terms, n, lead, fmt)
    return text


def _poly_markup(terms: Terms, n: int, lead: int, fmt: dict) -> str:
    """The sum of ``c/lead * e^(k/n)`` over the stored ``(k, c)`` terms, each
    ratio put in lowest terms by one integer gcd (``lead > 0``)."""
    ratio, exp, scaled = fmt["ratio"], fmt["exp"], fmt["scaled"]
    pieces = []
    for k, c in terms:
        g = gcd(c, lead)
        c, d = c // g, lead // g
        if not k:
            pieces.append(ratio(c, d))
            continue
        h = gcd(k, n)
        power = exp.format(ratio(k // h, n // h))
        if d == 1 and (c == 1 or c == -1):
            pieces.append(power if c == 1 else "-" + power)
        else:
            pieces.append(scaled.format(ratio(c, d), power))
    return _join_signed(pieces, *fmt["join"])


def _ratio_text(a: int, b: int) -> str:
    """The text of ``a/b`` in lowest terms with ``b > 0``, as ``str`` of a
    Fraction prints it."""
    return str(a) if b == 1 else f"{a}/{b}"


def _ratio_latex(a: int, b: int) -> str:
    """The LaTeX of ``a/b`` in lowest terms with ``b > 0``."""
    if b == 1:
        return str(a)
    return rf"{'-' if a < 0 else ''}\tfrac{{{abs(a)}}}{{{b}}}"


def _join_signed(pieces, plus: str, minus: str, empty: str = "0") -> str:
    """Join rendered terms: ``plus`` goes before a later term, and ``minus``
    replaces the leading ``-`` of a negative one."""
    pieces = list(pieces)
    if not pieces:
        return empty
    return pieces[0] + "".join(minus + p[1:] if p.startswith("-") else plus + p
                               for p in pieces[1:])


# Per-format markup of the sums of ``c*e^q`` that make up a Constant.
_TEXT = {"name": "text", "ratio": _ratio_text, "exp": "exp({})", "scaled": "{}*{}",
         "join": (" + ", " - ")}
_LATEX = {"name": "latex", "ratio": _ratio_latex, "exp": "e^{{{}}}", "scaled": "{} {}",
          "join": ("+", "-")}

# The markup of each multi-term polynomial rendered so far in the current
# output document, keyed (format, n, lead, terms); None outside a document.
_MARKUP: ContextVar[dict | None] = ContextVar("markup", default=None)


@contextmanager
def _document():
    """One output document: inside the block each stored polynomial of two
    or more terms is rendered once per format, and the markup is dropped on
    every exit.  Outside it rendering keeps no state."""
    token = _MARKUP.set({})
    try:
        yield
    finally:
        _MARKUP.reset(token)


def const_arith(a: Constant, b: Constant, kind: str) -> Constant:
    """Field arithmetic dispatch: kind is ``add``, ``mul`` or ``div``."""
    if kind == "add":
        return a + b
    if kind == "mul":
        return a * b
    if kind == "div":
        return a / b
    raise ValueError(f"unknown kind {kind!r}")


_ZERO = _stored(1, (), ((0, 1),))
# the small integers, built once: the operator rewrites coerce the same few
_SMALL = {i: _stored(1, ((0, i),), ((0, 1),)) if i else _ZERO for i in range(-64, 65)}
_ONE = _SMALL[1]
_UNIT = ((0, 1),)  # the primitive part of an integer denominator
