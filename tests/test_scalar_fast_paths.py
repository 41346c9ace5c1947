"""The scalar field's fast paths against the slow paths they replace.

Each fast path works on the stored integer terms of a ``Constant``; each test
here compares it on seeded random inputs with a reference built the generic
way, structurally (grid, numerator and denominator terms) or character by
character:

* a unit product against ``_make`` of term dicts, which sorts, anchors and
  flips its input itself (both finish in ``_part_value``, whose invariants
  ``test_constants.py`` checks on their own);
* a sum of rationals against ``Fraction``;
* ``ExpPoly.eval_at`` against a term-by-term ``Constant.sum``;
* the closed-form antiderivative against differentiation;
* ``to_text``/``to_latex`` against a renderer of the ``num``/``den`` views.
"""

import random
from fractions import Fraction as F
from math import lcm

import pytest

from stieltjes import Constant, ExpPoly
from stieltjes import constants

GRIDS = range(1, 13)
COEFFS = (1, -1, 2, -2, 3, 4, -6, 9, 12)


def stored(c: Constant) -> tuple:
    return c._n, c._num, c._den


def random_terms(rng: random.Random, n: int, size: int) -> dict:
    """Up to ``size`` terms ``c * e^(k/n)`` with negative exponents and
    coefficients that share factors, so contents and grid steps cancel."""
    return {F(rng.randint(-3 * n, 3 * n), n): F(rng.choice(COEFFS), rng.choice((1, 1, 2, 3, 4)))
            for _ in range(rng.randint(1, size))}


def random_constant(rng: random.Random, dens=None) -> Constant:
    """A canonical value on one of the grids 1-12: a unit, ``N/q`` or ``N/D``;
    with ``dens``, D is drawn from that pool so that summands share it."""
    n = rng.choice(GRIDS)
    kind = rng.randrange(3)
    if kind == 2:
        den = rng.choice(dens) if dens else random_terms(rng, rng.choice(GRIDS), 3)
    else:
        den = {F(0): F(rng.choice((1, 2, 3, 4, 6, 9)))}
    c = Constant(random_terms(rng, n, 1 if kind == 0 else 3), den)
    return c if not c.is_zero() else Constant.one()


def random_unit(rng: random.Random) -> Constant:
    p, q = rng.choice((1, -1, 2, -3, 4, 6, -9, 12)), rng.choice((1, 2, 3, 4, 6, 9))
    return Constant.e_power(F(rng.randint(-12, 12), rng.choice(GRIDS)), F(p, q))


def generic_unit_product(c: Constant, unit: Constant) -> Constant:
    """``c * unit`` through ``_make`` of unsorted term dicts."""
    (k, p), = unit._num
    q = unit._den[0][1]
    n = lcm(c._n, unit._n)
    f, s = n // c._n, k * (n // unit._n)
    return constants._make(n, {e * f + s: a * p for e, a in c._num},
                           {e * f: a * q for e, a in c._den})


# -- unit products ------------------------------------------------------------


def test_grid_step_is_the_gcd_of_the_grid_and_every_exponent():
    # f = 1 and k = 5 on grid 6, yet the product lands on grid 3
    c = Constant({F(-1, 2): F(-1)}, {F(4): F(6), F(2, 3): F(1), F(0): F(1)})
    unit = Constant.e_power(F(5, 6), -1)
    for product in (c * unit, unit * c):
        assert product._n == 3
        assert stored(product) == stored(generic_unit_product(c, unit))
        assert product == Constant({F(1, 3): F(1)}, {F(4): F(6), F(2, 3): F(1), F(0): F(1)})


def test_joint_content_cancels_crosswise():
    # 6 / (4 e + 2) times 2/3: the 2 of p against the content 2 of D and the
    # 3 of q against the content 6 of N
    c = Constant({F(0): F(6)}, {F(1): F(4), F(0): F(2)})
    product = c * F(2, 3)
    assert stored(product) == (1, ((0, 2),), ((1, 2), (0, 1)))
    assert stored(product) == stored(generic_unit_product(c, Constant.from_rational(F(2, 3))))


@pytest.mark.parametrize("seed", range(6))
def test_unit_products_match_the_generic_canonical_form(seed):
    rng = random.Random(seed)
    for _ in range(300):
        c, unit = random_constant(rng), random_unit(rng)
        expected = stored(generic_unit_product(c, unit))
        assert stored(c * unit) == expected
        assert stored(unit * c) == expected


# -- sums of rationals ----------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_rational_sums_match_fraction(seed):
    rng = random.Random(100 + seed)
    for _ in range(300):
        xs = [F(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(rng.randint(2, 6))]
        if rng.random() < 0.2:
            xs.append(-sum(xs))
        items = [x if rng.random() < 0.5 else Constant.from_rational(x) for x in xs]
        if rng.random() < 0.3:
            items.append(rng.randint(-5, 5))
            xs.append(F(items[-1]))
        total = sum(xs, F(0))
        num = ((0, total.numerator),) if total else ()
        assert stored(Constant.sum(items)) == (1, num, ((0, total.denominator),))


# -- evaluation -------------------------------------------------------------------

POINTS = (F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(3, 4), F(5, 6), F(2), F(-7, 12))
FREQS = (F(0), F(1), F(-1), F(2), F(1, 2), F(-1, 3), F(5, 6), F(3, 4))


def random_exppoly(rng: random.Random, dens=None) -> ExpPoly:
    return ExpPoly.sum(ExpPoly.monomial(rng.choice(FREQS), rng.randint(0, 3),
                                        random_constant(rng, dens))
                       for _ in range(rng.randint(1, 5)))


def term_by_term(f: ExpPoly, q: F) -> Constant:
    """``f(q)`` with every term made canonical before the sum."""
    return Constant.sum([c * Constant.e_power(freq * q, q ** power if power else 1)
                         for freq, power, c in f.terms()])


@pytest.mark.parametrize("seed", range(4))
def test_eval_at_matches_a_term_by_term_sum(seed):
    rng = random.Random(200 + seed)
    dens = [{F(1): F(1), F(0): F(-2)}, {F(1, 2): F(3), F(0): F(1)}]
    for _ in range(60):
        f = random_exppoly(rng, dens)
        for q in POINTS:
            assert stored(f.eval_at(q)) == stored(term_by_term(f, q))


def test_eval_at_zero_skips_the_positive_powers():
    c = Constant({F(1, 2): F(3)}, {F(0): F(2)})
    f = ExpPoly.sum([ExpPoly.monomial(F(1, 3), 2, c), ExpPoly.monomial(F(-1), 1, c),
                     ExpPoly.monomial(F(2), 0, F(5, 4))])
    assert stored(f.eval_at(0)) == (1, ((0, 5),), ((0, 4),))
    assert stored(ExpPoly.monomial(F(1, 2), 3, c).eval_at(0)) == stored(Constant.zero())
    alone = ExpPoly.sum([ExpPoly.monomial(F(1, 3), 2, c), ExpPoly.monomial(F(0), 0, c)])
    assert stored(alone.eval_at(0)) == stored(c)


# -- antiderivatives ----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_antiderivative_derives_back(seed):
    rng = random.Random(300 + seed)
    for _ in range(40):
        f = ExpPoly.sum(ExpPoly.monomial(rng.choice(FREQS), rng.randint(0, 5),
                                         random_constant(rng)) for _ in range(rng.randint(1, 4)))
        assert f.antiderivative().derive() == f


# -- rendering ----------------------------------------------------------------------


def latex_fraction(x: F) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return ("-" if x < 0 else "") + rf"\tfrac{{{abs(x.numerator)}}}{{{x.denominator}}}"


TEXT = {"coeff": str, "exp": "exp({})", "scaled": "{}*{}", "join": (" + ", " - ")}
LATEX = {"coeff": latex_fraction, "exp": "e^{{{}}}", "scaled": "{} {}", "join": ("+", "-")}


def reference_markup(terms: dict, fmt: dict) -> str:
    """A sum of ``c * e^q`` over a ``Fraction -> Fraction`` view."""
    pieces = []
    for q, c in terms.items():
        power = fmt["exp"].format(fmt["coeff"](q))
        if q == 0:
            pieces.append(fmt["coeff"](c))
        elif abs(c) == 1:
            pieces.append(("-" if c < 0 else "") + power)
        else:
            pieces.append(fmt["scaled"].format(fmt["coeff"](c), power))
    if not pieces:
        return "0"
    plus, minus = fmt["join"]
    return pieces[0] + "".join(minus + p[1:] if p.startswith("-") else plus + p
                               for p in pieces[1:])


def reference_text(c: Constant) -> str:
    num = reference_markup(c.num, TEXT)
    return num if len(c.den) == 1 else f"({num})/({reference_markup(c.den, TEXT)})"


def reference_latex(c: Constant) -> str:
    num = reference_markup(c.num, LATEX)
    return num if len(c.den) == 1 else rf"\frac{{{num}}}{{{reference_markup(c.den, LATEX)}}}"


def test_rendering_covers_signs_grids_and_denominators():
    c = Constant({F(-5, 6): F(-1), F(0): F(3, 4), F(2, 3): F(1)}, {F(0): F(2)})
    assert c.to_text() == "1/2*exp(2/3) + 3/8 - 1/2*exp(-5/6)"
    assert c.to_latex() == r"\tfrac{1}{2} e^{\tfrac{2}{3}}+\tfrac{3}{8}-\tfrac{1}{2} e^{-\tfrac{5}{6}}"
    d = Constant({F(1): F(-1)}, {F(1, 2): F(3), F(0): F(1)})
    assert d.to_text() == "(-1/3*exp(1))/(exp(1/2) + 1/3)"
    assert d.to_latex() == r"\frac{-\tfrac{1}{3} e^{1}}{e^{\tfrac{1}{2}}+\tfrac{1}{3}}"
    u = Constant({F(0): F(1), F(-3, 12): F(-1)})
    assert (u.to_text(), u.to_latex()) == ("1 - exp(-1/4)", r"1-e^{-\tfrac{1}{4}}")


@pytest.mark.parametrize("seed", range(4))
def test_rendering_matches_the_views(seed):
    rng = random.Random(400 + seed)
    for _ in range(300):
        c = random_constant(rng)
        assert c.to_text() == reference_text(c)
        assert c.to_latex() == reference_latex(c)
    zero = Constant.zero()
    assert (zero.to_text(), zero.to_latex()) == (reference_text(zero), reference_latex(zero))
