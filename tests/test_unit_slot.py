"""Unit coefficients ride in the unit slot of a ``_sum`` summand.

``exppoly._scaled`` writes a unit coefficient ``a/b * e^(j/n)`` (a rational
included) as the part ``(1, a, b, j, n)``, so ``exppoly._products`` writes
a left coefficient into the slot of the coefficient 1 with no
``_times_units``, and ``constants._part_value`` finishes such a lone part as
the stored unit.  These tests check that route against the one it
replaced, kept here as ``reference_scaled`` and ``reference_products``:
every coefficient under the unit 1 and ``_times_units`` on every pair.

They also check the two short paths of ``constants._sum``: summands that
are rational once the shift is added to c's exponent take the rational
branch, and a sum over integer denominators is one group with no ``_make``.
"""

from __future__ import annotations

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from test_constant_products import fractions, units

from stieltjes import Constant, ExpPoly, constants
from stieltjes.constants import _sum, _times_units
from stieltjes.exppoly import _accumulate, _derived, _freq, _products, _scaled, _values

DERANDOMIZED = settings(derandomize=True, database=None, deadline=None, max_examples=150)

FREQUENCIES = [0, 1, -1, F(1, 2), F(-2, 3)]


def reference_scaled(f: ExpPoly) -> list:
    """The terms of f as (monomial, part) pairs, each under the unit 1."""
    return [(key, (c, 1, 1, 0, 1)) for key, c in f._terms.items()]


def reference_products(f: ExpPoly, pairs) -> list:
    """The (monomial, part) pairs of f times the sum of the pairs: one
    ``_times_units`` part per pair of terms."""
    return [((_freq(l1 + l2), n1 + n2), _times_units(c1, c2, p, q, k, m))
            for (l1, n1), c1 in f._terms.items() for (l2, n2), (c2, p, q, k, m) in pairs]


@st.composite
def exppolys(draw) -> ExpPoly:
    """Up to four terms whose coefficients mix units ``p/q * e^(k/N)``
    (negative signs and exponents, grids up to 6, rationals) with fractions
    of several denominators."""
    keys = draw(st.lists(st.tuples(st.sampled_from(FREQUENCIES), st.integers(0, 2)),
                         min_size=1, max_size=4, unique=True))
    coefficients = st.one_of(units(), units(), fractions())
    return ExpPoly({(_freq(l), n): Constant(*draw(coefficients)) for l, n in keys})


@DERANDOMIZED
@given(exppolys())
def test_the_unit_slot_accumulates_back_to_the_function(f):
    pairs = _scaled(f)
    assert any(part[0] is constants._ONE for _key, part in pairs) == any(
        len(c._num) == len(c._den) == 1 for c in f._terms.values())
    assert _accumulate(pairs) == f
    assert _accumulate(_derived(pairs, 0, 1)) == f
    assert _accumulate(_derived(pairs, 0, -1)) == -f


@DERANDOMIZED
@given(exppolys(), exppolys())
def test_products_on_the_unit_slot_match_times_units_on_every_pair(f, g):
    assert _accumulate(_products(f, _scaled(g))) == _accumulate(
        reference_products(f, reference_scaled(g)))
    # units with p/q and a shift of their own: a derivative and a value
    assert _accumulate(_products(f, _derived(_scaled(g), 2))) == _accumulate(
        reference_products(f, _derived(reference_scaled(g), 2)))
    assert _accumulate(_products(f, _values(_scaled(g), F(-1, 2)))) == _accumulate(
        reference_products(f, _values(reference_scaled(g), F(-1, 2))))


def refuse(monkeypatch, *names: str) -> None:
    """Make each named routine of ``constants`` fail when it is called."""
    for name in names:
        def refused(*_args, name=name):
            raise AssertionError(f"the sum called {name}")

        monkeypatch.setattr(constants, name, refused)


def test_a_shift_that_cancels_the_exponent_takes_the_rational_branch(monkeypatch):
    """``3 e^(1/2) * 5/7 e^(-1/2) + (-4/5 e^(2/3)) * e^(-2/3) + 2/3`` is the
    rational 15/7 - 4/5 + 2/3, summed with no ``_make`` or ``_canonical``."""
    parts = [(Constant.e_power(F(1, 2), 3), 5, 7, -1, 2),
             (Constant.e_power(F(2, 3), F(-4, 5)), 1, 1, -2, 3),
             (Constant.from_rational(F(2, 3)), 1, 1, 0, 1)]
    expected = [Constant.from_rational(F(15, 7) - F(4, 5) + F(2, 3)),
                Constant.from_rational(F(15, 7) - F(4, 5))]
    refuse(monkeypatch, "_make", "_canonical")
    assert [_sum(parts), _sum(parts[:2])] == expected


def test_integer_denominators_are_one_group(monkeypatch):
    """Units and integer-content sums over integer denominators are added
    over the lcm of those denominators and finished by ``_canonical``."""
    e = Constant.e_power(1)
    parts = [(Constant.e_power(F(1, 2), F(3, 4)), 1, 1, 0, 1),
             (constants._ONE, -5, 6, 1, 3),
             ((e + 2) / 3, 7, 2, -1, 2),
             (Constant.e_power(F(1, 2), F(-3, 4)), 1, 1, 0, 1)]
    expected = Constant({F(1, 3): F(-5, 6), F(1, 2): F(7, 6), F(-1, 2): F(7, 3)})
    refuse(monkeypatch, "_make")
    assert _sum(parts) == expected
    assert _sum([parts[0], parts[3]]).is_zero()
