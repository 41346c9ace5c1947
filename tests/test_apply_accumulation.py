"""``Operator.apply`` as one accumulation, checked against the direct
evaluation that it replaced: derive h, then evaluate at the point; take
``F(p) - F(a)`` as two values, then multiply the left factor by the
difference.  The reference below is that algorithm, kept only here.

The accumulation reads a boundary value ``h^(i)(p)`` off the coefficients
of h as unit multiples and folds each unit into whichever factor of a
product is itself a unit.  Each of these mutations of it fails the checks
below:

- the falling factorial ``n!/(n-k)!`` off by one (``n - k + 1``);
- the sign of the ``a`` end of ``F_m(p) - F_m(a)`` or of ``-f F_m(a)``
  dropped;
- the exponent of a merged unit added on the wrong grid (``k1 + k2`` for
  ``k1/n + k2/m``).
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from conftest import forcing_functions, random_operator, random_regular_problem

from stieltjes import Constant, ExpPoly, Operator, exppoly, greens_operator, operators
from stieltjes.constants import _ONE

E = Constant.e_power(1)


def reference_apply(op: Operator, h: ExpPoly) -> ExpPoly:
    """The action of op on h, one term at a time, each value reduced alone."""
    top = max([*op.diff_part, *(i for _f, _p, i in op.local_boundary)], default=0)
    derivs = h.derivatives(top)
    terms = [f * derivs[i] for i, f in op.diff_part.items()]
    for a, f, g in op.integral_part:
        anti = (g * h).antiderivative()
        terms += [f * anti, f * -anti.eval_at(a)]
    terms += [f * derivs[i].eval_at(p) for f, p, i in op.local_boundary]
    for f, p, a, g in op.global_boundary:
        anti = (g * h).antiderivative()
        terms.append(f * (anti.eval_at(p) - anti.eval_at(a)))
    return ExpPoly.sum(terms)


def functions_to_apply() -> list[ExpPoly]:
    """h with rational, unit (``c e^q``) and non-unit coefficients."""
    unit = [ExpPoly.monomial(1, 0, Constant.e_power(F(1, 2), 3))
            + ExpPoly.monomial(-1, 1, Constant.e_power(F(-2, 3), F(1, 2))),
            ExpPoly.monomial(0, 2, Constant.e_power(2, -1)) + ExpPoly.one()]
    non_unit = [ExpPoly.monomial(0, 1, 1 / (E - 1)) + ExpPoly.exponential(1),
                ExpPoly.monomial(F(1, 2), 0, (E + 2) / (E * E - 3))
                + ExpPoly.monomial(-1, 1, 1 / (E - 1))]
    return [*forcing_functions(), *unit, *non_unit]


@pytest.fixture
def branches(monkeypatch):
    """Record which product branch each unit multiple of ``Operator.apply``
    takes: the left coefficient a unit, h's coefficient (or F_m's) a unit,
    or neither.  A unit of h that ``_scaled`` lifted into the unit slot
    reaches ``_products`` under the coefficient 1, which needs no
    ``_times_units``: that is the right unit's branch too."""
    seen = set()
    original, products, apply = exppoly._times_units, operators._products, Operator.apply

    def recorded(c, d, *unit):
        is_unit = [len(x._num) == len(x._den) == 1 for x in (c, d)]
        seen.add("left unit" if is_unit[0] else "right unit" if is_unit[1] else "neither")
        return original(c, d, *unit)

    def recorded_products(f, pairs):
        if f._terms and any(part[0] is _ONE for _key, part in pairs):
            seen.add("right unit")
        return products(f, pairs)

    def recording(op, h):  # apply's products run through exppoly._products
        with monkeypatch.context() as patch:
            patch.setattr(exppoly, "_times_units", recorded)
            patch.setattr(operators, "_products", recorded_products)
            return apply(op, h)

    monkeypatch.setattr(Operator, "apply", recording)
    return seen


def ring_operators() -> list[Operator]:
    """The operators of the ring workload's seed-4096 triples, and the
    products u * v, which carry higher orders and more boundary terms."""
    rng = random.Random(4096)
    out = []
    for _ in range(40):
        u, v, w = (random_operator(rng) for _ in range(3))
        out += [u, v, w, u * v]
    return out


def suite_operators() -> list[Operator]:
    """The Green's operators of the seed-2024 suite, in standard form."""
    rng = random.Random(2024)
    return [greens_operator(random_regular_problem(rng)) for _ in range(20)]


def test_ring_operators_act_as_the_reference(branches):
    functions = functions_to_apply()
    for op in ring_operators():
        for h in functions:
            assert op.apply(h) == reference_apply(op, h), (op, h)
    assert branches >= {"left unit", "right unit", "neither"}


def test_suite_greens_operators_act_as_the_reference(branches):
    functions = functions_to_apply()
    for G in suite_operators():
        for op in (G, G.to_equitable()):
            for h in functions:
                assert op.apply(h) == reference_apply(op, h), (op, h)
    assert branches >= {"left unit", "right unit", "neither"}


def test_apply_takes_no_reduced_derivative(monkeypatch):
    """The differential part multiplies its left factors into the unreduced
    derivatives of h (``exppoly._derived``), as the local part does: no
    ``ExpPoly.derive`` or ``derivatives`` for the suite's G and T and the
    ring operators."""
    rng = random.Random(2024)
    problems = [random_regular_problem(rng) for _ in range(20)]
    operators = ring_operators() + [op for problem in problems
                                    for G in [greens_operator(problem)]
                                    for op in (G, G.to_equitable(), problem.T)]
    functions = functions_to_apply()

    def refuse(*_args):
        raise AssertionError("Operator.apply reduced a derivative of its argument")

    monkeypatch.setattr(ExpPoly, "derive", refuse)
    monkeypatch.setattr(ExpPoly, "derivatives", refuse)
    for op in operators:
        for h in functions:
            op.apply(h)


DERIVATIVE_CASES = [
    # (frequency, power, order): power < order, power > order, frequency 0
    (0, 0, 1), (0, 1, 3), (0, 3, 1), (0, 2, 2), (1, 0, 2), (-2, 1, 3),
    (F(3, 2), 3, 1), (F(-1, 3), 2, 4), (1, 4, 2), (-1, 1, 1),
]
POINTS = [0, -1, F(1, 2), F(-3, 2), 2, 1]


@pytest.mark.parametrize("freq, power, order", DERIVATIVE_CASES)
def test_derivative_at_a_point_is_the_derived_value(freq, power, order):
    coefficients = [Constant.from_rational(F(-3, 4)), Constant.e_power(F(1, 3), 2), 1 / (E - 1)]
    for c in coefficients:
        h = ExpPoly.monomial(freq, power, c) + ExpPoly.monomial(1, 1)
        for q in POINTS:
            value = Operator.evaluation(q, order).apply(h)
            expected = h.derive(order).eval_at(q)
            assert value == ExpPoly.const(expected), (freq, power, order, q)
            assert value.as_constant() == expected


def test_a_vanishing_derivative_gives_no_term():
    # (x e^-x)' = (1 - x) e^-x vanishes at 1, and x^3's fourth derivative everywhere
    assert Operator.evaluation(1, 1).apply(ExpPoly.monomial(-1, 1)).is_zero()
    assert Operator.evaluation(F(1, 2), 4).apply(ExpPoly.monomial(0, 3)).is_zero()
    assert Operator.evaluation(1, 1, ExpPoly.x()).apply(ExpPoly.monomial(-1, 1)).is_zero()
