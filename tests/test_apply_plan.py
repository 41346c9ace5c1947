"""``Operator.apply`` from an action plan built on the first application:
the left factors of the integral terms summed per right monomial m, and one
signed left factor per boundary value ``F_m(q)``.  The antiderivative
``F_m`` is read off h as unit multiples of its coefficients, and the
multiples that meet in one monomial of ``F_m`` are added once.  Results are
checked against ``test_apply_accumulation.reference_apply``.

With the sign of the ``a`` end of ``f <p> int_a m`` flipped in the plan,
the reference checks below fail."""

from __future__ import annotations

import random

import pytest

from conftest import forcing_functions, random_regular_problem
from test_apply_accumulation import reference_apply

from stieltjes import ExpPoly, Operator, greens_operator, operators, parse_exppoly

# sum_{P<24} (P+1) x^P e^x + sum_{P<24} x^P: up to 24 terms of h reach one
# monomial of an antiderivative
DENSE = parse_exppoly(" + ".join([f"{P + 1}*x^{P}*exp(x)" for P in range(24)]
                                 + [f"x^{P}" for P in range(24)]))


@pytest.fixture(scope="module")
def suite_greens_operators() -> list[Operator]:
    rng = random.Random(2024)
    return [greens_operator(random_regular_problem(rng)) for _ in range(50)]


def test_left_factors_are_summed_on_the_first_application_only(monkeypatch,
                                                               suite_greens_operators):
    G = Operator.from_json(suite_greens_operators[0].to_json())  # no plan yet
    # the standard form's integral and global terms share F_m at the basepoint
    assert G.global_boundary
    sums = []
    original = ExpPoly.sum.__func__

    def counted(cls, items):
        sums.append(items)
        return original(cls, items)

    for k, f in enumerate(forcing_functions()):
        expected = reference_apply(G, f)
        with monkeypatch.context() as patch:
            patch.setattr(ExpPoly, "sum", classmethod(counted))
            sums.clear()
            assert G.apply(f) == expected
        assert bool(sums) == (k == 0)


def test_a_boundary_factor_that_cancels_is_dropped():
    # f int_0 m + f <0> int_1 m: the -f and +f at F_m(0) cancel, so the
    # operator acts as f int_1 m
    f, m = ExpPoly.x(), ExpPoly.monomial(1, 1)
    op = Operator.integral(0, f, m) + Operator.global_term(0, 1, f, m)
    for h in [*forcing_functions(), DENSE]:
        assert op.apply(h) == reference_apply(op, h) == Operator.integral(1, f, m).apply(h)
    lefts, bounds = op._plan
    assert set(bounds) == {((1, 1), 1)}
    assert lefts == {(1, 1): f}


def test_the_plan_is_not_part_of_the_value(suite_greens_operators):
    for G in suite_greens_operators[:10]:
        before = G.to_json()
        fresh = Operator.from_json(before)
        G.apply(DENSE)
        assert G._plan is not None and fresh._plan is None
        assert G == fresh == Operator.from_json(G.to_json())
        assert hash(G) == hash(fresh)
        assert G.to_json() == before


def test_dense_forcing_gives_one_part_per_pair(monkeypatch, suite_greens_operators):
    """The reference result on the suite's Green's operators and their
    equitable forms; and on each integral term ``f int_a m`` alone, one
    ``_sum`` part per pair of a term of f and a monomial of ``F_m``, for
    ``f F_m`` and for ``-f F_m(a)``, however many terms of h meet in it."""
    for G in suite_greens_operators:
        for op in (G, G.to_equitable()):
            assert op.apply(DENSE) == reference_apply(op, DENSE)
    parts = []
    original = operators._accumulate

    def counted(pairs):  # the (monomial, part) pairs that apply hands to the finisher
        pairs = list(pairs)
        parts.append(len(pairs))
        return original(pairs)

    monkeypatch.setattr(operators, "_accumulate", counted)
    met = 0
    for G in suite_greens_operators:
        for a, f, g in G.integral_part:
            F = (g * DENSE).antiderivative()
            # x^n (n > 0) vanishes at 0
            at_a = [n for (_l, n) in F._terms if a or not n]
            # the pairs (term of m h, monomial of F_m) that integration reaches
            reached = sum(n + 1 if l else 1 for (l, n) in (g * DENSE)._terms)
            met += reached > len(F._terms)
            op = Operator.integral(a, f, g)
            parts.clear()
            op.apply(DENSE)
            assert sum(parts) == len(f._terms) * (len(F._terms) + len(at_a))
    assert met
