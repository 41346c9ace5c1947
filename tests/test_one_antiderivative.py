"""Every action on a function integrates each monomial once and takes each
derivative order of its differential part once (a boundary value takes
none): ``Operator.apply``, ``GreensFunction.apply_to`` and
``StieltjesCondition.apply``, counted like the ``apply_to`` counter of
``test_agreement_gate.py``.  All three integrate through
``exppoly._antiderivative``, which ``Operator.apply`` calls once per
distinct right monomial and reads unreduced.  ``apply_to`` is the action of
the kernel's operator, which needs ``K = lower - upper`` to be one
bivariate, so a kernel whose ``K`` changes between intervals is refused for
every f."""

import random

import pytest

from conftest import (
    X,
    exponential_four_point_problem,
    forcing_functions,
    four_breakpoint_operator,
    random_regular_problem,
)
from test_cli import NONLOCAL_SPEC  # integral, global and dirac terms, two cells

from stieltjes import (BivariateExpPoly, ExpPoly, GreensFunction, extract, greens_operator,
                       operators)
from stieltjes.cli import parse_problem, solve_problem
from stieltjes.greens import REGION_LOWER


def counter(monkeypatch, name):
    """Record the arguments of every call of ``ExpPoly.<name>``."""
    calls = []
    method = getattr(ExpPoly, name)

    def counted(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(ExpPoly, name, counted)
    return calls


def integrations(monkeypatch):
    """Record every call of the integration routine of ``Operator.apply``."""
    calls = []
    original = operators._antiderivative

    def counted(pairs):
        calls.append(pairs)
        return original(pairs)

    monkeypatch.setattr(operators, "_antiderivative", counted)
    return calls


@pytest.fixture(scope="module")
def nonlocal_solution():
    return solve_problem(parse_problem(NONLOCAL_SPEC))


def test_operator_apply_integrates_each_right_monomial_once(monkeypatch, nonlocal_solution):
    G, _Geq, _gf = nonlocal_solution
    monomials = ({g for _f, _a, g in G.integral_part}
                 | {g for _f, _p, _a, g in G.global_boundary})
    # global terms share right monomials with each other and with integral terms
    assert G.global_boundary
    assert len(monomials) < len(G.integral_part) + len(G.global_boundary)
    # only the differential part derives h: a boundary value h^(i)(p) is
    # taken from h's coefficients, with no derivative built
    top = G.order()
    antiderivative = integrations(monkeypatch)
    derive = counter(monkeypatch, "derive")
    for f in forcing_functions():
        antiderivative.clear()
        derive.clear()
        G.apply(f)
        assert len(antiderivative) == len(monomials)
        assert derive == [()] * top


def kernels():
    """Kernels with two, three and four cells, dirac and diagonal terms."""
    return [
        solve_problem(parse_problem(NONLOCAL_SPEC))[2],
        extract(greens_operator(exponential_four_point_problem()).to_equitable()),
        extract(four_breakpoint_operator()),
    ]


@pytest.mark.parametrize("gf", kernels(), ids=["nonlocal", "four-point", "four-breakpoint"])
def test_apply_to_integrates_each_xi_monomial_once(monkeypatch, gf):
    monomials = {B for _lo, _hi, _region, branch in gf.case_rows() for _A, B in branch.pairs()}
    antiderivative = integrations(monkeypatch)
    for f in forcing_functions():
        antiderivative.clear()
        gf.apply_to(f)
        assert len(antiderivative) == len(monomials)


def test_condition_apply_derives_each_order_once(monkeypatch):
    conditions = (parse_problem(NONLOCAL_SPEC).conditions
                  + exponential_four_point_problem().conditions)
    assert max(cond.max_local_order() for cond in conditions) == 3
    derive = counter(monkeypatch, "derive")
    antiderivative = integrations(monkeypatch)
    for cond in conditions:
        for f in forcing_functions():
            derive.clear()
            antiderivative.clear()
            cond.apply(f)
            assert derive == []  # a condition has no differential part
            assert len(antiderivative) == len({g for _f, _p, _a, g in
                                               cond.as_operator().global_boundary})


@pytest.mark.parametrize("f", [ExpPoly.zero(), *forcing_functions()],
                         ids=["0", "1", "x", "x^2", "exp(x)", "x*exp(-x)"])
def test_a_kernel_not_smooth_across_breakpoints_is_refused_for_every_f(f):
    # lower - upper is x*xi on the first interval and 0 on the second; with
    # f = 0 every cell gives 0, and the kernel is refused all the same
    gf = GreensFunction([0, 1, 2], {(1, REGION_LOWER): BivariateExpPoly.tensor(X, X)})
    with pytest.raises(ValueError, match="kernel is not smooth across breakpoints"):
        gf.apply_to(f)


def test_standard_and_equitable_forms_act_alike_on_the_suite():
    """Global terms share boundary values ``F_m(q)`` with the integral
    terms of the standard form, and the action plan merges their left
    factors into one per value; the equitable form has no global terms."""
    rng = random.Random(2024)
    with_global = 0
    for _ in range(50):
        G = greens_operator(random_regular_problem(rng))
        Geq = G.to_equitable()
        with_global += bool(G.global_boundary)
        assert Geq.is_equitable()
        for f in forcing_functions():
            assert G.apply(f) == Geq.apply(f)
    assert with_global == 50
