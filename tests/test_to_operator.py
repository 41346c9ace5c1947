"""``GreensFunction.to_operator`` inverts ``extract``: the kernel read off an
equitable operator maps back to that operator, so kernel and operator agree
on every forcing function, not only on sampled ones."""

import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import (
    ONE,
    X,
    exponential_four_point_problem,
    forcing_functions,
    four_breakpoint_operator,
    random_regular_problem,
)

from stieltjes import BivariateExpPoly, GreensFunction, extract, greens_operator, parse_exppoly
from stieltjes.cli import parse_problem
from stieltjes.greens import REGION_LOWER, REGION_UPPER

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

# one interval around every evaluation point, one that splits the cells
INTERVALS = (None, (F(-3), F(5)), (F(1, 7), F(3, 2)))


def equitable(problem):
    return greens_operator(problem).to_equitable()


@pytest.fixture(scope="module")
def suite_operators():
    rng = random.Random(2024)
    return [equitable(random_regular_problem(rng)) for _ in range(50)]


def document_operators():
    """The worked examples and the 12 many-point benchmark documents."""
    docs = [doc for doc, _points in workloads.WORKED_EXAMPLES.values()]
    docs += [json.loads(c.document) for c in workloads.many_point_commands()]
    return [equitable(parse_problem(doc)) for doc in docs]


def assert_inverts(Geq, interval):
    gf = extract(Geq, interval=interval)
    assert gf.to_operator() == Geq
    assert extract(gf.to_operator(), interval=interval) == gf


@pytest.mark.parametrize("interval", INTERVALS, ids=["none", "outside", "inside"])
def test_to_operator_inverts_extract_on_the_suite(suite_operators, interval):
    for Geq in suite_operators:
        assert_inverts(Geq, interval)


@pytest.mark.parametrize("interval", INTERVALS, ids=["none", "outside", "inside"])
def test_to_operator_inverts_extract_on_the_documents(interval):
    operators = document_operators()
    assert len(operators) == 15
    assert any(extract(Geq).has_distributional_part() for Geq in operators)
    for Geq in operators:
        assert_inverts(Geq, interval)


def test_to_operator_inverts_extract_with_four_basepoints():
    for Geq in (four_breakpoint_operator(), equitable(exponential_four_point_problem())):
        for interval in INTERVALS:
            assert_inverts(Geq, interval)


def test_to_operator_acts_like_the_kernel(suite_operators):
    # apply_to is the kernel semantics that tests/test_kernel_oracle.py checks
    # against quadrature; the operator the kernel was read off must act the same way
    for Geq in suite_operators:
        gf = extract(Geq)
        for f in forcing_functions():
            assert gf.apply_to(f) == Geq.apply(f)


def test_mismatched_branches_raise():
    # x*1 on the lower side of [0, 1] only: the two intervals disagree on
    # lower - upper, so the kernel is no operator
    gf = GreensFunction([0, 1, 2], {(1, REGION_LOWER): BivariateExpPoly.tensor(X, ONE)})
    with pytest.raises(ValueError, match="kernel is not smooth across breakpoints"):
        gf.to_operator()
    with pytest.raises(ValueError, match="kernel is not smooth across breakpoints"):
        gf.apply_to(ONE)


def test_a_kernel_builds_its_operator_once():
    gf = extract(four_breakpoint_operator())
    op = gf.to_operator()
    assert gf.to_operator() is op
    for f in forcing_functions():
        assert gf.apply_to(f) == op.apply(f)
    assert gf.to_operator() is op


def test_a_kernel_that_is_not_smooth_raises_on_every_call():
    gf = GreensFunction([0, 1, 2], {(1, REGION_LOWER): BivariateExpPoly.tensor(X, ONE)})
    for f in forcing_functions():
        with pytest.raises(ValueError, match="kernel is not smooth across breakpoints"):
            gf.apply_to(f)
        with pytest.raises(ValueError, match="kernel is not smooth across breakpoints"):
            gf.to_operator()


def test_one_negated_upper_branch_raises():
    gf = extract(four_breakpoint_operator())
    branches = {(i, region): gf.branch(i, region) for i in range(1, gf.interval_count + 1)
                for region in (REGION_LOWER, REGION_UPPER)}
    branches[(2, REGION_UPPER)] = -branches[(2, REGION_UPPER)]
    assert not branches[(2, REGION_UPPER)].is_zero()
    wrong = GreensFunction(gf.breakpoints, branches, gf.dirac, gf.diagonal)
    with pytest.raises(ValueError, match="kernel is not smooth across breakpoints"):
        wrong.to_operator()


def test_repeated_distributional_terms_add_up():
    # a hand-built kernel may list a dirac or diagonal order twice; both act
    c1, c2 = parse_exppoly("x"), parse_exppoly("exp(x)")
    gf = GreensFunction([0, 1], {}, [(0, 1, c1), (0, 1, c2)], [(0, c1), (0, c2)])
    op = gf.to_operator()
    merged = extract(op, interval=(0, 1))
    assert merged.dirac == ((0, 1, c1 + c2),)
    assert merged.diagonal == ((0, c1 + c2),)
    for f in forcing_functions():
        assert op.apply(f) == gf.apply_to(f)
