"""The solve path builds G in closed form: ``greens_operator`` equals the
projector construction ``(T_inv - P * T_inv).to_standard(b)``, takes no
operator product, reduces no intermediate operator, and computes the
evaluation matrix and its inverse once per problem."""

from fractions import Fraction as F

import pytest

from test_certificate import document_problems, suite_problems

from stieltjes import (
    BoundaryProblem,
    Operator,
    boundary,
    fundamental_right_inverse,
    greens_operator,
    linalg,
    operators,
    projector,
)
from stieltjes.boundary import certify


@pytest.fixture(scope="module")
def problems():
    """The 50 seed-2024 ``suite`` problems and the 15 ``documents`` problems."""
    return suite_problems() + document_problems()


def by_projector(problem, basepoint=None):
    """``(T_inv - P * T_inv).to_standard(b)``, with T_inv at b."""
    fs = problem.system()
    b = min(problem.evaluation_points(), default=0) if basepoint is None else basepoint
    fri = fundamental_right_inverse(fs, b)
    return (fri - projector(problem.conditions, fs) * fri).to_standard(b)


@pytest.mark.parametrize("basepoint", [None, F(7, 3)])
def test_closed_form_equals_the_projector_construction(problems, basepoint):
    assert len(problems) == 65
    for problem in problems:
        assert greens_operator(problem, basepoint) == by_projector(problem, basepoint)


@pytest.mark.parametrize("basepoint", [None, F(7, 3)])
def test_greens_operator_reduces_no_intermediate_operator(problems, monkeypatch, basepoint):
    """``v_i psi_i`` is multiplied out on unreduced pairs and moved to
    standard form by ``operators._standard``: no ``left_mul``, no
    ``to_standard``, and still the projector construction."""
    def refuse(*_args):
        raise AssertionError("an intermediate operator reduced on the solve path")

    with monkeypatch.context() as patch:
        patch.setattr(Operator, "left_mul", refuse)
        patch.setattr(Operator, "to_standard", refuse)
        solved = [greens_operator(problem, basepoint) for problem in problems]
    assert solved == [by_projector(problem, basepoint) for problem in problems]


def test_greens_operator_takes_no_operator_product(problems, monkeypatch):
    def refuse(*_args):
        raise AssertionError("operator product on the solve path")

    monkeypatch.setattr(Operator, "__mul__", refuse)
    monkeypatch.setattr(operators, "_compose", refuse)
    for problem in problems:
        greens_operator(problem)


def test_the_evaluation_inverse_is_computed_once_per_problem(monkeypatch):
    inverses = []
    original = linalg.mat_inv

    def counted(m):
        inverses.append(m)
        return original(m)

    monkeypatch.setattr(boundary, "mat_inv", counted)
    problems = [BoundaryProblem(p.T, p.conditions) for p in document_problems()]
    for problem in problems:
        Geq = greens_operator(problem).to_equitable()
        assert certify(problem, Geq)
        greens_operator(problem, F(7, 3))
    assert len(inverses) == len(problems)
