"""Numeric oracle for the solutions, independent of the exact calculus: for
the 50 seed-2024 regular problems and the 5 default forcing functions,
``u = G.apply(f)`` is read into mpmath term by term, and ``T u = f`` and
``beta_i(u) = 0`` are checked with ``mpmath.diff`` and ``mpmath.quad`` at 40
digits.  Nothing here differentiates, integrates or evaluates exactly, so a
fault shared by ``G.apply``, ``Operator.apply`` and ``StieltjesCondition.apply``
(or by the scalar field under them) cannot verify itself."""

import random
from fractions import Fraction as F

import mpmath

from conftest import forcing_functions, random_regular_problem
from test_constant_oracle import constant_value
from test_kernel_oracle import evaluate, mp, numeric

from stieltjes import greens_operator

SAMPLES = (F(-7, 5), F(-1, 3), F(1, 2), F(9, 4))
TOLERANCE = mpmath.mpf(10) ** -25  # relative to the summands' magnitudes


def vanishes(summands) -> bool:
    scale = mpmath.fsum(abs(s) for s in summands)
    return abs(mpmath.fsum(summands)) <= TOLERANCE * (1 + scale)


def residuals(problem, f: list, u: list):
    """The summands of ``(T u - f)(x)`` at each sample x, then of each
    ``beta_i(u)``, all in mpmath."""
    U = lambda x: evaluate(u, x)
    coeffs = [(k, numeric(a)) for k, a in problem.T.diff_part.items()]
    for x in map(mp, SAMPLES):
        yield [evaluate(a, x) * mpmath.diff(U, x, k) for k, a in coeffs] + [-evaluate(f, x)]
    for cond in problem.conditions:
        summands = [constant_value(c) * mpmath.diff(U, mp(p), i) for p, i, c in cond.local_terms]
        for a, b, w in cond.global_terms:
            w = numeric(w)
            summands.append(mpmath.quad(lambda t: evaluate(w, t) * U(t), [mp(a), mp(b)]))
        yield summands


def test_solutions_satisfy_the_problem_numerically():
    rng = random.Random(2024)
    problems = [random_regular_problem(rng) for _ in range(50)]
    checked = 0
    with mpmath.workdps(40):
        for problem in problems:
            G = greens_operator(problem)
            for f in forcing_functions():
                for summands in residuals(problem, numeric(f), numeric(G.apply(f))):
                    assert vanishes(summands)
                    checked += 1
    assert checked == 5 * sum(len(SAMPLES) + len(p.conditions) for p in problems)
