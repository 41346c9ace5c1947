"""Shared builders for the worked problems and randomized instances."""

from __future__ import annotations

import random
from fractions import Fraction as F

from stieltjes import (
    BoundaryProblem,
    Constant,
    ExpPoly,
    Operator,
    StieltjesCondition,
    evaluation_matrix,
    fundamental_right_inverse,
    parse_exppoly,
)
from stieltjes.linalg import mat_det

X = ExpPoly.x()
ONE = ExpPoly.one()


def e_const(q=1, coeff=1) -> Constant:
    return Constant.e_power(q, coeff)


def sigma_constant() -> Constant:
    e = Constant.e_power(1)
    return (e * 2 - 3) * (e - 1) * 2


def intro_problem() -> BoundaryProblem:
    """u'' = f with u(0) = u(1) = 0."""
    return BoundaryProblem(
        Operator.derivative(2),
        [StieltjesCondition([(0, 0, 1)]), StieltjesCondition([(1, 0, 1)])],
    )


def four_point_problem() -> BoundaryProblem:
    """u'' = f with u(0) + u(1/3) = 0 and u(1) + u(2/3) = 0."""
    return BoundaryProblem(
        Operator.derivative(2),
        [
            StieltjesCondition([(0, 0, 1), (F(1, 3), 0, 1)]),
            StieltjesCondition([(1, 0, 1), (F(2, 3), 0, 1)]),
        ],
    )


def nonlocal_problem() -> BoundaryProblem:
    """u'' - u = f with u'''(-1) = int_0^1 t u(t) dt and
    u'(-1) - u''(1) + int_-1^1 u(t) dt = 0."""
    return BoundaryProblem(
        Operator.derivative(2) - Operator.identity(),
        [
            StieltjesCondition([(-1, 3, 1)], [(0, 1, -X)]),
            StieltjesCondition([(-1, 1, 1), (1, 2, -1)], [(-1, 1, ONE)]),
        ],
    )



def four_breakpoint_operator() -> Operator:
    """Integral terms at 0, 1/2, 1 and 2 plus a dirac and a diagonal term."""
    e = parse_exppoly
    return (Operator.integral(0, X, e("exp(-x)"))
            + Operator.integral(F(1, 2), e("exp(x)"), X)
            - Operator.integral(1, ONE, e("x*exp(x)") + ONE)
            + Operator.integral(2, e("x^2 - 1"), e("exp(2*x)"))
            + Operator.evaluation(1, 1, e("3*x"))
            + Operator.derivative(2, e("exp(-x)")))


def exponential_four_point_problem() -> BoundaryProblem:
    """u'' - u = f with u(0) + 2u(1/2) = 0 and u'(1) + int_1/2^3/2 t u(t) dt = 0."""
    return BoundaryProblem(
        Operator.derivative(2) - Operator.identity(),
        [
            StieltjesCondition([(0, 0, 1), (F(1, 2), 0, 2)]),
            StieltjesCondition([(1, 1, 1)], [(F(1, 2), F(3, 2), X)]),
        ],
    )

TEST_FUNCTIONS = ("1", "x", "x^2", "exp(x)", "x*exp(-x)")


def forcing_functions() -> list[ExpPoly]:
    return [parse_exppoly(t) for t in TEST_FUNCTIONS]


def gauss_jordan(m, rhs):
    """Reference Gauss-Jordan elimination on ``[m | rhs]``, which shares no
    code with ``stieltjes.linalg``: ``(det m, x)`` with ``m x = rhs`` for the
    rows ``rhs`` of right-hand sides, and ``(0, None)`` when m is singular."""
    n = len(m)
    rows = [list(r) + list(b) for r, b in zip(m, rhs)]
    det = Constant.one()
    for col in range(n):
        pivot = next((k for k in range(col, n) if not rows[k][col].is_zero()), None)
        if pivot is None:
            return Constant.zero(), None
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = rows[col][col].inverse()
        rows[col] = [a * inv for a in rows[col]]
        for k in range(n):
            if k != col and not rows[k][col].is_zero():
                factor = rows[k][col]
                rows[k] = [a - factor * b for a, b in zip(rows[k], rows[col])]
    return det, [tuple(r[n:]) for r in rows]


def solve_directly(problem: BoundaryProblem, f: ExpPoly, basepoint) -> ExpPoly:
    """Independent oracle: variation of constants plus a linear solve.

    u = T_inv f - sum_j c_j u_j with M c = (beta_i(T_inv f)), solved by the
    reference ``gauss_jordan``; uses only function arithmetic and that
    elimination, no operator-ring rewriting and no package linear algebra.
    """
    fs = problem.system()
    particular = fundamental_right_inverse(fs, basepoint).apply(f)
    rhs = [[cond.apply(particular)] for cond in problem.conditions]
    _det, cs = gauss_jordan(evaluation_matrix(problem.conditions, fs), rhs)
    u = particular
    for (c,), uj in zip(cs, fs.u):
        u = u - uj * c
    return u


# -- randomized instances ----------------------------------------------------

ROOT_POOL = [F(0), F(1), F(-1), F(2), F(-2)]
POINT_POOL = [F(-1), F(0), F(1, 2), F(1), F(2)]
COEFF_POOL = [F(1), F(-1), F(2), F(-2), F(1, 2), F(3)]
INTEGRAND_POOL = ["1", "x", "exp(x)"]


def random_monic_operator(rng: random.Random, order: int) -> Operator:
    """A monic constant-coefficient operator with rational roots."""
    roots = [rng.choice(ROOT_POOL) for _ in range(order)]
    T = Operator.identity()
    for r in roots:
        T = (Operator.derivative(1) - Operator.multiplication(ExpPoly.const(r))) * T
    return T


def random_condition(rng: random.Random, points, order: int) -> StieltjesCondition:
    local = []
    for _ in range(rng.randint(1, 2)):
        local.append((rng.choice(points), rng.randint(0, order + 1), rng.choice(COEFF_POOL)))
    glob = []
    if rng.random() < 0.4:
        a, b = sorted(rng.sample(points, 2))
        glob.append((a, b, parse_exppoly(rng.choice(INTEGRAND_POOL))))
    return StieltjesCondition(local, glob)


def random_regular_problem(rng: random.Random) -> BoundaryProblem:
    """Draw regular problems: order <= 3, 2..3 evaluation points."""
    while True:
        order = rng.randint(1, 3)
        points = rng.sample(POINT_POOL, rng.randint(2, 3))
        T = random_monic_operator(rng, order)
        conditions = [random_condition(rng, points, order) for _ in range(order)]
        problem = BoundaryProblem(T, conditions)
        if len(problem.evaluation_points()) < 2:
            continue
        if not mat_det(evaluation_matrix(conditions, problem.system())).is_zero():
            return problem


OPERATOR_COEFF_POOL = ("1", "x", "2", "exp(x)", "-x", "1/2*x", "x*exp(-x)")
OPERATOR_POINT_POOL = [F(0), F(1), F(-1), F(1, 2)]


def random_operator(rng: random.Random) -> Operator:
    """Small random ring element mixing all four term kinds."""
    out = Operator.zero()
    for _ in range(rng.randint(0, 2)):
        out = out + Operator.derivative(rng.randint(0, 2),
                                        parse_exppoly(rng.choice(OPERATOR_COEFF_POOL)))
    for _ in range(rng.randint(0, 2)):
        out = out + Operator.integral(rng.choice(OPERATOR_POINT_POOL),
                                      parse_exppoly(rng.choice(OPERATOR_COEFF_POOL)),
                                      parse_exppoly(rng.choice(OPERATOR_COEFF_POOL)))
    for _ in range(rng.randint(0, 2)):
        out = out + Operator.evaluation(rng.choice(OPERATOR_POINT_POOL),
                                        rng.randint(0, 2),
                                        parse_exppoly(rng.choice(OPERATOR_COEFF_POOL)))
    if rng.random() < 0.5:
        out = out + Operator.global_term(rng.choice(OPERATOR_POINT_POOL),
                                         rng.choice(OPERATOR_POINT_POOL),
                                         parse_exppoly(rng.choice(OPERATOR_COEFF_POOL)),
                                         parse_exppoly(rng.choice(OPERATOR_COEFF_POOL)))
    return out


def random_exppoly(rng: random.Random) -> ExpPoly:
    out = ExpPoly.zero()
    for _ in range(rng.randint(1, 3)):
        freq = rng.choice([F(0), F(1), F(-1), F(2)])
        power = rng.randint(0, 2)
        coeff = rng.choice(COEFF_POOL)
        out = out + ExpPoly.monomial(freq, power, coeff)
    return out
