import random
from fractions import Fraction as F

import pytest

from conftest import (
    four_point_problem,
    intro_problem,
    nonlocal_problem,
    random_regular_problem,
    relations_by_elimination,
    solve_directly,
    forcing_functions,
)

from stieltjes import (
    BoundaryProblem,
    Constant,
    ExpPoly,
    FundamentalSystem,
    FundamentalSystemError,
    NotRegularError,
    Operator,
    StieltjesCondition,
    WronskianError,
    evaluation_matrix,
    fri_derivative,
    fundamental_right_inverse,
    fundamental_system,
    greens_operator,
    is_regular,
    kernel_relations,
    projector,
)
from stieltjes.boundary import certify

X = ExpPoly.x()
ONE = ExpPoly.one()


def rational_matrix(m):
    return [[entry.as_rational() for entry in row] for row in m]


class TestFundamentalSystem:
    def test_double_root_at_zero(self):
        fs = fundamental_system(Operator.derivative(2))
        assert fs.u == (ONE, X)
        assert fs.d == ONE
        assert fs.cofactors == (-X, ONE)

    def test_exponential_pair(self):
        T = Operator.derivative(2) - Operator.identity()
        fs = fundamental_system(T)
        assert fs.u == (ExpPoly.exponential(1), ExpPoly.exponential(-1))
        assert fs.d == ExpPoly.const(-2)

    def test_first_order(self):
        fs = fundamental_system(Operator.derivative(1))
        assert fs.u == (ONE,)
        assert fs.d == ONE
        assert fs.cofactors == (ONE,)

    def test_third_order_with_zero_root(self):
        # roots 1, 0, -1
        T = Operator.derivative(3) - Operator.derivative(1)
        fs = fundamental_system(T)
        assert fs.u == (ExpPoly.exponential(1), ONE, ExpPoly.exponential(-1))

    def test_rational_root(self):
        # (d - 1/2)(d + 2)
        T = (Operator.derivative() - Operator.multiplication(ExpPoly.const(F(1, 2)))) * (
            Operator.derivative() + Operator.multiplication(ExpPoly.const(2)))
        fs = fundamental_system(T)
        assert fs.u == (ExpPoly.exponential(F(1, 2)), ExpPoly.exponential(-2))

    def test_non_constant_coefficients_rejected(self):
        T = Operator.derivative(2) + Operator.derivative(1, X)
        with pytest.raises(FundamentalSystemError, match="must be supplied"):
            fundamental_system(T)

    def test_irrational_roots_rejected(self):
        # d^2 - 2: roots +-sqrt(2)
        T = Operator.derivative(2) - Operator.multiplication(ExpPoly.const(2))
        with pytest.raises(FundamentalSystemError, match="must be supplied"):
            fundamental_system(T)

    @pytest.mark.parametrize("T, cause", [
        (Operator.integral(0), "not a differential operator"),
        (Operator.identity(), "has order 0"),
    ], ids=["integral", "order-0"])
    def test_operators_without_a_basis_rejected(self, T, cause):
        with pytest.raises(FundamentalSystemError, match=f"{cause}: fundamental system must be"):
            fundamental_system(T)

    def test_empty_system_rejected(self):
        with pytest.raises(FundamentalSystemError, match="must be supplied"):
            FundamentalSystem(())

    def test_user_supplied_system(self):
        fs = FundamentalSystem([ExpPoly.exponential(1), ExpPoly.exponential(-1)])
        assert fs.d == ExpPoly.const(-2)

    def test_user_supplied_dependent_system_rejected(self):
        with pytest.raises(WronskianError, match="not invertible"):
            FundamentalSystem([X, X * 2])

    def test_non_monomial_wronskian_rejected(self):
        # u = (1, e^x): W = [[1, e^x], [0, e^x]], d = e^x is fine;
        # u = (x, e^x) gives d = (x-1)e^x which is not invertible
        with pytest.raises(WronskianError, match="not invertible"):
            FundamentalSystem([X, ExpPoly.exponential(1)])


class TestEvaluationMatrix:
    def test_intro(self):
        prob = intro_problem()
        m = evaluation_matrix(prob.conditions, prob.system())
        assert rational_matrix(m) == [[1, 0], [1, 1]]
        assert is_regular(prob)

    def test_four_point(self):
        prob = four_point_problem()
        m = evaluation_matrix(prob.conditions, prob.system())
        assert rational_matrix(m) == [[2, F(1, 3)], [2, F(5, 3)]]
        assert is_regular(prob)

    def test_neumann_neumann_singular(self):
        prob = BoundaryProblem(
            Operator.derivative(2),
            [StieltjesCondition([(0, 1, 1)]), StieltjesCondition([(1, 1, 1)])],
        )
        m = evaluation_matrix(prob.conditions, prob.system())
        assert rational_matrix(m) == [[0, 1], [0, 1]]
        assert not is_regular(prob)

    def test_global_terms_evaluated(self):
        # beta(u) = int_0^1 u: betas(1) = 1, beta(x) = 1/2
        cond = StieltjesCondition([], [(0, 1, ONE)])
        fs = FundamentalSystem([ONE, X])
        m = evaluation_matrix([cond, cond], fs)
        assert rational_matrix(m) == [[1, F(1, 2)], [1, F(1, 2)]]


class TestFundamentalRightInverse:
    def test_second_order(self):
        fs = fundamental_system(Operator.derivative(2))
        fri = fundamental_right_inverse(fs, 0)
        assert fri == Operator.integral(0, X) - Operator.integral(0, ONE, X)

    def test_first_order(self):
        fs = fundamental_system(Operator.derivative(1))
        assert fundamental_right_inverse(fs, 0) == Operator.integral(0)

    def test_exponential(self):
        T = Operator.derivative(2) - Operator.identity()
        fs = fundamental_system(T)
        fri = fundamental_right_inverse(fs, 0)
        ex, emx = ExpPoly.exponential(1), ExpPoly.exponential(-1)
        expected = (Operator.integral(0, ex * F(1, 2), emx)
                    - Operator.integral(0, emx * F(1, 2), ex))
        assert fri == expected

    @pytest.mark.parametrize("make_T", [
        lambda: Operator.derivative(2),
        lambda: Operator.derivative(2) - Operator.identity(),
        lambda: Operator.derivative(3) - Operator.derivative(1),
    ])
    def test_right_inverse_identity(self, make_T):
        T = make_T()
        fs = fundamental_system(T)
        fri = fundamental_right_inverse(fs, 0)
        assert T * fri == Operator.identity()


class TestFriDerivative:
    def test_first_derivative_of_second_order(self):
        fs = fundamental_system(Operator.derivative(2))
        op, residues = fri_derivative(fs, 1, 0)
        assert op == Operator.integral(0)
        assert residues == [ExpPoly.zero()]

    def test_residue_pattern(self):
        fs = fundamental_system(Operator.derivative(2))
        _op, residues = fri_derivative(fs, 2, 0)
        assert residues == [ExpPoly.zero(), ONE]

    def test_second_derivative_is_identity(self):
        fs = fundamental_system(Operator.derivative(2))
        op, _res = fri_derivative(fs, 2, 0)
        assert op == Operator.identity()

    @pytest.mark.parametrize("make_T", [
        lambda: Operator.derivative(2),
        lambda: Operator.derivative(2) - Operator.identity(),
        lambda: Operator.derivative(3) - Operator.derivative(1),
        # roots 1, 1, -1: x*exp(x) in the basis
        lambda: (Operator.derivative(3) - Operator.derivative(2) - Operator.derivative(1)
                 + Operator.identity()),
    ])
    def test_matches_operator_product(self, make_T):
        T = make_T()
        fs = fundamental_system(T)
        n = fs.size
        fri = fundamental_right_inverse(fs, 0)
        for k in range(n + 3):
            closed, residues = fri_derivative(fs, k, 0)
            assert Operator.derivative(k) * fri == closed
            for j, rho in enumerate(residues, start=1):
                if j < n:
                    assert rho.is_zero()
                elif j == n:
                    assert rho == ONE


class TestProjector:
    def test_intro(self):
        prob = intro_problem()
        p = projector(prob.conditions, prob.system())
        expected = (Operator.evaluation(0)
                    + Operator.evaluation(1, 0, X) - Operator.evaluation(0, 0, X))
        assert p == expected

    def test_interpolation(self):
        prob = intro_problem()
        p = projector(prob.conditions, prob.system())
        assert p.apply(ExpPoly.monomial(0, 2)) == X

    def test_taylor_projector(self):
        prob = BoundaryProblem(
            Operator.derivative(2),
            [StieltjesCondition([(0, 0, 1)]), StieltjesCondition([(0, 1, 1)])],
        )
        p = projector(prob.conditions, prob.system())
        assert p == Operator.evaluation(0) + Operator.evaluation(0, 1, X)

    def test_idempotent_and_fixes_kernel(self):
        rng = random.Random(3)
        for _ in range(8):
            prob = random_regular_problem(rng)
            fs = prob.system()
            p = projector(prob.conditions, fs)
            assert p * p == p
            for uj in fs.u:
                assert p.apply(uj) == uj

    def test_singular_matrix_raises(self):
        prob = BoundaryProblem(
            Operator.derivative(2),
            [StieltjesCondition([(0, 1, 1)]), StieltjesCondition([(1, 1, 1)])],
        )
        with pytest.raises(NotRegularError, match="not regular") as info:
            projector(prob.conditions, prob.system())
        assert info.value.matrix is not None


class TestGreensOperator:
    def test_intro_display(self):
        G = greens_operator(intro_problem())
        expected = (Operator.integral(0, X) - Operator.integral(0, ONE, X)
                    + Operator.global_term(1, 0, X, X) - Operator.global_term(1, 0, X, ONE))
        assert G == expected

    def test_defining_identities_exact(self):
        for prob in (intro_problem(), four_point_problem(), nonlocal_problem()):
            G = greens_operator(prob)
            assert prob.T * G == Operator.identity()
            for cond in prob.conditions:
                assert cond.as_operator() * G == Operator.zero()

    def test_irregular_raises(self):
        prob = BoundaryProblem(
            Operator.derivative(2),
            [StieltjesCondition([(0, 1, 1)]), StieltjesCondition([(1, 1, 1)])],
        )
        with pytest.raises(NotRegularError) as info:
            greens_operator(prob)
        assert [[c.to_text() for c in row] for row in info.value.matrix] == [["0", "1"], ["0", "1"]]
        assert not certify(prob, Operator.zero())

    def test_standard_form_at_default_basepoint(self):
        prob = nonlocal_problem()
        G = greens_operator(prob)
        assert G.basepoints() == {F(-1)}  # smallest evaluation point

    def test_basepoint_override(self):
        prob = intro_problem()
        G0 = greens_operator(prob)
        G1 = greens_operator(prob, basepoint=1)
        assert G0 != G1
        for f in forcing_functions():
            assert G0.apply(f) == G1.apply(f)

    def test_matches_direct_solution(self):
        for prob in (intro_problem(), four_point_problem(), nonlocal_problem()):
            G = greens_operator(prob)
            b = min(prob.evaluation_points())
            for f in forcing_functions():
                assert G.apply(f) == solve_directly(prob, f, b)

    def test_basis_recombination_invariance(self):
        # replacing conditions by an invertible combination leaves G unchanged
        prob = four_point_problem()
        c1, c2 = prob.conditions
        recombined = BoundaryProblem(prob.T, [
            StieltjesCondition(
                [(p, i, c * 2) for p, i, c in c1.local_terms]
                + [(p, i, c) for p, i, c in c2.local_terms]),
            StieltjesCondition([(p, i, -c) for p, i, c in c2.local_terms]),
        ])
        assert is_regular(recombined)
        assert greens_operator(recombined) == greens_operator(prob)


class TestKernelRelations:
    def test_printed_matrix(self):
        fs = FundamentalSystem([ONE, X])
        matrix, basis = kernel_relations(fs, 0, 1)
        assert rational_matrix(matrix) == [[1, 0], [0, 1], [1, 1], [0, 1]]
        assert len(basis) == 2
        # defining property: every basis vector annihilates the matrix
        for vec in basis:
            for col in range(2):
                total = Constant.zero()
                for k in range(4):
                    total = total + vec[k] * matrix[k][col]
                assert total.is_zero()

    def test_relations_span(self):
        fs = FundamentalSystem([ONE, X])
        _matrix, basis = kernel_relations(fs, 0, 1)
        # u(1) - u(0) = u'(0)  and  u'(0) = u'(1)
        targets = [
            (F(-1), F(-1), F(1), F(0)),
            (F(0), F(-1), F(0), F(1)),
        ]
        for target in targets:
            assert _in_span(target, basis)

    def test_duplicate_point(self):
        T = Operator.derivative(2) - Operator.identity()
        fs = fundamental_system(T)
        matrix, basis = kernel_relations(fs, 0, 0)
        assert matrix[0] == matrix[2] and matrix[1] == matrix[3]
        assert len(basis) == 2

    def test_exponential_coefficients(self):
        T = Operator.derivative(2) - Operator.identity()
        fs = fundamental_system(T)
        _matrix, basis = kernel_relations(fs, 0, 1)
        assert len(basis) == 2
        flat = [c for vec in basis for c in vec]
        assert any(c.as_rational() is None for c in flat)


def _system_of_roots(roots):
    """The computed fundamental system of prod (D - r) over ``roots``."""
    T = Operator.identity()
    for r in roots:
        T = (Operator.derivative() - Operator.multiplication(ExpPoly.const(r))) * T
    return fundamental_system(T)


def _kernel_systems():
    """For each order 1..6 a computed system on seeded rational roots, repeats
    included, and a supplied one: each u_j plus rational multiples of the
    later u_k, whose Wronskian is the same exponential monomial."""
    rng = random.Random(39)
    pool = [F(0), F(1), F(-1), F(2), F(1, 2), F(-1, 3)]
    for n in range(1, 7):
        fs = _system_of_roots([rng.choice(pool) for _ in range(n)])
        yield f"computed-{n}", fs
        yield f"supplied-{n}", FundamentalSystem(
            [ExpPoly.sum([u] + [v * ExpPoly.const(rng.choice(pool)) for v in fs.u[j + 1:]])
             for j, u in enumerate(fs.u)])


KERNEL_POINTS = [(0, 1), (-1, 2), (F(1, 2), F(-1, 3)), (0, F(3, 2)), (1, 1), (F(2, 3), F(2, 3))]


@pytest.mark.parametrize("fs", [pytest.param(fs, id=name) for name, fs in _kernel_systems()])
def test_kernel_relations_are_the_reduced_echelon_basis(fs):
    # integral, non-integral and equal points: the basis is (-X[:, k], e_k)
    # with X = W(a)^-T W(b)^T from the reference elimination
    n = fs.size
    for a, b in KERNEL_POINTS:
        matrix, basis = kernel_relations(fs, a, b)
        assert len(matrix) == 2 * n and basis == relations_by_elimination(matrix)
        for x in basis:
            assert all(Constant.sum(x[i] * matrix[i][j] for i in range(2 * n)).is_zero()
                       for j in range(n))
        if a == b:  # W(b) W(a)^-1 = I
            assert all(x[:n] == tuple(-c for c in x[n:]) for x in basis)


def _in_span(target, basis):
    """Solve sum_i c_i basis_i = target exactly over the Constant field."""
    if not basis:
        return all(F(t) == 0 for t in target)
    dim = len(basis[0])
    cols = len(basis)
    # least-structure approach: pick rows to invert is overkill; solve by
    # Gaussian elimination on the full system
    rows = [[basis[j][i] for j in range(cols)] + [Constant.from_rational(target[i])]
            for i in range(dim)]
    # eliminate
    pivot_row = 0
    pivots = []
    for col in range(cols):
        pr = next((r for r in range(pivot_row, dim) if not rows[r][col].is_zero()), None)
        if pr is None:
            continue
        rows[pivot_row], rows[pr] = rows[pr], rows[pivot_row]
        inv = rows[pivot_row][col].inverse()
        rows[pivot_row] = [v * inv for v in rows[pivot_row]]
        for r in range(dim):
            if r != pivot_row and not rows[r][col].is_zero():
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    for r in range(pivot_row, dim):
        if not rows[r][cols].is_zero():
            return False
    return True


class TestProblemClassification:
    def test_well_posed(self):
        assert intro_problem().is_well_posed()
        assert four_point_problem().is_well_posed()
        assert not nonlocal_problem().is_well_posed()

    def test_point_count(self):
        assert intro_problem().point_count() == 2
        assert four_point_problem().point_count() == 4
        # integral endpoints count as evaluation points
        assert nonlocal_problem().point_count() == 3
        assert nonlocal_problem().evaluation_points() == {F(-1), F(0), F(1)}

    def test_local(self):
        assert intro_problem().is_local()
        assert not nonlocal_problem().is_local()

    def test_validation(self):
        with pytest.raises(ValueError, match="purely differential"):
            BoundaryProblem(Operator.integral(0), [])
        with pytest.raises(ValueError, match="monic"):
            BoundaryProblem(Operator.derivative(2, ExpPoly.const(2)),
                            [StieltjesCondition([(0, 0, 1)])] * 2)
        with pytest.raises(ValueError, match="conditions"):
            BoundaryProblem(Operator.derivative(2),
                            [StieltjesCondition([(0, 0, 1)])])


def test_condition_merging():
    cond = StieltjesCondition([(0, 0, 1), (0, 0, 2)], [(0, 1, X), (0, 1, X)])
    assert cond.local_terms == ((F(0), 0, Constant.from_rational(3)),)
    assert cond.global_terms == ((F(0), F(1), X * 2),)
    # zero terms go, and the integrands of one interval are read back as one
    E = ExpPoly.exponential(1)
    cond = StieltjesCondition([(0, 0, 1), (0, 0, -1), (1, 1, 2)],
                              [(0, 1, X), (0, 1, E), (1, 2, X), (1, 2, -X), (3, 3, X)])
    assert cond.local_terms == ((F(1), 1, Constant.from_rational(2)),)
    assert cond.global_terms == ((F(0), F(1), X + E),)
    assert cond.evaluation_points() == {F(0), F(1)}


def test_condition_as_operator_action_matches_apply():
    """``apply`` and the action of ``as_operator`` against the functional
    computed from the terms: ``c u^(i)(p)`` and ``F(b) - F(a)``, F an
    antiderivative of ``w u``."""
    E = ExpPoly.exponential(1)
    cond = StieltjesCondition([(0, 1, 2), (1, 0, -1), (F(1, 2), 2, 3)],
                              [(0, 1, X + E), (0, 1, X * X), (F(-1, 2), 1, E - ONE)])
    assert len(cond.global_terms) == 2
    op = cond.as_operator()
    for f in forcing_functions():
        expected = Constant.sum(
            [c * f.derive(i).eval_at(p) for p, i, c in cond.local_terms]
            + [(w * f).antiderivative().eval_at(b) - (w * f).antiderivative().eval_at(a)
               for a, b, w in cond.global_terms])
        assert cond.apply(f) == expected
        assert op.apply(f) == ExpPoly.const(expected)


def test_rational_root_with_large_prime_constant_term():
    from stieltjes.boundary import _rational_roots

    # (x - 100000007)(2x + 3): isolation bisects the upper half of an interval
    # first, so the largest root, 100000007, is found before -3/2
    coeffs = [F(-300000021), F(-200000011), F(2)]
    assert _rational_roots([c / 2 for c in coeffs]) == [F(100000007), F(-3, 2)]


@pytest.mark.parametrize("order", [1.5, True, -1, "1"])
def test_condition_orders_must_be_nonnegative_ints(order):
    # order 1.5 used to be stored as 1
    with pytest.raises(ValueError, match="derivative order must be a nonnegative integer"):
        StieltjesCondition([(0, order, Constant.one())])
