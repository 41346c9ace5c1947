import json
import random
from fractions import Fraction as F

import pytest

from conftest import (
    forcing_functions,
    four_breakpoint_operator,
    four_point_problem,
    intro_problem,
    nonlocal_problem,
    random_regular_problem,
)

from stieltjes import (
    BivariateExpPoly,
    Constant,
    DegenerateDomainError,
    ExpPoly,
    GreensFunction,
    NotEquitableError,
    Operator,
    ParseError,
    apply_greens,
    eval_functional,
    extract,
    greens_operator,
    parse_bivariate,
    parse_exppoly,
    render,
    to_equitable,
)
from stieltjes.greens import REGION_LOWER, REGION_UPPER

X = ExpPoly.x()
ONE = ExpPoly.one()


def intro_function() -> GreensFunction:
    return extract(to_equitable(greens_operator(intro_problem())))


class TestExtract:
    def test_intro_branches(self):
        g = intro_function()
        assert g.breakpoints == (F(0), F(1))
        assert g.branch(1, REGION_LOWER) == parse_bivariate("(x-1)*xi")
        assert g.branch(1, REGION_UPPER) == parse_bivariate("x*(xi-1)")
        assert not g.dirac and not g.diagonal

    def test_four_point_rows(self):
        g = extract(to_equitable(greens_operator(four_point_problem())))
        expected = {
            (1, REGION_LOWER): "3/4*x*xi - 5/8*xi",
            (1, REGION_UPPER): "3/4*x*xi + 3/8*xi - x",
            (2, REGION_LOWER): "3/2*x*xi - 5/4*xi - 1/4*x + 5/24",
            (2, REGION_UPPER): "3/2*x*xi - 1/4*xi - 5/4*x + 5/24",
            (3, REGION_LOWER): "3/4*x*xi - 9/8*xi + 1/4*x + 1/8",
            (3, REGION_UPPER): "3/4*x*xi - 1/8*xi - 3/4*x + 1/8",
        }
        assert g.breakpoints == (F(0), F(1, 3), F(2, 3), F(1))
        for key, text in expected.items():
            assert g.branch(*key) == parse_bivariate(text)
        assert not g.has_distributional_part()

    def test_zero_operator_with_interval(self):
        g = extract(Operator.zero(), interval=(0, 1))
        assert g.breakpoints == (F(0), F(1))
        assert g.branch(1, REGION_LOWER).is_zero()
        assert g.branch(1, REGION_UPPER).is_zero()
        assert not g.dirac

    def test_global_terms_rejected(self):
        op = Operator.global_term(1, 0, X, ONE)
        with pytest.raises(NotEquitableError, match="equitable"):
            extract(op)

    def test_single_point_needs_interval(self):
        op = Operator.integral(0, X, ONE)
        with pytest.raises(DegenerateDomainError, match="explicit interval"):
            extract(op)
        g = extract(op, interval=(0, 1))
        assert g.branch(1, REGION_LOWER) == BivariateExpPoly.tensor(X, ONE)
        assert g.branch(1, REGION_UPPER).is_zero()

    def test_dirac_terms_from_local_boundary(self):
        op = (Operator.integral(0) - Operator.integral(1)
              + Operator.evaluation(1, 2, X * 3))
        g = extract(op)
        assert g.dirac == ((F(1), 2, X * 3),)
        assert g.dirac_orders() == {(F(1), 2)}

    def test_diagonal_terms_from_diff_part(self):
        op = Operator.integral(0) - Operator.integral(1) + Operator.derivative(1, X)
        g = extract(op)
        assert g.diagonal == ((1, X),)


class TestEvalFunctional:
    def test_intro_points(self):
        g = intro_function()
        assert eval_functional(g, F(3, 4), F(1, 2)) == Constant.from_rational(F(-1, 8))
        # diagonal tie picks the lower branch
        assert eval_functional(g, F(1, 2), F(1, 2)) == Constant.from_rational(F(-1, 4))

    def test_four_point_row(self):
        g = extract(to_equitable(greens_operator(four_point_problem())))
        assert eval_functional(g, 1, F(1, 2)) == Constant.from_rational(F(1, 12))

    def test_interior_breakpoint_ties_left(self):
        g = extract(to_equitable(greens_operator(four_point_problem())))
        # xi = 1/3 evaluates through interval [0, 1/3]
        lower = g.branch(1, REGION_LOWER).eval_at(1, F(1, 3))
        assert eval_functional(g, 1, F(1, 3)) == lower

    def test_out_of_domain(self):
        g = intro_function()
        with pytest.raises(ValueError, match="domain"):
            eval_functional(g, 2, F(1, 2))
        with pytest.raises(ValueError, match="domain"):
            eval_functional(g, F(1, 2), -1)

    def test_points_read_alike_as_int_fraction_and_str(self):
        g = intro_function()
        value = eval_functional(g, F(3, 4), F(1, 2))
        assert eval_functional(g, "3/4", "1/2") == eval_functional(g, F(3, 4), " 1/2 ") == value
        assert eval_functional(g, 1, F(1, 2)) == eval_functional(g, "1", "1/2")

    def test_float_points_are_refused(self):
        with pytest.raises(ParseError, match=r"bad rational literal 0\.5: write it as a string"):
            eval_functional(intro_function(), 0.5, F(1, 2))

    def test_intro_symmetry_spot_check(self):
        g = intro_function()
        rng = random.Random(19)
        for _ in range(12):
            x = F(rng.randint(0, 8), 8)
            xi = F(rng.randint(0, 8), 8)
            assert eval_functional(g, x, xi) == eval_functional(g, xi, x)


class TestApplyGreens:
    def test_intro_unit_forcing(self):
        g = intro_function()
        u = apply_greens(g, ONE)
        assert u == parse_exppoly("1/2*x^2 - 1/2*x")

    def test_pure_integral_term(self):
        op = Operator.integral(0, X, X)
        g = extract(op, interval=(0, 1))
        for f in (ONE, X):
            assert apply_greens(g, f) == op.apply(f)

    def test_variation_of_constants_kernel(self):
        op = Operator.integral(0, X) - Operator.integral(0, ONE, X)
        g = extract(op, interval=(0, 1))
        assert apply_greens(g, X) == parse_exppoly("1/6*x^3")

    def test_zero_forcing(self):
        g = extract(to_equitable(greens_operator(nonlocal_problem())))
        assert apply_greens(g, ExpPoly.zero()).is_zero()

    def test_dirac_contributions(self):
        # kernel delta'(xi-1) alone: picks out -(-f'(1)) = f'(1) scaled by coeff
        op = (Operator.integral(0) - Operator.integral(1)
              + Operator.evaluation(1, 1, X))
        g = extract(op)
        f = parse_exppoly("x^2")
        assert apply_greens(g, f) == op.apply(f)

    def test_diagonal_contributions(self):
        op = Operator.integral(0) - Operator.integral(1) + Operator.derivative(1, X)
        g = extract(op)
        f = parse_exppoly("exp(x)")
        assert apply_greens(g, f) == op.apply(f)

    def test_agreement_randomized(self):
        rng = random.Random(59)
        for _ in range(6):
            prob = random_regular_problem(rng)
            G = greens_operator(prob)
            g = extract(to_equitable(G))
            for f in forcing_functions():
                assert apply_greens(g, f) == G.apply(f)


class TestStructure:
    def test_branch_count(self):
        assert intro_function().branch_count == 2
        g4 = extract(to_equitable(greens_operator(four_point_problem())))
        assert g4.branch_count == 6

    def test_breakpoints_subset_of_evaluation_points(self):
        rng = random.Random(61)
        for _ in range(6):
            prob = random_regular_problem(rng)
            g = extract(to_equitable(greens_operator(prob)))
            assert set(g.breakpoints) <= prob.evaluation_points()
            assert g.branch_count == 2 * (len(g.breakpoints) - 1)

    def test_well_posed_has_no_distributional_part(self):
        rng = random.Random(67)
        seen = 0
        for _ in range(12):
            prob = random_regular_problem(rng)
            if not prob.is_well_posed():
                continue
            seen += 1
            g = extract(to_equitable(greens_operator(prob)))
            assert not g.dirac
        assert seen >= 2

    def test_regular_problems_have_no_diagonal_part(self):
        rng = random.Random(71)
        for _ in range(8):
            prob = random_regular_problem(rng)
            eq = to_equitable(greens_operator(prob))
            assert not eq.diff_part
            g = extract(eq)
            assert not g.diagonal

    def test_dirac_points_match_local_boundary(self):
        prob = nonlocal_problem()
        eq = to_equitable(greens_operator(prob))
        g = extract(eq)
        local_orders = {(p, i) for _f, p, i in eq.local_boundary}
        assert g.dirac_orders() == local_orders

    def test_scale(self):
        g = intro_function()
        doubled = g.scale(2)
        assert doubled.branch(1, REGION_LOWER) == g.branch(1, REGION_LOWER) * Constant.from_rational(2)


class TestRender:
    def test_latex_two_cases(self):
        g = intro_function()
        out = render(g, "latex")
        assert out.count(r"\le \xi \le") == 2
        assert r"\xi \le x" in out and r"x \le \xi" in out

    def test_four_point_six_rows(self):
        g = extract(to_equitable(greens_operator(four_point_problem())))
        out = render(g, "latex")
        assert out.count(r"\le \xi \le") == 6

    def test_distributional_section(self):
        g = extract(to_equitable(greens_operator(nonlocal_problem())))
        out = render(g, "latex")
        assert r"\delta" in out and r"\delta'" in out

    def test_json_roundtrip(self):
        for prob in (intro_problem(), four_point_problem(), nonlocal_problem()):
            g = extract(to_equitable(greens_operator(prob)))
            assert GreensFunction.from_json(render(g, "json")) == g

    def test_text_rows(self):
        out = render(intro_function(), "text")
        assert "0 <= xi <= 1, xi <= x" in out

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            render(intro_function(), "html")


def test_interval_extends_breakpoints():
    g = extract(to_equitable(greens_operator(intro_problem())), interval=(-1, 2))
    assert g.breakpoints == (F(-1), F(0), F(1), F(2))
    assert g.branch_count == 6
    # outer branches still integrate correctly
    G = greens_operator(intro_problem())
    for f in forcing_functions():
        assert apply_greens(g, f) == G.apply(f)


def distributional_function() -> GreensFunction:
    """Three cells with dirac terms of order 0, 1 and 2 and diagonal terms."""
    return GreensFunction(
        [-1, 0, F(1, 2)],
        {(1, REGION_LOWER): parse_bivariate("x*xi"),
         (2, REGION_UPPER): parse_bivariate("exp(x-xi)")},
        dirac=[(-1, 0, parse_exppoly("3/2")), (0, 1, parse_exppoly("x*exp(-x)")),
               (F(1, 2), 2, parse_exppoly("-x + 1"))],
        diagonal=[(0, parse_exppoly("x^2")), (1, parse_exppoly("-2")),
                  (2, parse_exppoly("exp(2*x)/3"))],
    )


class TestDistributionalRender:
    """The exact strings of the dirac and diagonal renderings."""

    def test_text(self):
        assert distributional_function().to_text() == "\n".join([
            "-1 <= xi <= 0, xi <= x: x*xi",
            "-1 <= xi <= 0, x <= xi: 0",
            "0 <= xi <= 1/2, xi <= x: 0",
            "0 <= xi <= 1/2, x <= xi: exp(x-xi)",
            "dirac: (3/2) * delta(xi + 1)",
            "dirac: -(x*exp(-x)) * delta'(xi)",
            "dirac: (1 - x) * delta''(xi - 1/2)",
            "diagonal: (x^2) * delta(x - xi)",
            "diagonal: -(-2) * delta'(x - xi)",
            "diagonal: (1/3*exp(2*x)) * delta''(x - xi)",
        ])

    def test_latex(self):
        assert distributional_function().to_latex() == "\n".join([
            r"\begin{array}{|l|l|}",
            r"\hline",
            r"\text{Case} & \text{Term}\\\hline",
            r"-1 \le \xi \le 0,\ \xi \le x & x \xi\\\hline",
            r"-1 \le \xi \le 0,\ x \le \xi & 0\\\hline",
            r"0 \le \xi \le 1/2,\ \xi \le x & 0\\\hline",
            r"0 \le \xi \le 1/2,\ x \le \xi & e^{x-\xi}\\\hline",
            r"\end{array}",
            r"\text{distributional part: } \left(\tfrac{3}{2}\right)\,\delta(\xi + 1)"
            r"-\left(x e^{-x}\right)\,\delta'(\xi)"
            r"+\left(1-x\right)\,\delta^{(2)}(\xi - 1/2)"
            r"+\left(x^{2}\right)\,\delta(x-\xi)"
            r"-\left(-2\right)\,\delta'(x-\xi)"
            r"+\left(\tfrac{1}{3} e^{2x}\right)\,\delta^{(2)}(x-\xi)",
        ])

    def test_diagonal_only(self):
        g = GreensFunction([0, 1], {}, diagonal=[(3, X)])
        assert g.to_text().splitlines()[-1] == "diagonal: -(x) * delta'''(x - xi)"
        assert g.to_latex().splitlines()[-1] == (
            r"\text{distributional part: } -\left(x\right)\,\delta^{(3)}(x-\xi)")


class TestApplyToCells:
    def test_agreement_on_three_cells(self):
        op = four_breakpoint_operator()
        g = extract(op)
        assert g.breakpoints == (F(0), F(1, 2), F(1), F(2))
        for text in ("1", "x", "exp(x)", "x*exp(-x)"):
            f = parse_exppoly(text)
            assert apply_greens(g, f) == op.apply(f)

    def test_non_matching_branches_rejected(self):
        branches = {(1, REGION_LOWER): parse_bivariate("x*xi"),
                    (2, REGION_LOWER): parse_bivariate("xi"),
                    (3, REGION_UPPER): parse_bivariate("exp(x)*xi^2")}
        g = GreensFunction([0, 1, 2, 3], branches)
        with pytest.raises(ValueError, match="not smooth across breakpoints"):
            g.apply_to(ONE)


def _greens_document():
    return {
        "breakpoints": ["0", "1"],
        "branches": [{"interval": 1, "region": REGION_LOWER, "term": "x*xi"}],
        "dirac": [{"point": "0", "order": 1, "coeff": "x"}],
        "diagonal": [{"order": 0, "coeff": "1"}],
    }


@pytest.mark.parametrize("section, key, value", [
    ("branches", "interval", 1.9),
    ("branches", "interval", True),
    ("branches", "interval", "1"),
    ("dirac", "order", 2.7),
    ("dirac", "order", -1),
    ("dirac", "point", 1.0),
    ("diagonal", "order", 1.0),
])
def test_bad_values_in_a_greens_function_document_are_rejected(section, key, value):
    # dirac order 2.7 used to load as delta'' and interval 1.9 as interval 1
    from stieltjes import ParseError

    assert GreensFunction.from_json_dict(_greens_document()).dirac[0][1] == 1
    doc = _greens_document()
    doc[section][0][key] = value
    with pytest.raises(ParseError):
        GreensFunction.from_json_dict(doc)


def test_branch_keys_outside_the_intervals_are_rejected():
    # a misspelled region and an interval past the last breakpoint used to
    # load silently as the zero kernel
    doc = {
        "breakpoints": ["0", "1"],
        "branches": [
            {"interval": 1, "region": "xi<x", "term": "x*xi"},
            {"interval": 7, "region": REGION_LOWER, "term": "x"},
        ],
    }
    from stieltjes import ParseError

    with pytest.raises(ParseError, match="name no interval"):
        GreensFunction.from_json_dict(doc)
    with pytest.raises(ParseError, match="name no interval"):
        GreensFunction.from_json(json.dumps(doc))
    term = parse_bivariate("x*xi")
    for key in [(1, "xi<x"), (7, REGION_LOWER), (0, REGION_UPPER)]:
        with pytest.raises(ValueError, match="name no interval"):
            GreensFunction([0, 1], {key: term})
    # the known keys still load, and a missing one is the zero branch
    g = GreensFunction([0, 1], {(1, REGION_LOWER): term})
    assert g.branch(1, REGION_LOWER) == term
    assert g.branch(1, REGION_UPPER).is_zero()


def test_dirac_points_must_be_breakpoints():
    with pytest.raises(ValueError, match="^dirac point 2 is not a breakpoint$"):
        GreensFunction([0, 1], {}, dirac=[(2, 0, ONE)])
    doc = {"breakpoints": ["0", "1"], "dirac": [{"point": "2", "order": 0, "coeff": "1"}]}
    with pytest.raises(ParseError, match="^bad Green's function document: dirac point 2 is "
                                         "not a breakpoint$"):
        GreensFunction.from_json_dict(doc)


@pytest.mark.parametrize("breakpoints, dirac", [
    ([0, 0.1], []),
    ([0, 1], [(0.0, 0, ONE)]),
], ids=["breakpoint", "dirac-point"])
def test_float_points_are_refused(breakpoints, dirac):
    # 0.1 used to be stored as 3602879701896397/36028797018963968
    with pytest.raises(ParseError, match="bad rational literal 0.[01]: write it as a string"):
        GreensFunction(breakpoints, {}, dirac=dirac)


def test_int_fraction_and_str_points_read_alike():
    term = parse_bivariate("x*xi")
    g = GreensFunction([0, "1/2", F(1)], {(2, REGION_LOWER): term}, dirac=[("1/2", 1, X)])
    assert g.breakpoints == (0, F(1, 2), 1)
    assert [type(p) for p in g.breakpoints] == [int, F, int]
    assert g.dirac == ((F(1, 2), 1, X),)
    assert g == GreensFunction([F(0), F(1, 2), "1"], {(2, REGION_LOWER): term},
                               dirac=[(F(1, 2), 1, X)])
    assert g.to_json_dict()["breakpoints"] == ["0", "1/2", "1"]


@pytest.mark.parametrize("dirac, diagonal", [
    ([(0, 2.7, ExpPoly.one())], []),
    ([(0, True, ExpPoly.one())], []),
    ([], [(0.5, ExpPoly.one())]),
    ([], [(-1, ExpPoly.one())]),
])
def test_distributional_orders_must_be_nonnegative_ints(dirac, diagonal):
    # dirac order 2.7 used to be stored as 2 and diagonal order 0.5 as 0
    with pytest.raises(ValueError, match="derivative order must be a nonnegative integer"):
        GreensFunction([0, 1], {}, dirac=dirac, diagonal=diagonal)
