import random
from fractions import Fraction as F

import pytest
from conftest import OPERATOR_COEFF_POOL, OPERATOR_POINT_POOL, random_operator

from stieltjes import (
    ExpPoly,
    Operator,
    ParseError,
    apply,
    op_add,
    op_mul,
    parse_exppoly,
    to_equitable,
    to_standard,
)

X = ExpPoly.x()
ONE = ExpPoly.one()
D = Operator.derivative()
I0 = Operator.integral(0)


def intro_standard() -> Operator:
    """x int - int x + x<1>int x - x<1>int"""
    return (Operator.integral(0, X) - Operator.integral(0, ONE, X)
            + Operator.global_term(1, 0, X, X) - Operator.global_term(1, 0, X, ONE))


def intro_equitable() -> Operator:
    """x int_0 x - x int_1 x - int_0 x + x int_1"""
    return (Operator.integral(0, X, X) - Operator.integral(1, X, X)
            - Operator.integral(0, ONE, X) + Operator.integral(1, X, ONE))


class TestAdd:
    def test_cancellation(self):
        assert op_add(Operator.integral(0, X), Operator.integral(0, -X)).is_zero()

    def test_two_term_head(self):
        head = op_add(Operator.integral(0, X), -Operator.integral(0, ONE, X))
        assert head.integral_part == [
            (F(0), X, ONE),
            (F(0), -ONE, X),
        ]

    def test_boundary_merge(self):
        ev = Operator.evaluation(1)
        assert op_add(ev, ev) == Operator.evaluation(1, 0, ExpPoly.const(2))


class TestMul:
    def test_derivative_cancels_integral(self):
        assert op_mul(D, I0) == Operator.identity()

    def test_integral_function_derivative(self):
        got = op_mul(op_mul(I0, Operator.multiplication(X)), D)
        assert got == Operator.multiplication(X) - I0

    def test_integral_function_derivative_keeps_character(self):
        # int_0 e^x d = e^x - int_0 e^x - <0>
        ex = ExpPoly.exponential(1)
        got = op_mul(Operator.integral(0, ONE, ex), D)
        expected = (Operator.multiplication(ex) - Operator.integral(0, ONE, ex)
                    - Operator.evaluation(0))
        assert got == expected

    def test_nested_integrals(self):
        got = op_mul(I0, I0)
        expected = Operator.integral(0, X) - Operator.integral(0, ONE, X)
        assert got == expected
        # oracle: both sides act identically on 1, x, x^2
        for h in (ONE, X, ExpPoly.monomial(0, 2)):
            assert apply(got, h) == apply(I0, apply(I0, h))

    def test_derivative_annihilates_evaluation(self):
        assert op_mul(D, Operator.evaluation(F(1, 2))).is_zero()
        assert apply(op_mul(D, Operator.evaluation(F(1, 2))), X).is_zero()

    def test_character_absorbs_function(self):
        # <1> * x = 1 * <1>
        got = op_mul(Operator.evaluation(1), Operator.multiplication(X))
        assert got == Operator.evaluation(1)

    def test_characters_collapse(self):
        got = op_mul(Operator.evaluation(1), Operator.evaluation(0))
        assert got == Operator.evaluation(0)

    def test_evaluation_at_own_basepoint_vanishes(self):
        assert op_mul(Operator.evaluation(0), I0).is_zero()


class TestApply:
    def test_right_inverse_shape(self):
        fri = Operator.integral(0, X) - Operator.integral(0, ONE, X)
        assert apply(fri, ONE) == ExpPoly.monomial(0, 2, F(1, 2))

    def test_evaluation(self):
        assert apply(Operator.evaluation(1), ExpPoly.monomial(0, 2) - X).is_zero()

    def test_intro_defining_property(self):
        G = intro_standard()
        u = apply(G, ONE)
        assert u == parse_exppoly("1/2*x^2 - 1/2*x")
        assert u.derive(2) == ONE
        assert u.eval_at(0).is_zero() and u.eval_at(1).is_zero()


class TestTranslation:
    def test_intro_to_equitable(self):
        assert to_equitable(intro_standard()) == intro_equitable()

    def test_char_integral_at_same_point_cancels(self):
        assert to_equitable(Operator.global_term(1, 1, X, X)).is_zero()

    def test_intro_to_standard(self):
        assert to_standard(intro_equitable(), 0) == intro_standard()

    def test_standard_is_fixed_point(self):
        assert to_standard(I0, 0) == I0

    def test_roundtrip_randomized(self):
        rng = random.Random(31)
        for _ in range(20):
            u = random_operator(rng)
            eq = to_equitable(u)
            assert eq.is_equitable()
            assert to_equitable(to_standard(eq, 0)) == eq
            for h in (ONE, X, ExpPoly.exponential(1)):
                assert apply(eq, h) == apply(u, h)
                assert apply(to_standard(u, 0), h) == apply(u, h)


class TestRingLaws:
    def test_homomorphism_randomized(self):
        rng = random.Random(37)
        tests = [ONE, X, ExpPoly.monomial(0, 2), ExpPoly.exponential(1)]
        for _ in range(25):
            u, v = random_operator(rng), random_operator(rng)
            uv = op_mul(u, v)
            for h in tests:
                assert apply(uv, h) == apply(u, apply(v, h))

    def test_associativity_randomized(self):
        rng = random.Random(41)
        for _ in range(15):
            u, v, w = (random_operator(rng) for _ in range(3))
            assert op_mul(op_mul(u, v), w) == op_mul(u, op_mul(v, w))

    def test_projector_rewrite_for_vanishing_function(self):
        # f(0) = 0: int_0 f d = f - int_0 f'
        for f in (X, ExpPoly.monomial(0, 2), ExpPoly.exponential(1) - ONE):
            got = op_mul(Operator.integral(0, ONE, f), D)
            expected = Operator.multiplication(f) - Operator.integral(0, ONE, f.derive())
            assert got == expected
            for h in (ONE, X, ExpPoly.exponential(1)):
                assert apply(got, h) == apply(expected, h)


class TestDistributivity:
    def test_randomized(self):
        rng = random.Random(43)
        for _ in range(10):
            u, v, w = (random_operator(rng) for _ in range(3))
            assert op_mul(u, op_add(v, w)) == op_add(op_mul(u, v), op_mul(u, w))
            assert op_mul(op_add(u, v), w) == op_add(op_mul(u, w), op_mul(v, w))


class TestScalarOperands:
    def test_function_times_operator(self):
        assert X * I0 == Operator.integral(0, X)
        assert I0 * X == Operator.integral(0, ONE, X)
        assert 2 * D == Operator.derivative(1, ExpPoly.const(2))

    def test_power(self):
        assert D ** 2 == Operator.derivative(2)
        assert D ** 0 == Operator.identity()


class TestSerialization:
    def test_json_roundtrip_randomized(self):
        rng = random.Random(47)
        for _ in range(10):
            u = random_operator(rng)
            assert Operator.from_json(u.to_json()) == u

    def test_latex_smoke(self):
        text = intro_standard().to_latex()
        assert r"\lfloor 1 \rfloor" in text
        assert r"\int_{0}" in text

    @pytest.mark.parametrize("part, entry", [
        ("diff", {"order": 1.5, "coeff": "1"}),
        ("diff", {"order": True, "coeff": "1"}),
        ("diff", {"order": "2", "coeff": "1"}),
        ("local", {"point": "0", "order": 2.7, "left": "1"}),
        ("local", {"point": 0.1, "order": 0, "left": "1"}),
        ("integral", {"basepoint": 0.5, "left": "1", "right": "x"}),
        ("global", {"point": "1", "basepoint": 0.25, "left": "1", "integrand": "1"}),
    ])
    def test_bad_values_are_rejected(self, part, entry):
        # order 1.5 and True used to load as order 1, and point 0.1 as
        # 3602879701896397/36028797018963968
        with pytest.raises(ParseError):
            Operator.from_json({part: [entry]})

    def test_integer_and_string_values_load(self):
        doc = {"local": [{"point": 1, "order": 1, "left": "x"}],
               "integral": [{"basepoint": "-1/2", "left": "1", "right": "exp(x)"}]}
        assert Operator.from_json(doc) == (Operator.evaluation(1, 1, X)
                                           + Operator.integral(F(-1, 2), ONE, ExpPoly.exponential(1)))


@pytest.mark.parametrize("build", [
    lambda: Operator.derivative(1.5),
    lambda: Operator.derivative(True),
    lambda: Operator.derivative(-1),
    lambda: Operator.evaluation(0, True),
    lambda: Operator.evaluation(0, 2.0),
    lambda: Operator(local={(1, "1"): ONE}),
])
def test_constructors_refuse_orders_that_are_not_nonnegative_ints(build):
    # 1.5 and True used to be truncated to order 1
    with pytest.raises(ValueError, match="derivative order must be a nonnegative integer"):
        build()


@pytest.mark.parametrize("build", [
    lambda: Operator.evaluation(0.1),
    lambda: Operator.integral(0.1),
    lambda: ExpPoly.monomial(0.1, 0),
], ids=["evaluation", "integral", "monomial"])
def test_constructors_refuse_float_points(build):
    # 0.1 used to be keyed as 3602879701896397/36028797018963968
    with pytest.raises(ParseError, match=r"^bad rational literal 0\.1: write it as a string$"):
        build()


@pytest.mark.parametrize("point, value", [
    (2, F(2)), (F(2), F(2)), ("2", F(2)), (F(-3, 4), F(-3, 4)), (" -3/4 ", F(-3, 4)),
])
def test_int_fraction_and_str_points_key_alike(point, value):
    # an int key when integral, else a Fraction
    kind = int if value.denominator == 1 else F
    ((_f, p, _i),) = Operator.evaluation(point, 1, X).local_boundary
    assert p == value and type(p) is kind
    ((freq, _n, _c),) = ExpPoly.monomial(point, 0).terms()
    assert freq == value and type(freq) is kind
    assert Operator.evaluation(point) == Operator.evaluation(value)


def test_products_may_exceed_the_loader_cap():
    # the cap bounds input documents, not the orders a product builds
    assert Operator.derivative(30) * Operator.derivative(30) == Operator.derivative(60)


def test_normal_form_equality_is_structural():
    a = Operator.integral(0, X, ONE) + Operator.integral(0, X, X)
    b = Operator.integral(0, X, X + ONE)
    assert a == b


def test_apply_left_coefficient_scaling():
    # right-factor scalars fold into the left factor
    a = Operator.integral(0, X, ExpPoly.const(2))
    b = Operator.integral(0, X * 2, ONE)
    assert a == b


def _rule_cases():
    """One case (u, v, normal form of u*v) per single-step rule of the
    ``stieltjes.operators`` docstring."""
    a, b, p, q = F(1, 2), F(-1), F(2), F(1, 3)
    f = X * ExpPoly.exponential(1) + ONE
    F_a = f.integrate_from(a)
    ev, integral, mult = Operator.evaluation, Operator.integral, Operator.multiplication
    return {
        # d*f -> f*d + f'
        "d-f": (D, mult(f), Operator.derivative(1, f) + mult(f.derive())),
        # d*int_a -> 1
        "d-int": (D, integral(a), Operator.identity()),
        # int_a f d -> f - int_a f' - f(a)*<a>
        "int-f-d": (integral(a, ONE, f), D,
                    mult(f) - integral(a, ONE, f.derive()) - ev(a, 0, ExpPoly.const(f.eval_at(a)))),
        # int_a f int_b -> F*int_b - int_a*F with F = int_a f
        "int-f-int": (integral(a, ONE, f), integral(b),
                      integral(b, F_a) - integral(a, ONE, F_a)),
        # <p>*f -> f(p)*<p>
        "ev-f": (ev(p), mult(f), ev(p, 0, ExpPoly.const(f.eval_at(p)))),
        # <p><q> -> <q>
        "ev-ev": (ev(p), ev(q, 1), ev(q, 1)),
        # d^k <p> -> 0
        "d-ev": (Operator.derivative(2), ev(p), Operator.zero()),
        # <p>*int_a -> int_a - int_p
        "ev-int": (ev(p), integral(a, ONE, X), integral(a, ONE, X) - integral(p, ONE, X)),
        # <p>*int_p -> 0
        "ev-int-own-point": (ev(p), integral(p, ONE, X), Operator.zero()),
    }


@pytest.mark.parametrize("rule", list(_rule_cases()))
def test_single_step_rewrite_rules(rule):
    u, v, expected = _rule_cases()[rule]
    got = op_mul(u, v)
    assert got == expected
    assert got.is_equitable()
    for h in (ONE, X, ExpPoly.exponential(1)):
        assert apply(got, h) == apply(u, apply(v, h)) == apply(expected, h)


def test_ring_products_are_equitable():
    # the seed-4096 triples of criterion 7, which mix in global terms
    rng = random.Random(4096)
    for _ in range(100):
        u, v, w = (random_operator(rng) for _ in range(3))
        uv = op_mul(u, v)
        for product in (uv, op_mul(v, w), op_mul(uv, w)):
            assert product.is_equitable()


def test_negative_power_raises():
    with pytest.raises(ValueError, match="-1"):
        D ** -1


def _int_q_d(a, q, j) -> Operator:
    """sum_{l<j} (-1)^l (q^(l) - q^(l)(a) <a>) d^(j-1-l) + (-1)^j int_a q^(j),
    built term by term, without a product."""
    qs = [q * (-1) ** l for l, q in enumerate(q.derivatives(j))]
    return Operator.sum(
        [Operator.integral(a, ONE, qs[j])]
        + [Operator.derivative(j - 1 - l, qs[l]) for l in range(j)]
        + [Operator.evaluation(a, j - 1 - l, ExpPoly.const(-qs[l].eval_at(a))) for l in range(j)])


_Q_CASES = {"x e^x + 1": X * ExpPoly.exponential(1) + ONE,
            "x^2 e^(-x)": parse_exppoly("x^2*exp(-x)"),
            "1/2 x - 3": parse_exppoly("1/2*x - 3")}


@pytest.mark.parametrize("j", range(1, 7))
@pytest.mark.parametrize("q", list(_Q_CASES))
def test_int_q_d_closed_form_matches_repeated_products(q, j):
    q, a = _Q_CASES[q], F(1, 2)
    integral = Operator.integral(a, ONE, q)
    repeated = integral * D
    for _ in range(j - 1):
        repeated = repeated * D
    got = integral * Operator.derivative(j)
    assert got == repeated == _int_q_d(a, q, j)
    assert got.is_equitable()


@pytest.mark.parametrize("j", range(1, 7))
def test_int_q_d_closed_form_acts_like_composition(j):
    a, q = F(-1), _Q_CASES["x e^x + 1"]
    integral = Operator.integral(a, ONE, q)
    got = integral * Operator.derivative(j)
    for h in (ONE, X, ExpPoly.exponential(1), parse_exppoly("x^2*exp(-x)")):
        assert apply(got, h) == apply(integral, h.derive(j))


def _deep_operator(rng: random.Random) -> Operator:
    """A random ring element like conftest's ``random_operator``, with
    derivative and evaluation orders up to 5 instead of 2."""
    def e():
        return parse_exppoly(rng.choice(OPERATOR_COEFF_POOL))

    def point():
        return rng.choice(OPERATOR_POINT_POOL)

    terms = [Operator.derivative(rng.randint(0, 5), e()) for _ in range(rng.randint(0, 2))]
    terms += [Operator.integral(point(), e(), e()) for _ in range(rng.randint(0, 2))]
    terms += [Operator.evaluation(point(), rng.randint(0, 5), e())
              for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.5:
        terms.append(Operator.global_term(point(), point(), e(), e()))
    return Operator.sum(terms)


def test_deep_orders_ring_laws():
    rng = random.Random(4099)
    tests = (ONE, X, ExpPoly.exponential(1), parse_exppoly("x^2*exp(-x)"))
    for _ in range(25):
        u, v, w = (_deep_operator(rng) for _ in range(3))
        uv = op_mul(u, v)
        assert op_mul(uv, w) == op_mul(u, op_mul(v, w))
        assert op_mul(u, op_add(v, w)) == op_add(uv, op_mul(u, w))
        assert op_mul(op_add(u, v), w) == op_add(op_mul(u, w), op_mul(v, w))
        for h in tests:
            assert apply(uv, h) == apply(u, apply(v, h))
