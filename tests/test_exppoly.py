import random
from fractions import Fraction as F

from conftest import random_exppoly

from stieltjes import (
    BivariateExpPoly,
    Constant,
    ExpPoly,
    bivariate_ops,
    derive,
    eval_at,
    integrate_from,
)

X = ExpPoly.x()
ONE = ExpPoly.one()
EX = ExpPoly.exponential(1)


class TestDerive:
    def test_product_rule(self):
        assert derive(X * EX) == EX + X * EX

    def test_power_rule(self):
        assert derive(ExpPoly.monomial(0, 2)) == X * 2

    def test_exponential(self):
        assert derive(ExpPoly.exponential(2)) == ExpPoly.exponential(2) * 2


class TestIntegrateFrom:
    def test_power(self):
        assert integrate_from(X, 0) == ExpPoly.monomial(0, 2, F(1, 2))

    def test_exponential(self):
        assert integrate_from(EX, 0) == EX - ONE

    def test_nonzero_basepoint(self):
        g = integrate_from(X, 1)
        assert g == ExpPoly.monomial(0, 2, F(1, 2)) - ExpPoly.const(F(1, 2))
        assert g.eval_at(1).is_zero()

    def test_polynomial_times_exponential(self):
        f = X * EX
        g = integrate_from(f, 0)
        assert g.derive() == f
        assert g.eval_at(0).is_zero()


class TestEvalAt:
    def test_polynomial_root(self):
        assert eval_at(ExpPoly.monomial(0, 2) - X, 1).is_zero()

    def test_half_frequency(self):
        assert eval_at(ExpPoly.exponential(2), F(1, 2)) == Constant.e_power(1)

    def test_shifted_exponential(self):
        f = ExpPoly.monomial(1, 0, Constant.e_power(2) * 3)  # 3 e^{x+2}
        assert eval_at(f, -1) == Constant.e_power(1, 3)


def test_fundamental_theorem_randomized():
    rng = random.Random(11)
    for _ in range(40):
        f = random_exppoly(rng)
        a = rng.choice([F(0), F(1), F(-1), F(1, 2)])
        g = f.integrate_from(a)
        assert g.derive() == f
        assert g.eval_at(a).is_zero()
        assert f.derive().integrate_from(a) == f - ExpPoly.const(f.eval_at(a))


def test_mul_commutative_associative_randomized():
    rng = random.Random(13)
    for _ in range(25):
        f, g, h = (random_exppoly(rng) for _ in range(3))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


class TestBivariate:
    def test_dx(self):
        h = BivariateExpPoly.tensor(X, X)  # x (x) xi
        assert bivariate_ops(h, "dx") == BivariateExpPoly.tensor(ONE, X)

    def test_iy(self):
        h = BivariateExpPoly.tensor(X, ONE)
        expected = BivariateExpPoly.tensor(X, X)
        assert bivariate_ops(h, "iy", 0) == expected

    def test_dx_dy(self):
        h = BivariateExpPoly.tensor(X - ONE, X)
        assert bivariate_ops(bivariate_ops(h, "dx"), "dy") == BivariateExpPoly.tensor(ONE, ONE)

    def test_mixed_partials_commute_randomized(self):
        rng = random.Random(17)
        for _ in range(20):
            h = BivariateExpPoly.from_pairs(
                [(random_exppoly(rng), random_exppoly(rng)) for _ in range(2)]
            )
            assert h.dx().dy() == h.dy().dx()
            a = rng.choice([F(0), F(1)])
            assert h.ix(a).dx() == h
            assert h.iy(a).dy() == h

    def test_pair_merging(self):
        h1 = BivariateExpPoly.from_pairs([(X, X), (ONE, X)])
        h2 = BivariateExpPoly.tensor(X + ONE, X)
        assert h1 == h2

    def test_eval(self):
        h = BivariateExpPoly.tensor(X - ONE, X)  # (x-1) xi
        assert h.eval_at(F(3, 4), F(1, 2)) == Constant.from_rational(F(-1, 8))

    def test_zero_factors_dropped(self):
        assert BivariateExpPoly.tensor(ExpPoly.zero(), X).is_zero()
        assert (BivariateExpPoly.tensor(X, X) - BivariateExpPoly.tensor(X, X)).is_zero()


class TestFrequencyKeys:
    """Integral frequencies are stored as int keys, others as Fraction keys;
    the two compare and hash alike, so no result depends on the choice."""

    def test_integral_frequency_is_an_int_key(self):
        a, b = ExpPoly.monomial(F(2), 0), ExpPoly.monomial(2, 0)
        assert a == b
        assert hash(a) == hash(b)
        assert [type(freq) for freq, _n, _c in a.terms()] == [int]
        assert [type(freq) for freq, _n, _c in ExpPoly.monomial(F(1, 2), 1).terms()] == [F]
        # a hand-built Fraction key is the same polynomial
        assert ExpPoly({(F(2), 0): Constant.one()}) == a
        assert hash(ExpPoly({(F(2), 0): Constant.one()})) == hash(a)
        assert ExpPoly.const(3).as_constant() == Constant.from_rational(3)
        assert a.coefficient(F(2), 0) == a.coefficient(2, 0) == Constant.one()

    def test_fractional_frequencies_that_add_up_to_an_integer(self):
        from stieltjes import parse_exppoly

        product = parse_exppoly("exp(x/2)") * parse_exppoly("exp(3*x/2)")
        assert product == parse_exppoly("exp(2*x)") == ExpPoly.exponential(2)
        assert hash(product) == hash(ExpPoly.exponential(2))
        assert [type(freq) for freq, _n, _c in product.terms()] == [int]

    def test_rendering_does_not_depend_on_the_key_type(self):
        from stieltjes import Operator

        c = Constant.from_rational(F(-1, 3))
        for freq in (2, -1, 0):
            as_int = ExpPoly.monomial(freq, 2, c) + ExpPoly.monomial(F(1, 2), 1)
            as_fraction = ExpPoly({(F(freq), 2): c, (F(1, 2), 1): Constant.one()})
            assert as_int == as_fraction
            assert as_int.to_text() == as_fraction.to_text()
            assert as_int.to_latex() == as_fraction.to_latex()
            assert (Operator.multiplication(as_int).to_json()
                    == Operator.multiplication(as_fraction).to_json())
            mono = BivariateExpPoly.tensor(ONE, as_int)
            assert mono.to_text() == BivariateExpPoly.tensor(ONE, as_fraction).to_text()


def _reached(f: ExpPoly) -> list:
    """The antiderivative monomials that each term of f reaches, with repeats."""
    return [key for (l, n) in f._terms for key in ([(0, n + 1)] if l == 0
                                                    else [(l, k) for k in range(n + 1)])]


def test_integrate_from_reduces_each_output_coefficient_once(monkeypatch):
    """``integrate_from`` reads ``-F(a)`` off the unreduced multiples of the
    antiderivative, with no ``eval_at`` and no subtraction, and reduces each
    output coefficient by one ``_sum`` where two or more parts reach it or
    its lone part carries a unit other than 1 (a lone ``(c, 1, 1, 0, 1)`` is
    c itself); the multiples that meet in one monomial of F are added once
    before, by ``_antiderivative``."""
    from stieltjes import exppoly

    e = Constant.e_power(1)
    sparse = (X * X * EX + ExpPoly.monomial(-1, 0, Constant.e_power(F(1, 2), 3))
              + ExpPoly.monomial(F(1, 3), 1, 1 / (e - 1)) + X * ((e + 2) / (e * e - 3)))
    dense = ExpPoly.sum([ExpPoly.monomial(1, n, n + 1) for n in range(6)] + [sparse])
    sums = []
    original = exppoly._sum

    def counted(parts):
        sums.append(parts)
        return original(parts)

    def refused(*args):
        raise AssertionError("integrate_from evaluated or subtracted an ExpPoly")

    lone_units_one = 0
    for f in (sparse, dense):
        reached = _reached(f)
        met = len({key for key in reached if reached.count(key) > 1})
        assert bool(met) == (f is dense)
        for a in (F(1, 2), -1, 0):
            anti = f.antiderivative()
            expected = anti - ExpPoly.const(anti.eval_at(a))
            reaching: dict = {}
            for key, part in exppoly._integral(exppoly._scaled(f), a):
                reaching.setdefault(key, []).append(part)
            reduced = sum(len(parts) > 1 or parts[0][1:] != (1, 1, 0, 1)
                          for parts in reaching.values())
            with monkeypatch.context() as patch:
                patch.setattr(exppoly, "_sum", counted)
                patch.setattr(ExpPoly, "eval_at", refused)
                patch.setattr(ExpPoly, "__sub__", refused)
                sums.clear()
                got = f.integrate_from(a)
            assert got == expected
            assert (0, 0) in got._terms  # F(a) != 0 at these points
            assert len(sums) == reduced + met
            lone_units_one += len(reaching) - reduced
    assert lone_units_one  # some output coefficient needed no _sum


def test_sum_of_disjoint_summands_keeps_their_coefficients(monkeypatch):
    """A monomial that one summand alone reaches keeps that summand's own
    coefficient object: ``ExpPoly.sum`` finishes no lone coefficient again,
    and calls no ``_sum``."""
    from stieltjes import exppoly

    e = Constant.e_power(1)
    f = ExpPoly.sum([ExpPoly.monomial(0, 0, F(3, 4)),
                     ExpPoly.monomial(1, 2, Constant.e_power(F(1, 2), 3))])
    g = ExpPoly.sum([ExpPoly.monomial(-1, 0, (e + 2) / (e * e - 3)),
                     ExpPoly.monomial(F(1, 2), 1, 5)])
    sums = []
    original = exppoly._sum
    monkeypatch.setattr(exppoly, "_sum", lambda parts: sums.append(parts) or original(parts))
    for total in (ExpPoly.sum([f, g]), f + g, g + f):
        assert sums == []
        assert len(total._terms) == 4
        for h in (f, g):
            for key, c in h._terms.items():
                assert total._terms[key] is c
