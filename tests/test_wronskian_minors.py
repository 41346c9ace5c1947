"""The Wronskian data of ``FundamentalSystem`` come from one table of minors;
they are checked here against the Leibniz formula, which shares nothing with
it, and the rational-root search of ``fundamental_system`` stays fast."""

import time
from fractions import Fraction as F
from itertools import permutations

import pytest

from stieltjes import ExpPoly, Operator
from stieltjes.boundary import (
    MAX_ROOT_BITS,
    FundamentalSystem,
    _rational_roots,
    fundamental_system,
)
from stieltjes.errors import FundamentalSystemError, WronskianError
from stieltjes.parsing import parse_exppoly


def leibniz_det(m):
    """sum over permutations s of sign(s) * prod_i m[i][s(i)]."""
    n = len(m)
    terms = []
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        product = ExpPoly.one()
        for i, j in enumerate(perm):
            product = product * m[i][j]
        terms.append(-product if inversions % 2 else product)
    return ExpPoly.sum(terms)


def wronskian(u):
    n = len(u)
    return [[uj.derive(i) for uj in u] for i in range(n)]


BASES = {
    "polynomial": ["1", "x", "x^2", "x^3", "x^4"],
    "exponential": ["exp(x)", "exp(-x)", "exp(2*x)", "exp(x/2)", "exp(-3*x)"],
    "mixed": ["exp(x)", "x*exp(x)", "x^2*exp(x)", "exp(-2*x)", "1"],
    "not-monomial": ["1", "x*exp(x)", "exp(-x)", "x^2", "exp(x/3)"],
}


@pytest.mark.parametrize("name", BASES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_wronskian_and_cofactors_match_the_leibniz_formula(name, n):
    u = [parse_exppoly(text) for text in BASES[name][:n]]
    w = wronskian(u)
    d = leibniz_det(w)
    unit = [ExpPoly.zero()] * (n - 1) + [ExpPoly.one()]
    # cofactor j: the Wronskian matrix with column j replaced by the last unit vector
    cofactors = tuple(leibniz_det([row[:j] + [e] + row[j + 1:] for e, row in zip(unit, w)])
                      for j in range(n))
    try:
        fs = FundamentalSystem(u)
    except WronskianError:
        assert len(list(d.terms())) != 1 or next(d.terms())[1] != 0
        return
    assert fs.d == d
    assert fs.cofactors == cofactors


def test_not_monomial_basis_is_refused():
    with pytest.raises(WronskianError):
        FundamentalSystem([parse_exppoly("1"), parse_exppoly("x*exp(x)")])


def test_ten_exponentials_take_well_under_a_second():
    # nine and ten cofactor expansions of order 9 took about 6 s
    start = time.perf_counter()
    fs = FundamentalSystem([ExpPoly.monomial(r, 0) for r in range(-4, 6)])
    assert time.perf_counter() - start < 1
    assert len(fs.cofactors) == 10


def char_operator(coeffs):
    return Operator.sum(Operator.derivative(i, ExpPoly.const(F(c))) for i, c in enumerate(coeffs))


@pytest.mark.parametrize("coeffs", [
    ["9" * 40, "0", "1"],                  # constant coefficient: a 20-digit divisor scan
    ["0", "0", "1/" + "7" * 40, "0", "1"],  # denominator: the same for the leading one
    # once under 10^6 divisor trials, but 4032 * 256 divisor pairs
    [f"{23 * 29 * 31 * 37 * 41 * 43 * 47}/{2**6 * 3**3 * 5**2 * 7**2 * 11 * 13 * 17 * 19}",
     "0", "0", "0", "1"],
], ids=["constant", "denominator", "pairs"])
def test_rational_root_search_over_the_cap_exits_quickly(coeffs):
    # the divisor scan refused these by its trial cap; none of them has a real root
    # besides 0, so isolation finds that they do not split
    start = time.perf_counter()
    with pytest.raises(FundamentalSystemError, match="does not split over Q"):
        fundamental_system(char_operator(coeffs))
    assert time.perf_counter() - start < 1


def test_rational_root_search_cap():
    assert MAX_ROOT_BITS == 640
    # roots 11..20: a constant coefficient of 6.7*10^11
    coeffs = [F(1)]
    for r in range(11, 21):
        coeffs = [-r * coeffs[0]] + [coeffs[i - 1] - r * coeffs[i]
                                     for i in range(1, len(coeffs))] + [coeffs[-1]]
    assert sorted(_rational_roots(coeffs)) == [F(r) for r in range(11, 21)]
