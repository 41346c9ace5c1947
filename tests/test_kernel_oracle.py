"""Numeric oracle for the Green's function, independent of the exact calculus:
``u(x) = int g(x, xi) f(xi) dxi`` is computed with ``mpmath.quad`` over the
strips of the kernel, plus the dirac and diagonal contributions through
``mpmath.diff``, and compared with ``apply_to(f)`` at sample points inside
every cell.  Kernel, forcing function and result are all evaluated from their
``terms()`` in mpmath; nothing here integrates or evaluates exactly."""

from fractions import Fraction as F

import mpmath

from conftest import (
    exponential_four_point_problem,
    four_breakpoint_operator,
    four_point_problem,
    intro_problem,
    nonlocal_problem,
)
from test_constant_oracle import constant_value

from stieltjes import extract, greens_operator, parse_exppoly, to_equitable
from stieltjes.greens import REGION_LOWER, REGION_UPPER

FORCING = ("1", "x*exp(-x)", "exp(x)")


def mp(q: F) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def numeric(f) -> list:
    """The (coefficient, frequency, power) triples of an ExpPoly in mpmath."""
    return [(constant_value(c), mp(freq), power) for freq, power, c in f.terms()]


def evaluate(terms: list, x) -> mpmath.mpf:
    return mpmath.fsum(c * x ** power * mpmath.exp(freq * x) for c, freq, power in terms)


def kernels():
    problems = (intro_problem(), four_point_problem(), nonlocal_problem(),
                exponential_four_point_problem())
    yield from (extract(to_equitable(greens_operator(p))) for p in problems)
    yield extract(four_breakpoint_operator())


def numeric_apply(g, f_terms: list, x: F) -> mpmath.mpf:
    """int g(x, xi) f(xi) dxi plus the distributional part, at x."""
    pts = [mp(p) for p in g.breakpoints]
    xm = mp(x)
    branches = {
        key: [(evaluate(numeric(A), xm), numeric(B)) for A, B in g.branch(*key).pairs()]
        for key in ((i, region) for i in range(1, len(pts))
                    for region in (REGION_LOWER, REGION_UPPER))
    }

    def integrand(xi):
        i = next(k for k in range(1, len(pts)) if xi <= pts[k])
        region = REGION_LOWER if xi <= xm else REGION_UPPER
        kernel = mpmath.fsum(a * evaluate(B, xi) for a, B in branches[(i, region)])
        return kernel * evaluate(f_terms, xi)

    nodes = sorted(set(pts) | {xm})
    total = mpmath.quad(integrand, nodes)
    f = lambda t: evaluate(f_terms, t)
    for p, i, coeff in g.dirac:
        total += evaluate(numeric(coeff), xm) * mpmath.diff(f, mp(p), i)
    for i, coeff in g.diagonal:
        total += evaluate(numeric(coeff), xm) * mpmath.diff(f, xm, i)
    return total


def test_apply_to_matches_quadrature():
    seen_cells = []
    with mpmath.workdps(40):
        for g in kernels():
            pts = g.breakpoints
            seen_cells.append(len(pts) - 1)
            for text in FORCING:
                f = parse_exppoly(text)
                u = numeric(g.apply_to(f))
                f_terms = numeric(f)
                for lo, hi in zip(pts, pts[1:]):
                    x = lo + F(hi - lo) / 3
                    expected = numeric_apply(g, f_terms, x)
                    got = evaluate(u, mp(x))
                    assert abs(got - expected) <= mpmath.mpf(10) ** -30 * (1 + abs(expected))
    assert sorted(seen_cells) == [1, 2, 3, 3, 3]
