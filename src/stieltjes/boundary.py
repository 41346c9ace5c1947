"""Stieltjes boundary problems and the Green's operator construction.

A problem is a monic differential operator ``T`` of order ``n`` together with
``n`` boundary conditions, each a sum of point evaluations of derivatives and
definite integrals against weight functions.  For a regular problem the
Green's operator is ``G = (1 - P) * T_inv`` where ``T_inv`` is the
variation-of-constants right inverse and ``P`` projects onto ker T along the
space of admissible functions.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import isqrt, lcm

from .constants import Constant
from .errors import (
    FundamentalSystemError,
    NotRegularError,
    ParseError,
    WronskianError,
)
from .exppoly import ExpPoly
from .linalg import mat_det, mat_from_rows, mat_inv, left_kernel
from .operators import Operator, _leibniz
from .parsing import parse_exppoly, parse_rational


class StieltjesCondition:
    """A boundary functional: local point evaluations plus definite integrals.

    ``local_terms`` holds (point, derivative order, coefficient) triples and
    ``global_terms`` holds (lower, upper, integrand) triples standing for
    ``int_lower^upper integrand(t) u(t) dt``.
    """

    __slots__ = ("local_terms", "global_terms")

    def __init__(self, local_terms=(), global_terms=()):
        collected: dict[tuple[Fraction, int], list[Constant]] = {}
        for point, order, coeff in local_terms:
            collected.setdefault((Fraction(point), int(order)), []).append(coeff)
        merged_local = {key: c for key, coeffs in collected.items()
                        if not (c := Constant.sum(coeffs)).is_zero()}
        integrands: dict[tuple[Fraction, Fraction], list[ExpPoly]] = {}
        for lower, upper, integrand in global_terms:
            integrands.setdefault((Fraction(lower), Fraction(upper)), []).append(integrand)
        merged_global = {key: w for key, ws in integrands.items()
                         if not (w := ExpPoly.sum(ws)).is_zero()}
        self.local_terms = tuple(
            (p, i, merged_local[(p, i)]) for p, i in sorted(merged_local)
        )
        self.global_terms = tuple(
            (a, b, merged_global[(a, b)]) for a, b in sorted(merged_global)
        )

    def evaluation_points(self) -> set[Fraction]:
        points = {p for p, _i, _c in self.local_terms}
        for a, b, _w in self.global_terms:
            points.add(a)
            points.add(b)
        return points

    def max_local_order(self) -> int:
        return max((i for _p, i, _c in self.local_terms), default=-1)

    def is_local(self) -> bool:
        return not self.global_terms

    def apply(self, u: ExpPoly) -> Constant:
        """The functional at u: each derivative order of u is taken once, and
        ``int_a^b w u = F(b) - F(a)`` with ``F`` one antiderivative of ``w u``."""
        derivs = u.derivatives(self.max_local_order())
        antis = [(a, b, (w * u).antiderivative()) for a, b, w in self.global_terms]
        return Constant.sum([c * derivs[i].eval_at(p) for p, i, c in self.local_terms]
                            + [F.eval_at(b) - F.eval_at(a) for a, b, F in antis])

    def as_operator(self) -> Operator:
        return Operator.sum(
            [Operator.evaluation(p, i, ExpPoly.const(c)) for p, i, c in self.local_terms]
            + [Operator.global_term(b, a, ExpPoly.one(), w) for a, b, w in self.global_terms])

    def __eq__(self, other):
        if not isinstance(other, StieltjesCondition):
            return NotImplemented
        return (self.local_terms == other.local_terms
                and self.global_terms == other.global_terms)

    def __repr__(self):
        return f"StieltjesCondition({self.as_operator().to_text()})"

    def to_json(self) -> dict:
        return {
            "local": [
                {"point": str(p), "order": i, "coeff": c.to_text()}
                for p, i, c in self.local_terms
            ],
            "global": [
                {"lower": str(a), "upper": str(b), "integrand": w.to_text()}
                for a, b, w in self.global_terms
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "StieltjesCondition":
        if not isinstance(data, dict):
            raise ParseError("condition must be a JSON object")
        try:
            local = [
                (parse_rational(entry["point"]), _derivative_order(entry["order"]),
                 Constant.from_rational(parse_rational(entry["coeff"])))
                for entry in data.get("local", ())
            ]
            glob = [
                (parse_rational(entry["lower"]), parse_rational(entry["upper"]),
                 parse_exppoly(entry["integrand"]))
                for entry in data.get("global", ())
            ]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad condition document: {exc}") from exc
        return cls(local, glob)


def _derivative_order(order) -> int:
    # bool is an int subclass; -1 would silently act as order 0
    if type(order) is not int or order < 0:
        raise ParseError(f"derivative order must be a nonnegative integer, got {order!r}")
    if order > MAX_DERIVATIVE_ORDER:
        raise ParseError(f"derivative order {order} exceeds the cap "
                         f"MAX_DERIVATIVE_ORDER = {MAX_DERIVATIVE_ORDER}")
    return order


class FundamentalSystem:
    """A basis of ker T with its Wronskian data.

    ``d`` is the Wronskian determinant (must be an exponential monomial so it
    can be inverted inside the coefficient algebra) and ``cofactors[j]`` is
    the determinant of the Wronskian matrix with column j replaced by the
    last unit vector.
    """

    __slots__ = ("u", "d", "cofactors")

    def __init__(self, u):
        u = tuple(u)
        if not u:
            raise FundamentalSystemError("fundamental system must be supplied")
        n = len(u)
        w = [list(row) for row in zip(*(uj.derivatives(n - 1) for uj in u))]
        self.u = u
        self.cofactors = tuple(_last_row_cofactors(w))
        self.d = ExpPoly.sum(e * cof for e, cof in zip(w[-1], self.cofactors))
        if self.d.is_zero() or _monomial_inverse(self.d) is None:
            raise WronskianError("Wronskian not invertible in coefficient algebra")

    @property
    def size(self) -> int:
        return len(self.u)

    def ratios(self) -> tuple[ExpPoly, ...]:
        """The quotients cofactor_j / d."""
        inv = _monomial_inverse(self.d)
        return tuple(dj * inv for dj in self.cofactors)


def _last_row_cofactors(w: list[list[ExpPoly]]) -> list[ExpPoly]:
    """The cofactors of the last row of the square matrix ``w``.

    Cofactor j is the signed minor of the first n-1 rows without column j.
    The minors of the top k rows on every k-set of columns are expanded along
    row k from those for k-1: about n 2^(n-1) products instead of n * n!."""
    n = len(w)
    minors = {(): ExpPoly.one()}
    for k, row in enumerate(w[:-1]):
        minors = {cols: ExpPoly.sum(_signed(row[c] * minors[cols[:t] + cols[t + 1:]], k + t)
                                    for t, c in enumerate(cols) if not row[c].is_zero())
                  for cols in combinations(range(n), k + 1)}
    return [_signed(minors[tuple(c for c in range(n) if c != j)], n - 1 + j) for j in range(n)]


def _signed(f: ExpPoly, k: int) -> ExpPoly:
    """(-1)^k f."""
    return -f if k % 2 else f


def _monomial_inverse(f: ExpPoly) -> ExpPoly | None:
    """Invert c*x^0*exp(l*x); None when f is not such a monomial."""
    terms = list(f.terms())
    if len(terms) != 1:
        return None
    freq, power, c = terms[0]
    if power != 0:
        return None
    return ExpPoly.monomial(-freq, 0, c.inverse())


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction] | None:
    """All roots (with multiplicity) of a monic rational polynomial, or None
    when it does not split over Q.  A FundamentalSystemError when the search
    would take more than MAX_ROOT_TRIALS trials."""
    roots: list[Fraction] = []
    while len(coeffs) > 1:
        denom = lcm(*(c.denominator for c in coeffs))
        ints = [int(c * denom) for c in coeffs]
        lead, const = ints[-1], ints[0]
        if const == 0:
            root = Fraction(0)
        else:
            # a root p/q in lowest terms has q | lead and p | const
            qs = ps = []
            if isqrt(lead) + isqrt(abs(const)) <= MAX_ROOT_TRIALS:
                qs, ps = _divisors(lead), _signed_divisors(abs(const))
            if not qs or len(qs) * len(ps) > MAX_ROOT_TRIALS:
                raise FundamentalSystemError(
                    f"the rational-root search of the characteristic polynomial needs more "
                    f"than MAX_ROOT_TRIALS = {MAX_ROOT_TRIALS} trials: fundamental system "
                    f"must be supplied")
            root = next((Fraction(p, q) for q in qs for p in ps
                         if _homogeneous_value(ints, p, q) == 0), None)
            if root is None:
                return None
        roots.append(root)
        coeffs = _deflate(coeffs, root)
    return roots


def _divisors(n: int) -> list[int]:
    """The positive divisors of n in ascending order, found in O(sqrt n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _signed_divisors(n: int) -> list[int]:
    divs = _divisors(n)
    return [d for pair in zip(divs, [-d for d in divs]) for d in pair]


def _homogeneous_value(ints: list[int], p: int, q: int) -> int:
    """q^n P(p/q) for P of integer coefficients ``ints``, constant first."""
    total, qk = 0, 1
    for c in reversed(ints):
        total = total * p + c * qk
        qk *= q
    return total


def _deflate(coeffs: list[Fraction], root: Fraction) -> list[Fraction]:
    """Synthetic division by (x - root); the remainder must vanish."""
    n = len(coeffs) - 1
    out = [Fraction(0)] * n
    carry = coeffs[-1]
    for i in range(n - 1, -1, -1):
        out[i] = carry
        carry = coeffs[i] + carry * root
    assert carry == 0
    return out


def fundamental_system(T: Operator) -> FundamentalSystem:
    """Compute a basis of ker T for constant rational coefficients.

    A root r of multiplicity k contributes x^j exp(r x), j < k.  Roots are
    listed in descending order.  Raises FundamentalSystemError when the
    coefficients are non-constant or the characteristic polynomial does not
    split over Q.
    """
    if not T.is_differential():
        raise FundamentalSystemError("fundamental system must be supplied")
    n = T.order()
    if n == 0:
        raise FundamentalSystemError("fundamental system must be supplied")
    coeffs = []
    for i in range(n + 1):
        c = T.diff_part.get(i, ExpPoly.zero()).as_constant()
        q = c.as_rational() if c is not None else None
        if q is None:
            raise FundamentalSystemError("fundamental system must be supplied")
        coeffs.append(q)
    if coeffs[-1] != 1:
        raise FundamentalSystemError("fundamental system must be supplied")
    roots = _rational_roots(coeffs)
    if roots is None:
        raise FundamentalSystemError("fundamental system must be supplied")
    multiplicity = Counter(roots)
    return FundamentalSystem(ExpPoly.monomial(r, j) for r in sorted(multiplicity, reverse=True)
                             for j in range(multiplicity[r]))


# The scalar field stores e^(lambda*p) on the minimal grid of its exponents,
# and its gcds step through that grid one degree at a time, so solve time grows
# faster than the spread, and faster still with the order: 2*10^5 steps, from
# one evaluation point at 10^5, do not finish in minutes.  The worked examples
# and the seeded test problems stay below 60 steps.
MAX_EXPONENT_SPREAD = 500

# A condition's derivative order is applied by differentiating the
# fundamental system that many times, and the evaluation matrix, its inverse
# and the projector grow with it: order 60 takes over a second to solve and
# 1000 does not finish in minutes.  The worked examples and the seeded test problems
# use orders up to 4.
MAX_DERIVATIVE_ORDER = 40

# The operator order sets the size of the fundamental system, and its table of
# Wronskian minors doubles with each order.  With n - 1 derivative conditions
# at 0 and ``u(1) = 0``, ``solve --no-verify`` (Python 3.11 on a 2-core x86
# host) takes 0.04 s at n = 8, 0.13 s at n = 10 and 0.52 s at n = 12 for
# ``u^(n) = f``, and 0.08 s, 0.21 s and 0.59 s for n distinct integer roots
# around 0; a cofactor expansion per determinant took 45 s for ten roots.  The
# worked examples and the seeded test problems use orders up to 3.
MAX_OPERATOR_ORDER = 10

# The rational-root scan tries divisors of the leading and constant coefficients
# up to their square roots, then every quotient of a divisor pair: 10^6 trials
# take about 2.5 s, and the worked examples and seeded problems need under 100.
MAX_ROOT_TRIALS = 10**6


def check_exponent_spread(fs: FundamentalSystem, points) -> None:
    """Reject exponents lambda*p (lambda a frequency of ``fs``, p one of
    ``points``) that span more than MAX_EXPONENT_SPREAD steps of their
    minimal grid, before any arithmetic on them."""
    exponents = {lam * Fraction(p) for u in fs.u for lam, _n, _c in u.terms() for p in points}
    if exponents:
        spread = (max(exponents) - min(exponents)) * lcm(*(q.denominator for q in exponents))
        if spread > MAX_EXPONENT_SPREAD:
            raise ParseError(f"the exponents of the fundamental system at the evaluation points "
                             f"span {spread} grid steps, more than the cap "
                             f"MAX_EXPONENT_SPREAD = {MAX_EXPONENT_SPREAD}")


class BoundaryProblem:
    """A monic differential operator of order n with n boundary conditions."""

    __slots__ = ("T", "conditions", "_fs")

    def __init__(self, T: Operator, conditions, basis=None):
        if not T.is_differential():
            raise ValueError("operator must be purely differential")
        n = T.order()
        if T.diff_part.get(n) != ExpPoly.one():
            raise ValueError("operator must be monic")
        conditions = tuple(conditions)
        if len(conditions) != n:
            raise ValueError(f"expected {n} conditions, got {len(conditions)}")
        self.T = T
        self.conditions = conditions
        if basis is not None and not isinstance(basis, FundamentalSystem):
            basis = FundamentalSystem(basis)
        self._fs = basis

    @property
    def order(self) -> int:
        return self.T.order()

    def system(self) -> FundamentalSystem:
        if self._fs is None:
            self._fs = fundamental_system(self.T)
        return self._fs

    def evaluation_points(self) -> set[Fraction]:
        points: set[Fraction] = set()
        for cond in self.conditions:
            points.update(cond.evaluation_points())
        return points

    def point_count(self) -> int:
        """Number of distinct evaluation points of the given condition basis."""
        return len(self.evaluation_points())

    def is_well_posed(self) -> bool:
        """True when every derivative order of the given basis is below n."""
        return all(c.max_local_order() < self.order for c in self.conditions)

    def is_local(self) -> bool:
        return all(c.is_local() for c in self.conditions)


def evaluation_matrix(conditions, fs: FundamentalSystem):
    """The matrix (beta_i(u_j)) deciding regularity."""
    return mat_from_rows(
        [[cond.apply(uj) for uj in fs.u] for cond in conditions]
    )


def is_regular(problem: BoundaryProblem) -> bool:
    m = evaluation_matrix(problem.conditions, problem.system())
    return not mat_det(m).is_zero()


def fundamental_right_inverse(fs: FundamentalSystem, basepoint) -> Operator:
    """Variation of constants: sum_j u_j int_b (cofactor_j / d)."""
    return Operator.sum(Operator.integral(basepoint, uj, ratio)
                        for uj, ratio in zip(fs.u, fs.ratios()))


def fri_residues(fs: FundamentalSystem, k: int) -> list[ExpPoly]:
    """The functions rho_1..rho_k with rho_j = (1/d) sum u_i^{(j-1)} cof_i."""
    inv = _monomial_inverse(fs.d)
    return [ExpPoly.sum(ui.derive(j - 1) * cof for ui, cof in zip(fs.u, fs.cofactors)) * inv
            for j in range(1, k + 1)]


def fri_derivative(fs: FundamentalSystem, k: int, basepoint):
    """The closed form of d^k composed with the fundamental right inverse:
    sum_j u_j^{(k)} int_b (cof_j/d) + sum_{j<=k} d^{k-j} rho_j.

    Returns (operator, [rho_1, ..., rho_k]).
    """
    residues = fri_residues(fs, k)
    # d^{k-j} * rho_j expanded by Leibniz into normal form
    op = Operator.sum([Operator.integral(basepoint, uj.derive(k), ratio)
                       for uj, ratio in zip(fs.u, fs.ratios())]
                      + [Operator(diff=dict(_leibniz(k - j, rho)))
                         for j, rho in enumerate(residues, start=1)])
    return op, residues


def projector(conditions, fs: FundamentalSystem) -> Operator:
    """The projector onto ker T along the admissible space:
    P = sum_{j,i} u_j (M^{-1})_{j,i} beta_i with M the evaluation matrix."""
    m = evaluation_matrix(conditions, fs)
    try:
        minv = mat_inv(m)
    except ValueError:
        raise NotRegularError("boundary problem not regular", matrix=m) from None
    out = Operator.sum(cond.as_operator().left_mul(uj * minv[j][i])
                       for j, uj in enumerate(fs.u) for i, cond in enumerate(conditions)
                       if not minv[j][i].is_zero())
    # canonical global-free form, so that P * P == P structurally
    return out.to_equitable()


def greens_operator(problem: BoundaryProblem, basepoint=None) -> Operator:
    """The Green's operator G = (1 - P) T_inv of a regular problem.

    The integral basepoint defaults to the smallest evaluation point of the
    problem, which keeps the extracted Green's function free of spurious
    case branches.
    """
    fs = problem.system()
    if basepoint is None:
        points = problem.evaluation_points()
        basepoint = min(points) if points else Fraction(0)
    fri = fundamental_right_inverse(fs, basepoint)
    p = projector(problem.conditions, fs)
    # presented in standard form at the chosen basepoint
    return (fri - p * fri).to_standard(basepoint)


def kernel_relations(fs: FundamentalSystem, a, b):
    """The extended evaluation matrix of all derivative values at a and b,
    and a basis of its left kernel (the relations forced on ker T)."""
    derivs = [uj.derivatives(fs.size - 1) for uj in fs.u]
    matrix = mat_from_rows([[d[i].eval_at(point) for d in derivs]
                            for point in (Fraction(a), Fraction(b)) for i in range(fs.size)])
    return matrix, left_kernel(matrix)
