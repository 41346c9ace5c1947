"""Stieltjes boundary problems and the Green's operator construction.

A problem is a monic differential operator ``T`` of order ``n`` together with
``n`` boundary conditions, each a sum of point evaluations of derivatives and
definite integrals against weight functions, stored as its functional
``Operator`` (zero terms, zero-length integrals included, dropped).  For a
regular problem the Green's operator is ``G = (1 - P) * T_inv`` where
``T_inv`` is the variation-of-constants right inverse and ``P`` projects onto
ker T along the space of admissible functions.

``P = sum_i v_i beta_i`` with ``v_i = sum_j u_j (M^-1)_ji``, M the evaluation
matrix ``(beta_i(u_j))``, so ``G = T_inv - sum_i v_i psi_i`` with
``psi_i = beta_i T_inv``.  The solve builds each ``psi_i`` in closed form,
with no operator product: ``<p> d^l T_inv`` is ``fri_derivative`` evaluated
at p, built once per order l from one list of residues, and an integral
``<b> int_a w`` is integrated by parts against ``T_inv``.  Only what is
reused is reduced: the closed forms, each ``v_i`` and G.  Each ``psi_i``
stays (monomial, part) pairs per term key, times ``v_i``, which
``operators._standard`` moves to standard form before it reduces each
coefficient of G once.  A problem computes its fundamental system and the
pair ``(M, M^-1)`` once; ``linalg._last_row_cofactors`` gives both the
Wronskian cofactors and ``M^-1 = adj M / det M``.  ``certify`` derives G a
second way, by the operator products ``beta_i * T_inv``, and compares.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm

from . import linalg
from .constants import Constant, _instance, _times_units
from .errors import (
    FundamentalSystemError,
    NotRegularError,
    ParseError,
    WronskianError,
)
from .exppoly import ExpPoly, Freq, _accumulate, _integral, _products, _scaled, _values
from .linalg import mat_from_rows, mat_inv, mat_vec
from .operators import Operator, _extend, _leibniz, _standard
from .parsing import MAX_DERIVATIVE_ORDER  # noqa: F401  (the cap stays importable from here)
from .parsing import _derivative_order, _fields, _list, parse_exppoly, parse_rational


class StieltjesCondition:
    """A boundary functional ``sum c u^(i)(p) + sum int_a^b w u``, stored as
    its normal-form ``Operator``: one ``c <p> d^i`` per local term and one
    ``<b> int_a w`` per integral.  The operator merges terms of one key and
    drops zero terms, zero-length integrals included.

    ``local_terms`` reads back (point, derivative order, coefficient) triples
    and ``global_terms`` (lower, upper, integrand) triples, one per interval.
    """

    __slots__ = ("_op",)

    def __init__(self, local_terms=(), global_terms=()):
        self._op = Operator.sum(
            [Operator.evaluation(p, i, ExpPoly.const(c)) for p, i, c in local_terms]
            + [Operator.global_term(b, a, ExpPoly.one(), w) for a, b, w in global_terms])

    @property
    def local_terms(self) -> tuple[tuple[Freq, int, Constant], ...]:
        return tuple((p, i, f.as_constant()) for f, p, i in self._op.local_boundary)

    @property
    def global_terms(self) -> tuple[tuple[Freq, Freq, ExpPoly], ...]:
        integrands: dict[tuple[Freq, Freq], list[ExpPoly]] = {}
        for f, b, a, g in self._op.global_boundary:
            integrands.setdefault((a, b), []).append(f * g)
        return tuple((a, b, ExpPoly.sum(ws)) for (a, b), ws in sorted(integrands.items()))

    def evaluation_points(self) -> set[Freq]:
        return self._op.boundary_points() | self._op.basepoints()

    def max_local_order(self) -> int:
        return max((i for _f, _p, i in self._op.local_boundary), default=-1)

    def is_local(self) -> bool:
        return not self._op.global_boundary

    def apply(self, u: ExpPoly) -> Constant:
        return self._op.apply(u).as_constant()

    def as_operator(self) -> Operator:
        return self._op

    def __eq__(self, other):
        if not isinstance(other, StieltjesCondition):
            return NotImplemented
        return self._op == other._op

    def __repr__(self):
        return f"StieltjesCondition({self._op.to_text()})"

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
        _fields(data, "condition", (), ("local", "global"))
        local = [
            (parse_rational(entry["point"]), _derivative_order(entry["order"]),
             Constant.from_rational(entry["coeff"]))
            for entry in _list(data, "condition", "local", ("point", "order", "coeff"))
        ]
        glob = [
            (parse_rational(entry["lower"]), parse_rational(entry["upper"]),
             parse_exppoly(entry["integrand"]))
            for entry in _list(data, "condition", "global", ("lower", "upper", "integrand"))
        ]
        return cls(local, glob)


class FundamentalSystem:
    """A basis of ker T with its Wronskian data.

    ``d`` is the Wronskian determinant (must be an exponential monomial so it
    can be inverted inside the coefficient algebra) and ``cofactors[j]`` is
    the determinant of the Wronskian matrix with column j replaced by the
    last unit vector.  The Wronskian rows ``(u_1^(i), ..., u_n^(i))``, i < n,
    and the quotients ``r_j = cofactors[j] / d`` are computed once and kept.
    """

    __slots__ = ("u", "d", "cofactors", "_rows", "_ratios")

    def __init__(self, u):
        u = tuple(u)
        if not u:
            raise FundamentalSystemError("fundamental system must be supplied")
        self._rows = tuple(zip(*(uj.derivatives(len(u) - 1) for uj in u)))
        self.u = u
        self.cofactors = tuple(linalg._last_row_cofactors(self._rows))
        self.d = linalg._last_row_expansion(self._rows, self.cofactors)
        if (inv := _monomial_inverse(self.d)) is None:
            raise WronskianError("Wronskian not invertible in coefficient algebra")
        self._ratios = tuple(cof * inv for cof in self.cofactors)

    @property
    def size(self) -> int:
        return len(self.u)

    def ratios(self) -> tuple[ExpPoly, ...]:
        """The quotients cofactor_j / d."""
        return self._ratios

    def _row(self, k: int) -> tuple[ExpPoly, ...]:
        """``(u_1^(k), ..., u_n^(k))``: stored for k < n, else derived and not kept."""
        last = len(self._rows) - 1
        return self._rows[k] if k <= last else tuple(f.derive(k - last) for f in self._rows[-1])


def _monomial_inverse(f: ExpPoly) -> ExpPoly | None:
    """Invert c*x^0*exp(l*x); None when f is not such a monomial."""
    terms = list(f.terms())
    if len(terms) != 1 or terms[0][1] != 0:
        return None
    freq, _power, c = terms[0]
    return ExpPoly.monomial(-freq, 0, c.inverse())


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction] | None:
    """All roots (with multiplicity) of a monic rational P, zeros first and then
    largest first, or None when P does not split over Q.  With lead the lcm of
    the denominators, y = 2 lead x takes the rational roots to the even integer
    roots of a monic integer Q.  Sturm's theorem counts the roots of Q in (a, b]
    for odd a, b; bisection leaves an even integer per root for _deflate."""
    zeros = next(i for i, c in enumerate(coeffs) if c)
    roots, coeffs = [Fraction(0)] * zeros, coeffs[zeros:]
    lead, n = lcm(*(c.denominator for c in coeffs)), len(coeffs) - 1
    seq = [[int(c * (2 * lead) ** (n - i)) for i, c in enumerate(coeffs)]]
    b = [i * c for i, c in enumerate(seq[0])][1:]
    while b:  # Sturm: a_(k+1) = -(a_(k-1) mod a_k), pseudo-divided and divided by its content
        seq.append(b)
        a = seq[-2]
        while len(a) >= len(b):
            k, c = len(a) - len(b), a[-1] if b[-1] > 0 else -a[-1]
            a = [abs(b[-1]) * x - (c * b[i - k] if i >= k else 0) for i, x in enumerate(a[:-1])]
        while a and not a[-1]:
            a.pop()
        g = gcd(*a)
        b = [-x // g for x in a]

    def changes(y: int, polys=seq) -> int:
        signs = [v for p in polys if (v := reduce(lambda t, c: t * y + c, reversed(p), 0))]
        return sum((s < 0) != (t < 0) for s, t in zip(signs, signs[1:]))

    negative = cache(lambda y: changes(y, (seq[0], seq[-1])))  # whether Q / gcd(Q, Q') < 0
    # Fujiwara's bound: every root has |y| < 2 max_i |Q_(n-i)|^(1/i) < top
    top = 2 << max([-(-c.bit_length() // i) for i, c in enumerate(seq[0][-2::-1], 1)] + [0]) | 1
    stack, poly = [(-top, changes(-top), top, changes(top))], seq[0]
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        if v_lo > v_hi and hi - lo == 2:  # hi - 1 is the only even integer in (lo, hi]
            while (quotient := _deflate(poly, hi - 1)) is not None:
                roots.append(Fraction(hi - 1, 2 * lead))
                poly = quotient
        elif v_lo > v_hi:  # with one root left, only the sign of Q / gcd(Q, Q') counts
            mid = (lo + hi) // 2 | 1
            v_mid = changes(mid) if v_lo - v_hi > 1 else v_hi + (negative(mid) != negative(hi))
            stack += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
    return roots if len(poly) == 1 else None


def _deflate(coeffs: list[int], root: int) -> list[int] | None:
    """Synthetic division by (x - root); None when root is not a root."""
    n = len(coeffs) - 1
    out = [0] * n
    carry = coeffs[-1]
    for i in range(n - 1, -1, -1):
        out[i] = carry
        carry = coeffs[i] + carry * root
    return out if carry == 0 else None


def fundamental_system(T: Operator) -> FundamentalSystem:
    """Compute a basis of ker T for constant rational coefficients.

    A root r of multiplicity k contributes x^j exp(r x), j < k.  Roots are
    listed in descending order.  Raises FundamentalSystemError, naming the
    cause, when the coefficients are non-constant or the characteristic
    polynomial does not split over Q or is too large to search.
    """
    advice = "fundamental system must be supplied"
    if not T.is_differential():
        raise FundamentalSystemError(f"the operator is not a differential operator: {advice}")
    n = T.order()
    if n == 0:
        raise FundamentalSystemError(f"the operator has order 0: {advice}")
    coeffs = []
    for i in range(n + 1):
        c = T.diff_part.get(i, ExpPoly.zero())
        q = k.as_rational() if (k := c.as_constant()) is not None else None
        if q is None:
            raise FundamentalSystemError(f"the coefficient {c.to_text()} of D^{i} is not a "
                                         f"rational constant: {advice}")
        coeffs.append(q)
    coeffs = [q / coeffs[-1] for q in coeffs]
    lead = lcm(*(q.denominator for q in coeffs))
    if (bits := max(int(q * lead).bit_length() for q in coeffs)) > MAX_ROOT_BITS:
        raise FundamentalSystemError(f"the characteristic polynomial has {bits}-bit coefficients, "
                                     f"denominators cleared, over the cap MAX_ROOT_BITS = "
                                     f"{MAX_ROOT_BITS}: {advice}")
    roots = _rational_roots(coeffs)
    if roots is None:
        raise FundamentalSystemError(f"the characteristic polynomial {_polynomial_text(coeffs)} "
                                     f"does not split over Q: {advice}")
    multiplicity = Counter(roots)
    return FundamentalSystem(ExpPoly.monomial(r, j) for r in sorted(multiplicity, reverse=True)
                             for j in range(multiplicity[r]))


def _polynomial_text(coeffs: list[Fraction]) -> str:
    """The polynomial in r with ``coeffs``, constant first, as ``r^2 - 3/2*r + 1``."""
    text = ""
    for i in range(len(coeffs) - 1, -1, -1):
        if c := coeffs[i]:
            power = "r" if i == 1 else f"r^{i}"
            body = str(abs(c)) if i == 0 else power if abs(c) == 1 else f"{abs(c)}*{power}"
            text += (" - " if c < 0 else " + ") + body if text else "-" * (c < 0) + body
    return text


# The scalar field stores e^(lambda*p) on the minimal grid of its exponents,
# so its gcds and products run on dense polynomials with up to one coefficient
# per grid step.  With the cap lifted, ``python -m stieltjes verify`` (Python
# 3.11 on a shared 2-core x86 host, start-up included) takes 0.15-0.35 s for
# order 2 at 2*10^5 steps, 0.35-0.5 s for order 3 at 1200 steps and 1.3 s at
# 4800, and 0.6-0.75 s for order 4 at 800 steps and 3.7-4.2 s at 3200.  The
# worked examples and the seeded test problems stay below 60 steps.
MAX_EXPONENT_SPREAD = 500

# The operator order sets the size of the fundamental system, and its tables of
# minors, of the Wronskian and of M, double with each order.  With n - 1
# derivative conditions at 0 and ``u(1) = 0``, ``solve --no-verify`` in-process
# (Python 3.11 on a 2-core x86 host) takes 0.015 s at n = 8, 0.07 s at n = 10
# and 0.34 s at n = 12 for ``u^(n) = f``, and 0.04 s, 0.19 s and 1.0 s for n
# distinct integer roots around 0; ``verify`` of ten roots takes 0.44 s with
# start-up, where a cofactor expansion per determinant took 45 s.  The worked
# examples and the seeded test problems use orders up to 3.
MAX_OPERATOR_ORDER = 10

# Isolating the roots of the characteristic polynomial costs about the cube of
# the bit length of its coefficients, denominators cleared: ten distinct roots
# take 0.2 s at 512 bits, 0.3 s at 640 and 0.5 s at 768 (Python 3.11 on a 2-core
# x86 host).  The worked examples and the seeded test problems need under 8 bits.
MAX_ROOT_BITS = 640


def check_exponent_spread(fs: FundamentalSystem, points) -> None:
    """Reject exponents lambda*p (lambda a frequency of ``fs``, p one of
    ``points``) that span more than MAX_EXPONENT_SPREAD steps of their
    minimal grid, before any arithmetic on them."""
    exponents = {lam * p for u in fs.u for lam, _n, _c in u.terms() for p in points}
    if exponents:
        spread = (max(exponents) - min(exponents)) * lcm(*(q.denominator for q in exponents))
        if spread > MAX_EXPONENT_SPREAD:
            raise ParseError(f"the exponents of the fundamental system at the evaluation points "
                             f"span {spread} grid steps, more than the cap "
                             f"MAX_EXPONENT_SPREAD = {MAX_EXPONENT_SPREAD}")


class BoundaryProblem:
    """A monic differential operator of order n with n boundary conditions.

    The fundamental system and the evaluation matrix with its inverse are
    computed on first use and kept."""

    __slots__ = ("T", "conditions", "_fs", "_matrices")

    def __init__(self, T: Operator, conditions, basis=None):
        if not T.is_differential():
            raise ValueError("operator must be purely differential")
        n = T.order()
        if T.diff_part.get(n) != ExpPoly.one():
            raise ValueError("operator must be monic")
        conditions = tuple(conditions)
        if len(conditions) != n:
            raise ValueError(f"expected {n} conditions, got {len(conditions)}")
        if basis is not None:
            u = basis.u if isinstance(basis, FundamentalSystem) else tuple(
                _instance(uj, ExpPoly, "basis function") for uj in basis)
            if len(u) != n:
                raise ValueError(f"expected a fundamental system of {n} functions, got {len(u)}")
            for uj in u:
                if not T.apply(uj).is_zero():
                    raise FundamentalSystemError(f"{uj.to_text()} is not a solution of T u = 0")
            if not isinstance(basis, FundamentalSystem):
                basis = FundamentalSystem(u)
        self.T = T
        self.conditions = conditions
        self._fs = basis
        self._matrices = None

    @property
    def order(self) -> int:
        return self.T.order()

    def system(self) -> FundamentalSystem:
        if self._fs is None:
            self._fs = fundamental_system(self.T)
        return self._fs

    def evaluation_inverse(self):
        """``(M, M^-1)`` of ``_evaluation_inverse``, computed once and kept."""
        if self._matrices is None:
            self._matrices = _evaluation_inverse(self.conditions, self.system())
        return self._matrices

    def evaluation_points(self) -> set[Freq]:
        return set().union(*(cond.evaluation_points() for cond in self.conditions))

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


def _evaluation_inverse(conditions, fs: FundamentalSystem):
    """(M, M^-1) of the evaluation matrix M; NotRegularError carries a singular M."""
    m = evaluation_matrix(conditions, fs)
    try:
        return m, mat_inv(m)
    except ValueError:
        raise NotRegularError("boundary problem not regular", matrix=m) from None


def is_regular(problem: BoundaryProblem) -> bool:
    """Whether the kept ``(M, M^-1)`` of the problem exists."""
    try:
        problem.evaluation_inverse()
    except NotRegularError:
        return False
    return True


def fundamental_right_inverse(fs: FundamentalSystem, basepoint) -> Operator:
    """Variation of constants: sum_j u_j int_b (cofactor_j / d)."""
    return _fri_closed(fs, 0, basepoint, [])


def fri_residues(fs: FundamentalSystem, k: int) -> list[ExpPoly]:
    """The functions rho_1..rho_k with rho_j = sum_i u_i^{(j-1)} cof_i/d."""
    return [ExpPoly.sum(f * r for f, r in zip(fs._row(j), fs.ratios())) for j in range(k)]


def fri_derivative(fs: FundamentalSystem, k: int, basepoint):
    """The closed form of d^k composed with the fundamental right inverse:
    sum_j u_j^{(k)} int_b (cof_j/d) + sum_{j<=k} d^{k-j} rho_j.

    Returns (operator, [rho_1, ..., rho_k]).
    """
    residues = fri_residues(fs, k)
    return _fri_closed(fs, k, basepoint, residues), residues


def _fri_closed(fs: FundamentalSystem, k: int, basepoint, residues) -> Operator:
    """The operator of ``fri_derivative(fs, k, basepoint)``, from a list of
    at least k residues rho_1, rho_2, ..."""
    # d^{k-j} * rho_j expanded by Leibniz into normal form
    return Operator.sum([Operator.integral(basepoint, f, ratio)
                         for f, ratio in zip(fs._row(k), fs.ratios())]
                        + [Operator(diff={l: _accumulate(pairs)
                                          for l, pairs in _leibniz(k - j, _scaled(rho))})
                           for j, rho in enumerate(residues[:k], start=1)])


def projector(conditions, fs: FundamentalSystem) -> Operator:
    """The projector onto ker T along the admissible space:
    P = sum_i (sum_j u_j (M^{-1})_{j,i}) beta_i with M the evaluation matrix."""
    _m, minv = _evaluation_inverse(conditions, fs)
    out = Operator.sum(
        cond.as_operator().left_mul(ExpPoly.sum(uj * minv[j][i] for j, uj in enumerate(fs.u)))
        for i, cond in enumerate(conditions))
    # canonical global-free form, so that P * P == P structurally
    return out.to_equitable()


def _psi(fs: FundamentalSystem, cond: StieltjesCondition, e, closed) -> tuple[dict, dict]:
    """``beta T_inv`` in closed form as local and global (monomial, part) pairs
    per key, T_inv at e and ``closed[l]`` the closed form of ``d^l T_inv``.
    ``<p> d^l T_inv`` is ``closed[l]`` evaluated at p, and by parts
    ``<b> int_a w T_inv = sum_j W_j(b) <b> int_e r_j - <b> int_a W_j r_j``
    with ``W_j = int_a w u_j`` and ``r_j = cof_j / d``."""
    local, glob = {}, {}
    for (p, l), c in cond.as_operator()._local.items():
        for (a, m), g in closed[l]._integ.items():
            _extend(glob, (p, a, m), _products(c, _values(_scaled(g), p)))
        for k, g in closed[l]._diff.items():
            _extend(local, (p, k), _products(c, _values(_scaled(g), p)))
    for a, b, w in cond.global_terms:
        for uj, r in zip(fs.u, fs.ratios()):
            W = _integral(_products(w, _scaled(uj)), a)
            for key, pairs in (((b, e), _products(r, _values(W, b))), ((b, a), _products(-r, W))):
                for m, part in pairs:  # the right monomial m, its coefficient the left factor
                    _extend(glob, (*key, m), [((0, 0), part)])
    return local, glob


def greens_operator(problem: BoundaryProblem, basepoint=None) -> Operator:
    """The Green's operator G = (1 - P) T_inv of a regular problem, built as
    ``T_inv - sum_i v_i psi_i`` from the closed forms ``psi_i = beta_i T_inv``
    (see the module docstring) with no operator product, and presented in
    standard form at ``basepoint``, each coefficient reduced once.

    T_inv is taken at the smallest evaluation point e, because G does not
    depend on it.  The basepoint defaults to e, which keeps the extracted
    Green's function free of spurious case branches.
    """
    fs = problem.system()
    e = min(problem.evaluation_points(), default=0)
    _m, minv = problem.evaluation_inverse()
    orders = {0} | {l for cond in problem.conditions for _p, l, _c in cond.local_terms}
    residues = fri_residues(fs, max(orders))
    closed = {l: _fri_closed(fs, l, e, residues) for l in orders}  # closed[0] is T_inv
    parts = ({}, {key: _scaled(f) for key, f in closed[0]._integ.items()}, {}, {})
    for i, cond in enumerate(problem.conditions):
        v = _accumulate([(key, _times_units(c, d, -1, 1, 0, 1)) for j, uj in enumerate(fs.u)
                         if (d := minv[j][i])._num for key, c in uj._terms.items()])  # -v_i
        for target, part in zip(parts[2:], _psi(fs, cond, e, closed)):
            for key, pairs in part.items():
                _extend(target, key, _products(v, pairs))
    return _standard(parts, e if basepoint is None else basepoint)


def certify(problem: BoundaryProblem, Geq: Operator) -> bool:
    """Whether the construction proves ``T Geq = 1`` and ``beta_k Geq = 0``
    without applying Geq to a function: ``T u_j = 0``, the Wronskian residues
    ``rho_1..rho_n = 0, ..., 0, 1`` (so ``T T_inv = 1``), ``M M^-1 = I``, and
    ``Geq = T_inv - sum_i v_i (beta_i * T_inv)`` with
    ``v_i = sum_j u_j (M^-1)_ji``.  The products ``beta_i * T_inv`` are taken
    in the operator ring, so this derivation shares no step with the closed
    form of ``greens_operator`` after T_inv and M^-1."""
    fs, n, e = problem.system(), problem.order, min(problem.evaluation_points(), default=0)
    try:
        m, minv = problem.evaluation_inverse()
    except NotRegularError:
        return False
    if (any(not problem.T.apply(uj).is_zero() for uj in fs.u)
            or fri_residues(fs, n) != [ExpPoly.zero()] * (n - 1) + [ExpPoly.one()]
            or not all(c.is_one() if i == j else c.is_zero()
                       for j, column in enumerate(zip(*minv))
                       for i, c in enumerate(mat_vec(m, column)))):
        return False
    fri = fundamental_right_inverse(fs, e)
    projected = [(cond.as_operator() * fri).left_mul(
                     -ExpPoly.sum(uj * minv[j][i] for j, uj in enumerate(fs.u)))
                 for i, cond in enumerate(problem.conditions)]
    return Geq == Operator.sum([fri] + projected).to_equitable()


def kernel_relations(fs: FundamentalSystem, a, b):
    """The matrix ``[W(a); W(b)]`` of u -> u^(i)(p) at a and b, i < n, read off
    the Wronskian rows, and a basis of its left kernel (the relations forced
    on ker T): the rows of ``[-W(b) W(a)^-1 | I]``, since every u in ker T has
    ``u^(k)(b) = sum_i (W(b) W(a)^-1)_ki u^(i)(a)``.  W(a) is invertible: its
    determinant is d(a), and ``FundamentalSystem`` accepts only a Wronskian d
    that is a nonzero exponential monomial."""
    n = fs.size
    matrix = mat_from_rows([f.eval_at(p) for f in fs._row(i)] for p in (a, b) for i in range(n))
    columns = tuple(zip(*mat_inv(matrix[:n])))
    return matrix, [tuple(-c for c in mat_vec(columns, row))
                    + tuple(Constant.one() if j == k else Constant.zero() for j in range(n))
                    for k, row in enumerate(matrix[n:])]
