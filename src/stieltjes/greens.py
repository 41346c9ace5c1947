"""Green's functions: piecewise bivariate kernels plus Dirac terms.

An equitable-form operator (no global boundary terms) is read off into a
kernel ``g(x, xi)`` as follows.  Every integral term ``f int_a g`` turns into
``f(x) g(xi)`` on the region ``a <= xi <= x`` and ``-f(x) g(xi)`` on
``x <= xi <= a``; collecting over the intervals between breakpoints gives
2(m-1) case branches.  A local boundary term ``f <p> d^i`` becomes the
distribution ``(-1)^i f(x) delta^(i)(xi - p)`` and a differential term
``f d^i`` becomes the diagonal distribution ``(-1)^i f(x) delta^(i)(x - xi)``.

``to_operator`` inverts this reading: the terms at a basepoint are the
difference of neighbouring lower branches, and ``lower - upper`` is the full
sum on every interval.  So a kernel and an operator act alike on every
function exactly when ``g.to_operator() == op``, the agreement check of
``stieltjes verify``, and ``apply_to`` is the action of ``g.to_operator()``.
"""

from __future__ import annotations

import json
from bisect import bisect_left

from .constants import Constant, _instance, _scalar
from .errors import DegenerateDomainError, NotEquitableError, ParseError
from .exppoly import BivariateExpPoly, ExpPoly, Freq, _freq
from .operators import Operator
from .parsing import (_decode, _derivative_order, _fields, _list, _nonnegative_int,
                      parse_bivariate, parse_exppoly, parse_rational)

REGION_LOWER = "xi<=x"
REGION_UPPER = "x<=xi"

# One row per output format: the markup of a case row (lo <= xi <= hi, region:
# branch) and of a distributional term sign * (coeff) * delta^(order)(argument).
_TEXT = {
    "case": "{} <= xi <= {}, {}: {}",
    "region": {REGION_LOWER: "xi <= x", REGION_UPPER: "x <= xi"},
    "branch": BivariateExpPoly.to_text,
    "term": "{}({}) * delta{}({})",
    "sign": ("", "-"),
    "coeff": ExpPoly.to_text,
    "prime": lambda i: "'" * i,
    "xi": "xi",
    "diagonal": "x - xi",
}
_LATEX = {
    "case": r"{} \le \xi \le {},\ {} & {}\\\hline",
    "region": {REGION_LOWER: r"\xi \le x", REGION_UPPER: r"x \le \xi"},
    "branch": BivariateExpPoly.to_latex,
    "term": r"{}\left({}\right)\,\delta{}({})",
    "sign": ("+", "-"),
    "coeff": ExpPoly.to_latex,
    "prime": lambda i: "" if i == 0 else "'" if i == 1 else rf"^{{({i})}}",
    "xi": r"\xi",
    "diagonal": r"x-\xi",
}


def _shift_text(var: str, p: Freq) -> str:
    if p == 0:
        return var
    return f"{var} - {p}" if p > 0 else f"{var} + {-p}"


class GreensFunction:
    """Breakpoints, 2(m-1) branch functions, and distributional terms.

    ``branches[(i, region)]`` is the kernel on ``xi`` in the i-th breakpoint
    interval (1-based) and the given region relative to the diagonal.
    ``dirac`` holds (point, order, coeff) for ``(-1)^order coeff(x)
    delta^(order)(xi - point)``; ``diagonal`` holds (order, coeff) for
    ``(-1)^order coeff(x) delta^(order)(x - xi)``.

    A kernel is immutable, like the ``ExpPoly`` and ``Operator`` values it
    holds: its operator is built once, on first use.
    """

    __slots__ = ("breakpoints", "_branches", "dirac", "diagonal", "_operator")

    def __init__(self, breakpoints, branches, dirac=(), diagonal=()):
        pts = sorted({_freq(p) for p in breakpoints})
        if len(pts) < 2:
            raise DegenerateDomainError("degenerate domain: supply explicit interval")
        self.breakpoints = tuple(pts)
        self._branches: dict[tuple[int, str], BivariateExpPoly] = {
            (i, region): BivariateExpPoly.zero()
            for i in range(1, len(pts)) for region in (REGION_LOWER, REGION_UPPER)}
        unknown = [key for key in branches if key not in self._branches]
        if unknown:
            raise ValueError(f"branch keys {', '.join(map(repr, unknown))} name no interval "
                             f"1..{len(pts) - 1} and region {REGION_LOWER!r} or {REGION_UPPER!r}")
        self._branches.update(((_nonnegative_int(i, "interval"), region),
                               _instance(b, BivariateExpPoly, "branch"))
                              for (i, region), b in branches.items())
        # every term is read, a zero one's too, before the zero terms are dropped
        dirac = [(_freq(p), _nonnegative_int(i, "derivative order"),
                  _instance(c, ExpPoly, "dirac coefficient")) for p, i, c in dirac]
        diagonal = [(_nonnegative_int(i, "derivative order"),
                     _instance(c, ExpPoly, "diagonal coefficient")) for i, c in diagonal]
        self.dirac = tuple(sorted((t for t in dirac if not t[2].is_zero()), key=lambda t: t[:2]))
        self.diagonal = tuple(sorted((t for t in diagonal if not t[1].is_zero()),
                                     key=lambda t: t[0]))
        for p, _i, _c in self.dirac:
            if p not in self.breakpoints:
                raise ValueError(f"dirac point {p} is not a breakpoint")
        self._operator = None

    # -- structure ----------------------------------------------------------

    @property
    def interval_count(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def branch_count(self) -> int:
        return 2 * self.interval_count

    def branch(self, i: int, region: str) -> BivariateExpPoly:
        return self._branches[(_nonnegative_int(i, "interval"), region)]

    def has_distributional_part(self) -> bool:
        return bool(self.dirac or self.diagonal)

    def dirac_orders(self) -> set[tuple[Freq, int]]:
        return {(p, i) for p, i, _c in self.dirac}

    def scale(self, c) -> "GreensFunction":
        c = _scalar(c)
        return GreensFunction(
            self.breakpoints,
            {key: b * c for key, b in self._branches.items()},
            [(p, i, f * c) for p, i, f in self.dirac],
            [(i, f * c) for i, f in self.diagonal],
        )

    def to_operator(self) -> Operator:
        """The equitable operator of this kernel, the inverse of ``extract``;
        a ValueError unless ``lower - upper`` is one bivariate on every
        interval (true of kernels read off operators)."""
        if self._operator is None:
            self._operator = self._build_operator()
        return self._operator

    def _build_operator(self) -> Operator:
        lower = [self._branches[(i, REGION_LOWER)] for i in range(1, len(self.breakpoints))]
        upper = [self._branches[(i, REGION_UPPER)] for i in range(1, len(self.breakpoints))]
        # the terms at each p_j in between: lower and upper must step alike
        steps = [b - a for a, b in zip(lower, lower[1:])]
        if any(b - a != step for a, b, step in zip(upper, upper[1:], steps)):
            raise ValueError("kernel is not smooth across breakpoints")
        at = [lower[0]] + steps + [-upper[-1]]
        integ = {(p, mono): left for p, t in zip(self.breakpoints, at)
                 for mono, left in t._terms.items()}
        return Operator.sum([Operator(integ=integ)]
                            + [Operator.evaluation(p, i, c) for p, i, c in self.dirac]
                            + [Operator.derivative(i, c) for i, c in self.diagonal])

    def __eq__(self, other):
        if not isinstance(other, GreensFunction):
            return NotImplemented
        return (self.breakpoints == other.breakpoints
                and self._branches == other._branches
                and self.dirac == other.dirac
                and self.diagonal == other.diagonal)

    def __repr__(self):
        return f"GreensFunction(breakpoints={[str(p) for p in self.breakpoints]})"

    # -- pointwise readout ----------------------------------------------------

    def eval_functional(self, x, xi) -> Constant:
        """Evaluate the functional part at a rational point.

        The interval is selected by xi (ties at interior breakpoints go to
        the left interval) and the diagonal tie xi = x uses the lower region.
        """
        x, xi = _freq(x), _freq(xi)
        lo, hi = self.breakpoints[0], self.breakpoints[-1]
        if not (lo <= x <= hi and lo <= xi <= hi):
            raise ValueError("point outside the domain of the Green's function")
        idx = max(1, bisect_left(self.breakpoints, xi))
        region = REGION_LOWER if xi <= x else REGION_UPPER
        return self._branches[(idx, region)].eval_at(x, xi)

    # -- integral action --------------------------------------------------------

    def apply_to(self, f: ExpPoly) -> ExpPoly:
        """Integrate the kernel against f and add the distributional terms:
        the action of its operator; a ValueError for every f as in
        ``to_operator``."""
        return self.to_operator().apply(f)

    # -- rendering ---------------------------------------------------------------

    def case_rows(self):
        """(lower, upper, region, term) rows of the case table."""
        pts = self.breakpoints
        return [(pts[i - 1], pts[i], region, self._branches[(i, region)])
                for i in range(1, len(pts)) for region in (REGION_LOWER, REGION_UPPER)]

    def to_text(self) -> str:
        return "\n".join(self._cases(_TEXT) + [f"{label}: {term}" for label, term
                                               in self._distributional(_TEXT)])

    def to_latex(self) -> str:
        lines = [r"\begin{array}{|l|l|}", r"\hline", r"\text{Case} & \text{Term}\\\hline",
                 *self._cases(_LATEX), r"\end{array}"]
        if self.has_distributional_part():
            joined = "".join(term for _label, term in self._distributional(_LATEX))
            lines.append(r"\text{distributional part: } " + joined.lstrip("+"))
        return "\n".join(lines)

    def _cases(self, fmt: dict) -> list[str]:
        """The case rows in the notation of ``fmt``."""
        return [fmt["case"].format(lo, hi, fmt["region"][region], fmt["branch"](term))
                for lo, hi, region, term in self.case_rows()]

    def _distributional(self, fmt: dict):
        """Yield (label, markup) for each dirac and diagonal term in the
        notation of ``fmt``."""
        terms = ([("dirac", i, c, _shift_text(fmt["xi"], p)) for p, i, c in self.dirac]
                 + [("diagonal", i, c, fmt["diagonal"]) for i, c in self.diagonal])
        for label, i, coeff, arg in terms:
            yield label, fmt["term"].format(fmt["sign"][i % 2], fmt["coeff"](coeff),
                                            fmt["prime"](i), arg)

    # -- serialization --------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "breakpoints": [str(p) for p in self.breakpoints],
            "branches": [
                {"interval": i, "region": region, "term": self._branches[(i, region)].to_text()}
                for (i, region) in sorted(self._branches)
            ],
            "dirac": [
                {"point": str(p), "order": i, "coeff": c.to_text()}
                for p, i, c in self.dirac
            ],
            "diagonal": [
                {"order": i, "coeff": c.to_text()}
                for i, c in self.diagonal
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "GreensFunction":
        doc = "Green's function document"
        _fields(data, doc, ("breakpoints",), ("branches", "dirac", "diagonal"))
        breakpoints = [parse_rational(p) for p in _list(data, doc, "breakpoints")]
        if any(a >= b for a, b in zip(breakpoints, breakpoints[1:])):
            raise ParseError(f"{doc} field 'breakpoints' must be strictly increasing")
        branches = {}
        for entry in _list(data, doc, "branches", ("interval", "region", "term")):
            key = (_nonnegative_int(entry["interval"], "interval"), str(entry["region"]))
            if key in branches:
                raise ParseError(f"{doc} lists the branch {key} twice")
            branches[key] = parse_bivariate(entry["term"])
        dirac = [
            (parse_rational(entry["point"]), _derivative_order(entry["order"]),
             parse_exppoly(entry["coeff"]))
            for entry in _list(data, doc, "dirac", ("point", "order", "coeff"))
        ]
        diagonal = [
            (_derivative_order(entry["order"]), parse_exppoly(entry["coeff"]))
            for entry in _list(data, doc, "diagonal", ("order", "coeff"))
        ]
        try:
            g = cls(breakpoints, branches, dirac, diagonal)
            g.to_operator()  # a kernel that no operator has could not be applied
            return g
        except ValueError as exc:
            raise ParseError(f"bad {doc}: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "GreensFunction":
        return cls.from_json_dict(_decode(text, "Green's function document"))


def extract(op: Operator, interval=None) -> GreensFunction:
    """Read off the Green's function of an equitable-form operator.

    Breakpoints are the integral basepoints and local boundary points of the
    operator, plus the endpoints of ``interval`` when given.  On the interval
    ``[p_i, p_{i+1}]`` the lower branch collects the terms with basepoint
    ``<= p_i`` and the upper branch the negated terms with basepoint
    ``>= p_{i+1}``.
    """
    if not op.is_equitable():
        raise NotEquitableError("operator not in equitable form")
    points: set[Freq] = set(op.basepoints())
    points.update(op.boundary_points())
    if interval is not None:
        a, b = interval
        points.add(_freq(a))
        points.add(_freq(b))
    breakpoints = sorted(points)
    tensors = [(a, BivariateExpPoly.tensor(left, right)) for a, left, right in op.integral_part]
    branches: dict[tuple[int, str], BivariateExpPoly] = {}
    for i in range(1, len(breakpoints)):
        branches[(i, REGION_LOWER)] = BivariateExpPoly.sum(
            t for a, t in tensors if a <= breakpoints[i - 1])
        branches[(i, REGION_UPPER)] = -BivariateExpPoly.sum(
            t for a, t in tensors if a >= breakpoints[i])
    dirac = [(p, i, f) for f, p, i in op.local_boundary]
    diagonal = [(i, f) for i, f in sorted(op.diff_part.items())]
    return GreensFunction(breakpoints, branches, dirac, diagonal)


def eval_functional(g: GreensFunction, x, xi) -> Constant:
    return g.eval_functional(x, xi)


def apply_greens(g: GreensFunction, f: ExpPoly) -> ExpPoly:
    return g.apply_to(f)


def render(g: GreensFunction, fmt: str) -> str:
    """Render the case table: fmt is ``latex``, ``json`` or ``text``."""
    if fmt == "latex":
        return g.to_latex()
    if fmt == "json":
        return g.to_json()
    if fmt == "text":
        return g.to_text()
    raise ValueError(f"unknown format {fmt!r}")
