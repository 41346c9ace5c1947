"""The unified integro-differential operator ring.

Normal-form elements are sums of four kinds of terms, each with an ExpPoly
left coefficient ``f`` and rational points::

    D(i, f)        = f*d^i           differential part (i = 0 is multiplication)
    I(a, f, g)     = f*int_a*g       integral with basepoint a and right factor g
    L(p, i, f)     = f*<p>*d^i       local boundary term, <p> evaluates at p
    G(p, a, f, g)  = f*<p>*int_a*g   global boundary term

Right factors ``g`` are kept as monic monomials ``x^n exp(nu*x)``; their
scalar coefficients are folded into the left factor, so equality is
structural equality of the four part dictionaries.  Global terms are
presentation sugar (``f <p> int_a g = f int_a g - f int_p g``): the equitable
form without them is unique, and ``to_standard`` rebuilds the
single-basepoint presentation with globals.

Multiplication is composition (``(u*v)(h) = u(v(h))``).  Both factors are
taken to equitable form first, and the product of each pair of D, I and L
terms is computed by a terminating rewrite whose results are again
equitable (the skew-polynomial presentation of Regensburger, Rosenkranz and
Middeke).  The single-step rules are::

    d*f        -> f*d + f'
    d*int_a    -> 1
    int_a f d  -> f - int_a f' - f(a)*<a>
    int_a f int_b -> F*int_b - int_a*F          with F = int_a f
    <p>*f      -> f(p)*<p>,  <p><q> -> <q>,  d^k <p> -> 0 (k >= 1)
    <p>*int_a  -> int_a - int_p,  <p>*int_p -> 0
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .constants import _join_signed
from .errors import ParseError
from .exppoly import ExpPoly, Monomial, _coerce_constant
from .parsing import parse_exppoly

# Part dictionaries: keys identify a term, values are left ExpPoly factors.
DiffKey = int                                   # derivative order
IntKey = tuple[Fraction, Monomial]              # (basepoint, right monomial)
LocalKey = tuple[Fraction, int]                 # (point, derivative order)
GlobalKey = tuple[Fraction, Fraction, Monomial]  # (point, basepoint, monomial)


def _mono(key: Monomial) -> ExpPoly:
    freq, power = key
    return ExpPoly.monomial(freq, power)


def _merge(target: dict, key, value: ExpPoly):
    cur = target.get(key)
    total = value if cur is None else cur + value
    if total.is_zero():
        target.pop(key, None)
    else:
        target[key] = total


def _leibniz(n: int, g: ExpPoly):
    """Yield (k, comb(n, k) * g^(n-k)), the summands of d^n g = sum_k ... d^k."""
    for k in range(n + 1):
        yield k, g.derive(n - k) * comb(n, k)


class Operator:
    """A normal-form element of the unified operator ring."""

    __slots__ = ("_diff", "_integ", "_local", "_global")

    def __init__(self, diff=None, integ=None, local=None, glob=None):
        self._diff: dict[DiffKey, ExpPoly] = {}
        self._integ: dict[IntKey, ExpPoly] = {}
        self._local: dict[LocalKey, ExpPoly] = {}
        self._global: dict[GlobalKey, ExpPoly] = {}
        for i, f in (diff or {}).items():
            if not f.is_zero():
                self._diff[int(i)] = f
        for (a, mono), f in (integ or {}).items():
            if not f.is_zero():
                self._integ[(Fraction(a), mono)] = f
        for (p, i), f in (local or {}).items():
            if not f.is_zero():
                self._local[(Fraction(p), int(i))] = f
        for (p, a, mono), f in (glob or {}).items():
            if Fraction(p) != Fraction(a) and not f.is_zero():
                self._global[(Fraction(p), Fraction(a), mono)] = f

    # -- construction -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Operator":
        return cls()

    @classmethod
    def identity(cls) -> "Operator":
        return cls.multiplication(ExpPoly.one())

    @classmethod
    def derivative(cls, order: int = 1, coeff: ExpPoly | None = None) -> "Operator":
        return cls(diff={order: coeff if coeff is not None else ExpPoly.one()})

    @classmethod
    def multiplication(cls, f: ExpPoly) -> "Operator":
        return cls(diff={0: f})

    @classmethod
    def integral(cls, basepoint, left: ExpPoly | None = None,
                 right: ExpPoly | None = None) -> "Operator":
        """The term ``left * int_basepoint * right``."""
        left = left if left is not None else ExpPoly.one()
        right = right if right is not None else ExpPoly.one()
        return cls(integ={(basepoint, (freq, power)): left * c
                          for freq, power, c in right.terms()})

    @classmethod
    def evaluation(cls, point, order: int = 0, left: ExpPoly | None = None) -> "Operator":
        """The term ``left * <point> * d^order``."""
        left = left if left is not None else ExpPoly.one()
        return cls(local={(Fraction(point), order): left})

    @classmethod
    def global_term(cls, point, basepoint, left: ExpPoly | None = None,
                    integrand: ExpPoly | None = None) -> "Operator":
        """The term ``left * <point> * int_basepoint * integrand``."""
        left = left if left is not None else ExpPoly.one()
        integrand = integrand if integrand is not None else ExpPoly.one()
        return cls(glob={(point, basepoint, (freq, power)): left * c
                         for freq, power, c in integrand.terms()})

    # -- views --------------------------------------------------------------

    @property
    def diff_part(self) -> dict[DiffKey, ExpPoly]:
        return dict(self._diff)

    @property
    def integral_part(self) -> list[tuple[Fraction, ExpPoly, ExpPoly]]:
        return [(a, f, _mono(m)) for (a, m), f in sorted(self._integ.items())]

    @property
    def local_boundary(self) -> list[tuple[ExpPoly, Fraction, int]]:
        return [(f, p, i) for (p, i), f in sorted(self._local.items())]

    @property
    def global_boundary(self) -> list[tuple[ExpPoly, Fraction, Fraction, ExpPoly]]:
        return [(f, p, a, _mono(m)) for (p, a, m), f in sorted(self._global.items())]

    def is_zero(self) -> bool:
        return not (self._diff or self._integ or self._local or self._global)

    def order(self) -> int:
        return max(self._diff) if self._diff else 0

    def is_differential(self) -> bool:
        return not (self._integ or self._local or self._global)

    def is_equitable(self) -> bool:
        return not self._global

    def basepoints(self) -> set[Fraction]:
        points = {a for (a, _m) in self._integ}
        points.update(a for (_p, a, _m) in self._global)
        return points

    def boundary_points(self) -> set[Fraction]:
        points = {p for (p, _i) in self._local}
        points.update(p for (p, _a, _m) in self._global)
        return points

    def __eq__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return (self._diff == other._diff and self._integ == other._integ
                and self._local == other._local and self._global == other._global)

    def __hash__(self):
        return hash((
            tuple(sorted(self._diff.items())),
            tuple(sorted(self._integ.items())),
            tuple(sorted(self._local.items())),
            tuple(sorted(self._global.items())),
        ))

    # -- module structure -----------------------------------------------------

    @classmethod
    def sum(cls, ops) -> "Operator":
        """The sum of operators, merged in one pass over their part dictionaries."""
        parts = ({}, {}, {}, {})
        for op in ops:
            for target, source in zip(parts, (op._diff, op._integ, op._local, op._global)):
                for key, f in source.items():
                    target.setdefault(key, []).append(f)
        return cls(*({key: ExpPoly.sum(fs) for key, fs in part.items()} for part in parts))

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return Operator.sum((self, other))

    def __neg__(self):
        return Operator(
            {k: -f for k, f in self._diff.items()},
            {k: -f for k, f in self._integ.items()},
            {k: -f for k, f in self._local.items()},
            {k: -f for k, f in self._global.items()},
        )

    def __sub__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return self + (-other)

    def left_mul(self, f: ExpPoly) -> "Operator":
        """Multiply every term's left coefficient by the function f."""
        if f.is_zero():
            return Operator.zero()
        return Operator(
            {k: f * g for k, g in self._diff.items()},
            {k: f * g for k, g in self._integ.items()},
            {k: f * g for k, g in self._local.items()},
            {k: f * g for k, g in self._global.items()},
        )

    def __mul__(self, other):
        # Composing in the unique equitable form keeps products unique (and
        # hence associative); the term rewrites never create a global term.
        if isinstance(other, Operator):
            right = list(other.to_equitable()._terms())
            return Operator.sum(_mul_terms(t1, t2)
                                for t1 in self.to_equitable()._terms() for t2 in right)
        f = _as_exppoly(other)
        if f is None:
            return NotImplemented
        return self * Operator.multiplication(f)

    def __rmul__(self, other):
        f = _as_exppoly(other)
        if f is None:
            return NotImplemented
        return Operator.multiplication(f) * self

    def __pow__(self, n: int):
        result = Operator.identity()
        for _ in range(n):
            result = result * self
        return result

    # -- term iteration -------------------------------------------------------

    def _terms(self):
        """Yield (kind, left factor, *key) for every term, in sorted order."""
        for i in sorted(self._diff):
            yield "D", self._diff[i], i
        for key in sorted(self._integ):
            yield "I", self._integ[key], *key
        for key in sorted(self._local):
            yield "L", self._local[key], *key
        for key in sorted(self._global):
            yield "G", self._global[key], *key

    # -- action on functions ----------------------------------------------------

    def apply(self, h: ExpPoly) -> ExpPoly:
        return ExpPoly.sum(
            [f * h.derive(i) for i, f in self._diff.items()]
            + [f * (_mono(m) * h).integrate_from(a) for (a, m), f in self._integ.items()]
            + [f * h.derive(i).eval_at(p) for (p, i), f in self._local.items()]
            + [f * (_mono(m) * h).integrate_from(a).eval_at(p)
               for (p, a, m), f in self._global.items()])

    # -- translation between standard and equitable form ------------------------

    def to_equitable(self) -> "Operator":
        """Eliminate global terms: f*<p>*int_a*g = f*int_a*g - f*int_p*g."""
        if not self._global:
            return self
        return Operator.sum([Operator(self._diff, self._integ, self._local)]
                            + [Operator(integ={(a, m): f, (p, m): -f})
                               for (p, a, m), f in self._global.items()])

    def to_standard(self, basepoint) -> "Operator":
        """Move every integral to the distinguished basepoint:
        f*int_a*g = f*int_e*g - f*<a>*int_e*g."""
        e = Fraction(basepoint)
        # <e>*int_e vanishes, and the constructor drops it
        return Operator.sum([Operator(self._diff, local=self._local)]
                            + [Operator(integ={(e, m): f}, glob={(a, e, m): -f})
                               for (a, m), f in self._integ.items()]
                            + [Operator(glob={(p, e, m): f, (a, e, m): -f})
                               for (p, a, m), f in self._global.items()])

    # -- rendering ----------------------------------------------------------------

    def to_text(self) -> str:
        return _render(self, _TEXT)

    def to_latex(self) -> str:
        return _render(self, _LATEX)

    def __repr__(self):
        return f"Operator({self.to_text()})"

    def __str__(self):
        return self.to_text()

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "diff": [
                {"order": i, "coeff": f.to_text()}
                for i, f in sorted(self._diff.items())
            ],
            "integral": [
                {"basepoint": str(a), "left": f.to_text(), "right": _mono(m).to_text()}
                for (a, m), f in sorted(self._integ.items())
            ],
            "local": [
                {"point": str(p), "order": i, "left": f.to_text()}
                for (p, i), f in sorted(self._local.items())
            ],
            "global": [
                {"point": str(p), "basepoint": str(a), "left": f.to_text(),
                 "integrand": _mono(m).to_text()}
                for (p, a, m), f in sorted(self._global.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Operator":
        try:
            return cls.sum(
                [cls.derivative(int(entry["order"]), parse_exppoly(entry["coeff"]))
                 for entry in data.get("diff", ())]
                + [cls.integral(Fraction(entry["basepoint"]), parse_exppoly(entry["left"]),
                                parse_exppoly(entry["right"]))
                   for entry in data.get("integral", ())]
                + [cls.evaluation(Fraction(entry["point"]), int(entry["order"]),
                                  parse_exppoly(entry["left"]))
                   for entry in data.get("local", ())]
                + [cls.global_term(Fraction(entry["point"]), Fraction(entry["basepoint"]),
                                   parse_exppoly(entry["left"]), parse_exppoly(entry["integrand"]))
                   for entry in data.get("global", ())])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad operator document: {exc}") from exc


def _as_exppoly(value) -> ExpPoly | None:
    if isinstance(value, ExpPoly):
        return value
    c = _coerce_constant(value)
    if c is not None:
        return ExpPoly.const(c)
    return None


# -- composition of equitable terms ---------------------------------------------


def _diff_after_term(order: int, term) -> Operator:
    """d^order composed with a single D, I or L term."""
    kind, p = term[:2]
    if kind == "D":
        return Operator(diff={k + term[2]: c for k, c in _leibniz(order, p)})
    if kind == "I":
        a, m = term[2:]
        # d^k int_a g = d^{k-1} g  (one derivative cancels the integral)
        return Operator.sum(Operator(integ={(a, m): c}) if k == 0
                            else Operator(diff=dict(_leibniz(k - 1, _mono(m)))).left_mul(c)
                            for k, c in _leibniz(order, p))
    # d <q> = 0: only the k = 0 Leibniz summand survives
    return Operator(local={term[2:]: p.derive(order)})


def _int_diff(a: Fraction, q: ExpPoly, j: int) -> Operator:
    """int_a * q * d^j in normal form."""
    if j == 0:
        return Operator.integral(a, ExpPoly.one(), q)
    # int_a q d = q - int_a q' - q(a) <a>
    head = Operator.multiplication(q) - Operator.integral(a, ExpPoly.one(), q.derive())
    head = head - Operator.evaluation(a, 0, ExpPoly.const(q.eval_at(a)))
    if j == 1:
        return head
    return head * Operator.derivative(j - 1)


def _int_after_term(a: Fraction, g: ExpPoly, term) -> Operator:
    """int_a * g composed with a single D, I or L term."""
    kind, p = term[:2]
    if kind == "D":
        return _int_diff(a, g * p, term[2])
    F = (g * p).integrate_from(a)
    if kind == "I":
        b, m = term[2:]
        return Operator.integral(b, F, _mono(m)) - Operator.integral(a, ExpPoly.one(), F * _mono(m))
    return Operator(local={term[2:]: F})


def _absorb_evaluation(point: Fraction, op: Operator) -> Operator:
    """Compose <point> with an equitable operator from the left."""
    integ: dict[IntKey, ExpPoly] = {}
    local: dict[LocalKey, ExpPoly] = {}
    for i, f in op._diff.items():
        _merge(local, (point, i), ExpPoly.const(f.eval_at(point)))
    for (a, m), f in op._integ.items():
        # <p>*int_a = int_a - int_p, and <p>*int_p = 0
        if point != a:
            c = ExpPoly.const(f.eval_at(point))
            _merge(integ, (a, m), c)
            _merge(integ, (point, m), -c)
    for (p, i), f in op._local.items():
        _merge(local, (p, i), ExpPoly.const(f.eval_at(point)))
    return Operator(integ=integ, local=local)


def _mul_terms(t1, t2) -> Operator:
    """The product of two D, I or L terms."""
    kind, f = t1[:2]
    if kind == "D":
        return _diff_after_term(t1[2], t2).left_mul(f)
    if kind == "I":
        a, m = t1[2:]
        return _int_after_term(a, _mono(m), t2).left_mul(f)
    p, i = t1[2:]
    return _absorb_evaluation(p, _diff_after_term(i, t2)).left_mul(f)


# -- function-style aliases ----------------------------------------------------


def op_add(u: Operator, v: Operator) -> Operator:
    return u + v


def op_mul(u: Operator, v: Operator) -> Operator:
    return u * v


def apply(u: Operator, h: ExpPoly) -> ExpPoly:
    return u.apply(h)


def to_equitable(u: Operator) -> Operator:
    return u.to_equitable()


def to_standard(u: Operator, basepoint) -> Operator:
    return u.to_standard(basepoint)


# -- rendering helpers ---------------------------------------------------------

# One row per output format: how a left factor is rendered and grouped, and
# the markup of d, int_a, <p> and a right factor.
_TEXT = {
    "render": ExpPoly.to_text,
    "group": "({})",
    "needs_group": lambda t: ("+" in t.strip("+-") or " - " in t or "*" in t or "/" in t
                              or t.lstrip("-").count("x") > 1),
    "d": ("D", "D^{}"),
    "int": "int[{}]",
    "ev": "ev[{}]",
    "after_ev": "*",
    "right": "*{}",
    "join": (" + ", " - "),
}
_LATEX = {
    "render": ExpPoly.to_latex,
    "group": r"\left({}\right)",
    "needs_group": lambda t: "+" in t.strip("+-") or "-" in t[1:],
    "d": (r"\partial", r"\partial^{{{}}}"),
    "int": r"{{\textstyle\int_{{{}}}}}",
    "ev": r"\lfloor {} \rfloor",
    "after_ev": "",
    "right": r"\,{}",
    "join": (" + ", "-"),
}


def _markup(term, fmt: dict) -> str:
    """One term of ``Operator._terms`` in the notation of ``fmt``."""
    kind, f, *key = term
    if f == ExpPoly.one():
        head = ""
    elif f == -ExpPoly.one():
        head = "-"
    else:
        text = fmt["render"](f)
        head = fmt["group"].format(text) if fmt["needs_group"](text) else text
    if kind == "D" and key[0] == 0:
        return head or fmt["render"](f)
    body = []
    if kind in ("L", "G"):
        body.append(fmt["ev"].format(key.pop(0)))
    if kind in ("D", "L") and key[0]:
        body.append(fmt["d"][0] if key[0] == 1 else fmt["d"][1].format(key[0]))
    tail = ""
    if kind in ("I", "G"):
        a, m = key
        body.append(fmt["int"].format(a))
        g = _mono(m)
        tail = "" if g == ExpPoly.one() else fmt["right"].format(fmt["render"](g))
    return head + fmt["after_ev"].join(body) + tail


def _render(op: Operator, fmt: dict) -> str:
    return _join_signed((_markup(term, fmt) for term in op._terms()), *fmt["join"])
