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
form without them is unique; ``to_standard`` and the solve rebuild the
single-basepoint presentation with globals by one routine, ``_standard``.

Multiplication is composition (``(u*v)(h) = u(v(h))``).  Both factors are
taken to equitable form first, and the product is computed by terminating
rewrites whose results are again equitable (the skew-polynomial presentation
of Regensburger, Rosenkranz and Middeke).  The rules are::

    d*f        -> f*d + f'
    d*int_a    -> 1
    int_a f d  -> f - int_a f' - f(a)*<a>
    int_a q d^j -> sum_{l<j} (-1)^l (q^(l) - q^(l)(a)*<a>) d^(j-1-l)
                   + (-1)^j int_a q^(j)
    int_a f int_b -> F*int_b - int_a*F          with F = int_a f
    <p>*f      -> f(p)*<p>,  <p><q> -> <q>,  d^k <p> -> 0 (k >= 1)
    <p>*int_a  -> int_a - int_p,  <p>*int_p -> 0

The product is one accumulation, in the unreduced form of ExpPoly
arithmetic: (monomial, part) pairs, a part being a ``_sum`` summand
``(c, p, q, k, m)``.  Each left term is composed with every right term
under a unit left factor (``<p> d^i`` as ``d^i`` followed by one evaluation
at p per key), and each rewrite emits, per key, the pairs of its left
factor: a right monomial is a key shift (``exppoly._shift``), a derivative
comes from the one derivative rule ``exppoly._derived``, a definite
integral from ``exppoly._integral`` and a value from ``exppoly._values``.
The ``d * int`` rule is taken i steps at once::

    d^i g int_b m -> g^(i) int_b m + sum_{r<i} d^(i-1-r) g^(r) m

Each left factor of u is multiplied into those pairs by
``exppoly._products``, and each output coefficient is reduced once, by
the finisher of ExpPoly arithmetic, ``exppoly._accumulate``.

The action on a function h ends in the same finisher, from an action plan
built on the first application: the integral terms' left factors summed
per right monomial m, and one signed left factor per boundary value
``F_m(q)``, which several terms may share.  The antiderivative ``F_m`` of
``m h``, each derivative ``h^(i)`` and every boundary value are unit
multiples of h's coefficients, never reduced on their own.
"""

from __future__ import annotations

from itertools import chain
from math import comb

from .constants import _ONE, Constant, _join_signed
from .exppoly import (ExpPoly, Freq, Monomial, _accumulate, _antiderivative, _derived, _freq,
                      _integral, _products, _scaled, _shift, _values)
from .parsing import (_derivative_order, _fields, _list, _nonnegative_int, parse_exppoly,
                      parse_rational)

# Part dictionaries: keys identify a term, values are left ExpPoly factors.
DiffKey = int                                   # derivative order
# Points and basepoints are keyed like ExpPoly frequencies: an int when
# integral, else a Fraction, which compare, hash and print alike.
IntKey = tuple[Freq, Monomial]              # (basepoint, right monomial)
LocalKey = tuple[Freq, int]                 # (point, derivative order)
GlobalKey = tuple[Freq, Freq, Monomial]     # (point, basepoint, monomial)


def _mono(m: Monomial) -> ExpPoly:
    return ExpPoly({m: _ONE})


def _leibniz(n: int, pairs):
    """Yield (k, pairs of C(n, k) g^(n-k)), the summands of d^n g = sum_k ... d^k,
    for the g of the (monomial, part) pairs."""
    for k in range(n + 1):
        yield k, _derived(pairs, n - k, comb(n, k))


class Operator:
    """A normal-form element of the unified operator ring."""

    # _plan, apply's action plan, is built on first use and kept out of ==, hash and JSON
    __slots__ = ("_diff", "_integ", "_local", "_global", "_plan")

    def __init__(self, diff=None, integ=None, local=None, glob=None):
        self._diff: dict[DiffKey, ExpPoly] = {}
        self._integ: dict[IntKey, ExpPoly] = {}
        self._local: dict[LocalKey, ExpPoly] = {}
        self._global: dict[GlobalKey, ExpPoly] = {}
        for i, f in (diff or {}).items():
            if not f.is_zero():
                self._diff[_nonnegative_int(i, "derivative order")] = f
        for (a, mono), f in (integ or {}).items():
            if not f.is_zero():
                self._integ[(_freq(a), mono)] = f
        for (p, i), f in (local or {}).items():
            if not f.is_zero():
                self._local[(_freq(p), _nonnegative_int(i, "derivative order"))] = f
        for (p, a, mono), f in (glob or {}).items():
            p, a = _freq(p), _freq(a)
            if p != a and not f.is_zero():
                self._global[(p, a, mono)] = f
        self._plan = None

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
        return cls(integ={(basepoint, m): left * c for m, c in right._terms.items()})

    @classmethod
    def evaluation(cls, point, order: int = 0, left: ExpPoly | None = None) -> "Operator":
        """The term ``left * <point> * d^order``."""
        left = left if left is not None else ExpPoly.one()
        return cls(local={(point, order): left})

    @classmethod
    def global_term(cls, point, basepoint, left: ExpPoly | None = None,
                    integrand: ExpPoly | None = None) -> "Operator":
        """The term ``left * <point> * int_basepoint * integrand``."""
        left = left if left is not None else ExpPoly.one()
        integrand = integrand if integrand is not None else ExpPoly.one()
        return cls(glob={(point, basepoint, m): left * c for m, c in integrand._terms.items()})

    # -- views --------------------------------------------------------------

    @property
    def diff_part(self) -> dict[DiffKey, ExpPoly]:
        return dict(self._diff)

    @property
    def integral_part(self) -> list[tuple[Freq, ExpPoly, ExpPoly]]:
        return [(a, f, _mono(m)) for (a, m), f in sorted(self._integ.items())]

    @property
    def local_boundary(self) -> list[tuple[ExpPoly, Freq, int]]:
        return [(f, p, i) for (p, i), f in sorted(self._local.items())]

    @property
    def global_boundary(self) -> list[tuple[ExpPoly, Freq, Freq, ExpPoly]]:
        return [(f, p, a, _mono(m)) for (p, a, m), f in sorted(self._global.items())]

    def is_zero(self) -> bool:
        return not (self._diff or self._integ or self._local or self._global)

    def order(self) -> int:
        return max(self._diff) if self._diff else 0

    def is_differential(self) -> bool:
        return not (self._integ or self._local or self._global)

    def is_equitable(self) -> bool:
        return not self._global

    def basepoints(self) -> set[Freq]:
        points = {a for (a, _m) in self._integ}
        points.update(a for (_p, a, _m) in self._global)
        return points

    def boundary_points(self) -> set[Freq]:
        points = {p for (p, _i) in self._local}
        points.update(p for (p, _a, _m) in self._global)
        return points

    def _parts(self) -> tuple[dict, ...]:
        return self._diff, self._integ, self._local, self._global

    def __eq__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return self._parts() == other._parts()

    def __hash__(self):
        return hash(tuple([tuple(sorted(part.items())) for part in self._parts()]))

    def _map(self, fn) -> "Operator":
        """The operator with every left factor f replaced by fn(f)."""
        return Operator(*[{k: fn(f) for k, f in part.items()} for part in self._parts()])

    # -- module structure -----------------------------------------------------

    @classmethod
    def sum(cls, ops) -> "Operator":
        """The sum of operators, merged in one pass over their part dictionaries."""
        parts = ({}, {}, {}, {})
        for op in ops:
            for target, source in zip(parts, op._parts()):
                for key, f in source.items():
                    _extend(target, key, (f,))
        return cls(*_summed(parts))

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return Operator.sum((self, other))

    def __neg__(self):
        return self._map(ExpPoly.__neg__)

    def __sub__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return self + (-other)

    def left_mul(self, f: ExpPoly) -> "Operator":
        """Multiply every term's left coefficient by the function f."""
        return self._map(f.__mul__)

    def __mul__(self, other):
        # Composing in the unique equitable form keeps products unique (and
        # hence associative); the term rewrites never create a global term.
        if not isinstance(other, Operator):
            f = _as_exppoly(other)
            if f is None:
                return NotImplemented
            other = Operator.multiplication(f)
        return _compose(self.to_equitable(), other.to_equitable())

    def __rmul__(self, other):
        f = _as_exppoly(other)
        if f is None:
            return NotImplemented
        return Operator.multiplication(f) * self

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative exponent {n}: an operator has no inverse power")
        result = Operator.identity()
        for _ in range(n):
            result = result * self
        return result

    # -- term iteration -------------------------------------------------------

    def _terms(self):
        """Yield (kind, left factor, *key) for every term, in sorted order."""
        for kind, part in zip("DILG", self._parts()):
            for key in sorted(part):
                yield kind, part[key], *((key,) if kind == "D" else key)

    # -- action on functions ----------------------------------------------------

    def apply(self, h: ExpPoly) -> ExpPoly:
        """The action on h, as one accumulation (see the module docstring).

        The action plan, built on the first call, sums the left factors of
        the integral terms ``f int_a m`` per m, and collects one signed left
        factor per boundary value ``F_m(q)``: ``-f`` of each ``f int_q m``,
        ``f`` of each ``f <q> int_a m`` and ``-f`` of each ``f <p> int_q m``;
        zero sums are dropped.  Each right monomial m is integrated once, by
        ``exppoly._antiderivative``, to ``F_m`` as unit multiples of h's
        coefficients, and ``h^(i)`` of ``f d^i`` or ``f <p> d^i`` is the
        unit multiples of ``exppoly._derived``, never reduced.  A boundary
        value, ``F_m(q)`` or ``h^(i)(p)``, is a list of unit multiples
        (``exppoly._values``).  A left factor times ``h^(i)``, ``F_m`` or a
        value gives one part per pair of terms (``exppoly._products``)."""
        if self._plan is None:
            lefts, bounds = {}, {}
            for (a, m), f in self._integ.items():
                _extend(lefts, m, (f,))
                _extend(bounds, (m, a), (-f,))
            for (p, a, m), f in self._global.items():
                _extend(bounds, (m, p), (f,))
                _extend(bounds, (m, a), (-f,))
            self._plan = _summed([lefts, bounds])
        lefts, bounds = self._plan
        h = _scaled(h)
        anti = {m: _antiderivative(_shift(h, m)) for m in lefts.keys() | {m for m, _q in bounds}}
        return _accumulate(chain(
            *[_products(f, _derived(h, i)) for i, f in self._diff.items()],
            *[_products(f, anti[m]) for m, f in lefts.items()],
            *[_products(f, _values(anti[m], q)) for (m, q), f in bounds.items()],
            *[_products(f, _values(_derived(h, i), p)) for (p, i), f in self._local.items()]))

    # -- translation between standard and equitable form ------------------------

    def to_equitable(self) -> "Operator":
        """Eliminate global terms: f*<p>*int_a*g = f*int_a*g - f*int_p*g."""
        if not self._global:
            return self
        return Operator.sum([Operator(self._diff, self._integ, self._local)]
                            + [Operator(integ={(a, m): f, (p, m): -f})
                               for (p, a, m), f in self._global.items()])

    def to_standard(self, basepoint) -> "Operator":
        """Move every integral to the distinguished basepoint, by ``_standard``."""
        return _standard([{key: _scaled(f) for key, f in part.items()} for part in self._parts()],
                         basepoint)

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
        doc = "operator document"
        _fields(data, doc, (), ("diff", "integral", "local", "global"))
        return cls.sum(
            [cls.derivative(_derivative_order(entry["order"]), parse_exppoly(entry["coeff"]))
             for entry in _list(data, doc, "diff", ("order", "coeff"))]
            + [cls.integral(parse_rational(entry["basepoint"]), parse_exppoly(entry["left"]),
                            parse_exppoly(entry["right"]))
               for entry in _list(data, doc, "integral", ("basepoint", "left", "right"))]
            + [cls.evaluation(parse_rational(entry["point"]), _derivative_order(entry["order"]),
                              parse_exppoly(entry["left"]))
               for entry in _list(data, doc, "local", ("point", "order", "left"))]
            + [cls.global_term(parse_rational(entry["point"]), parse_rational(entry["basepoint"]),
                               parse_exppoly(entry["left"]), parse_exppoly(entry["integrand"]))
               for entry in _list(data, doc, "global",
                                  ("point", "basepoint", "left", "integrand"))])


def _as_exppoly(value) -> ExpPoly | None:
    if isinstance(value, ExpPoly):
        return value
    c = Constant._coerce(value)
    if c is not None:
        return ExpPoly.const(c)
    return None


# -- composition of equitable operators -----------------------------------------


def _extend(part: dict, key, items) -> None:
    part.setdefault(key, []).extend(items)


def _summed(parts) -> list[dict]:
    """The summands of each key added by one ExpPoly.sum; zero sums dropped."""
    sums = [[(key, fs[0] if len(fs) == 1 else ExpPoly.sum(fs)) for key, fs in part.items()]
            for part in parts]
    return [{key: f for key, f in part if not f.is_zero()} for part in sums]


def _diff_after(i: int, v: Operator) -> list[dict]:
    """The diff, integ and local parts of d^i * v, as lists of (monomial,
    part) pairs per key."""
    diff, integ, local = parts = ({}, {}, {})
    for j, g in v._diff.items():
        for k, pairs in _leibniz(i, _scaled(g)):
            _extend(diff, k + j, pairs)
    for (b, m), g in v._integ.items():
        g = _scaled(g)
        _extend(integ, (b, m), _derived(g, i))
        for r in range(i):  # d^i g int_b m = g^(i) int_b m + sum_{r<i} d^(i-1-r) g^(r) m
            for k, pairs in _leibniz(i - 1 - r, _shift(_derived(g, r), m)):
                _extend(diff, k, pairs)
    for key, g in v._local.items():
        _extend(local, key, _derived(_scaled(g), i))  # d <q> = 0
    return parts


def _evaluation_after(p: Freq, parts: list[dict]) -> list[dict]:
    """The parts of <p> * w, given the parts of an equitable w: one
    evaluation at p per key of w."""
    diff_w, integ_w, local_w = parts
    integ, local = {}, {}
    for key, pairs in [*[((p, i), pairs) for i, pairs in diff_w.items()], *local_w.items()]:
        _extend(local, key, _values(pairs, p))
    for (a, m), pairs in integ_w.items():
        if a != p:  # <p>*int_a = int_a - int_p, and <p>*int_p = 0
            values = _values(pairs, p)
            _extend(integ, (a, m), values)
            _extend(integ, (p, m), _derived(values, 0, -1))
    return [{}, integ, local]


def _integral_after(a: Freq, m: Monomial, v: Operator) -> list[dict]:
    """The parts of int_a m * v."""
    diff, integ, local = parts = ({}, {}, {})

    def integral(pairs):  # int_a g, one term per part of g
        for key, part in pairs:
            _extend(integ, (a, key), [((0, 0), part)])

    for j, g in v._diff.items():
        # the closed form of int_a q d^j (see the module docstring)
        q = _shift(_scaled(g), m)
        for l in range(j):
            ql = _derived(q, l, (-1) ** l)
            _extend(diff, j - 1 - l, ql)
            _extend(local, (a, j - 1 - l), _derived(_values(ql, a), 0, -1))
        integral(_derived(q, j, (-1) ** j))
    for (b, m2), g in v._integ.items():
        F = _integral(_shift(_scaled(g), m), a)  # int_a q int_b m2 = F int_b m2 - int_a F m2
        _extend(integ, (b, m2), F)
        integral(_derived(_shift(F, m2), 0, -1))
    for key, g in v._local.items():
        _extend(local, key, _integral(_shift(_scaled(g), m), a))
    return parts


def _compose(u: Operator, v: Operator) -> Operator:
    """u * v for equitable u and v (see the module docstring)."""
    total = ({}, {}, {})
    after = {i: _diff_after(i, v) for i in {*u._diff, *(i for _p, i in u._local)}}
    for f, parts in chain(((f, after[i]) for i, f in u._diff.items()),
                          ((f, _integral_after(a, m, v)) for (a, m), f in u._integ.items()),
                          ((f, _evaluation_after(p, after[i])) for (p, i), f in u._local.items())):
        for target, part in zip(total, parts):
            for key, pairs in part.items():
                _extend(target, key, _products(f, pairs))
    return Operator(*[{key: _accumulate(pairs) for key, pairs in part.items()} for part in total])


def _standard(parts, basepoint) -> Operator:
    """The operator of four parts of (monomial, part) pairs per key, in
    standard form at the basepoint e, each coefficient reduced once:
    ``f int_a m = f int_e m - f <a> int_e m``, and likewise under ``<p>``."""
    e = _freq(basepoint)
    diff, integ, local, glob = parts
    integ_e, glob_e = {}, {}
    moved = [(integ_e, (e, m), a, m, pairs) for (a, m), pairs in integ.items()]
    moved += [(glob_e, (p, e, m), a, m, pairs) for (p, a, m), pairs in glob.items() if p != a]
    for target, key, a, m, pairs in moved:
        _extend(target, key, pairs)
        if a != e:
            _extend(glob_e, (a, e, m), _derived(pairs, 0, -1))
    return Operator(*[{key: _accumulate(pairs) for key, pairs in part.items()}
                      for part in (diff, integ_e, local, glob_e)])


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
