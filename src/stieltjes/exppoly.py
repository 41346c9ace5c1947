"""Exponential polynomials: the computable function algebra of the solver.

An ``ExpPoly`` is a finite sum ``sum c_{l,n} * x^n * exp(l*x)`` with rational
frequencies ``l`` and ``Constant`` coefficients.  The class is closed under
addition, multiplication, differentiation, integration from a rational point
and evaluation at rational points, which is everything the operator ring and
the extraction step need.

An ``ExpPoly`` is stored as one sparse dict from the monomial key ``(l, n)``
to a nonzero coefficient: the key of the operator ring's right factors and
of the ``xi`` monomials of ``BivariateExpPoly``, which represents finite sums
``sum f_i(x) * g_i(xi)`` with the ``xi`` factor split into monomials so that
equality is structural.  Every sum, product, derivative and definite
integral, and ``Operator.apply`` and the operator product, ends in one
finisher, ``_accumulate``.  Until then a function is the one unreduced form,
a list of (monomial, part) pairs: the part is the ``_sum`` summand
``(c, p, q, k, m)``, a coefficient times a unit that the caller writes down
unreduced; ``_scaled`` puts a unit coefficient in the unit slot (``c = 1``).
One routine per rule maps pairs to pairs: ``_derived`` for derivatives
(order 0 only signs p), ``_antiderivative`` and ``_integral`` for integrals,
``_values`` for values at a point, ``_shift`` and ``_products`` for products.
``_accumulate`` reduces each output coefficient once, by one ``_sum`` unless
a lone part under the unit 1 gives it, and drops a zero one.

A frequency is stored as an ``int`` when it is integral and as a ``Fraction``
otherwise.  The two compare and hash alike, so dict lookups, ``==``, ``hash``
and sorting are the same as with ``Fraction`` keys throughout, and ``str``
gives the same text; but hashing and adding ``int`` keys stays in C, which
matters because every product adds the frequencies of all term pairs.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, perm

from .constants import (_ONE, _ZERO, Constant, _join_signed, _ratio_latex, _ratio_text, _sum,
                        _times_units)

# A frequency key: an int when integral, else a Fraction (see above).
Freq = int | Fraction
# The key (l, n) of the monomial x^n exp(l*x).
Monomial = tuple[Freq, int]


def _freq(q) -> Freq:
    """The frequency key of a rational: an int when its denominator is 1."""
    if type(q) is int:
        return q
    if type(q) is not Fraction:
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def _scaled(f: "ExpPoly") -> list:
    """The terms of f as (monomial, part) pairs: a stored unit ``a/b * e^(j/n)``
    (a rational too) as ``(1, a, b, j, n)``, any other c as ``(c, 1, 1, 0, 1)``."""
    return [(key, (c, 1, 1, 0, 1) if len(c._num) != 1 or len(c._den) != 1
             else (_ONE, c._num[0][1], c._den[0][1], c._num[0][0], c._n))
            for key, c in f._terms.items()]


def _shift(pairs, m: Monomial) -> list:
    """The pairs of the monomial m times the sum of the pairs: a key shift."""
    l, n = m
    return [((_freq(l + l2), n + n2), part) for (l2, n2), part in pairs]


def _derived(pairs, i: int, scale: int = 1) -> list:
    """``scale * d^i`` of the sum of the (monomial, part) pairs, as pairs:
    one part per term and ``j <= min(i, n)``, by Leibniz's rule
    ``d^i (x^n e^(l x)) = sum_j C(i, j) n!/(n-j)! l^(i-j) x^(n-j) e^(l x)``,
    with no part for a zero multiple.  Order 0 (scale 1 or -1) signs each p."""
    if not i:
        return [(key, (c, p * scale, q, k, m)) for key, (c, p, q, k, m) in pairs]
    out = []
    for (freq, n), (c, p, q, k, m) in pairs:
        fa, fb = freq.numerator, freq.denominator
        for j in range(min(i, n) + 1):
            if fa or j == i:
                a, b = comb(i, j) * perm(n, j) * fa ** (i - j) * scale * p, fb ** (i - j) * q
                g = gcd(a, b)
                out.append(((freq, n - j), (c, a // g, b // g, k, m)))
    return out


def _values(pairs, q: Freq) -> list:
    """The value at q of the sum of the (monomial, part) pairs, as pairs at
    the monomial 1: the part ``(c, s, t, k, m)`` of ``x^n e^(l x)`` gives
    ``c * s q^n/t * e^(l q + k/m)``, with the unit in lowest terms, and
    nothing where ``q^n = 0``.  The point is taken as it is, an int or a
    Fraction, so no Fraction is built."""
    a, b = q.numerator, q.denominator
    out = []
    for (freq, n), (c, s, t, k, m) in pairs:
        if n and not a:
            continue
        p, r = a ** n * s, b ** n * t
        g = gcd(p, r)
        fb = freq.denominator * b
        k, m = freq.numerator * a * m + k * fb, fb * m
        h = gcd(k, m)
        out.append(((0, 0), (c, p // g, r // g, k // h, m // h)))
    return out


def _antiderivative(pairs) -> list:
    """The integration routine of ExpPoly, ``Operator.apply`` and the
    operator product: an antiderivative of the sum of the (monomial, part)
    pairs, as pairs.  A monomial that one part reaches keeps its multiple
    unreduced; the multiples that meet in one are added by one ``_sum``, a
    zero dropped."""
    slots: dict[Monomial, list] = {}
    for (freq, power), (c, s0, t0, k, m) in pairs:
        if freq == 0:
            g = gcd(s0, t0 * (power + 1))
            slots.setdefault((0, power + 1), []).append((c, s0 // g, t0 * (power + 1) // g, k, m))
            continue
        # int x^P e^{lx} = sum_n r_n x^n e^{lx}, r_n = (-1)^(P-n) P!/(n! l^(P-n+1)),
        # built from 1/l = t/s in lowest terms as (-t)^(P-n) t P!/n! / s^(P-n+1)
        s, t = abs(freq.numerator), freq.denominator if freq > 0 else -freq.denominator
        for n in range(power, -1, -1):
            p, q = perm(power, power - n) * (-t) ** (power - n) * t * s0, s ** (power - n + 1) * t0
            g = gcd(p, q)
            slots.setdefault((freq, n), []).append((c, p // g, q // g, k, m))
    out = [(key, us[0] if len(us) == 1 else (_sum(us), 1, 1, 0, 1)) for key, us in slots.items()]
    return [(key, part) for key, part in out if part[0]._num]


def _integral(pairs, a: Freq) -> list:
    """The integral from a of the sum of the (monomial, part) pairs, as
    pairs: the antiderivative F and, at the monomial 1, ``-F(a)``."""
    F = _antiderivative(pairs)
    return F + _derived(_values(F, a), 0, -1)


def _accumulate(pairs) -> "ExpPoly":
    """The finisher of all ExpPoly arithmetic: the ExpPoly of (monomial,
    ``_sum`` part) pairs, one ``_sum`` per monomial but c for a lone ``(c, 1, 1, 0, 1)``."""
    out: dict[Monomial, list] = {}
    for key, part in pairs:
        out.setdefault(key, []).append(part)
    f = ExpPoly.__new__(ExpPoly)
    f._terms = {key: c for key, parts in out.items()
                if (c := parts[0][0] if len(parts) == 1 and parts[0][1:] == (1, 1, 0, 1)
                    else _sum(parts))._num}
    return f


def _products(f: "ExpPoly", pairs) -> list:
    """The (monomial, part) pairs of f times the sum of the pairs: one part per
    pair of terms, f's coefficient in place of a 1, else by ``_times_units``."""
    return [((_freq(l1 + l2), n1 + n2),
             (c1, p, q, k, m) if c2 is _ONE else _times_units(c1, c2, p, q, k, m))
            for (l1, n1), c1 in f._terms.items() for (l2, n2), (c2, p, q, k, m) in pairs]


class ExpPoly:
    """A univariate exponential polynomial in canonical form: ``_terms`` maps
    each monomial ``x^n exp(l*x)``, keyed ``(l, n)``, to its nonzero
    ``Constant`` coefficient."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, Constant] | None = None):
        self._terms = {key: c for key, c in (terms or {}).items() if not c.is_zero()}

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "ExpPoly":
        return cls()

    @classmethod
    def one(cls) -> "ExpPoly":
        return cls.const(1)

    @classmethod
    def x(cls) -> "ExpPoly":
        return cls.monomial(0, 1)

    @classmethod
    def const(cls, c) -> "ExpPoly":
        return cls({(0, 0): Constant._coerce(c)})

    @classmethod
    def exponential(cls, freq) -> "ExpPoly":
        return cls.monomial(freq, 0)

    @classmethod
    def monomial(cls, freq, power: int, coeff=_ONE) -> "ExpPoly":
        return cls({(_freq(freq), power): Constant._coerce(coeff)})

    # -- views ------------------------------------------------------------

    def terms(self):
        """Iterate (frequency, power, coefficient) over the terms, sorted."""
        for (freq, power), c in sorted(self._terms.items()):
            yield freq, power, c

    def coefficient(self, freq, power: int) -> Constant:
        return self._terms.get((freq, power), _ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def as_constant(self) -> Constant | None:
        """The value as a Constant if it has no x-dependence, else None."""
        return self._terms.get((0, 0), _ZERO) if self._terms.keys() <= {(0, 0)} else None

    # -- arithmetic -------------------------------------------------------

    @classmethod
    def sum(cls, items) -> "ExpPoly":
        """The sum of exponential polynomials, merged in one pass: the
        coefficients of each monomial that several summands share are added
        by one ``_sum``."""
        return _accumulate([(key, (c, 1, 1, 0, 1))
                            for item in items for key, c in item._terms.items()])

    def __add__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return ExpPoly.sum((self, other))

    def __neg__(self):
        return ExpPoly({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ExpPoly):
            return _accumulate(_products(self, _scaled(other)))
        c = Constant._coerce(other)
        if c is None:
            return NotImplemented
        if c == _ONE:
            return self
        return ExpPoly({key: ci * c for key, ci in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(sorted(self._terms.items())))

    # -- calculus ---------------------------------------------------------

    def derive(self, times: int = 1) -> "ExpPoly":
        """The derivative of order ``times``, by ``_derived``."""
        return _accumulate(_derived(_scaled(self), times))

    def derivatives(self, n: int) -> list["ExpPoly"]:
        """``[f, f', ..., f^(n)]``, each derived once from the one before."""
        out = [self]
        for _ in range(n):
            out.append(out[-1].derive())
        return out

    def antiderivative(self) -> "ExpPoly":
        """The reduced form of ``_antiderivative``, which ``_integral`` and
        ``Operator.apply`` read unreduced."""
        return _accumulate(_antiderivative(_scaled(self)))

    def integrate_from(self, a) -> "ExpPoly":
        """The antiderivative F with F(a) = 0, by ``_integral``."""
        return _accumulate(_integral(_scaled(self), _freq(a)))

    def eval_at(self, q) -> Constant:
        return _sum([part for _key, part in _values(_scaled(self), _freq(q))])

    # -- rendering --------------------------------------------------------

    def to_text(self) -> str:
        return _render(self.terms(), _TEXT)

    def to_latex(self) -> str:
        return _render(self.terms(), _LATEX)

    def __repr__(self):
        return f"ExpPoly({self.to_text()})"

    def __str__(self):
        return self.to_text()


# One row per output format: the markup of a term c * x^n * xi^m * exp(...).
_TEXT = {
    "ratio": _ratio_text,
    "constant": lambda c: f"({c.to_text()})",
    "power": "{}^{}",
    "exp": "exp({})",
    "product": "*",
    "scaled": "{}*{}",
    "yvar": "xi",
    "join": (" + ", " - "),
}
_LATEX = {
    "ratio": _ratio_latex,
    "constant": lambda c: rf"\left({c.to_latex()}\right)",
    "power": "{}^{{{}}}",
    "exp": "e^{{{}}}",
    "product": " ",
    "scaled": "{}{}",
    "yvar": r"\xi",
    "join": ("+", "-"),
}


def _render(terms, fmt: dict) -> str:
    """Render (freq, power, c[, yfreq, ypower]) terms as a signed sum."""
    return _join_signed((_term_markup(fmt, *term) for term in terms), *fmt["join"])


def _term_markup(fmt: dict, freq: Freq, power: int, c: Constant,
                 yfreq: Freq = 0, ypower: int = 0) -> str:
    """Render ``c * x^power * yvar^ypower * exp(freq*x + yfreq*yvar)``."""
    ratio = fmt["ratio"]
    factors = []
    k = 0
    if len(c._num) == len(c._den) == 1:
        # a unit a/b * e^(k/grid), stored in lowest terms with b, grid > 0
        (k, a), = c._num
        b, grid = c._den[0][1], c._n
        sign = "-" if a < 0 else ""
        a = abs(a)
        if (a, b) != (1, 1) or not (power or ypower or freq or yfreq or k):
            factors.append(ratio(a, b))
    else:
        sign = ""
        factors.append(fmt["constant"](c))
    for n, var in ((power, "x"), (ypower, fmt["yvar"])):
        if n:
            factors.append(var if n == 1 else fmt["power"].format(var, n))
    pieces = []
    for q, var in ((freq, "x"), (yfreq, fmt["yvar"])):
        if q:
            pieces.append(var if q == 1 else f"-{var}" if q == -1
                          else fmt["scaled"].format(ratio(q.numerator, q.denominator), var))
    if k:
        pieces.append(ratio(k, grid))
    if pieces:
        factors.append(fmt["exp"].format(_join_signed(pieces, "+", "-")))
    return sign + fmt["product"].join(factors)


class BivariateExpPoly:
    """A finite sum of tensor products f(x) * g(xi).

    The second factor is split into monomials ``xi^n exp(nu*xi)`` so that the
    representation is canonical: ``_terms`` maps each monomial to its ExpPoly
    coefficient in x.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, ExpPoly] | None = None):
        self._terms = {
            key: f for key, f in (terms or {}).items() if not f.is_zero()
        }

    @classmethod
    def zero(cls) -> "BivariateExpPoly":
        return cls()

    @classmethod
    def tensor(cls, f: ExpPoly, g: ExpPoly) -> "BivariateExpPoly":
        return cls({key: f * c for key, c in g._terms.items()})

    @classmethod
    def from_pairs(cls, pairs) -> "BivariateExpPoly":
        return cls.sum(cls.tensor(f, g) for f, g in pairs)

    @classmethod
    def sum(cls, items) -> "BivariateExpPoly":
        """The sum of tensor sums, merged in one pass."""
        out: dict[Monomial, list[ExpPoly]] = {}
        for item in items:
            for key, f in item._terms.items():
                out.setdefault(key, []).append(f)
        return cls({key: ExpPoly.sum(fs) for key, fs in out.items()})

    def pairs(self) -> list[tuple[ExpPoly, ExpPoly]]:
        """The canonical (x-factor, xi-monomial) decomposition."""
        return [(self._terms[key], ExpPoly.monomial(*key)) for key in sorted(self._terms)]

    def is_zero(self) -> bool:
        return not self._terms

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BivariateExpPoly):
            return NotImplemented
        return BivariateExpPoly.sum((self, other))

    def __neg__(self):
        return BivariateExpPoly({k: -f for k, f in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, BivariateExpPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        c = Constant._coerce(other)
        if c is None:
            return NotImplemented
        return BivariateExpPoly({k: f * c for k, f in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, BivariateExpPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(sorted(self._terms.items())))

    # -- partial calculus on the tensor factors ----------------------------

    def dx(self) -> "BivariateExpPoly":
        return BivariateExpPoly({k: f.derive() for k, f in self._terms.items()})

    def dy(self) -> "BivariateExpPoly":
        return BivariateExpPoly.sum(BivariateExpPoly.tensor(f, ExpPoly.monomial(*key).derive())
                                    for key, f in self._terms.items())

    def ix(self, a) -> "BivariateExpPoly":
        return BivariateExpPoly({k: f.integrate_from(a) for k, f in self._terms.items()})

    def iy(self, a) -> "BivariateExpPoly":
        return BivariateExpPoly.sum(
            BivariateExpPoly.tensor(f, ExpPoly.monomial(*key).integrate_from(a))
            for key, f in self._terms.items())

    def eval_at(self, x, xi) -> Constant:
        return ExpPoly({key: f.eval_at(x) for key, f in self._terms.items()}).eval_at(xi)

    # -- rendering --------------------------------------------------------

    def to_text(self) -> str:
        return _render(self._markup_terms(), _TEXT)

    def to_latex(self) -> str:
        return _render(self._markup_terms(), _LATEX)

    def _markup_terms(self):
        for (yfreq, ypower) in sorted(self._terms):
            for freq, power, c in self._terms[(yfreq, ypower)].terms():
                yield freq, power, c, yfreq, ypower

    def __repr__(self):
        return f"BivariateExpPoly({self.to_text()})"


def derive(f: ExpPoly) -> ExpPoly:
    return f.derive()


def integrate_from(f: ExpPoly, a) -> ExpPoly:
    return f.integrate_from(a)


def eval_at(f: ExpPoly, q) -> Constant:
    return f.eval_at(q)


def bivariate_ops(h: BivariateExpPoly, which: str, a=None) -> BivariateExpPoly:
    """Apply a partial operation to a tensor product: dx, dy, ix or iy."""
    if which == "dx":
        return h.dx()
    if which == "dy":
        return h.dy()
    if which == "ix":
        return h.ix(a)
    if which == "iy":
        return h.iy(a)
    raise ValueError(f"unknown operation {which!r}")
