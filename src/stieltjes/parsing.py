"""Text syntax for exponential polynomials.

Grammar (whitespace insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*      # '/' needs a constant divisor
    factor := ('-'|'+') factor | atom ('^' INT)?
    atom   := INT | 'x' | 'xi' | 'exp' '(' expr ')' | '(' expr ')'

Rationals are written with '/' (``3/2``), powers must be nonnegative
integers, and the argument of ``exp`` must be linear in the variables with
rational coefficients, e.g. ``3/2*x^2*exp(-x) - 1`` or ``exp(x+2+xi)``.
The variable ``xi`` is only allowed when parsing bivariate expressions.

``parse_exppoly`` and ``parse_bivariate`` share one parser, which reads
the tokens once.  Each value it builds is one dict from the key
``(l, n, nu, m)`` of ``x^n xi^m exp(l*x + nu*xi)`` to a nonzero
``Constant``, frequencies keyed as in ``exppoly``.  A sum or product gathers
``constants._sum`` summands per key and reduces each coefficient once; the
argument of ``exp`` and the degree cap read the keys.  The ``ExpPoly`` or
``BivariateExpPoly`` is built once, from the final dict.

Documents.  ``_decode`` reads every JSON text and refuses a repeated key.
Every reader declares its fields to ``_fields`` and its list fields to
``_list``, and reads each rational literal by ``parse_rational``.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from functools import reduce

from .constants import _ONE, Constant, _stored, _sum, _times_units
from .errors import ParseError
from .exppoly import BivariateExpPoly, ExpPoly, _freq

# Powers are expanded by repeated multiplication, and everything downstream
# (products, antiderivatives, condition integrals) grows with the degree: an
# integrand x^100 takes over a second to solve.  The worked examples use
# powers up to 2.  So the exponent n of a power and the degree in x and xi
# of every product are capped.
MAX_POWER = 50

# A condition's derivative order is applied by differentiating the
# fundamental system that many times, and the evaluation matrix, its inverse
# and the projector grow with it: order 60 takes over a second to solve and
# 1000 does not finish in minutes.  The worked examples and the seeded test problems
# use orders up to 4.
MAX_DERIVATIVE_ORDER = 40

# Python prints no int of over 4300 digits (int_max_str_digits), but
# Fraction("1e9999") builds one; so a rational literal is capped there.
MAX_LITERAL_DIGITS = 4300
_LITERAL_BOUND = 10 ** MAX_LITERAL_DIGITS
# A rational literal: a sign, then p/q (spaces allowed around the '/') or a
# decimal with an exponent.  No underscores, as in expressions: Fraction's
# own grammar took them from Python 3.11 and the spaces from 3.12.
_RATIONAL = re.compile(r"[-+]?(?:\d+\s*/\s*\d+|(?=\.?\d)\d*(?:\.\d*)?(?:[eE]([-+]?\d+))?)")

_TOKEN = re.compile(r"\s*(?:(\d+|xi?|exp|[()+\-*/^])|(\S))")
_ONE_KEY = (0, 0, 0, 0)  # the key of the monomial 1


def _tokenize(text: str) -> list[str | None]:
    """The tokens of text, closed by ``None``."""
    if not isinstance(text, str):
        raise ParseError(f"expression must be a string, got {text!r}")
    tokens = []
    text = text.strip()
    for m in _TOKEN.finditer(text):
        if m[2]:
            pos = m.start()
            raise ParseError(f"unexpected character at position {pos}: {text[pos:pos + 10]!r}")
        tokens.append(m[1])
    return tokens + [None]


class _Parser:
    """Recursive-descent parser producing keyed values (see the module)."""

    def __init__(self, text: str, allow_xi: bool):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.allow_xi = allow_xi

    def peek(self) -> str | None:
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def parse(self) -> dict:
        value = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return value

    def expr(self) -> dict:
        value = self.term()
        if self.peek() not in ("+", "-"):
            return value
        parts = {key: [(c, 1, 1, 0, 1)] for key, c in value.items()}
        while self.peek() in ("+", "-"):
            sign = 1 if self.next() == "+" else -1
            for key, c in self.term().items():
                parts.setdefault(key, []).append((c, sign, 1, 0, 1))
        return _reduced(parts)

    def term(self) -> dict:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.factor()
            if op == "*":
                value = _product(value, rhs)
                _check_degree(value)
            elif rhs.keys() - {_ONE_KEY}:
                raise ParseError("division is only defined by constants")
            elif not rhs:
                raise ParseError("division by zero")
            else:
                scale = rhs[_ONE_KEY].inverse()
                value = {key: c * scale for key, c in value.items()}
        return value

    def factor(self) -> dict:
        tok = self.peek()
        if tok in ("+", "-"):
            self.next()
            value = self.factor()
            return value if tok == "+" else {key: -c for key, c in value.items()}
        value = self.atom()
        if self.peek() == "^":
            self.next()
            exp_tok = self.next()
            if not exp_tok.isdigit():
                raise ParseError(f"exponent must be a nonnegative integer, got {exp_tok!r}")
            # compare lengths first: int() refuses literals of over 4300 digits
            digits = exp_tok.lstrip("0") or "0"
            if len(digits) > len(str(MAX_POWER)) or int(digits) > MAX_POWER:
                raise ParseError(f"exponent exceeds the cap MAX_POWER = {MAX_POWER}")
            power = int(digits)
            _check_degree(value, power)
            return reduce(_product, [value] * power, {_ONE_KEY: _ONE})
        return value

    def atom(self) -> dict:
        tok = self.next()
        if tok.isdigit():
            try:
                value = int(tok)
            except ValueError as exc:  # over 4300 digits, Python's conversion limit
                raise ParseError(f"integer literal too long ({len(tok)} digits)") from exc
            return {_ONE_KEY: Constant.from_rational(value)} if value else {}
        if tok == "x":
            return {(0, 1, 0, 0): _ONE}
        if tok == "xi":
            if not self.allow_xi:
                raise ParseError("variable 'xi' is not allowed here")
            return {(0, 0, 0, 1): _ONE}
        if tok == "exp":
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return _exp(arg)
        if tok == "(":
            value = self.expr()
            self.expect(")")
            return value
        raise ParseError(f"unexpected token {tok!r}")


def _reduced(parts: dict) -> dict:
    """The value of the ``_sum`` summands gathered per key, zeros dropped."""
    return {key: c for key, ps in parts.items() if (c := _sum(ps))._num}


def _product(a: dict, b: dict) -> dict:
    parts: dict[tuple, list] = {}
    for (l1, n1, nu1, m1), c1 in a.items():
        for (l2, n2, nu2, m2), c2 in b.items():
            parts.setdefault((_freq(l1 + l2), n1 + n2, _freq(nu1 + nu2), m1 + m2), []).append(
                _times_units(c1, c2, 1, 1, 0, 1))
    return _reduced(parts)


def _check_degree(value: dict, power: int = 1) -> None:
    """Reject ``value^power`` when its total degree in x and xi exceeds MAX_POWER."""
    degree = power * max([n + m for _l, n, _nu, m in value], default=0)
    if degree > MAX_POWER:
        raise ParseError(f"degree {degree} in x and xi exceeds the cap MAX_POWER = {MAX_POWER}")


def _exp(arg: dict) -> dict:
    """exp of a linear form a*x + b*xi + q with rational coefficients; the
    first fault in (xi, x) monomial order is reported."""
    freqs, e = [0, 0], _ONE
    for (l, n, nu, m), c in sorted(arg.items(), key=lambda kc: (kc[0][2:], kc[0][:2])):
        if nu or l:
            raise ParseError("exp argument must be linear in x and xi")
        if len(c._num) != 1 or len(c._den) != 1 or c._num[0][0]:
            raise ParseError("exp argument must have rational coefficients")
        if n + m > 1:
            raise ParseError("exp argument must be linear in x and xi")
        a, b = c._num[0][1], c._den[0][1]
        if n or m:
            freqs[m] = a if b == 1 else Fraction(a, b)
        else:
            e = _stored(b, ((a, 1),), ((0, 1),))  # e^(a/b), in lowest terms
    return {(freqs[0], 0, freqs[1], 0): e}


def parse_bivariate(text: str) -> BivariateExpPoly:
    """Parse an expression in x and xi into a BivariateExpPoly."""
    terms: dict[tuple, dict] = {}
    for (l, n, nu, m), c in _Parser(text, allow_xi=True).parse().items():
        terms.setdefault((nu, m), {})[l, n] = c
    return BivariateExpPoly({key: ExpPoly(f) for key, f in terms.items()})


def parse_exppoly(text: str) -> ExpPoly:
    """Parse an expression in x alone into an ExpPoly."""
    # xi was rejected during parsing, so every key has nu = m = 0
    return ExpPoly({key[:2]: c for key, c in _Parser(text, allow_xi=False).parse().items()})


def parse_rational(text: str) -> Fraction:
    """The value of a rational literal (see ``_RATIONAL``), between spaces."""
    if type(text) is float:  # its binary value is rarely the number meant
        raise ParseError(f"bad rational literal {text!r}: write it as a string")
    text = str(text).strip()
    quoted = repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"
    m = _RATIONAL.fullmatch(text)
    try:
        # a run of over 4300 digits is refused here, not by a setting of int()
        if m is None or max(map(len, re.findall(r"\d+", text))) > MAX_LITERAL_DIGITS:
            raise ValueError(text)
        # Fraction builds 10^e first; past twice the cap the literal is too long anyway
        if abs(int(m[1] or 0)) <= 2 * MAX_LITERAL_DIGITS:
            # with no spaces, every Python since 3.10 reads the literal alike
            q = Fraction("".join(text.split()))
            if max(abs(q.numerator), q.denominator) < _LITERAL_BOUND:
                return q
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {quoted}") from exc
    raise ParseError(f"rational literal {quoted} has over {MAX_LITERAL_DIGITS} digits")


def _nonnegative_int(value, what: str) -> int:
    # bool is an int subclass, int() truncates 1.5, and -1 would silently
    # act as order 0
    if type(value) is not int or value < 0:
        raise ParseError(f"{what} must be a nonnegative integer, got {value!r}")
    return value


def _derivative_order(order) -> int:
    order = _nonnegative_int(order, "derivative order")
    if order > MAX_DERIVATIVE_ORDER:
        raise ParseError(f"derivative order {order} exceeds the cap "
                         f"MAX_DERIVATIVE_ORDER = {MAX_DERIVATIVE_ORDER}")
    return order


def _object(pairs: list) -> dict:
    data = dict(pairs)
    if len(data) < len(pairs):
        key = next(key for key, n in Counter(key for key, _value in pairs).items() if n > 1)
        raise ParseError(f"key {key!r} repeats in an object with keys {', '.join(map(repr, data))}")
    return data


def _decode(text: str, doc: str):
    """The JSON value of ``text``, a ``doc``; refuses a repeated key, which RFC 8259 leaves open."""
    try:
        return json.loads(text, object_pairs_hook=_object)
    except (ValueError, RecursionError) as exc:  # also over 4300 digits, too deep nesting
        raise ParseError(f"cannot read {doc}: {exc}") from exc


def _fields(doc, what: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """``doc`` when a JSON object with the fields ``required``, any of ``optional``, no other."""
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object")
    names = required + optional
    if unknown := [key for key in doc if key not in names]:
        raise ParseError(f"unknown field {unknown[0]!r} in {what} (fields: {', '.join(names)})")
    if missing := [key for key in required if key not in doc]:
        raise ParseError(f"missing field {missing[0]!r} in {what}")
    return doc


def _list(data: dict, owner: str, part: str, names: tuple[str, ...] | None = None) -> list:
    """The list field ``part`` of ``data``, [] if absent; its items have the fields ``names``."""
    items = data.get(part, [])
    if not isinstance(items, list):
        raise ParseError(f"{owner} field {part!r} must be a list")
    return items if names is None else [_fields(item, f"{part} term", names) for item in items]


def _rational_terms(data: dict, owner: str, part: str) -> dict:
    """The object field ``part`` of ``data``, a map of rational literals, each key read once."""
    if not isinstance(data[part], dict):
        raise ParseError(f"{owner} field {part!r} must be a JSON object")
    terms = {parse_rational(q): parse_rational(c) for q, c in data[part].items()}
    if len(terms) < len(data[part]):
        raise ParseError(f"{owner} field {part!r} names an exponent twice")
    return terms
