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
"""

from __future__ import annotations

import re
from fractions import Fraction

from .constants import Constant
from .errors import ParseError
from .exppoly import BivariateExpPoly, ExpPoly

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
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)$")

_TOKEN = re.compile(r"\s*(?:(\d+)|(x(?:i)?|exp)|([()+\-*/^])|(\S))")


def _tokenize(text: str) -> list[str]:
    if not isinstance(text, str):
        raise ParseError(f"expression must be a string, got {text!r}")
    tokens = []
    text = text.strip()
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.group(4):
            raise ParseError(f"unexpected character at position {pos}: {text[pos:pos + 10]!r}")
        if m.group(1):
            tokens.append(m.group(1))
        elif m.group(2):
            tokens.append(m.group(2))
        else:
            tokens.append(m.group(3))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser producing BivariateExpPoly values."""

    def __init__(self, tokens: list[str], allow_xi: bool):
        self.tokens = tokens
        self.pos = 0
        self.allow_xi = allow_xi

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def parse(self) -> BivariateExpPoly:
        value = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return value

    def expr(self) -> BivariateExpPoly:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> BivariateExpPoly:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.factor()
            if op == "*":
                value = _biv_mul(value, rhs)
                _check_degree(value)
            else:
                c = _as_constant(rhs)
                if c is None:
                    raise ParseError("division is only defined by constants")
                if c.is_zero():
                    raise ParseError("division by zero")
                value = value * c.inverse()
        return value

    def factor(self) -> BivariateExpPoly:
        tok = self.peek()
        if tok in ("+", "-"):
            self.next()
            value = self.factor()
            return value if tok == "+" else -value
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
            result = _biv_const(1)
            for _ in range(power):
                result = _biv_mul(result, value)
            return result
        return value

    def atom(self) -> BivariateExpPoly:
        tok = self.next()
        if tok.isdigit():
            try:
                value = int(tok)
            except ValueError as exc:  # over 4300 digits, Python's conversion limit
                raise ParseError(f"integer literal too long ({len(tok)} digits)") from exc
            return _biv_const(value)
        if tok == "x":
            return BivariateExpPoly.tensor(ExpPoly.x(), ExpPoly.one())
        if tok == "xi":
            if not self.allow_xi:
                raise ParseError("variable 'xi' is not allowed here")
            return BivariateExpPoly.tensor(ExpPoly.one(), ExpPoly.x())
        if tok == "exp":
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return _exp_of(arg)
        if tok == "(":
            value = self.expr()
            self.expect(")")
            return value
        raise ParseError(f"unexpected token {tok!r}")


def _check_degree(value: BivariateExpPoly, power: int = 1) -> None:
    """Reject ``value^power`` when its total degree in x and xi exceeds MAX_POWER."""
    degree = power * max((n + m for _f, n, _c, _yf, m in value._markup_terms()), default=0)
    if degree > MAX_POWER:
        raise ParseError(f"degree {degree} in x and xi exceeds the cap MAX_POWER = {MAX_POWER}")


def _biv_const(c) -> BivariateExpPoly:
    return BivariateExpPoly.tensor(ExpPoly.const(c), ExpPoly.one())


def _as_constant(value: BivariateExpPoly) -> Constant | None:
    pairs = value.pairs()
    if not pairs:
        return Constant.zero()
    if len(pairs) == 1:
        f, g = pairs[0]
        if g == ExpPoly.one():
            return f.as_constant()
    return None


def _biv_mul(a: BivariateExpPoly, b: BivariateExpPoly) -> BivariateExpPoly:
    return BivariateExpPoly.sum(BivariateExpPoly.tensor(fa * fb, ga * gb)
                                for fa, ga in a.pairs() for fb, gb in b.pairs())


def _exp_of(arg: BivariateExpPoly) -> BivariateExpPoly:
    """exp of a linear form a*x + b*xi + q with rational coefficients."""
    xfreq = Fraction(0)
    yfreq = Fraction(0)
    offset = Fraction(0)
    for f, g in arg.pairs():
        for gfreq, gpow, gc in g.terms():
            if gfreq != 0:
                raise ParseError("exp argument must be linear in x and xi")
            for ffreq, fpow, fc in f.terms():
                if ffreq != 0:
                    raise ParseError("exp argument must be linear in x and xi")
                c = (fc * gc).as_rational()
                if c is None:
                    raise ParseError("exp argument must have rational coefficients")
                if fpow == 0 and gpow == 0:
                    offset += c
                elif fpow == 1 and gpow == 0:
                    xfreq += c
                elif fpow == 0 and gpow == 1:
                    yfreq += c
                else:
                    raise ParseError("exp argument must be linear in x and xi")
    xpart = ExpPoly.monomial(xfreq, 0, Constant.e_power(offset))
    ypart = ExpPoly.monomial(yfreq, 0)
    return BivariateExpPoly.tensor(xpart, ypart)


def parse_bivariate(text: str) -> BivariateExpPoly:
    """Parse an expression in x and xi into a BivariateExpPoly."""
    return _Parser(_tokenize(text), allow_xi=True).parse()


def parse_exppoly(text: str) -> ExpPoly:
    """Parse an expression in x alone into an ExpPoly."""
    value = _Parser(_tokenize(text), allow_xi=False).parse()
    # xi was rejected during parsing, so every xi-factor is the monomial 1
    return ExpPoly.sum(f for f, _one in value.pairs())


def parse_rational(text: str) -> Fraction:
    if type(text) is float:  # its binary value is rarely the number meant
        raise ParseError(f"bad rational literal {text!r}: write it as a string")
    text = str(text).strip()
    quoted = repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"
    try:
        # Fraction builds 10^e first; past twice the cap the literal is too long anyway
        exponent = _EXPONENT.search(text)
        if exponent is None or abs(int(exponent.group(1))) <= 2 * MAX_LITERAL_DIGITS:
            q = Fraction(text)
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


def _fields(doc, what: str, names: tuple[str, ...]) -> dict:
    """``doc`` when it is a JSON object with no field outside ``names``."""
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object")
    if unknown := [key for key in doc if key not in names]:
        raise ParseError(f"unknown field {unknown[0]!r} in {what} (fields: {', '.join(names)})")
    return doc
