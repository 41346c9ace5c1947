"""The one-pass keyed parser against the reference parser it replaced.

``ReferenceParser`` below is the former ``parsing._Parser``: it builds a
reduced ``BivariateExpPoly`` for every atom, multiplies through
``BivariateExpPoly.sum`` of tensor products and reads ``exp`` arguments
through ``Fraction``.  It shares no code with the keyed parser but the
function algebra.  On seeded random texts, and on a fixed list of malformed
ones, both must give equal values or the same ``ParseError`` message; a
one-key slip in the keyed parser must fail that check.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from test_certificate_mutations import install

from stieltjes import BivariateExpPoly, Constant, ExpPoly, ParseError, parsing
from stieltjes.parsing import MAX_POWER, parse_bivariate, parse_exppoly

# -- the reference: the BivariateExpPoly-based parser ----------------------------

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
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    return tokens


class ReferenceParser:
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
            except ValueError as exc:
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
    xfreq = yfreq = offset = Fraction(0)
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
    return BivariateExpPoly.tensor(ExpPoly.monomial(xfreq, 0, Constant.e_power(offset)),
                                   ExpPoly.monomial(yfreq, 0))


def reference_bivariate(text: str) -> BivariateExpPoly:
    return ReferenceParser(_tokenize(text), allow_xi=True).parse()


def reference_exppoly(text: str) -> ExpPoly:
    value = ReferenceParser(_tokenize(text), allow_xi=False).parse()
    return ExpPoly.sum(f for f, _one in value.pairs())


# -- seeded random texts -----------------------------------------------------

X_ATOMS = ("x", "0", "1", "2", "7", "3/4", "exp(x)", "exp(-x)", "exp(2)", "exp(1/2*x+3/4)",
           "exp(-1/3*x-2)", "exp(x-x+1)", "x/exp(1)")
XI_ATOMS = ("xi", "exp(xi)", "exp(x+2+xi)", "exp(-1/2*xi+x)", "xi*exp(1/3*xi)", "(x-xi)")
DIVISORS = ("2", "3/7", "(exp(2)-1)/(exp(1)-1)", "(exp(1)-1)", "(2*exp(1/2)+3)", "exp(-1/4)")
RATIONALS = ("0", "1", "-1", "2", "1/2", "-3/4", "5/3", "-7")


def random_text(rng: random.Random, atoms, depth: int = 3) -> str:
    """A text of the grammar: sums, products, powers, quotients by constants
    and exp of linear forms, nested ``depth`` deep."""
    kind = rng.random() if depth else 0
    if kind < 0.25:
        return rng.choice(atoms)
    if kind < 0.45:
        out = random_text(rng, atoms, depth - 1)
        for _ in range(rng.randint(1, 3)):
            out += rng.choice((" + ", " - ")) + random_text(rng, atoms, depth - 1)
        return out
    if kind < 0.65:
        factors = [random_text(rng, atoms, depth - 1) for _ in range(rng.randint(2, 3))]
        return "*".join(f"({factor})" for factor in factors)
    if kind < 0.75:
        if rng.random() < 0.5:  # powers up to the cap, and products past it
            return f"x^{rng.randint(0, MAX_POWER)}*{rng.choice(atoms)}^{rng.randint(0, MAX_POWER)}"
        return f"({random_text(rng, atoms, depth - 1)})^{rng.randint(0, 3)}"
    if kind < 0.85:
        return f"({random_text(rng, atoms, depth - 1)})/{rng.choice(DIVISORS)}"
    if kind < 0.92:
        return f"-({random_text(rng, atoms, depth - 1)})"
    a, c = rng.choice(RATIONALS), rng.choice(RATIONALS)
    arg = f"{a}*x + {c}"
    if "xi" in atoms:
        arg += f" + {rng.choice(RATIONALS)}*xi"
    return f"exp({arg})"


def outcome(parse, text: str):
    """The value of ``parse(text)``, or its ParseError message."""
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc))


def integral_frequencies_are_ints(keys) -> bool:
    """Whether every frequency of the monomial keys that is integral is an int."""
    return all(type(l) is int or l.denominator != 1 for l, _n in keys)


MALFORMED = ["x^-1", "exp(x*x)", "x/x", "1/(exp(1)-exp(1))", "x^50*x", "3x", "x**2", "xi", "exp()",
             "", "x +", "(x", "x)", "x $ 1", "2^51", "x^007", "(x+1)^26*(x+1)^25",
             "exp(exp(1)*x + x^2)", "exp(x^2 + exp(1))", "exp(exp(x))", "exp(exp(1/2)*x)",
             "exp(xi)", "1/0", "x/(x+1)", "x^(1/2)", "y", "exp(x", "1" * 5000]
BIVARIATE_MALFORMED = ["exp(x*xi)", "exp(exp(xi) + exp(1)*x)", "exp(xi^2)", "x^25*xi^26",
                       "(x*xi)^26", "xi/xi", "exp(exp(1)*xi + x*x)"]


SEED, COUNT = 31, 120


def check_against_reference() -> None:
    rng = random.Random(SEED)
    texts = [random_text(rng, X_ATOMS) for _ in range(COUNT)]
    for text in texts + MALFORMED:
        got = outcome(parse_exppoly, text)
        assert got == outcome(reference_exppoly, text), text
        assert isinstance(got, tuple) or integral_frequencies_are_ints(got._terms), text
    texts = [random_text(rng, X_ATOMS + XI_ATOMS) for _ in range(COUNT)]
    for text in texts + MALFORMED + BIVARIATE_MALFORMED:
        got = outcome(parse_bivariate, text)
        assert got == outcome(reference_bivariate, text), text
        if not isinstance(got, tuple):
            assert integral_frequencies_are_ints(got._terms), text
            assert all(integral_frequencies_are_ints(f._terms) for f in got._terms.values()), text


def test_random_texts_parse_as_the_reference_parses_them():
    check_against_reference()


def test_the_random_texts_cover_the_grammar():
    rng = random.Random(SEED)  # the texts of check_against_reference, drawn in its order
    for atoms, parse in ((X_ATOMS, parse_exppoly), (X_ATOMS + XI_ATOMS, parse_bivariate)):
        texts = [random_text(rng, atoms) for _ in range(COUNT)]
        errors = [o[1] for o in (outcome(parse, text) for text in texts) if isinstance(o, tuple)]
        # some products pass the degree cap, and no other error occurs
        assert 0 < len(errors) < len(texts) // 4
        assert all(m.endswith(f"exceeds the cap MAX_POWER = {MAX_POWER}") for m in errors)
        joined = " ".join(texts)
        for piece in ("^", ")/(exp(2)-1)/(exp(1)-1)", "exp(1/2*x+3/4)", ")*(", " - ", "-("):
            assert piece in joined
        assert ("xi" in joined) == (parse is parse_bivariate)


# (label, owner, function name, snippet, replacement): one slip per row, each
# a single key or sign in the keyed parser
SLIPS = [
    ("_product drops the xi-power of its right factor", parsing, "_product",
     "m1 + m2", "m1"),
    ("expr adds a subtracted term", parsing._Parser, "expr",
     "(c, sign, 1, 0, 1)", "(c, 1, 1, 0, 1)"),
    ("_exp swaps the x and xi frequencies", parsing, "_exp",
     "freqs[m] =", "freqs[1 - m] ="),
]


@pytest.mark.parametrize("row", SLIPS, ids=[row[0] for row in SLIPS])
def test_a_one_key_slip_fails_the_differential_check(monkeypatch, row):
    _label, *slip = row
    install(monkeypatch, *slip)
    with pytest.raises(AssertionError):
        check_against_reference()
