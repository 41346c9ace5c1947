"""One checked way in for every JSON document of the library.

- Problem, operator, Green's function and constant documents are refused by
  ``parsing`` alone, with a ``ParseError`` naming the field or literal: an
  unknown, missing or repeated field, a part that is not a list, and a
  literal outside the one rational grammar.  Each row of ``MALFORMED`` used
  to be accepted or to fail with another exception or an unnamed cause.
- A key given twice in one object, at any level of any document, is refused
  by the one decoder, ``parsing._decode``, before a reader sees the object;
  ``json.loads`` keeps the last value.  A kernel document is refused when its
  breakpoints are not strictly increasing or when no operator has its kernel.
- ``Constant(num, den)``, the field's ``sum`` of ``e_power`` terms times the
  inverse of its denominator's sum, equals the former constructor, kept
  here as ``reference_constant``, on seeded term dicts.
- The readers accept every document the program writes: operators, kernels
  and the entries of ``M^-1`` of the 15 benchmark documents read back equal.
- A digit is any Unicode decimal digit, as for ``int()``, in expressions,
  rational literals and constant documents alike.
- Every public entry point that takes a number reads it by one of two rules:
  a point, frequency, exponent or coefficient by ``parse_rational``, an
  order, power or exponent of ``**`` by ``_nonnegative_int``.  A ``bool``, a
  ``float``, ``None`` or ``"1_0"`` is refused by a ``ParseError`` naming the
  value, and ``1``, ``F(1)`` and ``"1"`` (or ``F(1, 2)``, ``"1/2"`` and
  ``"1 / 2"``) give equal values.  A function handed to a constructor that
  is not an ``ExpPoly`` (a ``BivariateExpPoly`` for a branch) is refused by
  a ``TypeError`` naming the argument.
"""

import io
import json
import random
import re
import sys
from fractions import Fraction as F
from itertools import chain
from math import lcm
from pathlib import Path

import pytest
from test_cli_fuzz import value_at, with_key_twice

from stieltjes import (BoundaryProblem, Constant, ExpPoly, GreensFunction, Operator, ParseError,
                       StieltjesCondition, eval_functional, extract, greens_operator,
                       to_standard)
from stieltjes.cli import main, parse_problem, solve_problem
from stieltjes.constants import _make, _poly_gcd
from stieltjes.greens import REGION_LOWER
from stieltjes.parsing import _decode, parse_bivariate, parse_exppoly, parse_rational

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def _kernel(**fields) -> dict:
    return {"breakpoints": ["0", "1"], **fields}


def _constant(**fields) -> dict:
    return {"num": {"0": "1"}, "den": {"0": "1"}, **fields}


_BRANCH = {"interval": 1, "region": REGION_LOWER, "term": "x"}
_INTRO = workloads.WORKED_EXAMPLES["intro"][0]
_NONLOCAL = workloads.WORKED_EXAMPLES["nonlocal"][0]


# (id, read of a malformed document, text the ParseError must match)
MALFORMED = [
    ("problem-without-conditions", lambda: parse_problem({"operator": _INTRO["operator"]}),
     r"missing field 'conditions' in problem document"),
    ("problem-conditions-an-object",
     lambda: parse_problem({**_INTRO, "conditions": {"local": []}}),
     r"problem document field 'conditions' must be a list"),
    ("problem-basis-null", lambda: parse_problem({**_INTRO, "fundamental_system": None}),
     r"problem document field 'fundamental_system' must be a list"),
    ("operator-unknown-entry-field",
     lambda: Operator.from_json({"diff": [{"order": 1, "coeff": "1", "extra": 1}]}),
     r"unknown field 'extra' in diff term"),
    ("operator-part-a-string", lambda: Operator.from_json({"diff": "ab"}),
     r"operator document field 'diff' must be a list"),
    ("operator-diff-without-coeff", lambda: Operator.from_json({"diff": [{"order": 1}]}),
     r"missing field 'coeff' in diff term"),
    ("operator-integral-without-right",
     lambda: Operator.from_json({"integral": [{"basepoint": "0", "left": "1"}]}),
     r"missing field 'right' in integral term"),
    ("operator-local-without-left",
     lambda: Operator.from_json({"local": [{"point": "0", "order": 0}]}),
     r"missing field 'left' in local term"),
    ("operator-global-without-integrand",
     lambda: Operator.from_json({"global": [{"point": "1", "basepoint": "0", "left": "1"}]}),
     r"missing field 'integrand' in global term"),
    ("kernel-breakpoints-a-string",
     lambda: GreensFunction.from_json_dict({"breakpoints": "01"}),
     r"Green's function document field 'breakpoints' must be a list"),
    ("kernel-breakpoints-an-object",
     lambda: GreensFunction.from_json_dict({"breakpoints": {"0": 1, "1": 2}}),
     r"Green's function document field 'breakpoints' must be a list"),
    ("kernel-integral-over-4300-digits",
     lambda: GreensFunction.from_json('{"breakpoints": [' + "1" * 5000 + "]}"),
     r"cannot read Green's function document"),
    ("kernel-without-breakpoints", lambda: GreensFunction.from_json_dict({"branches": []}),
     r"missing field 'breakpoints' in Green's function document"),
    ("kernel-branch-without-term",
     lambda: GreensFunction.from_json_dict(
         _kernel(branches=[{"interval": 1, "region": REGION_LOWER}])),
     r"missing field 'term' in branches term"),
    ("kernel-dirac-without-coeff",
     lambda: GreensFunction.from_json_dict(_kernel(dirac=[{"point": "0", "order": 0}])),
     r"missing field 'coeff' in dirac term"),
    ("kernel-diagonal-without-order",
     lambda: GreensFunction.from_json_dict(_kernel(diagonal=[{"coeff": "1"}])),
     r"missing field 'order' in diagonal term"),
    ("kernel-breakpoints-unsorted",
     lambda: GreensFunction.from_json_dict({"breakpoints": ["0", "2", "1"]}),
     r"Green's function document field 'breakpoints' must be strictly increasing"),
    ("kernel-breakpoints-repeated",
     lambda: GreensFunction.from_json_dict({"breakpoints": ["0", "1", "1"]}),
     r"Green's function document field 'breakpoints' must be strictly increasing"),
    # lower - upper is x on [0, 1] and x*xi - 1 on [1, 2]: eval_functional
    # answered, and every apply_to failed
    ("kernel-not-smooth",
     lambda: GreensFunction.from_json_dict({"breakpoints": ["0", "1", "2"], "branches": [
         _BRANCH, {"interval": 2, "region": REGION_LOWER, "term": "x*xi - 1"}]}),
     r"bad Green's function document: kernel is not smooth across breakpoints"),
    ("kernel-repeated-branch",
     lambda: GreensFunction.from_json_dict(_kernel(branches=[_BRANCH, {**_BRANCH, "term": "2*x"}])),
     r"lists the branch \(1, 'xi<=x'\) twice"),
    ("constant-underscore-literal",
     lambda: Constant.from_json(_constant(num={"0": "1_0"})),
     r"bad rational literal '1_0'"),
    ("constant-float-literal", lambda: Constant.from_json(_constant(num={"0": 0.1})),
     r"bad rational literal 0\.1"),
    ("constant-bad-exponent-literal", lambda: Constant.from_json(_constant(num={"x": "1"})),
     r"bad rational literal 'x'"),
    ("constant-unknown-field", lambda: Constant.from_json(_constant(extra=1)),
     r"unknown field 'extra' in constant document"),
    ("constant-num-a-list", lambda: Constant.from_json(_constant(num=["1"])),
     r"constant document field 'num' must be a JSON object"),
    ("constant-empty-den", lambda: Constant.from_json(_constant(den={})),
     r"constant document field 'den' is zero"),
    ("constant-zero-den", lambda: Constant.from_json(_constant(den={"1": "0"})),
     r"constant document field 'den' is zero"),
    ("constant-without-num", lambda: Constant.from_json({"den": {"0": "1"}}),
     r"missing field 'num' in constant document"),
    ("constant-without-den", lambda: Constant.from_json({"num": {"0": "1"}}),
     r"missing field 'den' in constant document"),
    ("constant-repeated-exponent",
     lambda: Constant.from_json(_constant(num={"1": "1", "1.0": "2"})),
     r"constant document field 'num' names an exponent twice"),
]


@pytest.mark.parametrize("read, message", [row[1:] for row in MALFORMED],
                         ids=[row[0] for row in MALFORMED])
def test_a_malformed_document_is_refused_naming_the_field(read, message):
    with pytest.raises(ParseError, match=message):
        read()


def test_the_well_formed_neighbours_of_the_table_load():
    assert Operator.from_json({"diff": [{"order": 1, "coeff": "1"}]}) == Operator.derivative(1)
    g = GreensFunction.from_json_dict(_kernel(branches=[_BRANCH]))
    assert g.branch(1, REGION_LOWER).to_text() == "x"
    assert Constant.from_json(_constant(num={"1": "1/2", "0": "3"})) == (
        Constant.e_power(F(1), F(1, 2)) + 3)


# -- a key given twice -------------------------------------------------------------

_KERNEL = _kernel(branches=[_BRANCH], dirac=[{"point": "0", "order": 0, "coeff": "1"}],
                  diagonal=[{"order": 0, "coeff": "1"}])
_OPERATOR = {"diff": [{"order": 1, "coeff": "1"}],
             "local": [{"point": "0", "order": 0, "left": "x"}]}

# (id, document, path to an object, a key of that object, another value for it)
PROBLEM_KEYS = [
    # the second "conditions" moves the point 1 to 2
    ("top-level", _INTRO, (), "conditions",
     [_INTRO["conditions"][0], {"local": [{"point": "2", "order": 0, "coeff": "1"}]}]),
    ("operator", _INTRO, ("operator",), "coeffs", ["-1", "0", "1"]),
    ("condition", _NONLOCAL, ("conditions", 0), "global", []),
    ("local-term", _INTRO, ("conditions", 1, "local", 0), "point", "2"),
    ("global-term", _NONLOCAL, ("conditions", 0, "global", 0), "integrand", "x"),
]
KERNEL_KEYS = [
    ("top-level", _KERNEL, (), "breakpoints", ["0", "2"]),
    ("branch", _KERNEL, ("branches", 0), "term", "2*x"),
    ("dirac", _KERNEL, ("dirac", 0), "order", 1),
    ("diagonal", _KERNEL, ("diagonal", 0), "coeff", "x"),
]
# (id, document, path, key, other value, reader of the decoded document, document kind)
VALUE_KEYS = [
    ("operator-top-level", _OPERATOR, (), "diff", [], Operator.from_json, "operator document"),
    ("operator-diff-entry", _OPERATOR, ("diff", 0), "coeff", "2", Operator.from_json,
     "operator document"),
    ("operator-local-entry", _OPERATOR, ("local", 0), "point", "1", Operator.from_json,
     "operator document"),
    ("constant-top-level", _constant(), (), "den", {"0": "2"}, Constant.from_json,
     "constant document"),
    # "num": {"0": "1", "0": "2"} read as 2
    ("constant-num-term", _constant(), ("num",), "0", "2", Constant.from_json,
     "constant document"),
]


def _texts(rows):
    """Each row's text with the key's other value, then with its own value again."""
    return [pytest.param(with_key_twice(doc, path, key, value), key, *rest, id=f"{name}-{how}")
            for name, doc, path, key, other, *rest in rows
            for how, value in (("other", other), ("equal", value_at(doc, path + (key,))))]


def _names_the_key(key: str, doc: str) -> str:
    return re.escape(f"cannot read {doc}: key {key!r} repeats in an object with keys ")


@pytest.mark.parametrize("argv", [["solve", "-"], ["verify", "-"], ["kernel", "-", "0", "1"]],
                         ids=["solve", "verify", "kernel"])
@pytest.mark.parametrize("text, key", _texts(PROBLEM_KEYS))
def test_a_key_given_twice_in_a_problem_exits_2(monkeypatch, capsys, argv, text, key):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert re.match("error: " + _names_the_key(key, "problem document"), err)


@pytest.mark.parametrize("text, key", _texts(KERNEL_KEYS))
def test_a_key_given_twice_in_a_kernel_is_refused(text, key):
    with pytest.raises(ParseError, match=_names_the_key(key, "Green's function document")):
        GreensFunction.from_json(text)


@pytest.mark.parametrize("text, key, read, doc", _texts(VALUE_KEYS))
def test_a_key_given_twice_in_an_operator_or_constant_is_refused(text, key, read, doc):
    with pytest.raises(ParseError, match=_names_the_key(key, doc)):
        read(_decode(text, doc))


def test_a_path_that_cannot_be_opened_exits_2(capsys):
    # reading stays apart from decoding: open() refuses a NUL byte with a ValueError
    assert main(["solve", "a\x00b"]) == 2
    assert capsys.readouterr().err == "error: cannot read problem document: embedded null byte\n"


def test_json_loads_reads_every_text_of_the_tables_as_a_valid_document():
    # so without the decoder each repeat was read silently, the last value kept
    for param in _texts(PROBLEM_KEYS):
        parse_problem(json.loads(param.values[0]))
    for param in _texts(KERNEL_KEYS):
        GreensFunction.from_json_dict(json.loads(param.values[0]))
    for param in _texts(VALUE_KEYS):
        text, _key, read, _doc = param.values
        read(json.loads(text))


# -- Constant(num, den) against the former constructor ---------------------------


def reference_constant(num: dict, den: dict | None = None) -> Constant:
    """The former body of ``Constant.__init__``: both term dicts on one grid
    ``N`` with integer coefficients, cancelled by one polynomial gcd."""
    num = {F(q): F(c) for q, c in num.items() if c}
    den = {F(0): F(1)} if den is None else {F(q): F(c) for q, c in den.items() if c}
    if not den:
        raise ZeroDivisionError("zero divisor")
    n = lcm(*(q.denominator for q in chain(num, den)))
    m = lcm(*(c.denominator for c in chain(num.values(), den.values())))
    inum, iden = ({q.numerator * (n // q.denominator): c.numerator * (m // c.denominator)
                   for q, c in terms.items()} for terms in (num, den))
    r = _poly_gcd(inum, iden) if inum else None
    if r is not None:
        _, inum, iden = r
    return _make(n, inum, iden)


def _terms(rng, count: int, grid: int, low: int = 0) -> dict:
    """Up to ``count`` terms ``c * e^(k/grid)`` with ``low <= k``."""
    return {F(rng.randint(low, 3 * grid), grid): F(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(count)}


def _times(a: dict, b: dict) -> dict:
    out: dict = {}
    for qa, ca in a.items():
        for qb, cb in b.items():
            out[qa + qb] = out.get(qa + qb, 0) + ca * cb
    return out


def _cases(rng, kind: str):
    grid = rng.choice([1, 2, 3, 6])
    if kind == "rational":
        return {F(0): F(rng.randint(-9, 9), rng.randint(1, 9))}, {F(0): F(rng.randint(1, 9))}
    if kind == "monomial":
        return _terms(rng, 1, grid), _terms(rng, 1, grid) or {F(0): F(1)}
    if kind == "polynomial":
        return _terms(rng, 4, grid), None
    if kind == "laurent":
        return _terms(rng, 3, grid, -3 * grid), _terms(rng, 3, grid, -3 * grid)
    if kind == "zero":
        return {F(1, grid): F(0)}, _terms(rng, 2, grid)
    # a common factor p cancels from p*q / (p*r)
    p, q, r = (_terms(rng, 2, grid) for _ in range(3))
    return _times(p, q), _times(p, r)


@pytest.mark.parametrize("kind", ["rational", "monomial", "polynomial", "laurent", "zero",
                                  "common-factor"])
@pytest.mark.parametrize("seed", range(25))
def test_the_constructor_equals_the_former_one(kind, seed):
    rng = random.Random(f"{kind}-{seed}")
    num, den = _cases(rng, kind)
    try:
        expected = reference_constant(num, den)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError, match="zero divisor"):
            Constant(num, den)
        return
    c = Constant(num, den)
    assert (c._n, c._num, c._den) == (expected._n, expected._num, expected._den)


def test_a_zero_denominator_is_a_zero_divisor():
    for den in ({}, {F(2): F(0)}):
        with pytest.raises(ZeroDivisionError, match="zero divisor"):
            Constant({F(0): F(1)}, den)
        with pytest.raises(ZeroDivisionError, match="zero divisor"):
            Constant({}, den)


# -- the readers accept what the program writes --------------------------------


def _documents():
    return ([json.dumps(doc) for doc, _points in workloads.WORKED_EXAMPLES.values()]
            + [command.document for command in workloads.many_point_commands()])


@pytest.mark.parametrize("document", _documents())
def test_every_written_document_reads_back_equal(document):
    problem = parse_problem(json.loads(document))
    G, Geq, gf = solve_problem(problem)
    # through JSON text, as another program would read them
    assert Operator.from_json(json.loads(json.dumps(G.to_json()))) == G
    assert Operator.from_json(json.loads(json.dumps(Geq.to_json()))) == Geq
    assert GreensFunction.from_json(gf.to_json()) == gf
    _matrix, inverse = problem.evaluation_inverse()
    for c in chain.from_iterable(inverse):
        assert Constant.from_json(json.loads(json.dumps(c.to_json()))) == c


# -- Unicode decimal digits ---------------------------------------------------------


def test_a_digit_is_any_unicode_decimal_digit():
    assert parse_rational("٣/٤") == F(3, 4)  # Arabic-Indic digits
    assert parse_rational("１/2") == F(1, 2)  # a fullwidth 1
    assert parse_exppoly("٣*x") == parse_exppoly("3*x")
    assert (Constant.from_json({"num": {"٠": "٣/٤"}, "den": {"0": "１"}})
            == Constant.from_json({"num": {"0": "3/4"}, "den": {"0": "1"}})
            == Constant.from_rational(F(3, 4)))


# -- numbers and functions handed to the library ------------------------------------

X = ExpPoly.x()
_ZERO = ExpPoly.zero()
_XXI = parse_bivariate("x*xi")
_KERNEL_01 = GreensFunction([0, 1], {(1, REGION_LOWER): _XXI})
_TWO_POINT = BoundaryProblem(Operator.derivative(2), [StieltjesCondition([(0, 0, 1)]),
                                                     StieltjesCondition([(1, 0, 1)])])
_GEQ = greens_operator(_TWO_POINT).to_equitable()

# (id, the entry point called with a point or rational r in (0, 1], the same entry
# point with its function or coefficient zero, or None when it takes none)
RATIONAL_ENTRIES = [
    ("parse_rational", parse_rational, None),
    ("Constant.from_rational", Constant.from_rational, None),
    ("Constant-exponent", lambda r: Constant({r: 1}), lambda r: Constant({r: 0})),
    ("Constant-coefficient", lambda r: Constant({0: r}), None),
    ("Constant-denominator", lambda r: Constant({0: 1}, {r: 1}), None),
    ("Constant.e_power-exponent", Constant.e_power, lambda r: Constant.e_power(r, 0)),
    ("Constant.e_power-coefficient", lambda r: Constant.e_power(0, r), None),
    ("ExpPoly.const", ExpPoly.const, None),
    ("ExpPoly.exponential", ExpPoly.exponential, None),
    ("ExpPoly.monomial-frequency", lambda r: ExpPoly.monomial(r, 1),
     lambda r: ExpPoly.monomial(r, 1, 0)),
    ("ExpPoly.monomial-coefficient", lambda r: ExpPoly.monomial(0, 1, r), None),
    ("ExpPoly.coefficient", lambda r: X.coefficient(r, 1), None),
    ("ExpPoly.integrate_from", X.integrate_from, None),
    ("ExpPoly.eval_at", X.eval_at, None),
    ("BivariateExpPoly.ix", _XXI.ix, None),
    ("BivariateExpPoly.iy", _XXI.iy, None),
    ("BivariateExpPoly.eval_at-x", lambda r: _XXI.eval_at(r, 0), None),
    ("BivariateExpPoly.eval_at-xi", lambda r: _XXI.eval_at(0, r), None),
    ("Operator-local-key", lambda r: Operator(local={(r, 0): X}),
     lambda r: Operator(local={(r, 0): _ZERO})),
    ("Operator.evaluation", Operator.evaluation, lambda r: Operator.evaluation(r, 0, _ZERO)),
    ("Operator.integral", Operator.integral, lambda r: Operator.integral(r, None, _ZERO)),
    ("Operator.global_term-point", lambda r: Operator.global_term(r, 0),
     lambda r: Operator.global_term(r, 0, None, _ZERO)),
    ("Operator.global_term-basepoint", lambda r: Operator.global_term(2, r),
     lambda r: Operator.global_term(2, r, None, _ZERO)),
    ("to_standard", lambda r: to_standard(Operator.integral(0), r), None),
    ("StieltjesCondition-point", lambda r: StieltjesCondition([(r, 0, 1)]),
     lambda r: StieltjesCondition([(r, 0, 0)])),
    ("StieltjesCondition-coefficient", lambda r: StieltjesCondition([(0, 0, r)]), None),
    ("StieltjesCondition-lower", lambda r: StieltjesCondition([], [(r, 2, X)]),
     lambda r: StieltjesCondition([], [(r, 2, _ZERO)])),
    ("StieltjesCondition-upper", lambda r: StieltjesCondition([], [(0, r, X)]),
     lambda r: StieltjesCondition([], [(0, r, _ZERO)])),
    ("GreensFunction-breakpoint", lambda r: GreensFunction([0, r], {}), None),
    ("GreensFunction-dirac-point",
     lambda r: GreensFunction([0, F(1, 2), 1], {}, dirac=[(r, 0, X)]),
     lambda r: GreensFunction([0, F(1, 2), 1], {}, dirac=[(r, 0, _ZERO)])),
    ("GreensFunction.scale", _KERNEL_01.scale, None),
    ("eval_functional-x", lambda r: eval_functional(_KERNEL_01, r, 0), None),
    ("eval_functional-xi", lambda r: eval_functional(_KERNEL_01, 1, r), None),
    ("extract-interval", lambda r: extract(_GEQ, (0, r)), None),
    ("greens_operator-basepoint", lambda r: greens_operator(_TWO_POINT, r), None),
]
_RATIONAL_IDS = [row[0] for row in RATIONAL_ENTRIES]
# None means the default basepoint of greens_operator
_NONE_IS_A_DEFAULT = {"greens_operator-basepoint"}

# (value, the literal as the ParseError shows it)
BAD_RATIONALS = [(True, "'True'"), (0.1, "0.1"), (1.0, "1.0"), ("1_0", "'1_0'"), (None, "'None'")]


@pytest.mark.parametrize("value, shown", BAD_RATIONALS,
                         ids=[repr(value) for value, _shown in BAD_RATIONALS])
@pytest.mark.parametrize("name, entry, zero_entry", RATIONAL_ENTRIES, ids=_RATIONAL_IDS)
def test_a_point_or_rational_that_is_no_rational_is_refused_naming_it(name, entry, zero_entry,
                                                                      value, shown):
    if value is None and name in _NONE_IS_A_DEFAULT:
        entry(value)
        return
    # a zero function or coefficient, whose term is dropped, does not skip the reading
    for call in filter(None, (entry, zero_entry)):
        with pytest.raises(ParseError, match=f"^bad rational literal {re.escape(shown)}"):
            call(value)


@pytest.mark.parametrize("name, entry", [row[:2] for row in RATIONAL_ENTRIES], ids=_RATIONAL_IDS)
def test_an_int_a_fraction_and_a_literal_key_alike(name, entry):
    assert entry(1) == entry(F(1)) == entry("1") == entry(" 1 ")
    assert entry(F(1, 2)) == entry("1/2") == entry("1 / 2") == entry("0.5")


def test_an_integral_point_is_keyed_as_an_int():
    for point in (1, F(1), "1", "1 / 1"):
        assert [type(p) for _f, p, _i in Operator.evaluation(point).local_boundary] == [int]
    assert Operator.evaluation("1 / 2") == Operator.evaluation(F(1, 2))


def test_a_bool_is_not_a_scalar():
    assert (Constant.from_rational(1) == True) is False  # noqa: E712
    assert (Constant.from_rational(0) == False) is False  # noqa: E712
    with pytest.raises(TypeError):
        Constant.from_rational(1) * True
    with pytest.raises(TypeError):
        X * True


# (id, the entry point called with an order, power or exponent n, the same entry point
# with its function or coefficient zero or None, the name it gives n)
COUNT_ENTRIES = [
    ("ExpPoly.monomial", lambda n: ExpPoly.monomial(0, n), lambda n: ExpPoly.monomial(0, n, 0),
     "power"),
    ("ExpPoly.coefficient", lambda n: X.coefficient(0, n), None, "power"),
    ("ExpPoly.derive", X.derive, _ZERO.derive, "derivative order"),
    ("ExpPoly.derivatives", X.derivatives, _ZERO.derivatives, "derivative order"),
    ("Operator-diff-key", lambda n: Operator(diff={n: X}), lambda n: Operator(diff={n: _ZERO}),
     "derivative order"),
    ("Operator.derivative", Operator.derivative, lambda n: Operator.derivative(n, _ZERO),
     "derivative order"),
    ("Operator.evaluation", lambda n: Operator.evaluation(0, n),
     lambda n: Operator.evaluation(0, n, _ZERO), "derivative order"),
    ("Operator-power", lambda n: Operator.derivative() ** n, lambda n: Operator.zero() ** n,
     "exponent"),
    ("StieltjesCondition", lambda n: StieltjesCondition([(0, n, 1)]),
     lambda n: StieltjesCondition([(0, n, 0)]), "derivative order"),
    ("GreensFunction-dirac", lambda n: GreensFunction([0, 1], {}, dirac=[(0, n, X)]),
     lambda n: GreensFunction([0, 1], {}, dirac=[(0, n, _ZERO)]), "derivative order"),
    ("GreensFunction-diagonal", lambda n: GreensFunction([0, 1], {}, diagonal=[(n, X)]),
     lambda n: GreensFunction([0, 1], {}, diagonal=[(n, _ZERO)]), "derivative order"),
    ("GreensFunction.branch", lambda n: _KERNEL_01.branch(n, REGION_LOWER), None, "interval"),
]


@pytest.mark.parametrize("value", [-1, 1.5, True], ids=repr)
@pytest.mark.parametrize("entry, zero_entry, what", [row[1:] for row in COUNT_ENTRIES],
                         ids=[row[0] for row in COUNT_ENTRIES])
def test_an_order_power_or_exponent_that_is_no_count_is_refused_naming_it(entry, zero_entry,
                                                                          what, value):
    for call in filter(None, (entry, zero_entry)):
        with pytest.raises(ParseError, match=re.escape(f"{what} must be a nonnegative integer, "
                                                       f"got {value!r}")):
            call(value)


def test_the_well_formed_counts_of_the_table_are_read():
    assert ExpPoly.monomial(0, 2) == X * X
    assert X.derivatives(1) == [X, ExpPoly.one()]
    assert Operator.derivative() ** 0 == Operator.identity()
    assert _KERNEL_01.branch(1, REGION_LOWER) == _XXI


# (id, the entry point called with a function h, the name it gives h)
FUNCTION_ENTRIES = [
    ("Operator.derivative", lambda h: Operator.derivative(1, h), "coeff"),
    ("Operator.multiplication", Operator.multiplication, "f"),
    ("Operator.integral-left", lambda h: Operator.integral(0, h), "left"),
    ("Operator.integral-right", lambda h: Operator.integral(0, None, h), "right"),
    ("Operator.evaluation", lambda h: Operator.evaluation(0, 0, h), "left"),
    ("Operator.global_term-left", lambda h: Operator.global_term(1, 0, h), "left"),
    ("Operator.global_term-integrand", lambda h: Operator.global_term(1, 0, None, h),
     "integrand"),
    ("StieltjesCondition-integrand", lambda h: StieltjesCondition([], [(0, 1, h)]), "integrand"),
    ("BoundaryProblem-basis",
     lambda h: BoundaryProblem(Operator.derivative(2), _TWO_POINT.conditions, basis=[h, X]),
     "basis function"),
    ("GreensFunction-branch", lambda h: GreensFunction([0, 1], {(1, REGION_LOWER): h}),
     "branch"),
    ("GreensFunction-dirac", lambda h: GreensFunction([0, 1], {}, dirac=[(0, 0, h)]),
     "dirac coefficient"),
    ("GreensFunction-diagonal", lambda h: GreensFunction([0, 1], {}, diagonal=[(0, h)]),
     "diagonal coefficient"),
]


@pytest.mark.parametrize("value", [2, "x", Constant.one(), _XXI], ids=repr)
@pytest.mark.parametrize("entry, what", [row[1:] for row in FUNCTION_ENTRIES],
                         ids=[row[0] for row in FUNCTION_ENTRIES])
def test_a_function_of_the_wrong_type_is_refused_naming_the_argument(entry, what, value):
    if what == "branch" and value is _XXI:
        entry(value)  # the one right type of a branch
        return
    with pytest.raises(TypeError, match=f"^{what} must be of type "):
        entry(value)
