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

from stieltjes import Constant, GreensFunction, Operator, ParseError
from stieltjes.cli import main, parse_problem, solve_problem
from stieltjes.constants import _make, _poly_gcd
from stieltjes.greens import REGION_LOWER
from stieltjes.parsing import _decode, parse_exppoly, parse_rational

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
