"""Each fact is kept once between the solve and the output.

- A problem document accepts only its listed fields; any other field, an
  ``operator`` that is not an object and term lists that are not lists exit
  2 with a message naming the field.
- ``verify`` prints text or JSON only.
- The verification report reads breakpoints, branch count and
  distributional terms off the kernel it reports on.
- ``kernel_relations`` reads ``u_j^(i)(p)`` off the stored Wronskian rows.
"""

import copy
import io
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from stieltjes import GreensFunction, Operator, ParseError, boundary
from stieltjes.boundary import (
    FundamentalSystem,
    StieltjesCondition,
    evaluation_matrix,
    kernel_relations,
)
from stieltjes.cli import main, parse_problem
from stieltjes.linalg import left_kernel
from stieltjes.parsing import parse_exppoly

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

NONLOCAL_DOC = workloads.WORKED_EXAMPLES["nonlocal"][0]


def documents():
    """The three worked examples and the 12 many-point benchmark documents."""
    return ([json.dumps(doc) for doc, _points in workloads.WORKED_EXAMPLES.values()]
            + [command.document for command in workloads.many_point_commands()])


def _rename(obj: dict, old: str, new: str) -> None:
    obj[new] = obj.pop(old)


# (id, edit of a copy of NONLOCAL_DOC, text the error must contain)
MALFORMED = [
    ("top-level-field", lambda d: d.update(fundamental=["exp(x)", "exp(-x)"]), "'fundamental'"),
    ("operator-field", lambda d: _rename(d["operator"], "coeffs", "coefs"), "'coefs'"),
    ("condition-field-globl", lambda d: _rename(d["conditions"][1], "global", "globl"),
     "'globl'"),
    ("condition-field-locals", lambda d: _rename(d["conditions"][0], "local", "locals"),
     "'locals'"),
    ("local-term-field", lambda d: _rename(d["conditions"][1]["local"][1], "coeff", "coef"),
     "'coef'"),
    ("global-term-field", lambda d: _rename(d["conditions"][0]["global"][0], "upper", "uper"),
     "'uper'"),
    ("local-not-a-list", lambda d: d["conditions"][0].update(local=d["conditions"][0]["local"][0]),
     "'local'"),
    ("global-not-a-list", lambda d: d["conditions"][1].update({"global": "x"}), "'global'"),
    ("operator-not-an-object", lambda d: d.update(operator=d["operator"]["coeffs"]),
     "operator"),
    ("term-not-an-object", lambda d: d["conditions"][0]["global"].append("x"),
     "global term"),
]


def _stdin(doc) -> io.StringIO:
    return io.StringIO(json.dumps(doc))


def test_the_unedited_document_verifies(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _stdin(NONLOCAL_DOC))
    assert main(["verify", "-"]) == 0
    assert "verified: True" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["solve", "-"], ["verify", "-"], ["kernel", "-", "0", "1"]])
@pytest.mark.parametrize("edit, names", [row[1:] for row in MALFORMED],
                         ids=[row[0] for row in MALFORMED])
def test_a_malformed_document_exits_2_naming_the_field(capsys, monkeypatch, command, edit,
                                                        names):
    # a condition spelled "globl" used to drop its integral and solve a
    # different problem with exit 0
    doc = copy.deepcopy(NONLOCAL_DOC)
    edit(doc)
    monkeypatch.setattr("sys.stdin", _stdin(doc))
    assert main(command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and names in captured.err
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1


def test_parse_problem_names_the_unknown_field():
    doc = copy.deepcopy(NONLOCAL_DOC)
    doc["conditions"][1]["globl"] = doc["conditions"][1].pop("global")
    with pytest.raises(ParseError, match="unknown field 'globl' in condition"):
        parse_problem(doc)


def test_verify_has_no_latex_format(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _stdin(NONLOCAL_DOC))
    with pytest.raises(SystemExit) as info:
        main(["verify", "-", "--format", "latex"])
    assert info.value.code == 2
    assert "invalid choice: 'latex'" in capsys.readouterr().err


@pytest.mark.parametrize("read, text", [
    (Operator.from_json, []),
    (Operator.from_json, "diff"),
    (Operator.from_json, {"integrl": []}),
    (GreensFunction.from_json, "{"),
    (GreensFunction.from_json, "[" * 100000),
])
def test_api_readers_raise_parse_error(read, text):
    with pytest.raises(ParseError):
        read(text)


@pytest.mark.parametrize("document", documents())
def test_the_report_reads_its_kernel(document):
    # verify --format json and solve --format json print one set of facts
    code, out = workloads.run_command(workloads.Command("verify", ("verify", "-", "--format",
                                                                   "json"), document))
    assert code == 0
    report = json.loads(out)
    code, out = workloads.run_command(workloads.Command("solve", ("solve", "-", "--format",
                                                                  "json"), document))
    assert code == 0
    solved = json.loads(out)
    kernel = solved["greens_function"]
    assert solved["report"] == report
    assert report["breakpoints"] == kernel["breakpoints"]
    assert report["branch_count"] == len(kernel["branches"])
    assert report["dirac_terms"] == [f"order {d['order']} at {d['point']}: {d['coeff']}"
                                     for d in kernel["dirac"]]
    assert report["diagonal_terms"] == [f"order {d['order']}: {d['coeff']}"
                                        for d in kernel["diagonal"]]
    assert report["regular"] is True and report["verified"] is True


def _by_point_conditions(fs: FundamentalSystem, a, b):
    """The former derivation of ``kernel_relations``: the evaluation matrix
    of the 2n point conditions ``u -> u^(i)(p)``."""
    return evaluation_matrix([StieltjesCondition([(p, i, 1)]) for p in (a, b)
                              for i in range(fs.size)], fs)


def _systems():
    yield from (parse_problem(json.loads(doc)).system() for doc in documents())
    yield FundamentalSystem([parse_exppoly("1"), parse_exppoly("x")])
    yield FundamentalSystem([parse_exppoly(s) for s in ("exp(2*x)", "x*exp(2*x)", "exp(-x/3)")])


@pytest.mark.parametrize("a, b", [(0, 1), (F(-1, 2), F(1, 3)), (1, 1), (F(3, 2), -2)])
def test_kernel_relations_read_the_wronskian_rows(monkeypatch, a, b):
    systems = list(_systems())
    expected = [_by_point_conditions(fs, a, b) for fs in systems]

    def refuse(*_args, **_kwargs):
        raise AssertionError("kernel_relations built a StieltjesCondition")

    monkeypatch.setattr(boundary, "StieltjesCondition", refuse)
    for fs, reference in zip(systems, expected):
        matrix, basis = kernel_relations(fs, a, b)
        assert matrix == reference
        assert basis == left_kernel(reference)
