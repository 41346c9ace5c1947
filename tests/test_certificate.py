"""``boundary.certify``: verification by the certificates of the construction.

When the certificate holds, ``verify`` reports every per-f residual as 0
without applying G to a test function; when it fails, the residuals are
computed on the test functions, so a wrong G still prints real residuals."""

import json
import random
import sys
from pathlib import Path

import pytest

from conftest import random_regular_problem

from stieltjes import Operator, cli, extract, greens_operator, parse_exppoly
from stieltjes.boundary import certify
from stieltjes.cli import DEFAULT_TEST_FUNCTIONS, main, parse_problem, solve_problem, verify_problem

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

NONLOCAL_DOC = workloads.WORKED_EXAMPLES["nonlocal"][0]
TEST_FUNCTIONS = [(text, parse_exppoly(text)) for text in DEFAULT_TEST_FUNCTIONS]


def document_problems():
    """The three worked examples and the 12 many-point benchmark documents."""
    docs = [doc for doc, _points in workloads.WORKED_EXAMPLES.values()]
    docs += [json.loads(c.document) for c in workloads.many_point_commands()]
    return [parse_problem(doc) for doc in docs]


def suite_problems():
    rng = random.Random(2024)
    return [random_regular_problem(rng) for _ in range(50)]


def test_certificate_holds_and_agrees_with_the_per_f_residuals(monkeypatch):
    problems = suite_problems() + document_problems()
    assert len(problems) == 65
    solved = [(problem, *solve_problem(problem)) for problem in problems]
    for problem, _G, Geq, _gf in solved:
        assert certify(problem, Geq)
    # the per-f path, which a failed certificate falls back to, agrees
    monkeypatch.setattr(cli, "certify", lambda problem, Geq: False)
    for problem, G, Geq, gf in solved:
        report = verify_problem(problem, G, Geq, gf, TEST_FUNCTIONS)
        assert report.all_zero()


def _drop_one_integral_term(problem, basepoint=None, interval=None):
    """``solve_problem`` with the first integral term of G left out."""
    G = greens_operator(problem, basepoint=basepoint)
    a, f, right = G.integral_part[0]
    G = G - Operator.integral(a, f, right)
    Geq = G.to_equitable()
    return G, Geq, extract(Geq, interval=interval)


def test_a_wrong_greens_operator_fails_the_certificate(tmp_path, capsys, monkeypatch):
    problem = parse_problem(NONLOCAL_DOC)
    _G, Geq, _gf = _drop_one_integral_term(problem)
    assert not certify(problem, Geq)

    monkeypatch.setattr(cli, "solve_problem", _drop_one_integral_term)
    path = tmp_path / "nonlocal.json"
    path.write_text(json.dumps(NONLOCAL_DOC))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    residuals = [line.rsplit(": ", 1)[1] for line in captured.out.splitlines()
                 if line.startswith(("T(G f) - f for f = ", "condition "))]
    assert len(residuals) == len(DEFAULT_TEST_FUNCTIONS) * 3
    assert any(r != "0" for r in residuals)
    assert captured.out.endswith("verified: False\n")


@pytest.fixture
def applied(monkeypatch):
    """Every function that reaches ``Operator.apply``."""
    seen = []
    original = Operator.apply

    def apply(self, h):
        seen.append(h)
        return original(self, h)

    monkeypatch.setattr(Operator, "apply", apply)
    return seen


def test_no_test_function_reaches_operator_apply(applied):
    for problem in document_problems():
        G, Geq, gf = solve_problem(problem)
        applied.clear()
        report = verify_problem(problem, G, Geq, gf, TEST_FUNCTIONS)
        assert report.all_zero()
        assert applied  # the certificate applies T and each condition to the basis
        assert not any(h is f for h in applied for _text, f in TEST_FUNCTIONS)


def test_no_test_function_reaches_operator_apply_through_the_cli(tmp_path, capsys, applied):
    forcing = "x^3*exp(5*x)"  # not a solution of T u = 0, nor a factor of one
    path = tmp_path / "nonlocal.json"
    path.write_text(json.dumps(NONLOCAL_DOC))
    assert main(["verify", str(path), "--test-functions", forcing]) == 0
    assert f"T(G f) - f for f = {forcing}: 0" in capsys.readouterr().out
    assert applied
    assert parse_exppoly(forcing) not in applied
