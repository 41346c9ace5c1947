import json
from fractions import Fraction as F

import pytest

from stieltjes.cli import build_parser, main, parse_problem

INTRO_SPEC = {
    "operator": {"coeffs": ["0", "0", "1"]},
    "conditions": [
        {"local": [{"point": "0", "order": 0, "coeff": "1"}]},
        {"local": [{"point": "1", "order": 0, "coeff": "1"}]},
    ],
}

FOUR_POINT_SPEC = {
    "operator": {"coeffs": ["0", "0", "1"]},
    "conditions": [
        {"local": [{"point": "0", "order": 0, "coeff": "1"},
                   {"point": "1/3", "order": 0, "coeff": "1"}]},
        {"local": [{"point": "1", "order": 0, "coeff": "1"},
                   {"point": "2/3", "order": 0, "coeff": "1"}]},
    ],
}

NONLOCAL_SPEC = {
    "operator": {"coeffs": ["-1", "0", "1"]},
    "conditions": [
        {"local": [{"point": "-1", "order": 3, "coeff": "1"}],
         "global": [{"lower": "0", "upper": "1", "integrand": "-x"}]},
        {"local": [{"point": "-1", "order": 1, "coeff": "1"},
                   {"point": "1", "order": 2, "coeff": "-1"}],
         "global": [{"lower": "-1", "upper": "1", "integrand": "1"}]},
    ],
}

U_MINUS_U_SPEC = {
    "operator": {"coeffs": ["-1", "0", "1"]},
    "conditions": INTRO_SPEC["conditions"],
}

NEUMANN_SPEC = {
    "operator": {"coeffs": ["0", "0", "1"]},
    "conditions": [
        {"local": [{"point": "0", "order": 1, "coeff": "1"}]},
        {"local": [{"point": "1", "order": 1, "coeff": "1"}]},
    ],
}

IVP_SPEC = {
    "operator": {"coeffs": ["0", "0", "1"]},
    "conditions": [
        {"local": [{"point": "0", "order": 0, "coeff": "1"}]},
        {"local": [{"point": "0", "order": 1, "coeff": "1"}]},
    ],
}


def write_spec(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestSolve:
    def test_intro_json(self, tmp_path, capsys):
        path = write_spec(tmp_path, INTRO_SPEC)
        assert main(["solve", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["verified"] is True
        branches = {(b["interval"], b["region"]): b["term"]
                    for b in doc["greens_function"]["branches"]}
        assert branches[(1, "xi<=x")] == "-xi + x*xi"
        assert branches[(1, "x<=xi")] == "-x + x*xi"
        assert doc["greens_function"]["dirac"] == []

    def test_determinism(self, tmp_path, capsys):
        path = write_spec(tmp_path, FOUR_POINT_SPEC)
        assert main(["solve", path, "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["solve", path, "--format", "json"]) == 0
        assert capsys.readouterr().out == first

    def test_four_point_no_distributional_part(self, tmp_path, capsys):
        path = write_spec(tmp_path, FOUR_POINT_SPEC)
        assert main(["solve", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["greens_function"]["branches"]) == 6
        assert doc["greens_function"]["dirac"] == []

    def test_text_and_latex(self, tmp_path, capsys):
        path = write_spec(tmp_path, INTRO_SPEC)
        assert main(["solve", path]) == 0
        out = capsys.readouterr().out
        assert "Green's operator:" in out and "verification:" in out
        assert main(["solve", path, "--format", "latex"]) == 0
        out = capsys.readouterr().out
        assert r"\int_{0}" in out

    def test_no_verify_skips_report(self, tmp_path, capsys):
        path = write_spec(tmp_path, INTRO_SPEC)
        assert main(["solve", path, "--no-verify", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "report" not in doc

    def test_zero_length_integral_is_dropped(self, tmp_path, capsys):
        # int_0^0 x u is the zero functional: it neither makes the condition
        # nonlocal nor adds 0 to the evaluation points (the default basepoint)
        plain = {"operator": {"coeffs": ["0", "0", "1"]},
                 "conditions": [{"local": [{"point": "1", "order": 0, "coeff": "1"}]},
                                {"local": [{"point": "2", "order": 0, "coeff": "1"}]}]}
        vacuous = json.loads(json.dumps(plain))
        vacuous["conditions"][0]["global"] = [{"lower": "0", "upper": "0", "integrand": "x"}]
        problems = parse_problem(plain), parse_problem(vacuous)
        assert problems[0].conditions == problems[1].conditions
        assert all(problem.is_local() for problem in problems)
        assert [problem.evaluation_points() for problem in problems] == [{1, 2}] * 2
        outputs = []
        for doc in (plain, vacuous):
            assert main(["solve", write_spec(tmp_path, doc)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "int[1]" in outputs[0] and "int[0]" not in outputs[0]

    def test_irregular_exit_3(self, tmp_path, capsys):
        path = write_spec(tmp_path, NEUMANN_SPEC)
        assert main(["solve", path]) == 3
        err = capsys.readouterr().err
        assert "not regular" in err
        assert "evaluation matrix" in err
        assert "[0, 1]" in err  # the singular matrix is printed

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 2
        bad_doc = dict(INTRO_SPEC, operator={"coeffs": ["0", "0", "2"]})
        assert main(["solve", write_spec(tmp_path, bad_doc, "bad2.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unsupported_operator_exit_4(self, tmp_path, capsys):
        doc = {
            "operator": {"coeffs": ["-2", "0", "1"]},  # roots +-sqrt(2)
            "conditions": INTRO_SPEC["conditions"],
        }
        assert main(["solve", write_spec(tmp_path, doc)]) == 4
        assert "fundamental system" in capsys.readouterr().err

    def test_user_supplied_system(self, tmp_path, capsys):
        doc = dict(NONLOCAL_SPEC)
        doc["fundamental_system"] = ["exp(x)", "exp(-x)"]
        path = write_spec(tmp_path, doc)
        assert main(["solve", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["verified"] is True

    @pytest.mark.parametrize("basis", [["exp(x)"], ["exp(x)", "exp(-x)", "x"], []],
                             ids=["one", "three", "empty"])
    def test_user_supplied_system_of_the_wrong_size_exit_2(self, tmp_path, capsys, basis):
        # one function used to end in an IndexError traceback, three in
        # "Wronskian not invertible" (exit 4), and [] was ignored
        doc = dict(U_MINUS_U_SPEC, fundamental_system=basis)
        assert main(["solve", write_spec(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: expected a fundamental system of 2 functions, got {len(basis)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("options", [[], ["--no-verify"]])
    def test_user_supplied_system_outside_the_kernel_exit_4(self, tmp_path, capsys, options):
        # exp(2x), exp(3x) used to be accepted, and --no-verify printed a wrong G
        doc = dict(U_MINUS_U_SPEC, fundamental_system=["exp(2*x)", "exp(3*x)"])
        assert main(["solve", write_spec(tmp_path, doc), *options]) == 4
        captured = capsys.readouterr()
        assert captured.err == "error: exp(2*x) is not a solution of T u = 0\n"
        assert captured.out == ""

    def test_user_supplied_system_is_checked_by_the_problem(self):
        from stieltjes import (BoundaryProblem, ExpPoly, FundamentalSystemError, Operator,
                               StieltjesCondition)

        T = Operator.derivative(2) - Operator.identity()
        conditions = [StieltjesCondition([(0, 0, 1)]), StieltjesCondition([(1, 0, 1)])]
        e, x = ExpPoly.exponential(1), ExpPoly.x()
        with pytest.raises(ValueError, match="2 functions, got 1"):
            BoundaryProblem(T, conditions, basis=[e])
        with pytest.raises(FundamentalSystemError, match="^x is not a solution"):
            BoundaryProblem(T, conditions, basis=[e, x])
        problem = BoundaryProblem(T, conditions, basis=[e, ExpPoly.exponential(-1)])
        assert problem.system().u == (e, ExpPoly.exponential(-1))

    def test_ivp_needs_interval(self, tmp_path, capsys):
        path = write_spec(tmp_path, IVP_SPEC)
        assert main(["solve", path]) == 2
        assert "explicit interval" in capsys.readouterr().err
        assert main(["solve", path, "--interval", "0,1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["greens_function"]["breakpoints"] == ["0", "1"]

    def test_basepoint_override(self, tmp_path, capsys):
        path = write_spec(tmp_path, INTRO_SPEC)
        assert main(["solve", path, "--basepoint", "1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["verified"] is True
        assert all(entry["basepoint"] == "1"
                   for entry in doc["operator"]["integral"])

    def test_stdin(self, tmp_path, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(INTRO_SPEC)))
        assert main(["solve", "-", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["verified"] is True


class TestVerify:
    def test_intro_all_zero(self, tmp_path, capsys):
        path = write_spec(tmp_path, INTRO_SPEC)
        assert main(["verify", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verified"] is True
        assert all(r == "0" for r in doc["operator_residuals"].values())
        assert all(r == "0" for rs in doc["condition_residuals"].values() for r in rs)

    def test_nonlocal_all_zero(self, tmp_path, capsys):
        path = write_spec(tmp_path, NONLOCAL_SPEC)
        assert main(["verify", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verified"] is True
        assert doc["breakpoints"] == ["-1", "0", "1"]
        assert len(doc["dirac_terms"]) == 2

    def test_zero_forcing_function(self, tmp_path, capsys):
        path = write_spec(tmp_path, INTRO_SPEC)
        assert main(["verify", path, "--test-functions", "0", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["operator_residuals"] == {"0": "0"}

    def test_custom_test_functions(self, tmp_path, capsys):
        path = write_spec(tmp_path, INTRO_SPEC)
        assert main(["verify", path, "--test-functions", "x^3,exp(2*x)"]) == 0
        out = capsys.readouterr().out
        assert "x^3" in out and "verified: True" in out


class TestKernel:
    def test_printed_relations(self, tmp_path, capsys):
        path = write_spec(tmp_path, INTRO_SPEC)
        assert main(["kernel", path, "0", "1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["matrix"] == [["1", "0"], ["0", "1"], ["1", "1"], ["0", "1"]]
        assert len(doc["kernel_basis"]) == 2
        assert "u(1) = u(0) + u'(0)" in doc["relations"]
        assert "u'(1) = u'(0)" in doc["relations"]

    def test_duplicate_points(self, tmp_path, capsys):
        path = write_spec(tmp_path, INTRO_SPEC)
        assert main(["kernel", path, "0", "0", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["kernel_basis"]) == 2
        assert doc["matrix"][0] == doc["matrix"][2]

    def test_exponential_coefficients(self, tmp_path, capsys):
        doc = dict(NONLOCAL_SPEC)
        path = write_spec(tmp_path, doc)
        assert main(["kernel", path, "0", "1", "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["kernel_basis"]) == 2
        assert any("exp(" in c for vec in out["kernel_basis"] for c in vec)

    def test_text_output(self, tmp_path, capsys):
        path = write_spec(tmp_path, INTRO_SPEC)
        assert main(["kernel", path, "0", "1"]) == 0
        out = capsys.readouterr().out
        assert "extended evaluation matrix:" in out
        assert "relations:" in out


def test_parse_problem_validation():
    import pytest
    from stieltjes import ParseError

    with pytest.raises(ParseError):
        parse_problem({"operator": {"coeffs": []}, "conditions": []})
    with pytest.raises(ParseError):
        parse_problem({"conditions": []})
    with pytest.raises(ParseError):
        parse_problem(
            {"operator": {"coeffs": ["0", "1"]}, "conditions": []})


def test_console_entry_point():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "stieltjes", "solve", "-", "--format", "json"],
        input=json.dumps(INTRO_SPEC), capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["report"]["verified"] is True


def test_one_parser_serves_every_call(tmp_path, capsys):
    assert build_parser() is build_parser()
    path = write_spec(tmp_path, INTRO_SPEC)
    assert main(["solve", path, "--no-verify"]) == 0
    assert "verification:" not in capsys.readouterr().out
    # options of an earlier call do not carry over to the next
    assert main(["solve", path]) == 0
    assert "verified: True" in capsys.readouterr().out
    with pytest.raises(SystemExit) as info:
        main(["kernel", path, "0"])
    assert info.value.code == 2
    assert main(["kernel", path, "0", "1"]) == 0


def _intro_with_order(order):
    doc = json.loads(json.dumps(INTRO_SPEC))
    doc["conditions"][0]["local"][0]["order"] = order
    return doc


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("order", [-1, True, 1.5, "1", None])
def test_bad_derivative_order_exit_2(tmp_path, capsys, command, order):
    # "order": -1 used to be read as order 0 and verified a different problem
    assert main([command, write_spec(tmp_path, _intro_with_order(order))]) == 2
    captured = capsys.readouterr()
    assert "derivative order must be a nonnegative integer" in captured.err
    assert "verified" not in captured.out


@pytest.mark.parametrize("doc", [
    {"operator": {"coeffs": [0, "0", "1"]}, "conditions": INTRO_SPEC["conditions"]},
    {"operator": {"coeffs": ["0", "0", "1"]},
     "conditions": [5, INTRO_SPEC["conditions"][1]]},
    {"operator": {"coeffs": ["0", "0", "1"]}, "conditions": 5},
    {"operator": {"coeffs": ["0", "0", "1"]}, "conditions": INTRO_SPEC["conditions"],
     "fundamental_system": 5},
    {"operator": {"coeffs": ["0", "0", "1"]}, "conditions": INTRO_SPEC["conditions"],
     "fundamental_system": ["1", 1]},
    {"operator": {"coeffs": ["0", "0", "1"]},
     "conditions": [INTRO_SPEC["conditions"][0],
                    {"local": [], "global": [{"lower": "0", "upper": "1", "integrand": 1}]}]},
], ids=["int-coeff", "int-condition", "int-conditions", "int-system", "int-basis-entry",
        "int-integrand"])
def test_wrong_json_types_exit_2(tmp_path, capsys, doc):
    assert main(["solve", write_spec(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_large_constant_term_root_search(tmp_path, capsys):
    import time

    doc = {"operator": {"coeffs": ["-100000007", "1"]},
           "conditions": [{"local": [{"point": "0", "order": 0, "coeff": "1"}]}]}
    start = time.perf_counter()
    assert main(["solve", write_spec(tmp_path, doc)]) == 2
    # the divisor scan of 100000007 used to take seconds
    assert time.perf_counter() - start < 3
    assert "degenerate domain" in capsys.readouterr().err


# u'' - u = f with u(0) + u(1) = 0 and u(100000) = 0: the exponents +-1*p
# span 2*10^5 steps, and solving used to run for minutes
SPREAD_SPEC = {
    "operator": {"coeffs": ["-1", "0", "1"]},
    "conditions": [
        {"local": [{"point": "0", "order": 0, "coeff": "1"},
                   {"point": "1", "order": 0, "coeff": "1"}]},
        {"local": [{"point": "100000", "order": 0, "coeff": "1"}]},
    ],
}

# roots +-1 and +-2 with u(0) = u(1/2) = u(1) = u(100) = 0: only 800 grid
# steps, but a dense solve of order 4 that wide takes seconds past the cap
FAR_ORDER_4_SPEC = {
    "operator": {"coeffs": ["4", "0", "-5", "0", "1"]},
    "conditions": [{"local": [{"point": p, "order": 0, "coeff": "1"}]}
                   for p in ("0", "1/2", "1", "100")],
}


@pytest.mark.parametrize("doc, argv", [
    (SPREAD_SPEC, ["solve"]),
    (SPREAD_SPEC, ["verify"]),
    (NONLOCAL_SPEC, ["solve", "--basepoint", "10000000"]),
    (FAR_ORDER_4_SPEC, ["verify"]),
], ids=["solve", "verify", "basepoint", "order-4"])
def test_exponent_spread_cap_exit_2(tmp_path, capsys, doc, argv):
    import time

    argv = [argv[0], write_spec(tmp_path, doc), *argv[1:]]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2
    assert "MAX_EXPONENT_SPREAD" in capsys.readouterr().err


def test_exponent_spread_at_cap_solves(tmp_path, capsys):
    # the exponents +-1*p at p = 0, 1, 250 span exactly the 500 steps allowed
    doc = json.loads(json.dumps(SPREAD_SPEC))
    doc["conditions"][1]["local"][0]["point"] = "250"
    assert main(["solve", write_spec(tmp_path, doc), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["verified"] is True


# u'' - u = f with u(0) = 0 and u(1) + int_0^1 w u = 0 for an integrand w, or
# with a derivative of the given order at 0: x^n and the order are capped
def _capped_spec(integrand="1", order=0):
    return {
        "operator": {"coeffs": ["-1", "0", "1"]},
        "conditions": [
            {"local": [{"point": "0", "order": order, "coeff": "1"}]},
            {"local": [{"point": "1", "order": 0, "coeff": "1"}],
             "global": [{"lower": "0", "upper": "1", "integrand": integrand}]},
        ],
    }


@pytest.mark.parametrize("doc, cap", [
    (_capped_spec(integrand="x^51"), "MAX_POWER"),
    (_capped_spec(integrand="x^100000000000"), "MAX_POWER"),
    (_capped_spec(integrand="x^" + "9" * 5000), "MAX_POWER"),
    (_capped_spec(integrand="exp(x)^100000000"), "MAX_POWER"),
    (_capped_spec(integrand="(x^10)^6"), "MAX_POWER"),
    (_capped_spec(integrand="x^50*x"), "MAX_POWER"),
    (_capped_spec(order=41), "MAX_DERIVATIVE_ORDER"),
    (_capped_spec(order=10**12), "MAX_DERIVATIVE_ORDER"),
], ids=["power", "huge-power", "5000-digit-power", "exp-power", "nested-power", "product-degree", "order",
        "huge-order"])
def test_power_and_order_caps_exit_2(tmp_path, capsys, doc, cap):
    import time

    start = time.perf_counter()
    assert main(["solve", write_spec(tmp_path, doc)]) == 2
    assert time.perf_counter() - start < 1
    assert cap in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    _capped_spec(integrand="x^50"),
    _capped_spec(integrand="x^25*x^25"),
    _capped_spec(order=40),
], ids=["power", "product-degree", "order"])
def test_power_and_order_at_cap_solve(tmp_path, capsys, doc):
    import time

    from stieltjes.boundary import MAX_DERIVATIVE_ORDER
    from stieltjes.parsing import MAX_POWER

    assert (MAX_POWER, MAX_DERIVATIVE_ORDER) == (50, 40)
    start = time.perf_counter()
    assert main(["solve", write_spec(tmp_path, doc), "--format", "json"]) == 0
    assert time.perf_counter() - start < 2
    assert json.loads(capsys.readouterr().out)["report"]["verified"] is True


# u^(n) = f with u^(i)(0) = 0 for i < n - 1 and u(1) = 0: the cost grows
# steeply with the order n, which is capped
def _order_spec(n):
    return {
        "operator": {"coeffs": ["0"] * n + ["1"]},
        "conditions": [{"local": [{"point": "0", "order": i, "coeff": "1"}]} for i in range(n - 1)]
        + [{"local": [{"point": "1", "order": 0, "coeff": "1"}]}],
    }


@pytest.mark.parametrize("n", [11, 16])
def test_operator_order_over_the_cap_exit_2(tmp_path, capsys, n):
    import time

    start = time.perf_counter()
    assert main(["solve", write_spec(tmp_path, _order_spec(n)), "--no-verify"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert f"operator order {n} exceeds the cap MAX_OPERATOR_ORDER = 10" in err


def test_operator_order_at_the_cap_solves(tmp_path, capsys):
    import time

    from stieltjes.boundary import MAX_OPERATOR_ORDER

    assert MAX_OPERATOR_ORDER == 10
    start = time.perf_counter()
    assert main(["solve", write_spec(tmp_path, _order_spec(10)), "--format", "json"]) == 0
    assert time.perf_counter() - start < 6
    assert json.loads(capsys.readouterr().out)["report"]["verified"] is True


def test_integer_literal_over_the_digit_limit_exit_2(tmp_path, capsys):
    # int() refuses literals of over 4300 digits with a bare ValueError
    doc = _capped_spec(integrand="9" * 5000 + "*x")
    assert main(["solve", write_spec(tmp_path, doc), "--no-verify"]) == 2
    err = capsys.readouterr().err
    assert "integer literal too long (5000 digits)" in err
    assert "Traceback" not in err


def _far_point_spec(point):
    doc = json.loads(json.dumps(INTRO_SPEC))
    doc["conditions"][1]["local"][0]["point"] = point
    return doc


@pytest.mark.parametrize("argv, doc", [
    (["kernel", "-", "1e9999", "0"], INTRO_SPEC),
    (["solve", "-", "--basepoint", "1e9999"], INTRO_SPEC),
    (["solve", "-", "--interval", "1e-5000,1"], INTRO_SPEC),
    (["verify", "-"], _far_point_spec("1e9999")),
], ids=["kernel-point", "basepoint", "interval", "document-point"])
def test_rational_literal_over_the_digit_limit_exit_2(capsys, monkeypatch, argv, doc):
    # Fraction("1e9999") builds 10^9999, and printing it later raised
    # Python's int-to-str ValueError in a traceback
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rational literal '1e") and err.endswith(" has over 4300 digits\n")


def test_document_literals_read_alike_on_every_python(capsys, monkeypatch):
    # with coefficient "1_0" and point "1 / 2" this document exited 2 on '1_0'
    # under Python 3.10, exited 2 on '1 / 2' under 3.11 and verified under 3.13
    import io

    doc = json.loads(json.dumps(INTRO_SPEC))
    doc["conditions"][0]["local"][0]["coeff"] = "1_0"
    doc["conditions"][1]["local"][0]["point"] = "1 / 2"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["verify", "-"]) == 2
    assert capsys.readouterr().err == "error: bad rational literal '1_0'\n"
    doc["conditions"][0]["local"][0]["coeff"] = "10"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["verify", "-"]) == 0
    assert capsys.readouterr().out.endswith("verified: True\n")


@pytest.mark.parametrize("literal", ["9" * 5000, "a" * 3000], ids=["5000-nines", "3000-letters"])
def test_a_long_rational_literal_is_quoted_by_a_bounded_prefix(capsys, monkeypatch, literal):
    # both errors of parse_rational quote a bounded prefix and the length, not the literal
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(INTRO_SPEC)))
    assert main(["kernel", "-", literal, "0"]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 200
    assert err.startswith(f"error: bad rational literal {literal[:20]!r}...")
    assert f"({len(literal)} characters)" in err


# u^(10) = f with the ten characteristic roots -5..4, u^(i)(0) = 0 for i < 9
# and u(1) = 0: the Wronskian by one cofactor expansion per determinant took 45 s
def _roots_spec(roots):
    coeffs = [1]
    for r in roots:  # times (x - r)
        coeffs = ([-r * coeffs[0]] + [coeffs[i - 1] - r * coeffs[i] for i in range(1, len(coeffs))]
                  + [coeffs[-1]])
    doc = _order_spec(len(roots))
    doc["operator"]["coeffs"] = [str(c) for c in coeffs]
    return doc


def test_order_10_with_ten_exponentials_verifies(tmp_path, capsys):
    import time

    doc = _roots_spec(range(-5, 5))
    assert doc["operator"]["coeffs"][:3] == ["0", "2880", "576"]
    start = time.perf_counter()
    assert main(["verify", write_spec(tmp_path, doc), "--format", "json"]) == 0
    assert time.perf_counter() - start < 5
    assert json.loads(capsys.readouterr().out)["verified"] is True


@pytest.mark.parametrize("expr", ["1/0", "x/0", "x/(x-x)"])
@pytest.mark.parametrize("field", ["coeff", "integrand", "fundamental_system", "test_functions"])
def test_division_by_zero_exit_2(tmp_path, capsys, field, expr):
    # a bare ZeroDivisionError used to end solve in a traceback
    doc = json.loads(json.dumps(NONLOCAL_SPEC))
    options = []
    if field == "coeff":
        doc["operator"]["coeffs"][0] = expr
    elif field == "integrand":
        doc["conditions"][0]["global"][0]["integrand"] = expr
    elif field == "fundamental_system":
        doc["fundamental_system"] = ["exp(x)", expr]
    else:
        options = ["--test-functions", f"1,{expr}"]
    assert main(["solve", write_spec(tmp_path, doc), *options]) == 2
    err = capsys.readouterr().err
    assert err == "error: division by zero\n"


@pytest.mark.parametrize("text", [
    '{"operator": {"coeffs": [' + "9" * 5000 + ', "0", "1"]}, "conditions": []}',
    "[" * 100000 + "]" * 100000,
    b"\xff\xfe{}".decode("latin-1"),
], ids=["5000-digit-integer", "deep-nesting", "not-utf8"])
def test_unreadable_documents_exit_2(tmp_path, capsys, text):
    # Python's digit limit and recursion limit used to end in a traceback
    path = tmp_path / "problem.json"
    path.write_text(text, encoding="latin-1")
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read problem document: ")


ARABIC_ONE_SPEC = {
    "operator": {"coeffs": ["0", "0", "1"]},
    "conditions": [{"local": [{"point": "0", "order": 0, "coeff": "1"}]},
                   {"local": [{"point": "\u0661", "order": 0, "coeff": "1"}]}],
}


def _run_in_c_locale(args, stdin: bytes):
    """``python -m stieltjes *args`` in a fresh process under the C locale,
    without UTF-8 mode, the package found where this run found it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import stieltjes

    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join([str(Path(stieltjes.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "stieltjes", *args], input=stdin,
                          capture_output=True, env=env, timeout=60)


def test_stdin_reads_as_utf8_like_a_file(tmp_path):
    # the point "١" (Arabic-Indic one) verified from the file, but stdin was read in
    # the locale's encoding and failed with bad rational literal '\udcd9\udca1'
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(ARABIC_ONE_SPEC, ensure_ascii=False), encoding="utf-8")
    from_file = _run_in_c_locale(["verify", str(path)], b"")
    from_stdin = _run_in_c_locale(["verify", "-"], path.read_bytes())
    assert (from_stdin.returncode, from_stdin.stdout) == (from_file.returncode, from_file.stdout)
    assert from_file.returncode == 0
    assert from_file.stdout.endswith(b"verified: True\n")
    bad = _run_in_c_locale(["verify", "-"], b"\xff\xfe{}")
    assert bad.returncode == 2
    assert bad.stderr.startswith(b"error: cannot read problem document: ")


def test_huge_operator_coefficient_exit_4(tmp_path, capsys):
    # the divisor scan of a 40-digit coefficient never finished
    import time

    doc = json.loads(json.dumps(INTRO_SPEC))
    doc["operator"]["coeffs"][0] = "9" * 40
    start = time.perf_counter()
    assert main(["solve", write_spec(tmp_path, doc)]) == 4
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: the characteristic polynomial r^2 + " + "9" * 40 + " does not split over Q: "
        "fundamental system must be supplied\n")


def test_rejection_names_the_characteristic_polynomial(tmp_path, capsys):
    # u'' + u used to print only "fundamental system must be supplied"
    doc = dict(INTRO_SPEC, operator={"coeffs": ["1", "0", "1"]})
    assert main(["solve", write_spec(tmp_path, doc)]) == 4
    assert capsys.readouterr().err == ("error: the characteristic polynomial r^2 + 1 does not "
                                       "split over Q: fundamental system must be supplied\n")


def _six_roots_coeffs():
    """(r - 10^6)(r - 10^6 - 1) ... (r - 10^6 - 5), constant first."""
    poly = [1]
    for root in range(10**6, 10**6 + 6):
        poly = [0] + poly
        for i in range(len(poly) - 1):
            poly[i] -= root * poly[i + 1]
    return [str(c) for c in poly]


@pytest.mark.parametrize("coeffs", [
    ["-10000000000000", "1"],  # u' - 10^13 u
    ["1/10000000000000", "-10000000000001/10000000000000", "1"],
    _six_roots_coeffs(),
], ids=["R4", "tiny-and-one", "six-roots"])
def test_large_rational_roots_verify(tmp_path, capsys, coeffs):
    # the divisor scan refused these by its trial cap although every root is rational
    import time

    doc = {"operator": {"coeffs": coeffs},
           "conditions": [{"local": [{"point": "0", "order": k, "coeff": "1"}]}
                          for k in range(len(coeffs) - 1)]}
    start = time.perf_counter()
    assert main(["verify", write_spec(tmp_path, doc), "--interval", "0,1"]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out.endswith("verified: True\n")


def test_closed_stdout_exits_without_traceback():
    # print into a pipe whose reader has gone used to end in a BrokenPipeError traceback
    import subprocess
    import sys

    proc = subprocess.Popen([sys.executable, "-m", "stieltjes", "solve", "-"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    _out, err = proc.communicate(json.dumps(INTRO_SPEC))
    assert 1 <= proc.returncode <= 4
    assert "Traceback" not in err
    assert err == "error: standard output is closed\n"


@pytest.mark.parametrize("value", [",", "", " , "])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_test_functions_naming_no_function_exit_2(tmp_path, capsys, command, value):
    # "," used to verify nothing but agreement, "" to fall back to the defaults
    path = write_spec(tmp_path, INTRO_SPEC)
    assert main([command, path, "--test-functions", value]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --test-functions names no function\n"
    assert "verified" not in captured.out


def _integrand_frequency_spec(coeffs, first, frequency):
    return {
        "operator": {"coeffs": coeffs},
        "conditions": [
            {"local": first},
            {"local": [{"point": "1", "order": 0, "coeff": "1"}],
             "global": [{"lower": "0", "upper": "1", "integrand": f"exp({frequency}*x)+x"}]},
        ],
    }


@pytest.mark.parametrize("coeffs, first, frequency, seconds", [
    (["-1", "0", "1"], [{"point": "0", "order": 0, "coeff": "1"},
                        {"point": "1/2", "order": 0, "coeff": "1"}], 3000, 10),
    (["0", "0", "1"], [{"point": "0", "order": 0, "coeff": "1"}], 10000, 2),
], ids=["sinh-exp3000", "second-derivative-exp10000"])
def test_integrand_frequency_verifies_quickly(tmp_path, capsys, coeffs, first, frequency, seconds):
    # the integer pseudo-remainder gcd grew its coefficients on these for
    # minutes (the first) or about 9 s (the second)
    import time

    doc = _integrand_frequency_spec(coeffs, first, frequency)
    start = time.perf_counter()
    assert main(["verify", write_spec(tmp_path, doc), "--format", "json"]) == 0
    assert time.perf_counter() - start < seconds
    assert json.loads(capsys.readouterr().out)["verified"] is True


@pytest.mark.parametrize("doc, argv", [
    ({"operator": {"coeffs": ["0", "1/777777", "1"]},
      "conditions": INTRO_SPEC["conditions"]}, []),
    ({"operator": {"coeffs": ["-1", "0", "1"]},
      "conditions": [{"local": [{"point": "0", "order": 0, "coeff": "1"}]},
                     {"local": [{"point": "1", "order": 0, "coeff": "1"},
                                {"point": "100", "order": 0, "coeff": "1"}]}]},
     ["--test-functions", "exp(3000*x)"]),
], ids=["root-denominator-777777", "test-function-exp3000"])
def test_forcing_frequency_verifies_quickly(tmp_path, capsys, doc, argv):
    # applying G to the test functions built Constants on the grid 1/777777
    # (about 14 s) or of 300000 terms (about 5 s); the certificate never does
    import time

    start = time.perf_counter()
    assert main(["verify", write_spec(tmp_path, doc), "--format", "json", *argv]) == 0
    assert time.perf_counter() - start < 2
    assert json.loads(capsys.readouterr().out)["verified"] is True
