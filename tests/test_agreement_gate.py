"""The kernel/operator agreement gate of ``solve`` and ``verify``: a wrong
kernel fails it with exit 1 and a report, never a traceback, and the gate is
the identity ``gf.to_operator() == Geq``, not ``apply_to`` on test functions."""

import json

import pytest

from test_cli import NONLOCAL_SPEC  # integral and dirac terms, two cells

from stieltjes import ExpPoly, GreensFunction, Operator, cli, extract
from stieltjes.greens import REGION_LOWER, REGION_UPPER


def drop_integral_term(op: Operator, interval=None) -> GreensFunction:
    a, left, right = op.integral_part[0]
    return extract(op - Operator.integral(a, left, right), interval)


def branches_of(gf: GreensFunction) -> dict:
    return {(i, region): gf.branch(i, region) for i in range(1, gf.interval_count + 1)
            for region in (REGION_LOWER, REGION_UPPER)}


def negate_upper_branch(op: Operator, interval=None) -> GreensFunction:
    gf = extract(op, interval)
    branches = branches_of(gf)
    assert not branches[(1, REGION_UPPER)].is_zero()
    branches[(1, REGION_UPPER)] = -branches[(1, REGION_UPPER)]
    return GreensFunction(gf.breakpoints, branches, gf.dirac, gf.diagonal)


def drop_dirac_term(op: Operator, interval=None) -> GreensFunction:
    gf = extract(op, interval)
    assert gf.dirac
    return GreensFunction(gf.breakpoints, branches_of(gf), gf.dirac[1:], gf.diagonal)


WRONG_KERNELS = [drop_integral_term, negate_upper_branch, drop_dirac_term]


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "nonlocal.json"
    path.write_text(json.dumps(NONLOCAL_SPEC))
    return str(path)


@pytest.mark.parametrize("wrong", WRONG_KERNELS, ids=lambda f: f.__name__)
def test_verify_reports_a_wrong_kernel(monkeypatch, capsys, spec_path, wrong):
    monkeypatch.setattr(cli, "extract", wrong)
    assert cli.main(["verify", spec_path]) == 1
    out, err = capsys.readouterr()
    assert "operator/function agreement: False" in out
    assert "verified: False" in out
    # the residuals come from G, which the wrong kernel leaves alone
    assert all(line.endswith(": 0") for line in out.splitlines()
               if line.startswith(("T(G f)", "condition")))
    assert "Traceback" not in err


@pytest.mark.parametrize("wrong", WRONG_KERNELS, ids=lambda f: f.__name__)
def test_solve_refuses_a_wrong_kernel(monkeypatch, capsys, spec_path, wrong):
    monkeypatch.setattr(cli, "extract", wrong)
    assert cli.main(["solve", spec_path, "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "refusing to print the result" in err
    assert "operator/function agreement: False" in err
    assert "Traceback" not in err


def test_verification_never_applies_the_kernel(monkeypatch, capsys, spec_path):
    calls = []
    apply_to = GreensFunction.apply_to

    def counted(self, f):
        calls.append(1)
        return apply_to(self, f)

    monkeypatch.setattr(GreensFunction, "apply_to", counted)
    assert cli.main(["verify", spec_path]) == 0
    assert cli.main(["solve", spec_path, "--interval=-2,3"]) == 0
    assert "operator/function agreement: True" in capsys.readouterr().out
    assert not calls
    _G, _Geq, gf = cli.solve_problem(cli.parse_problem(NONLOCAL_SPEC))
    gf.apply_to(ExpPoly.one())  # the counter does count
    assert calls
