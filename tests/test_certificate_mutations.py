"""What ``boundary.certify`` catches, pinned by mutation rows.

Each row installs, by ``monkeypatch``, a copy of one function or method of
the package whose source has one snippet replaced.  Under the row, each of
the 15 ``documents`` problems (the three worked examples and the 12
many-point benchmark documents) is solved, ``greens_operator(...)`` taken to
equitable form as ``solve_problem`` does, and certified.  The certificate
runs under the mutation too, so a bug that the solve and the certificate
share would show as a wrong ``Geq`` that certifies.  A row passes when every
``Geq`` that the mutation changes is refuted: ``certify`` returns False, or
the solve or the certificate raises a ``SolverError`` (exit 1-4 through the
CLI).  A row may also make ``certify`` refute a correct ``Geq``, which is
safe.

Rows that change no problem's ``Geq``, and why:

- the two ``projector`` rows: the solve builds G in closed form and the
  certificate composes each ``beta_i`` with ``T_inv``, so neither calls
  ``projector``, which stays public API;
- the rows of ``_evaluation_after``, ``_integral_after`` and ``_diff_after``:
  these rewrites run only in operator products, and the solve takes none.
  The certificate's products ``beta_i * T_inv`` run through them, so each
  of these rows makes ``certify`` refute the correct ``Geq`` of 11 or 15
  problems, except ``int_a q d^j`` negated, a rule that never fires because
  ``T_inv`` has no differential part;
- every cofactor negated: ``r_j = cof_j / d`` is unchanged, and so is
  ``M^-1 = adj M / det M``.

The cofactor rows patch ``linalg._last_row_cofactors``, which the Wronskian
and ``mat_inv`` both look up there.  The two ``mat_inv`` rows patch the name
``boundary.mat_inv`` that the solve calls; ``certify`` checks ``M M^-1 = I``
through ``mat_vec``, not through the inverse.

The two ``_standard`` rows patch the name ``boundary._standard`` that
``greens_operator`` calls to move G to standard form; ``certify`` compares
equitable forms and never calls it.  Each changes the ``Geq`` of the 8
problems with an integral condition whose lower limit is not the basepoint.

With the last comparison of ``certify`` replaced by ``return True``, the
rows of the closed form fail this module: the two ``_standard`` rows,
``_row``, ``fri_derivative``, the by-parts term and the two
``greens_operator`` rows.
"""

from __future__ import annotations

import __future__

import inspect
import sys
import textwrap

import pytest

from test_certificate import document_problems  # the 15 `documents` problems

from stieltjes import boundary, linalg, operators
from stieltjes.boundary import BoundaryProblem, FundamentalSystem
from stieltjes.errors import SolverError
from stieltjes.operators import Operator

# (label, owner, function name, snippet, replacement)
ROWS = [
    ("projector skips its last condition", boundary, "projector",
     "for i, cond in enumerate(conditions))", "for i, cond in enumerate(conditions[:-1]))"),
    ("projector reads minv[i][j]", boundary, "projector", "minv[j][i]", "minv[i][j]"),
    ("to_standard swaps the basepoint", boundary, "_standard",
     "glob_e, (a, e, m)", "glob_e, (e, a, m)"),
    ("standard form drops -f <a> int_e m", boundary, "_standard",
     "_extend(glob_e, (a, e, m), _derived(pairs, 0, -1))", "pass"),
    ("_evaluation_after keeps the sign of -int_p", operators, "_evaluation_after",
     "_extend(integ, (p, m), _derived(values, 0, -1))", "_extend(integ, (p, m), values)"),
    ("_evaluation_after drops <p>*int_a", operators, "_evaluation_after",
     "if a != p:", "if False:"),
    ("_integral_after negates int_a q int_b", operators, "_integral_after",
     "integral(_derived(_shift(F, m2), 0, -1))", "integral(_shift(F, m2))"),
    ("_integral_after negates int_a q d^j", operators, "_integral_after",
     "integral(_derived(q, j, (-1) ** j))", "integral(_derived(q, j, -(-1) ** j))"),
    ("_diff_after negates d*int", operators, "_diff_after",
     "_shift(_derived(g, r), m)", "_shift(_derived(g, r, -1), m)"),
    ("one cofactor negated", linalg, "_last_row_cofactors",
     "n - 1 + j)", "n - 1 + j + (j == 0))"),
    ("every cofactor negated", linalg, "_last_row_cofactors", "n - 1 + j)", "n + j)"),
    ("adjugate not transposed", boundary, "mat_inv", "cofactors[i][j]", "cofactors[j][i]"),
    ("row rotation sign dropped", boundary, "mat_inv", "_signed(c, n - 1 - i)", "c"),
    ("_row derives once too often", FundamentalSystem, "_row",
     "f.derive(k - last)", "f.derive(k - last + 1)"),
    ("fri_residues shifted by one row", boundary, "fri_residues", "fs._row(j)", "fs._row(j + 1)"),
    ("stored quotients doubled", FundamentalSystem, "__init__",
     "cof * inv for", "cof * inv * 2 for"),
    ("fri_derivative without its rho terms", boundary, "fri_derivative",
     "enumerate(residues, start=1)", "enumerate(residues[:0], start=1)"),
    ("by-parts term negated", boundary, "_psi", "_products(-r, W)", "_products(r, W)"),
    ("greens_operator skips its last condition", boundary, "greens_operator",
     "enumerate(problem.conditions)", "enumerate(problem.conditions[:-1])"),
    ("greens_operator reads minv[i][j]", boundary, "greens_operator", "minv[j][i]", "minv[i][j]"),
]


def install(monkeypatch, owner, name: str, snippet: str, replacement: str) -> None:
    """Replace ``owner.<name>`` by a copy compiled from its source with the
    one occurrence of ``snippet`` replaced, in the globals of its module."""
    function = owner.__dict__[name]
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(snippet) == 1, f"{name} has no single {snippet!r}"
    code = compile(source.replace(snippet, replacement), inspect.getsourcefile(function), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace: dict = {}
    exec(code, sys.modules[function.__module__].__dict__, namespace)
    monkeypatch.setattr(owner, name, namespace[name])


def solve_and_certify(problem) -> tuple[Operator | None, bool]:
    """The ``Geq`` of a fresh copy of ``problem`` and whether it certifies;
    (None, False) when the solve or the certificate raises."""
    fresh = BoundaryProblem(problem.T, problem.conditions)
    try:
        Geq = boundary.greens_operator(fresh).to_equitable()
        return Geq, boundary.certify(fresh, Geq)
    except SolverError:
        return None, False


@pytest.fixture(scope="module")
def solved():
    """The 15 problems with the ``Geq`` of the unmutated solve."""
    return [(problem, solve_and_certify(problem)[0]) for problem in document_problems()]


def test_the_unmutated_solve_certifies(solved):
    assert len(solved) == 15
    for problem, Geq in solved:
        assert Geq is not None
        assert boundary.certify(BoundaryProblem(problem.T, problem.conditions), Geq)


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_certify_refutes_every_output_the_mutation_changes(monkeypatch, solved, row):
    _label, *mutation = row
    install(monkeypatch, *mutation)
    outcomes = [(Geq, *solve_and_certify(problem)) for problem, Geq in solved]
    certified_wrong = [k for k, (Geq, mutated, certified) in enumerate(outcomes)
                       if certified and mutated != Geq]
    # equivalently: every problem whose Geq the row changes is refuted
    assert certified_wrong == []
