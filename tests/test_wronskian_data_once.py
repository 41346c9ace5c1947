"""The Wronskian data of a fundamental system are computed once: the rows
``u_j^(i)``, i < n, and the quotients ``r_j = cof_j / d`` are kept by
``FundamentalSystem``, and ``greens_operator`` takes the residues
``rho_1..rho_l`` once, for the largest order l, and derives the closed form
of ``<p> d^l T_inv`` once per distinct order l and for T_inv itself, counted
like the counters of ``test_one_antiderivative.py``."""

from test_certificate import document_problems  # the 15 `documents` problems

from stieltjes import ExpPoly, FundamentalSystem, boundary
from stieltjes.boundary import fri_residues, greens_operator
from stieltjes.parsing import parse_exppoly


def counter(monkeypatch, owner, name):
    """Record the arguments of every call of ``owner.<name>``."""
    calls = []
    function = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_greens_operator_derives_each_order_once_and_never_inverts_d(monkeypatch):
    problems = document_problems()
    orders = [sorted(l for cond in problem.conditions for _p, l, _c in cond.local_terms)
              for problem in problems]
    # the documents repeat local orders, so one closed form per term would be more
    assert sum(map(len, orders)) > sum(len(set(o)) for o in orders)
    for problem in problems:
        problem.system()  # built once, with the one inverse of d
    closed = counter(monkeypatch, boundary, "_fri_closed")
    residues = counter(monkeypatch, boundary, "fri_residues")
    inverses = counter(monkeypatch, boundary, "_monomial_inverse")
    for problem, local_orders in zip(problems, orders):
        closed.clear()
        residues.clear()
        greens_operator(problem)
        # T_inv is the closed form of order 0
        assert sorted(k for _fs, k, _e, _rho in closed) == sorted(set(local_orders) | {0})
        assert [k for _fs, k in residues] == [max(local_orders)]
    assert inverses == []


def test_ratios_are_built_once_and_rows_are_the_derivatives():
    u = [parse_exppoly(text) for text in ("exp(2*x)", "x*exp(2*x)", "exp(-x)")]
    fs = FundamentalSystem(u)
    n = fs.size
    assert fs.ratios() is fs.ratios()
    assert [r * fs.d for r in fs.ratios()] == list(fs.cofactors)
    for k in range(n + 3):
        assert fs._row(k) == tuple(uj.derive(k) for uj in u)
    # rows of order n and above are derived on request and not kept
    assert fs._row(n + 1) is not fs._row(n + 1)
    assert fri_residues(fs, n + 2)[:n] == [ExpPoly.zero()] * (n - 1) + [ExpPoly.one()]

