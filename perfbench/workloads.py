"""Seeded inputs and per-item correctness gates of the three workloads.

Every workload is a fixed pool of items built from a fixed draw seed:

* ``suite``: the 50 random regular problems of tier-1 criterion 4
  (``random.Random(2024)``), each solved and checked on 5 forcing functions;
* ``ring``: the 100 operator triples of tier-1 criterion 7
  (``random.Random(4096)``), each checked for associativity and for the
  action on ``1, x, e^x``;
* ``documents``: CLI commands on problem documents, run in-process through
  ``stieltjes.cli.main``: the three worked examples in every output format
  plus seeded many-point documents.

The generators below replay the random calls of ``tests/conftest.py`` one
for one, so the draws equal the tier-1 draws; ``check_tier1_draws`` proves it.
An item's gate returns True only when every exact check of the item holds.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

import stieltjes
from stieltjes import cli

SUITE_SEED = 2024
SUITE_SIZE = 50
RING_SEED = 4096
RING_SIZE = 100
DOCUMENT_SEED = 2024
DOCUMENT_COUNT = 12
# The worked-example commands take 3-300 ms against 0.4-9 s for a many-point
# document; running each three times per pass puts 24 samples, not 8, around
# the median latency, which would otherwise follow the noise of a few items.
WORKED_REPEATS = 3

# -- suite: random regular problems (criterion 4) ------------------------------

FORCING_FUNCTIONS = ("1", "x", "x^2", "exp(x)", "x*exp(-x)")
ROOT_POOL = [F(0), F(1), F(-1), F(2), F(-2)]
POINT_POOL = [F(-1), F(0), F(1, 2), F(1), F(2)]
COEFF_POOL = [F(1), F(-1), F(2), F(-2), F(1, 2), F(3)]
INTEGRAND_POOL = ["1", "x", "exp(x)"]


def random_monic_operator(rng: random.Random, order: int) -> stieltjes.Operator:
    """A monic constant-coefficient operator with rational roots."""
    Op, E = stieltjes.Operator, stieltjes.ExpPoly
    roots = [rng.choice(ROOT_POOL) for _ in range(order)]
    T = Op.identity()
    for r in roots:
        T = (Op.derivative(1) - Op.multiplication(E.const(r))) * T
    return T


def random_condition(rng: random.Random, points, order: int):
    local = []
    for _ in range(rng.randint(1, 2)):
        local.append((rng.choice(points), rng.randint(0, order + 1), rng.choice(COEFF_POOL)))
    glob = []
    if rng.random() < 0.4:
        a, b = sorted(rng.sample(points, 2))
        glob.append((a, b, stieltjes.parse_exppoly(rng.choice(INTEGRAND_POOL))))
    return stieltjes.StieltjesCondition(local, glob)


def is_regular(conditions, fs) -> bool:
    """The regularity filter: the evaluation matrix has a nonzero determinant."""
    matrix = stieltjes.evaluation_matrix(conditions, fs)
    return not stieltjes.linalg.mat_det(matrix).is_zero()


def random_regular_problem(rng: random.Random) -> stieltjes.BoundaryProblem:
    """Draw regular problems: order <= 3, 2..3 evaluation points."""
    while True:
        order = rng.randint(1, 3)
        points = rng.sample(POINT_POOL, rng.randint(2, 3))
        T = random_monic_operator(rng, order)
        conditions = [random_condition(rng, points, order) for _ in range(order)]
        problem = stieltjes.BoundaryProblem(T, conditions)
        if len(problem.evaluation_points()) < 2:
            continue
        if is_regular(conditions, problem.system()):
            return problem


def build_suite():
    forcing = [stieltjes.parse_exppoly(t) for t in FORCING_FUNCTIONS]
    rng = random.Random(SUITE_SEED)
    return [(random_regular_problem(rng), forcing) for _ in range(SUITE_SIZE)]


def run_suite_item(item) -> bool:
    """greens_operator -> to_equitable -> extract, then T(Gf) = f,
    beta_i(Gf) = 0 and apply_to(f) == G.apply(f) on every forcing function."""
    drawn, forcing = item
    # A fresh problem: the drawn one caches the fundamental system that the
    # regularity filter computed, and greens_operator would skip that stage.
    problem = stieltjes.BoundaryProblem(drawn.T, drawn.conditions)
    G = stieltjes.greens_operator(problem)
    g = stieltjes.extract(stieltjes.to_equitable(G))
    ok = True
    for f in forcing:
        u = G.apply(f)
        ok &= solves(problem, f, u)
        ok &= g.apply_to(f) == u
    return ok


def solves(problem, f, u) -> bool:
    """T(u) = f and beta_i(u) = 0: the check, not a stage of the solve; the
    tracer gives it a span of its own so that its ``T.apply`` stays out of
    the ``G.apply`` stage."""
    ok = problem.T.apply(u) == f
    return ok & all(cond.apply(u).is_zero() for cond in problem.conditions)


# -- ring: operator triples (criterion 7) --------------------------------------

OPERATOR_COEFF_POOL = ("1", "x", "2", "exp(x)", "-x", "1/2*x", "x*exp(-x)")
OPERATOR_POINT_POOL = [F(0), F(1), F(-1), F(1, 2)]


def random_operator(rng: random.Random) -> stieltjes.Operator:
    """Small random ring element mixing all four term kinds."""
    Op, parse = stieltjes.Operator, stieltjes.parse_exppoly
    out = Op.zero()
    for _ in range(rng.randint(0, 2)):
        out = out + Op.derivative(rng.randint(0, 2), parse(rng.choice(OPERATOR_COEFF_POOL)))
    for _ in range(rng.randint(0, 2)):
        out = out + Op.integral(rng.choice(OPERATOR_POINT_POOL),
                                parse(rng.choice(OPERATOR_COEFF_POOL)),
                                parse(rng.choice(OPERATOR_COEFF_POOL)))
    for _ in range(rng.randint(0, 2)):
        out = out + Op.evaluation(rng.choice(OPERATOR_POINT_POOL), rng.randint(0, 2),
                                  parse(rng.choice(OPERATOR_COEFF_POOL)))
    if rng.random() < 0.5:
        out = out + Op.global_term(rng.choice(OPERATOR_POINT_POOL),
                                   rng.choice(OPERATOR_POINT_POOL),
                                   parse(rng.choice(OPERATOR_COEFF_POOL)),
                                   parse(rng.choice(OPERATOR_COEFF_POOL)))
    return out


def build_ring():
    E = stieltjes.ExpPoly
    tests = (E.one(), E.x(), E.exponential(1))
    rng = random.Random(RING_SEED)
    return [(tuple(random_operator(rng) for _ in range(3)), tests) for _ in range(RING_SIZE)]


def run_ring_item(item) -> bool:
    """(uv)w == u(vw) and (uv)h == u(vh) for h in {1, x, e^x}."""
    (u, v, w), tests = item
    uv = stieltjes.op_mul(u, v)
    ok = stieltjes.op_mul(uv, w) == stieltjes.op_mul(u, stieltjes.op_mul(v, w))
    for h in tests:
        ok &= stieltjes.apply(uv, h) == stieltjes.apply(u, stieltjes.apply(v, h))
    return ok


# -- documents: CLI commands --------------------------------------------------

WORKED_EXAMPLES = {
    # u'' = f, u(0) = u(1) = 0
    "intro": ({"operator": {"coeffs": ["0", "0", "1"]},
               "conditions": [{"local": [{"point": "0", "order": 0, "coeff": "1"}]},
                              {"local": [{"point": "1", "order": 0, "coeff": "1"}]}]},
              ("0", "1")),
    # u'' = f, u(0) + u(1/3) = 0, u(1) + u(2/3) = 0
    "four-point": ({"operator": {"coeffs": ["0", "0", "1"]},
                    "conditions": [
                        {"local": [{"point": "0", "order": 0, "coeff": "1"},
                                   {"point": "1/3", "order": 0, "coeff": "1"}]},
                        {"local": [{"point": "1", "order": 0, "coeff": "1"},
                                   {"point": "2/3", "order": 0, "coeff": "1"}]}]},
                   ("0", "1")),
    # u'' - u = f, u'''(-1) = int_0^1 t u(t) dt, u'(-1) - u''(1) + int_-1^1 u = 0
    "nonlocal": ({"operator": {"coeffs": ["-1", "0", "1"]},
                  "conditions": [
                      {"local": [{"point": "-1", "order": 3, "coeff": "1"}],
                       "global": [{"lower": "0", "upper": "1", "integrand": "-x"}]},
                      {"local": [{"point": "-1", "order": 1, "coeff": "1"},
                                 {"point": "1", "order": 2, "coeff": "-1"}],
                       "global": [{"lower": "-1", "upper": "1", "integrand": "1"}]}]},
                 ("-1", "1")),
}

DOC_POINT_POOL = [F(-1), F(-1, 2), F(0), F(1, 3), F(1, 2), F(1), F(2)]
DOC_ORDER = 2


@dataclass(frozen=True)
class Command:
    """One CLI invocation: argv with the document read from stdin."""

    label: str
    argv: tuple[str, ...]
    document: str
    expected: str | None = None   # recorded stdout, for the worked examples


def worked_commands() -> list[Command]:
    out = []
    for name, (doc, (a, b)) in WORKED_EXAMPLES.items():
        text = json.dumps(doc)
        for fmt in ("text", "json", "latex"):
            out.append(Command(f"{name} solve {fmt}", ("solve", "-", "--format", fmt), text))
        out.append(Command(f"{name} verify", ("verify", "-"), text))
        out.append(Command(f"{name} kernel", ("kernel", "-", a, b), text))
    return out


def _coeffs_from_roots(roots) -> list[str]:
    """Coefficients, lowest order first, of prod (D - r)."""
    coeffs = [F(1)]
    for r in roots:
        shifted = [F(0)] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= r * c
        coeffs = shifted
    return [str(c) for c in coeffs]


def random_many_point_document(rng: random.Random) -> dict:
    """Order 2 with 4-5 evaluation points, every point used by a local term,
    derivative orders up to n+1 and integral terms half of the time."""
    points = rng.sample(DOC_POINT_POOL, rng.randint(4, 5))
    roots = [rng.choice(ROOT_POOL) for _ in range(DOC_ORDER)]
    conditions = []
    for group in (points[0::2], points[1::2]):
        local = [{"point": str(p), "order": rng.randint(0, DOC_ORDER + 1),
                  "coeff": str(rng.choice(COEFF_POOL))} for p in group]
        glob = []
        if rng.random() < 0.5:
            a, b = sorted(rng.sample(points, 2))
            glob.append({"lower": str(a), "upper": str(b),
                         "integrand": rng.choice(INTEGRAND_POOL)})
        conditions.append({"local": local, "global": glob})
    return {"operator": {"coeffs": _coeffs_from_roots(roots)}, "conditions": conditions}


def many_point_commands() -> list[Command]:
    rng = random.Random(DOCUMENT_SEED)
    out = []
    while len(out) < DOCUMENT_COUNT:
        doc = random_many_point_document(rng)
        problem = cli.parse_problem(doc)
        if not is_regular(problem.conditions, problem.system()):
            continue
        out.append(Command(f"many-point {len(out)} solve json",
                           ("solve", "-", "--format", "json"), json.dumps(doc)))
    return out


def expected_path() -> Path:
    return Path(__file__).resolve().parent / "expected_stdout.json"


def build_documents() -> list[Command]:
    expected = json.loads(expected_path().read_text(encoding="utf-8"))
    worked = [Command(c.label, c.argv, c.document, expected[c.label])
              for c in worked_commands()]
    return worked * WORKED_REPEATS + many_point_commands()


def run_command(command: Command) -> tuple[int, str]:
    """Run ``stieltjes.cli.main`` in-process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(command.document)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(command.argv))
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue()


def document_ok(command: Command, code: int, stdout: str) -> bool:
    """Exit code 0 and a verified report; worked examples byte-identical."""
    if code != 0:
        return False
    if command.expected is not None:
        return stdout == command.expected
    return json.loads(stdout)["report"]["verified"] is True


# -- registry -----------------------------------------------------------------


def build(name: str) -> list:
    return BUILDERS[name]()


BUILDERS = {"suite": build_suite, "ring": build_ring, "documents": build_documents}
SEEDS = {"suite": SUITE_SEED, "ring": RING_SEED, "documents": DOCUMENT_SEED}


def load_conftest(root: Path):
    """Import ``tests/conftest.py`` as a plain module, or None if absent."""
    path = root / "tests" / "conftest.py"
    if not path.is_file():
        return None
    spec = importlib.util.spec_from_file_location("_tier1_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_tier1_draws(name: str, items, root: Path) -> bool | None:
    """True when the pool equals the tier-1 draw of ``tests/conftest.py``,
    None when there is nothing to compare (no such draw or no such file)."""
    if name not in ("suite", "ring"):
        return None
    conftest = load_conftest(root)
    if conftest is None:
        return None
    rng = random.Random(SEEDS[name])
    if name == "suite":
        theirs = [conftest.random_regular_problem(rng) for _ in range(SUITE_SIZE)]
        return all(p.T == q.T and p.conditions == q.conditions
                   for (p, _f), q in zip(items, theirs, strict=True))
    theirs = [tuple(conftest.random_operator(rng) for _ in range(3)) for _ in range(RING_SIZE)]
    return all(mine == other for (mine, _t), other in zip(items, theirs, strict=True))
