"""Command-line front end: solve, verify and kernel subcommands.

Problem documents are JSON::

    {"operator": {"coeffs": ["0", "0", "1"]},          # from order 0 upward
     "conditions": [{"local": [{"point": "0", "order": 0, "coeff": "1"}],
                     "global": [{"lower": "0", "upper": "1", "integrand": "x"}]}],
     "fundamental_system": ["exp(x)", "exp(-x)"]}      # optional

Exit codes: 0 success, 1 failed verification or a closed stdout, 2 malformed
input (a field not shown above too), 3 irregular problem, 4 unsupported
operator (no computable fundamental system, a supplied function with
T u != 0, or a bad Wronskian).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from functools import cache

from .boundary import (
    MAX_OPERATOR_ORDER,
    BoundaryProblem,
    StieltjesCondition,
    certify,
    check_exponent_spread,
    greens_operator,
    kernel_relations,
)
from .constants import Constant, _document
from .errors import (
    DegenerateDomainError,
    FundamentalSystemError,
    NotRegularError,
    ParseError,
    VerificationError,
    WronskianError,
)
from .exppoly import ExpPoly
from .greens import GreensFunction, extract
from .operators import Operator
from .parsing import _decode, _fields, _list, parse_exppoly, parse_rational

DEFAULT_TEST_FUNCTIONS = ("1", "x", "x^2", "exp(x)", "x*exp(-x)")


@dataclass
class VerificationReport:
    """Residuals of the defining properties on test functions (0 when
    ``boundary.certify`` holds) and whether ``kernel`` agrees with G; the
    kernel's own facts are read off it.  Only a regular problem has one."""

    kernel: GreensFunction
    test_functions: list[str] = field(default_factory=list)
    operator_residuals: dict = field(default_factory=dict)   # f -> T(Gf) - f
    condition_residuals: dict = field(default_factory=dict)  # f -> [beta_i(Gf)]
    agreement: bool = True

    def all_zero(self) -> bool:
        return (self.agreement
                and all(r == "0" for r in self.operator_residuals.values())
                and all(all(r == "0" for r in rs)
                        for rs in self.condition_residuals.values()))

    def to_json_dict(self) -> dict:
        return {
            "regular": True,
            "test_functions": self.test_functions,
            "operator_residuals": self.operator_residuals,
            "condition_residuals": self.condition_residuals,
            "operator_function_agreement": self.agreement,
            "branch_count": self.kernel.branch_count,
            "breakpoints": [str(p) for p in self.kernel.breakpoints],
            "dirac_terms": [f"order {i} at {p}: {c.to_text()}" for p, i, c in self.kernel.dirac],
            "diagonal_terms": [f"order {i}: {c.to_text()}" for i, c in self.kernel.diagonal],
            "verified": self.all_zero(),
        }

    def to_text(self) -> str:
        doc = self.to_json_dict()
        lines = [f"regular: {doc['regular']}"]
        for f in doc["test_functions"]:
            lines.append(f"T(G f) - f for f = {f}: {doc['operator_residuals'][f]}")
            for i, r in enumerate(doc["condition_residuals"][f], start=1):
                lines.append(f"condition {i} of G f for f = {f}: {r}")
        lines.append(f"operator/function agreement: {doc['operator_function_agreement']}")
        lines.append(f"branch count: {doc['branch_count']}")
        lines.append(f"breakpoints: {', '.join(doc['breakpoints'])}")
        lines.append("distributional part: " + ("; ".join(doc["dirac_terms"]) or "none"))
        lines.append(f"verified: {doc['verified']}")
        return "\n".join(lines)


def parse_problem(data: dict) -> BoundaryProblem:
    doc = "problem document"
    _fields(data, doc, ("operator", "conditions"), ("fundamental_system",))
    coeff_strings = _list(_fields(data["operator"], "operator", ("coeffs",)), "operator", "coeffs")
    if not coeff_strings:
        raise ParseError("operator field 'coeffs' must be a nonempty list")
    if len(coeff_strings) - 1 > MAX_OPERATOR_ORDER:
        raise ParseError(f"operator order {len(coeff_strings) - 1} exceeds the cap "
                         f"MAX_OPERATOR_ORDER = {MAX_OPERATOR_ORDER}")
    coeffs = [parse_exppoly(s) for s in coeff_strings]
    if coeffs[-1] != ExpPoly.one():
        raise ParseError("leading coefficient must be 1")
    T = Operator.sum(Operator.derivative(i, c) for i, c in enumerate(coeffs))
    conditions = [StieltjesCondition.from_json(c) for c in _list(data, doc, "conditions")]
    basis = None
    if "fundamental_system" in data:
        basis = [parse_exppoly(s) for s in _list(data, doc, "fundamental_system")]
    try:
        return BoundaryProblem(T, conditions, basis=basis)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def solve_problem(problem: BoundaryProblem, basepoint=None, interval=None):
    """Run the full pipeline: Green's operator, equitable form, extraction."""
    G = greens_operator(problem, basepoint=basepoint)
    Geq = G.to_equitable()
    gf = extract(Geq, interval=interval)
    return G, Geq, gf


def _solve(problem: BoundaryProblem, basepoint, interval, verify: bool):
    """``solve_problem``, except that under verification a G with fewer than
    two breakpoints is certified before the domain is blamed: a G that
    ``certify`` refutes is a failed verification (exit 1), not a domain that
    needs an explicit interval (exit 2)."""
    try:
        return solve_problem(problem, basepoint, interval)
    except DegenerateDomainError as exc:
        if verify and not certify(problem, greens_operator(problem, basepoint).to_equitable()):
            raise VerificationError(
                f"verification failed: the certificates refute G ({exc})") from exc
        raise


def verify_problem(problem: BoundaryProblem, G: Operator, Geq: Operator,
                   gf: GreensFunction, test_functions) -> VerificationReport:
    """Residuals on the (text, parsed function) pairs of ``test_functions``,
    each 0 when ``certify(problem, Geq)`` holds; kernel/operator agreement is
    the identity ``gf.to_operator() == Geq``."""
    report = VerificationReport(gf, test_functions=[text for text, _f in test_functions])
    try:
        report.agreement = gf.to_operator() == Geq
    except ValueError:
        report.agreement = False
    certified = certify(problem, Geq)
    for text, f in test_functions:
        if certified:  # each residual is the zero operator applied to f
            report.operator_residuals[text] = "0"
            report.condition_residuals[text] = ["0"] * len(problem.conditions)
            continue
        u = G.apply(f)
        report.operator_residuals[text] = (problem.T.apply(u) - f).to_text()
        report.condition_residuals[text] = [
            ExpPoly.const(cond.apply(u)).to_text() for cond in problem.conditions
        ]
    return report


def _matrix_text(matrix) -> str:
    return "\n".join(
        "[" + ", ".join(entry.to_text() for entry in row) + "]" for row in matrix
    )


def _read_spec(path: str) -> dict:
    try:
        if path == "-":  # UTF-8 as from a file, whatever the locale; a StringIO has no buffer
            buffer = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if buffer is None else buffer.read().decode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, ValueError) as exc:  # also bad UTF-8 and a NUL byte in the path
        raise ParseError(f"cannot read problem document: {exc}") from exc
    return _decode(text, "problem document")


def _spec_from_args(args):
    """The problem of ``args.spec``, its (text, parsed) forcing functions, and
    the basepoint and interval options."""
    data = _read_spec(args.spec)
    problem = parse_problem(data)
    basepoint = parse_rational(args.basepoint) if args.basepoint is not None else None
    interval = None
    if args.interval is not None:
        pieces = args.interval.split(",")
        if len(pieces) != 2:
            raise ParseError("interval must be given as a,b")
        interval = (parse_rational(pieces[0]), parse_rational(pieces[1]))
        if interval[0] >= interval[1]:
            raise ParseError("interval must satisfy a < b")
    texts = DEFAULT_TEST_FUNCTIONS
    if args.test_functions is not None:
        texts = tuple(s.strip() for s in args.test_functions.split(",") if s.strip())
        if not texts:
            raise ParseError("--test-functions names no function")
        if repeated := [text for i, text in enumerate(texts) if text in texts[:i]]:
            raise ParseError(f"--test-functions names {repeated[0]!r} twice")
    test_functions = tuple((text, parse_exppoly(text)) for text in texts)
    extra = [basepoint] if basepoint is not None else []
    check_exponent_spread(problem.system(), problem.evaluation_points().union(extra))
    return problem, test_functions, basepoint, interval


def _cmd_solve(args) -> int:
    problem, test_functions, basepoint, interval = _spec_from_args(args)
    G, Geq, gf = _solve(problem, basepoint, interval, verify=not args.no_verify)
    report = None
    if not args.no_verify:
        report = verify_problem(problem, G, Geq, gf, test_functions)
        if not report.all_zero():
            print("verification failed; refusing to print the result", file=sys.stderr)
            print(report.to_text(), file=sys.stderr)
            return 1
    if args.format == "json":
        doc = {
            "operator": G.to_json(),
            "equitable_operator": Geq.to_json(),
            "greens_function": gf.to_json_dict(),
        }
        if report is not None:
            doc["report"] = report.to_json_dict()
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 0
    sections = [("Green's operator", G), ("equitable form", Geq), ("Green's function", gf)]
    if args.format == "latex":
        for title, value in sections:
            print(f"% {title}\n{value.to_latex()}")
        return 0
    if report is not None:
        sections.append(("verification", report))
    for title, value in sections:
        print(f"{title}:")
        for line in value.to_text().splitlines():
            print("  " + line)
    return 0


def _cmd_verify(args) -> int:
    problem, test_functions, basepoint, interval = _spec_from_args(args)
    G, Geq, gf = _solve(problem, basepoint, interval, verify=True)
    report = verify_problem(problem, G, Geq, gf, test_functions)
    print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2) if args.format == "json"
          else report.to_text())
    return 0 if report.all_zero() else 1


def _relation_text(vector, points, n) -> str:
    """Render a kernel vector as a relation between boundary values."""
    def functional(k: int) -> str:
        point, order = points[k // n], k % n
        primes = "'" * order if order <= 3 else f"^({order})"
        return f"u{primes}({point})"

    positive, negative = [], []
    for k, c in enumerate(vector):
        if c.is_zero():
            continue
        target, value = (positive, c) if _is_positive(c) else (negative, -c)
        text = functional(k)
        if not value.is_one():
            text = f"({value.to_text()})*{text}"
        target.append(text)
    left = " + ".join(positive) if positive else "0"
    right = " + ".join(negative) if negative else "0"
    return f"{left} = {right}"


def _is_positive(c: Constant) -> bool:
    q = c.as_rational()
    if q is not None:
        return q > 0
    mono = c.as_monomial()
    if mono is not None:
        return mono[1] > 0
    return True


def _cmd_kernel(args) -> int:
    data = _read_spec(args.spec)
    problem = parse_problem(data)
    a = parse_rational(args.a)
    b = parse_rational(args.b)
    fs = problem.system()
    matrix, basis = kernel_relations(fs, a, b)
    n = fs.size
    if args.format == "json":
        doc = {
            "matrix": [[entry.to_text() for entry in row] for row in matrix],
            "kernel_basis": [[entry.to_text() for entry in vec] for vec in basis],
            "relations": [_relation_text(vec, (a, b), n) for vec in basis],
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print("extended evaluation matrix:")
        print(_matrix_text(matrix))
        print("relations:")
        for vec in basis:
            print("  " + _relation_text(vec, (a, b), n))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: ``parse_args`` keeps
    no state in it between calls."""
    parser = argparse.ArgumentParser(
        prog="stieltjes",
        description="Exact Green's operators and Green's functions for "
                    "Stieltjes boundary problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="problem JSON path, or - for stdin")
        p.add_argument("--basepoint", help="integral basepoint override (rational)")
        p.add_argument("--interval", help="explicit domain a,b added to the breakpoints")
        p.add_argument("--test-functions", dest="test_functions",
                       help="comma-separated forcing functions used for verification")

    solve = sub.add_parser("solve", help="compute operator, equitable form and kernel")
    common(solve)
    solve.add_argument("--format", choices=("text", "json", "latex"), default="text")
    solve.add_argument("--no-verify", dest="no_verify", action="store_true",
                       help="skip the verification pass")
    verify = sub.add_parser("verify", help="report defining-property residuals")
    common(verify)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    kernel = sub.add_parser("kernel", help="extended evaluation matrix relations")
    kernel.add_argument("spec", help="problem JSON path, or - for stdin")
    kernel.add_argument("a", help="first evaluation point")
    kernel.add_argument("b", help="second evaluation point")
    kernel.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"solve": _cmd_solve, "verify": _cmd_verify, "kernel": _cmd_kernel}
    try:
        with _document():  # one output document: each polynomial rendered once
            code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the "Note on SIGPIPE" of the signal module docs: stdout goes to
        # devnull, so that the flush at exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output is closed", file=sys.stderr)
        return 1
    except (ParseError, DegenerateDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotRegularError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.matrix is not None:
            print("evaluation matrix:", file=sys.stderr)
            print(_matrix_text(exc.matrix), file=sys.stderr)
        return 3
    except (FundamentalSystemError, WronskianError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
