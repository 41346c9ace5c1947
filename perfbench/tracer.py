"""Outside-in tracer: wraps public functions of ``stieltjes`` in spans.

Only the traced run installs it; the end-to-end runs never import it.
Each span keeps its name, start, end, parent span and item id in flat
arrays; ``metrics`` derives per-layer numbers from them after the run and
``write`` stores them.  A span's self time is its duration minus the
durations of its direct child spans, so the self times of one layer add up
to the layer's outermost spans minus the child spans of other layers.

A ``Constant`` operation is named by operation and operand kind, where the
pair is classed by its heavier operand (rational < monomial < polynomial <
fraction).  A ``Constant`` operation called inside another one is not a span
of its own: subtraction counts once under ``add`` and division once under
``mul``.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from pathlib import Path
from time import perf_counter

import workloads
from stieltjes import boundary, cli, constants, exppoly, greens, linalg, operators, parsing

KINDS = ("rat", "mono", "poly", "frac")
CONSTANT_OPS = {  # method -> operation it counts under
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__mul__": "mul", "__rmul__": "mul", "__truediv__": "mul", "__rtruediv__": "mul",
    "inverse": "inverse",
}
FUNCTIONS = [  # (span name, module, attribute): module-level functions
    ("linalg.mat_det", linalg, "mat_det"),
    ("linalg.mat_inv", linalg, "mat_inv"),
    ("boundary.fundamental_system", boundary, "fundamental_system"),
    ("boundary.evaluation_matrix", boundary, "evaluation_matrix"),
    ("boundary.projector", boundary, "projector"),
    ("boundary.fundamental_right_inverse", boundary, "fundamental_right_inverse"),
    ("boundary.greens_operator", boundary, "greens_operator"),
    ("greens.extract", greens, "extract"),
    ("parsing.parse_exppoly", parsing, "parse_exppoly"),
    ("cli.parse_problem", cli, "parse_problem"),
    ("cli.solve_problem", cli, "solve_problem"),
    ("cli.verify_problem", cli, "verify_problem"),
]
METHODS = [  # (span name, class, attribute)
    ("exppoly.mul", exppoly.ExpPoly, "__mul__"),
    ("exppoly.mul", exppoly.ExpPoly, "__rmul__"),
    ("exppoly.integrate_from", exppoly.ExpPoly, "integrate_from"),
    ("exppoly.eval_at", exppoly.ExpPoly, "eval_at"),
    ("exppoly.derive", exppoly.ExpPoly, "derive"),
    ("operators.mul", operators.Operator, "__mul__"),
    ("operators.apply", operators.Operator, "apply"),
    ("operators.to_equitable", operators.Operator, "to_equitable"),
    ("operators.to_standard", operators.Operator, "to_standard"),
    ("boundary.condition_apply", boundary.StieltjesCondition, "apply"),
    ("greens.apply_to", greens.GreensFunction, "apply_to"),
    # the renderers behind solve/verify output
    ("cli.render", operators.Operator, "to_text"),
    ("cli.render", operators.Operator, "to_latex"),
    ("cli.render", operators.Operator, "to_json"),
    ("cli.render", greens.GreensFunction, "to_text"),
    ("cli.render", greens.GreensFunction, "to_latex"),
    ("cli.render", greens.GreensFunction, "to_json_dict"),
    ("cli.render", cli.VerificationReport, "to_text"),
    ("cli.render", cli.VerificationReport, "to_json_dict"),
]
ERROR_LAYERS = ("boundary", "greens", "cli")
# The suite's solution check gets a span that is no layer and no metric, so
# that its T.apply is not counted in the G.apply stage below.
CHECK_SPAN = ("workload.check", workloads, "solves")
TOP = None  # stage parent meaning: called by the workload or by a cli function
STAGES = [  # (stage, span name, required parent span name or TOP)
    ("fundamental_system", "boundary.fundamental_system", "boundary.greens_operator"),
    ("evaluation_matrix", "boundary.evaluation_matrix", "boundary.projector"),
    ("mat_inv", "linalg.mat_inv", "boundary.projector"),
    ("projector", "boundary.projector", "boundary.greens_operator"),
    ("P_Tinv", "operators.mul", "boundary.greens_operator"),
    ("to_standard", "operators.to_standard", "boundary.greens_operator"),
    ("greens_operator", "boundary.greens_operator", TOP),
    ("to_equitable", "operators.to_equitable", TOP),
    ("extract", "greens.extract", TOP),
    ("apply", "operators.apply", TOP),
    ("apply_to", "greens.apply_to", TOP),
]
COUNTERS = [
    "constants.max_num_terms", "constants.max_den_terms", "exppoly.max_terms",
    "operators.mul.term_pairs", "operators.terms.D", "operators.terms.I",
    "operators.terms.L", "operators.terms.G", "greens.breakpoints",
    "greens.apply_to.cells",
]


def span_names() -> list[str]:
    names = [f"constants.{op}.{kind}" for op in dict.fromkeys(CONSTANT_OPS.values())
             for kind in KINDS]
    for name, *_ in FUNCTIONS + METHODS:
        if name not in names:
            names.append(name)
    return names


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    out = []
    for name in span_names():
        out += [f"{name}.calls", f"{name}.self_s"]
    out += COUNTERS
    out.append("greens.apply_to.integrations")
    out += [f"stage.{stage}_s" for stage, _name, _parent in STAGES]
    out += [f"{layer}.errors" for layer in ERROR_LAYERS]
    out.append("tracing.overhead_s")
    return out


def constant_kind(c) -> int:
    """Operand class by the public views: 0 rat, 1 mono, 2 poly, 3 frac."""
    if not isinstance(c, constants.Constant) or c.as_rational() is not None:
        return 0
    if c.as_monomial() is not None:
        return 1
    return 2 if len(c.den) == 1 else 3


def operator_terms(op) -> tuple[int, int, int, int]:
    return (len(op.diff_part), len(op.integral_part),
            len(op.local_boundary), len(op.global_boundary))


def _exppoly_terms(f) -> int:
    return sum(1 for _ in f.terms())


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names = span_names() + [CHECK_SPAN[0]]
        self.layers = [name.split(".")[0] for name in self.names]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self._constant_ids = {i for i, layer in enumerate(self.layers) if layer == "constants"}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.stack: list[int] = []
        self.current_item = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.current_item)
        self.start.append(0.0)
        self.end.append(0.0)
        self.failed.append(0)
        self.stack.append(index)
        return index

    def _call(self, name_id: int, fn, args, kwargs):
        index = self._open(name_id)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.failed[index] = 1
            raise
        finally:
            self.end[index] = perf_counter()
            self.start[index] = t0
            self.stack.pop()

    def _span(self, name: str, fn, after=None):
        name_id, call = self._ids[name], self._call

        def traced(*args, **kwargs):
            result = call(name_id, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _constant_span(self, op: str, fn):
        ids = [self._ids[f"constants.{op}.{kind}"] for kind in KINDS]
        constant_ids, stack, names, call = self._constant_ids, self.stack, self.name, self._call

        def traced(*args):
            if stack and names[stack[-1]] in constant_ids:
                return fn(*args)
            return call(ids[max(constant_kind(a) for a in args)], fn, args, {})

        return traced

    # -- size counters (run outside the spans) ---------------------------------

    def _max(self, key: str, value: int):
        if value > self.counters[key]:
            self.counters[key] = value

    def _constant_sizes(self, values):
        for c in values:
            self._max("constants.max_num_terms", len(c.num))
            self._max("constants.max_den_terms", len(c.den))

    def _after_mat_inv(self, _args, result):
        self._constant_sizes(c for row in result for c in row)

    def _after_exppoly(self, _args, result):
        if isinstance(result, exppoly.ExpPoly):
            self._max("exppoly.max_terms", _exppoly_terms(result))

    def _after_operator(self, _args, result):
        if isinstance(result, operators.Operator):
            for kind, count in zip("DILG", operator_terms(result)):
                self._max(f"operators.terms.{kind}", count)

    def _before_operator_mul(self, fn):
        def counted(a, b):
            if isinstance(b, operators.Operator):
                self.counters["operators.mul.term_pairs"] += (
                    sum(operator_terms(a)) * sum(operator_terms(b)))
            return fn(a, b)
        return counted

    def _after_extract(self, _args, g):
        self.counters["greens.breakpoints"] += len(g.breakpoints)
        self._constant_sizes(c for _lo, _hi, _region, branch in g.case_rows()
                             for pair in branch.pairs() for f in pair
                             for _freq, _power, c in f.terms())

    def _after_apply_to(self, args, _result):
        self.counters["greens.apply_to.cells"] += len(args[0].breakpoints) - 1

    # -- installation -------------------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the traced functions wherever a module of the package holds
        a reference to them."""
        after = {
            "linalg.mat_inv": self._after_mat_inv,
            "greens.extract": self._after_extract,
            "greens.apply_to": self._after_apply_to,
            "exppoly.mul": self._after_exppoly,
            "exppoly.integrate_from": self._after_exppoly,
            "exppoly.derive": self._after_exppoly,
            "operators.mul": self._after_operator,
            "operators.to_equitable": self._after_operator,
            "operators.to_standard": self._after_operator,
        }
        holders = [m for key, m in sys.modules.items()
                   if key == "stieltjes" or key.startswith("stieltjes.")]
        for name, module, attr in FUNCTIONS:
            original = module.__dict__[attr]
            wrapped = self._span(name, original, after.get(name))
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapped)
        for name, cls, attr in METHODS:
            wrapped = self._span(name, cls.__dict__[attr], after.get(name))
            if name == "operators.mul":
                wrapped = self._before_operator_mul(wrapped)
            self._patch(cls, attr, wrapped)
        name, module, attr = CHECK_SPAN
        self._patch(module, attr, self._span(name, module.__dict__[attr]))
        for attr, op in CONSTANT_OPS.items():
            self._patch(constants.Constant, attr,
                        self._constant_span(op, constants.Constant.__dict__[attr]))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        n = len(self.name)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0.0] * n
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += duration[i]
        for i in range(n):
            calls[self.name[i]] += 1
            self_s[self.name[i]] += duration[i] - child_time[i]
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
        out.update(self.counters)

        # integrate_from spans nested at any depth under apply_to
        apply_to = self._ids["greens.apply_to"]
        integrate = self._ids["exppoly.integrate_from"]
        under = bytearray(n)  # parents precede children, so one pass suffices
        integrations = 0
        for i in range(n):
            p = self.parent[i]
            if p >= 0 and (under[p] or self.name[p] == apply_to):
                under[i] = 1
                integrations += self.name[i] == integrate
        out["greens.apply_to.integrations"] = integrations

        cli_ids = {k for k, layer in enumerate(self.layers) if layer == "cli"}
        stages_of: dict[int, list[tuple[str, int | None]]] = {}
        for stage, name, parent in STAGES:
            parent_id = TOP if parent is TOP else self._ids[parent]
            stages_of.setdefault(self._ids[name], []).append((stage, parent_id))
        totals = dict.fromkeys((stage for stage, _n, _p in STAGES), 0.0)
        for i in range(n):
            for stage, parent_id in stages_of.get(self.name[i], ()):
                p = self.parent[i]
                top = p < 0 or self.name[p] in cli_ids
                if (top if parent_id is TOP else p >= 0 and self.name[p] == parent_id):
                    totals[stage] += duration[i]
        for stage, total in totals.items():
            out[f"stage.{stage}_s"] = total

        # a failure counts once per layer: at its outermost failed span
        errors = dict.fromkeys(ERROR_LAYERS, 0)
        for i in range(n):
            if not self.failed[i]:
                continue
            layer = self.layers[self.name[i]]
            p = self.parent[i]
            if layer in errors and not (p >= 0 and self.failed[p]
                                        and self.layers[self.name[p]] == layer):
                errors[layer] += 1
        for layer, count in errors.items():
            out[f"{layer}.errors"] = count
        return out

    def write(self, path: Path):
        """Store every span as one tab-separated line (times relative to the
        first span)."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("span\tname\tstart_s\tend_s\tparent\titem\tfailed\n")
            for i in range(len(self.name)):
                handle.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - origin:.9f}\t"
                             f"{self.end[i] - origin:.9f}\t{self.parent[i]}\t{self.item[i]}\t"
                             f"{self.failed[i]}\n")
