"""Benchmark entry point for the exact Green's-operator solver.

    python3 perfbench/run.py --workload suite|ring|documents|all \
        --seed N --seconds S --trace 0|1

One closed-loop client in one process runs a workload's items back to back,
each item only after the previous one finished.  The item pools are fixed
(see ``workloads.py``); ``--seed`` sets the order in which every pass visits
them.  Passes repeat until ``--seconds`` have elapsed, always whole, so a
run visits every item equally often and its figures do not depend on where
a time limit cut a pass.  How many passes fit depends on the host's speed,
so the tail percentile is fixed by the pool size, not by the sample count:
a run of one pass and a run of two estimate the same percentile.

``--trace 0`` reports the end-to-end metrics, their times scaled to a fixed
host speed by the loop of ``hostspeed.py`` timed between the items (the
unscaled figures and the factor are on the info line); ``--trace 1`` makes one
untraced and one traced pass over the same order and reports the per-layer
metrics of ``tracer.py``.  The last line of stdout is the result object;
the line before it holds run information that is not a gated metric.
Results and spans are also written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("suite", "ring", "documents")
SETUP_REPEATS = 15
SETUP_TIMEOUT_S = 120
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it


def import_program():
    """Import ``stieltjes`` from this checkout's sources, never from elsewhere."""
    package = SRC / "stieltjes"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no stieltjes sources at {package}")
    sys.path.insert(0, str(SRC))
    import stieltjes
    if Path(stieltjes.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported stieltjes from {stieltjes.__file__}")


def source_loc() -> dict[str, int]:
    return {f"{path.stem}.loc": len(path.read_text(encoding="utf-8").splitlines())
            for path in sorted((SRC / "stieltjes").glob("*.py"))}


def setup_seconds(name: str) -> list[tuple[float, float]]:
    """Import plus input building, timed in fresh interpreters: (seconds,
    host-speed factor measured in the same interpreter) per sample."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(HERE / "setup_time.py"), name],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up of {name} failed:\n{proc.stderr}")
        seconds, factor = proc.stdout.split()[-2:]
        samples.append((float(seconds), float(factor)))
    return samples


class Workload:
    """A fixed item pool plus how to run one item and how to check it."""

    def __init__(self, name: str):
        import workloads
        self.name = name
        self.items = workloads.build(name)
        if name == "documents":
            self.execute = workloads.run_command
            self.check = lambda item, result: workloads.document_ok(item, *result)
        else:
            self.execute = {"suite": workloads.run_suite_item,
                            "ring": workloads.run_ring_item}[name]
            self.check = lambda _item, result: result is True
        self.first_stdout: dict[int, str] = {}

    def run(self, index: int) -> tuple[float, bool]:
        """Run one item; return its latency and whether it passed its gate.
        Only the call into the program is timed, not the output check."""
        item = self.items[index]
        t0 = perf_counter()
        try:
            result = self.execute(item)
        except Exception:  # an item that raises counts as failed, the run goes on
            latency = perf_counter() - t0
            print(f"item {index} of {self.name} raised:", file=sys.stderr)
            traceback.print_exc()
            return latency, False
        latency = perf_counter() - t0
        if self.name == "documents":
            self.first_stdout.setdefault(index, result[1])
        try:
            return latency, bool(self.check(item, result))
        except (ValueError, KeyError, TypeError):  # unparsable or incomplete output
            return latency, False

    def order(self, rng: random.Random) -> list[int]:
        order = list(range(len(self.items)))
        rng.shuffle(order)
        return order

    def stdout_digest(self) -> str | None:
        """sha256 of every command's stdout, in pool order."""
        if self.name != "documents":
            return None
        digest = hashlib.sha256()
        for index, item in enumerate(self.items):
            digest.update(f"{item.label}\n{self.first_stdout.get(index, '')}\n".encode())
        return digest.hexdigest()


def quantile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics weighted by a beta(q(n+1), (1-q)(n+1)) density, which follows
    the noise of the few samples next to the quantile less than one order
    statistic does.  The weights are integrated with Simpson's rule."""
    ordered = sorted(samples)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    panels = 8
    total = weight = 0.0
    for i, value in enumerate(ordered):
        lo, step = i / n, 1 / (n * panels)
        ys = [density(lo + k * step) for k in range(panels + 1)]
        w = step / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2]))
        total += w * value
        weight += w
    return total / weight


def tail_percentile(n: int) -> float:
    """The highest percentile with at least TAIL_BEYOND of the n items of
    one pass beyond it; 100 when the pool is too small."""
    return 100.0 * (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else 100.0


def measure(work: Workload, seed: int, seconds: float) -> dict:
    """Item latencies, with the reference loop timed after each item."""
    rng = random.Random(seed)
    latencies, loops, visited, failed, passes = [], [], [], 0, 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        for index in work.order(rng):
            latency, ok = work.run(index)
            loops.append(hostspeed.reference_loop())
            latencies.append(latency)
            visited.append(index)
            failed += not ok
        passes += 1
    elapsed = perf_counter() - start
    attempted = len(latencies)
    tail_pct = tail_percentile(len(work.items))
    scaled = hostspeed.scale(latencies, loops)
    metrics = latency_metrics(scaled, attempted - failed, tail_pct)
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "elapsed_s": elapsed,
        "host_factor": hostspeed.factor(loops),
        "metrics": metrics,
        "unscaled_metrics": latency_metrics(latencies, attempted - failed, tail_pct),
        "tail": {"percentile": tail_pct, "samples": attempted,
                 "beyond": round(attempted * (1 - tail_pct / 100))},
        "item_latencies_s": list(zip(visited, latencies)),
        "item_loops_s": loops,
    }


def latency_metrics(latencies: list[float], verified: int, tail_pct: float) -> dict:
    """items_per_s counts only the time spent in items, not the checks and
    reference loops between them."""
    tail = quantile(latencies, tail_pct / 100) if tail_pct < 100 else max(latencies)
    return {
        "items_per_s": (verified / sum(latencies), "1/s"),
        "latency_p50_ms": (quantile(latencies, 0.5) * 1000.0, "ms"),
        "latency_tail_ms": (tail * 1000.0, "ms"),
    }


def run_untraced(work: Workload, seed: int, seconds: float) -> dict:
    setup = setup_seconds(work.name)
    run = measure(work, seed, seconds)
    run["metrics"]["setup_s"] = (
        statistics.median(seconds / factor for seconds, factor in setup), "s")
    run["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    run["unscaled_metrics"]["setup_s"] = (
        statistics.median(seconds for seconds, _factor in setup), "s")
    run["setup_samples"] = setup
    return run


def run_traced(work: Workload, seed: int) -> dict:
    import tracer
    import workloads
    order = work.order(random.Random(seed))
    start = perf_counter()
    for index in order:
        work.run(index)
    untraced_s = perf_counter() - start

    spans = tracer.Tracer()
    spans.install()
    failed = 0
    try:
        workloads.build(work.name)  # item -1: what setup_s times, mat_det included
        start = perf_counter()
        for index in order:
            spans.current_item = index
            failed += not work.run(index)[1]
        traced_s = perf_counter() - start
    finally:
        spans.uninstall()
    values = spans.metrics()
    values["tracing.overhead_s"] = traced_s - untraced_s
    values["error_rate"] = failed / len(order)
    spans.write(OUT / f"spans-{work.name}-seed{seed}.tsv.gz")
    names = tracer.metric_names() + ["error_rate"]
    units = {name: "s" if name.endswith("_s") else "count" for name in names}
    units["error_rate"] = "ratio"
    return {
        "attempted": len(order),
        "failed": failed,
        "passes": 1,
        "elapsed_s": traced_s,
        "untraced_s": untraced_s,
        "metrics": {name: (values[name], units[name]) for name in names},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    work = Workload(name)
    run = run_traced(work, seed) if trace else run_untraced(work, seed, seconds)
    draws_match = workloads.check_tier1_draws(name, work.items, ROOT)
    run["correct"] = run["failed"] == 0 and draws_match is not False
    run["info"] = {
        "workload": name,
        "order_seed": seed,
        "pool_seed": workloads.SEEDS[name],
        "pool_size": len(work.items),
        "host_factor": run.get("host_factor"),
        "unscaled": {name: value for name, (value, _unit)
                     in run.get("unscaled_metrics", {}).items()},
        "tier1_draw_check": {True: "equal", False: "DIFFERENT", None: "not applicable"}[draws_match],
        "error_rate": run["failed"] / run["attempted"],
        "documents_stdout_sha256": work.stdout_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **source_loc(),
    }
    return run


def report(run: dict) -> dict:
    info = run["info"]
    print(f"== {info['workload']}: {run['attempted']} items in {run['passes']} pass(es), "
          f"{run['elapsed_s']:.2f} s, error_rate {info['error_rate']:.4f}")
    for name, (value, unit) in run["metrics"].items():
        print(f"{info['workload']:<10} {name:<40} {value:>14.6g} {unit}")
    if "tail" in run:
        t = run["tail"]
        print(f"{info['workload']:<10} latency_tail_ms is p{t['percentile']:.1f} of "
              f"{t['samples']} samples ({t['beyond']} beyond it)")
    return {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0, help="order of the passes over each pool")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="minimum measured time, in whole passes (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    OUT.mkdir(exist_ok=True)
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(run, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        results[name] = report(run)
        print(json.dumps({"info": run["info"]}, sort_keys=True))
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
