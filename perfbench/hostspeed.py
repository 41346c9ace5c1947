"""Host-speed reference: the timing metrics are scaled to a fixed host speed.

The benchmark runs on shared hosts whose speed drifts by a quarter and more
within minutes (see NOTES.md), more than any regression bound can absorb.
So a run also times ``reference_loop``, a fixed loop of integer arithmetic
that does not touch the program, after every item, and ``scale`` divides
each item's latency by the host's ``factor`` around that item: the median
time of the nearby loops over ``REFERENCE_LOOP_S``.  A slower host slows the
loop and the program alike and the quotient stays put, while a change to the
program moves only the program.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# The loop's median time on the host where the benchmark was written (2 vCPUs,
# Python 3.11.7), between its fast (1.3 ms) and slow (1.9 ms) periods.  Only
# ratios between runs matter; this constant keeps the scaled figures close to
# wall-clock ones there.
REFERENCE_LOOP_S = 0.0016
# An item's factor is taken from the loops of the items up to WINDOW before
# and after it: host speed changes within seconds, and on 5 runs of
# `documents` this halved the run-to-run spread of the latency quantiles
# against one factor per run.
WINDOW = 5


def reference_loop() -> float:
    """Seconds for a fixed integer loop.  Of the loops tried it tracked the
    program's speed best: one allocating Fractions, dicts or objects sped up
    and slowed down much more than the program did."""
    t0 = perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    return perf_counter() - t0


def factor(loop_times: list[float]) -> float:
    """How much slower than the reference the host ran: >1 means slower."""
    return statistics.median(loop_times) / REFERENCE_LOOP_S


def scale(latencies: list[float], loop_times: list[float]) -> list[float]:
    """Latencies at the reference speed; loop_times[i] was timed right after
    item i."""
    return [latency / factor(loop_times[max(0, i - WINDOW): i + WINDOW + 1])
            for i, latency in enumerate(latencies)]
