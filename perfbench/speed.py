"""Machine-speed probe: a fixed kernel timed at intervals during a run.

The host this benchmark was tuned on (a 2-vCPU Intel Xeon VM) changes
speed by up to 1.6x for minutes at a time; thread CPU time tracks wall
time, so it is not steal time. One run sits in one such period, so the
run-to-run spread of raw timings reached 0.25-0.5 of the median. Each run therefore times
this kernel, which does not depend on relcap, and reports its timings
scaled to the reference speed:

    reported time = measured time * REFERENCE_MS / mean probe time

The mean, not the median: the host's slowdowns come in bursts shorter
than a second, and a run's time is the sum over them, so the probes'
mean tracks it and their median misses the bursts.

The raw timings and the probe samples are printed alongside.

The kernel mixes the three kinds of work the workloads do: Python object
and dict churn (autodiff graph building, metric loops), numpy calls on
small arrays (per-step LSTM ops) and numpy on large arrays (2,450-pair
decode steps).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Mean probe time on the reference machine (2-vCPU Intel Xeon VM, Python
# 3.11, numpy 2.4 with OpenBLAS, one thread), in milliseconds.
REFERENCE_MS = 30.0
# ``Probe.maybe`` probes at most this often, in seconds.
PROBE_EVERY_S = 1.0


def _kernel() -> float:
    rng = np.random.default_rng(12345)
    acc = 0.0
    # Python objects: small graphs of dicts and closures, as autodiff builds.
    for i in range(6000):
        node = {"id": i, "parents": (i - 1, i - 2), "grad": None}
        fn = (lambda g, n=node: g + n["id"])
        acc += fn(1.0) if node["parents"][0] % 3 else 0.0
    tokens = ["the", "red", "square", "is", "left", "of", "the", "blue", "circle"]
    for i in range(2400):
        used = [False] * len(tokens)
        for j, tok in enumerate(tokens):
            if not used[j] and tok == tokens[(i + j) % len(tokens)]:
                used[j] = True
        acc += sum(used)
    # numpy on small arrays, as one LSTM step over a few pairs.
    x = rng.standard_normal((56, 96))
    w = rng.standard_normal((96, 192))
    for _ in range(120):
        z = x @ w
        acc += float(np.tanh(z[:, :48]).sum() * 1e-9)
    # numpy on large arrays, as one decode step over 2,450 pairs (in two halves
    # to keep the probe's own memory small).
    big = rng.standard_normal((1225, 96))
    for _ in range(2):
        z = big @ w
        acc += float((1.0 / (1.0 + np.exp(-z))).sum() * 1e-12)
    return acc


class Probe:
    """Collects probe timings; ``maybe`` probes at most every ``PROBE_EVERY_S``."""

    def __init__(self):
        self.samples_ms = []
        self.spent_s = 0.0
        self._last = None

    def run(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = time.perf_counter()
            _kernel()
            t1 = time.perf_counter()
            self.samples_ms.append((t1 - t0) * 1e3)
            self.spent_s += t1 - t0
            self._last = t1

    def maybe(self) -> None:
        if self._last is None or time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.run()

    def factor(self, first: int = 0) -> float:
        """Reference-speed factor of the samples from ``first`` on: multiply
        a time measured while they were taken by this."""
        return REFERENCE_MS / statistics.fmean(self.samples_ms[first:])
