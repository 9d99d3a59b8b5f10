"""Scaling measured times to a reference machine speed.

The machines this benchmark runs on are shared, and their speed swings by a
quarter within seconds and drifts by more over minutes, so raw times of one
run are not comparable with another's.  Every loop of the benchmark
therefore times a fixed probe, independent of the package, before its first
operation and again after every INTERVAL_S seconds of operations.  Each
operation is scaled by the probe's reference time over the mean of the probe
times taken just before and just after it:

    scaled_ms = raw_ms * reference_ms / probe_ms

A scaled time is what the operation would take on the reference machine
(2-CPU x86-64, Python 3.11, no gmpy2) when it is quiet.  Each probe does
what the work it scales spends its time on:

* FOLD, for operations inside a library process: Python loops over lists of
  big integers, then shift-add-mask doubling on a 200000-bit integer as the
  packed fold does;
* SPAWN, for anything that starts interpreters (CLI calls, set-up): start an
  interpreter that runs nothing and wait for it.

Each reference time is the 5th percentile of a few hundred probe timings on
the reference machine.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

INTERVAL_S = 0.25


def fold_kernel() -> int:
    c = [1] + [0] * 300
    for part in range(1, 301):
        for n in range(part, 301):
            c[n] += c[n - part]
    mask = (1 << 200000) - 1
    t = c[300] << 199000
    for step in range(1, 150):
        t += t << (step * 97 % 3000 * 64)
        t &= mask
    return t


def spawn_kernel() -> int:
    return subprocess.run([sys.executable, "-c", "pass"], check=True).returncode


@dataclass(frozen=True)
class Probe:
    kernel: Callable[[], int]
    tries: int
    reference_ms: float

    def measure(self) -> float:
        """Mean of a few kernel timings, in ms."""
        t0 = time.perf_counter()
        for _ in range(self.tries):
            self.kernel()
        return (time.perf_counter() - t0) * 1000.0 / self.tries

    def scale(self, raw_ms: float, probe_ms: float) -> float:
        return raw_ms * self.reference_ms / probe_ms


FOLD = Probe(fold_kernel, tries=2, reference_ms=4.0)
SPAWN = Probe(spawn_kernel, tries=1, reference_ms=35.0)


def calibrated_loop(
    items: list, call: Callable[[int, object], tuple[float, object]], probe: Probe
) -> list[tuple[float, float, object]]:
    """Run `call(i, item)` for each item, one after another; `call` returns
    (raw ms, payload).  Returns per item (raw ms, probe ms around it,
    payload).  Probes run outside the operations' timings."""
    out: list[list] = []
    chunk: list[int] = []
    before = probe.measure()
    chunk_start = time.perf_counter()
    for i, item in enumerate(items):
        ms, payload = call(i, item)
        out.append([ms, 0.0, payload])
        chunk.append(i)
        if time.perf_counter() - chunk_start >= INTERVAL_S or i == len(items) - 1:
            after = probe.measure()
            for j in chunk:
                out[j][1] = (before + after) / 2.0
            before, chunk, chunk_start = after, [], time.perf_counter()
    return [tuple(row) for row in out]
