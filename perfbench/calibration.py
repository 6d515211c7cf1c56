"""Machine-speed calibration for timings taken on a shared, drifting CPU.

On a machine whose cores are shared with other tenants, the speed of the
same instructions drifts by up to a factor 1.9 over tens of seconds, which
no run length averages away. The benchmark therefore interleaves a fixed
reference pass, code of its own that the program under test cannot change,
with the workload: about every ``INTERVAL_S`` seconds, and before and after
each set-up probe. Each timing is divided by the pass's mean slowness
relative to the reference machine, i.e. reported at reference speed. The
raw, unscaled timings are kept in the run record next to the scaled ones.

The pass has two parts, each timed against its own reference time: many
numpy calls on tiny arrays (like dynamics and network steps) and sweeps
over ray x facet temporaries (like brute-force ray casting). Of the
candidates tried, their sum tracked both the 320-facet and the 20480-facet
episode loops best: with 3 MB sweeps it cut the spread of 20-second
windows of per-step time from 21% to about 6%. Split into the 0.4 MB
pieces below, it tracked the 320-facet loop as well and the 20480-facet
loop a little less well; README.md gives the ten-seed spreads.

The pass runs inside the workload process, so it sees the same core and
the same contention. Its sweeps therefore go in pieces of 0.4 MB, smaller
than the ray-casting temporaries of the smallest workload (a 320-facet
cast), so that the pass does not set the workload's peak memory.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds per part on the machine the bounds were tuned on, rounded.
SMALL_CALLS_S = 0.018
LARGE_SWEEP_S = 0.026
INTERVAL_S = 0.75

_RNG = np.random.default_rng(0)
_RAYS = _RNG.normal(size=(64, 1, 3))
_EDGES = _RNG.normal(size=(1, 256, 3))
_SWEEPS = 80  # 80 x (64, 256, 3): the traffic of one 20480-facet cast, 0.4 MB at a time


def _small_calls() -> float:
    y = np.linspace(0.5, 1.0, 14)
    acc = 0.0
    for _ in range(400):
        d = np.concatenate([y[3:6], -1e-3 * y[0:3], 0.5 * y[6:10],
                            np.cross(y[10:13], y[0:3]), y[13:14]])
        y = y + 1e-3 * d
        acc += float(np.linalg.norm(y[0:3]))
    return acc


def _large_sweep() -> float:
    acc = 0.0
    for _ in range(_SWEEPS):
        p = np.cross(_RAYS, _EDGES)
        acc += float(np.einsum("rfk,rfk->", p, p))
    return acc


def reference_pass() -> tuple[float, float]:
    """(seconds taken, slowness relative to the reference machine)."""
    t0 = time.perf_counter()
    acc = _small_calls()
    t1 = time.perf_counter()
    acc += _large_sweep()
    t2 = time.perf_counter()
    if not np.isfinite(acc):
        raise FloatingPointError("reference pass diverged")
    return t2 - t0, 0.5 * ((t1 - t0) / SMALL_CALLS_S + (t2 - t1) / LARGE_SWEEP_S)


class Ticker:
    """Runs the reference pass when ``INTERVAL_S`` has passed since the last.

    ``passes`` holds ``(end time, seconds, slowness)``; the caller excludes
    the seconds of passes that fall inside a timed interval.
    """

    def __init__(self):
        self.passes: list[tuple[float, float, float]] = []
        self._due = 0.0

    def tick(self, *args, **kwargs) -> None:
        if time.perf_counter() >= self._due:
            self.force()

    def force(self) -> None:
        seconds, slowness = reference_pass()
        end = time.perf_counter()
        self.passes.append((end, seconds, slowness))
        self._due = end + INTERVAL_S


def speed_scale(slowness: list[float]) -> float:
    """Factor that turns raw seconds into reference seconds."""
    return 1.0 / float(np.mean(slowness))
