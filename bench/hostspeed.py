"""Host-speed correction of measured times.

The host of the 2-core VM this benchmark was built on switches each CPU
between two speeds about 1.9x apart, for seconds to many minutes at a time,
so raw times of identical runs spread by up to 40%.  Every timed call is
therefore bracketed by a fixed calibration kernel on the same (pinned) CPU,
and its time is reported at the reference speed where the kernel takes its
`REFERENCE_S` (its time in that VM's fast state):

    time at reference speed = wall time * REFERENCE_S / mean(kernel before, after)

Interpreted code and large-array numpy code slow down by different factors,
so each workload is calibrated by the kernel whose slowdown tracks its own:
against the log of the interpreter kernel's time, the log of an `exact-pell`
pass moved with slope 0.87, of a `solve-hight` pass with 0.75 and of a
`solve --set ball2d --t 4` with 0.32; against the array kernel the last moved
with slope 0.97.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np


def interpreter_kernel():
    """Fraction arithmetic, dict updates and small numpy calls, like the
    exact path and the Newton loop."""
    acc, step, table = Fraction(0), Fraction(1, 3), {}
    for i in range(300):
        acc += step * Fraction(i + 1, 7)
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i
    a = np.arange(36.0).reshape(6, 6)
    for _ in range(200):
        a = a * 0.5 + 1.0
        float(np.sum(a))
    return acc


def array_kernel():
    """Uniform draws, rejection and monomial means over arrays, like the
    feasible-start sampler."""
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(10_000, 2))
    x, y = pts[:, 0], pts[:, 1]
    keep = x * x + y * y <= 1.0
    x, y = x[keep], y[keep]
    return [float(np.mean(x**e * y)) for e in range(8)]


KERNELS = {"interpreter": interpreter_kernel, "array": array_kernel}
REFERENCE_S = {"interpreter": 0.0018, "array": 0.0028}


def _kernel_seconds(kernel: str) -> float:
    best = float("inf")
    for _ in range(3):
        begin = time.perf_counter()
        KERNELS[kernel]()
        best = min(best, time.perf_counter() - begin)
    return best


def timed(fn, kernel: str):
    """(fn(), wall seconds, seconds at the reference host speed)."""
    before = _kernel_seconds(kernel)
    begin = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - begin
    slowdown = 0.5 * (before + _kernel_seconds(kernel)) / REFERENCE_S[kernel]
    return result, wall, wall / slowdown
