"""Machine-speed calibration of measured times.

On the shared 2-core machines this benchmark was tuned on, the speed of the
same Python code drifted by 10-25 % over minutes, and twofold in short
spikes. The drift shows in CPU time as much as in wall time. A fixed loop of
the kinds of work the pipeline does (numpy scalar reads, float math, dict and
list stores), timed just before and after an interval, tracks that drift.
Over 150 s of repeated plans, the coefficient of variation of 8-plan windows
was 8.9 % raw and 2.7 % after scaling (6.9 % with a pure integer loop).
Scaled times read as seconds on a machine where the loop takes
``REFERENCE_S``; the raw times are kept beside them. The loop uses no code
of the package, so a change to the package cannot move it.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = 0.035            # loop time that defines the reference speed
_ITERATIONS = 60_000
_SAMPLES = 3
_VALUES = np.arange(64, dtype=np.float64)


def _loop() -> float:
    table: dict[int, float] = {}
    recent = [0.0] * 64
    acc = 0.0
    for i in range(_ITERATIONS):
        x = _VALUES[i & 63]
        acc += math.sqrt(x * x + i)
        table[i & 255] = acc
        recent[i & 63] = acc
    return acc


def loop_seconds() -> float:
    """Median time of a few runs of the fixed calibration loop."""
    times = []
    for _ in range(_SAMPLES):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor from raw seconds to reference seconds for an interval whose
    calibration loop took ``before`` and ``after`` seconds around it."""
    return REFERENCE_S / ((before + after) / 2.0)
