"""Host-speed calibration: reference work timed beside every measured step.

The shared hosts this benchmark runs on change speed in phases about 1.6x
apart that last from seconds to minutes, and a run's raw times follow the
phases it happened to run in. A process's CPU time slows in the same way, so
it does not help. Instead, each measured step is bracketed by timings of
reference work that belongs to the benchmark, and its time is scaled by
``nominal / (mean of the two reference times)``: reported times are seconds
at the host speed at which the reference takes its nominal time. A change to
obskit cannot change the reference, so it moves the scaled times as it moves
the raw ones; run.py reports the raw medians and the host speed beside them.

- Case operations: the reference is ``kernel_s``, a Python loop over small
  numpy arrays on one thread, the shape of obskit's hot paths. Phases can
  change within a case, so operations (0.01-0.5 s) are scaled one by one.
- Set-up samples: a fresh interpreter's start-up and imports follow the
  kernel only in part (log correlation about 0.7, slope about 0.5), so each
  is scaled by fresh interpreters that import numpy alone
  (``IMPORT_REFERENCE``).

Nominal times are the references' times on the tuning host (2-vCPU Intel
Xeon KVM guest, Python 3.11.7, numpy 2.4.6) in its fast phase.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.0025
REPEATS = 3
IMPORT_REFERENCE = "import numpy"
IMPORT_NOMINAL_S = 0.1

_MATRIX = np.linspace(-1.0, 1.0, 16).reshape(4, 4)
_VECTOR = np.arange(4.0)


def _kernel() -> float:
    total = 0.0
    for i in range(1000):
        row = _MATRIX @ _VECTOR + i
        total += float(np.dot(row, row)) ** 0.5
    return total


def kernel_s() -> float:
    """Fastest of REPEATS timings of the kernel; preemption only adds time."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(seconds: float, before: float, after: float, nominal: float = NOMINAL_S) -> float:
    """``seconds`` measured between reference times ``before`` and ``after``, at nominal speed."""
    return seconds * nominal / ((before + after) / 2.0)


def scale_case(record: dict) -> float:
    """A timed case execution's seconds at nominal speed, scaled operation by operation."""
    kernel = record["kernel_s"]
    return sum(scale(s, before, after)
               for s, before, after in zip(record["op_seconds"], kernel, kernel[1:]))
