"""Host-speed calibration.

On a shared host the same code can run at two or more speeds, and a slow
spell can last longer than a whole run.  Every timed sample is therefore
bracketed by a fixed pure-Python kernel, run on the same (pinned) CPU, and
reported at reference speed:

    scaled time = measured wall time * REFERENCE_S / calibration time

so a host on which the kernel takes REFERENCE_S reports plain wall time.
The kernel touches no etaflow code and no cache of the program.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 1.0e-3  # about the kernel time on a 2.1 GHz Xeon vCPU, Python 3.11


def _kernel():
    """Exact rational arithmetic, as on the class side, then allocation,
    sorting and hashing of small objects, as in spectral enumeration and
    interpreter start-up."""
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
    items = [(i, str(i), [i]) for i in range(1500)]
    items.sort(key=lambda item: -item[0])
    return acc, len({item[1]: item for item in items})


def calibrate() -> float:
    """Best of three runs of the kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, calibration: float) -> float:
    return seconds * REFERENCE_S / calibration
