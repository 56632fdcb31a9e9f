"""Machine-speed calibration: a fixed pure-Python loop timed beside the work.

On a shared two-core cloud VM (Python 3.11) the speed of pure-Python code
drifted by a third or more over minutes, with CPU time drifting along with
wall time, so the cause was the machine, not the scheduler.  Timed just
before and after each job, this loop measures the machine's speed at that
moment, and ``scaled`` converts a time to the speed at which the loop takes
``CALIB_REF_S``.  Of the loops tried (dict updates, big-integer polynomial
products, frozenset lookups, this integer loop), this one's drift tracked
the jobs' drift most closely.  The loop is the benchmark's own code, so a
change to the package cannot move it.
"""

from time import perf_counter

CALIB_LOOP = 150_000
CALIB_REF_S = 0.015  # the nominal loop time that scaled times refer to


def calibrate() -> float:
    """Seconds the fixed loop takes now."""
    start = perf_counter()
    total = 0
    for i in range(CALIB_LOOP):
        total += i * i % 7
    return perf_counter() - start


def scaled(seconds: float, calib_s: float) -> float:
    """``seconds`` as they would read at the reference speed."""
    return seconds * CALIB_REF_S / calib_s
