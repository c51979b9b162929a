"""Machine-speed calibration.

The benchmark's host runs the same Python code at speeds that drift by
up to a third over seconds (shared virtual CPUs).  A fixed pure-Python
loop timed right before and right after a piece of work measures the
speed the work ran at; every timing the benchmark reports is scaled by
it to **reference seconds** — the seconds the work would take at the
speed where the loop takes ``REFERENCE_S``.  The loop touches no
``repro`` code, so a change to the compiler cannot move it.
"""

from __future__ import annotations

from time import perf_counter

LOOPS = 50_000

#: the loop's duration at reference speed
REFERENCE_S = 0.005


def calibrate() -> float:
    """Seconds the fixed loop takes right now."""
    start = perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return perf_counter() - start


def speed(before: float, after: float) -> float:
    """Machine speed between two calibrations, relative to reference:
    multiply a wall time by it to get reference seconds."""
    return 2.0 * REFERENCE_S / (before + after)


def timed(fn, *args):
    """``(result, reference seconds)`` of one call, calibrated around it."""
    before = calibrate()
    start = perf_counter()
    result = fn(*args)
    elapsed = perf_counter() - start
    return result, elapsed * speed(before, calibrate())
