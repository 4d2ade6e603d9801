"""Host-speed calibration for CPU-bound timings on a shared host.

On a small shared host the same pure-Python work runs up to ~1.6x slower
for stretches of seconds to minutes, in step with other tenants' load.
A CPU-bound timing is therefore paired with a fixed calibration loop run
right before it, and scaled to a host that runs that loop in
:data:`REF_S`::

    scaled_time = raw_time * speed        scaled_rate = raw_rate / speed

where ``speed = REF_S / calibration_time``.  The loop is benchmark code,
so no change to the program can move it; a program that gets twice as
fast still reads twice as fast.  Raw values are kept in each result's
metadata.
"""

from __future__ import annotations

import time

REF_S = 0.005
ITERATIONS = 40000
TICK_ITERATIONS = 4000


def _loop(n: int) -> float:
    t = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(n):
        d[i & 1023] = d.get(i & 1023, 0) + i
    return time.perf_counter() - t


def speed() -> float:
    """Host speed now, relative to the reference (best of three loops)."""
    return REF_S / min(_loop(ITERATIONS) for _ in range(3))


def tick() -> float:
    """Host speed from one loop a tenth as long (~0.5 ms), short enough to
    sample often inside a process that is serving requests."""
    return REF_S * TICK_ITERATIONS / ITERATIONS / _loop(TICK_ITERATIONS)
