"""Timing corrected for the speed of a shared host.

On a host shared with other tenants the same code runs at two or more
speeds that switch every few seconds (here the reference below takes
about 3.9 ms or about 6.7 ms). A fixed pure-Python reference timed right
before and right after each measured call gauges the speed at that
moment; the call's wall time is scaled by ``REFERENCE_S / reference
time``, which reads as seconds on the host when it runs the reference in
REFERENCE_S. This module imports nothing, so it can also time imports.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.004


def reference() -> int:
    """Fixed dictionary and integer work, the same on every call."""
    d: dict[int, int] = {}
    for i in range(30000):
        k = i % 977
        d[k] = d.get(k, 0) + i
    return sum(sorted(d.values()))


class Clock:
    """Times calls; with ``corrected`` the time is scaled by the reference runs around it."""

    def __init__(self, corrected: bool = True) -> None:
        self.corrected = corrected

    def __call__(self, fn, *args, **kwargs):
        """Return ``(fn(*args, **kwargs), seconds)``."""
        if not self.corrected:
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            return out, time.perf_counter() - start
        r0 = time.perf_counter()
        reference()
        r1 = time.perf_counter()
        out = fn(*args, **kwargs)
        r2 = time.perf_counter()
        reference()
        r3 = time.perf_counter()
        return out, (r2 - r1) * REFERENCE_S / ((r1 - r0 + r3 - r2) / 2)
