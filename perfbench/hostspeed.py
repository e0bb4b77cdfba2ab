"""A fixed piece of pure-Python work that measures how fast the host runs now.

On a shared host the same Python code can run up to twice as slow for
tens of seconds at a time, which swamps any change worth measuring. The
worker times this work before and after every invocation. Both run at the
invocation's momentary host speed, so scaling the invocation's wall time
by NOMINAL_NS / (mean of the two) gives the wall time the invocation
would take on a host where the reference takes NOMINAL_NS. That is about
its time inside a worker on a quiet 2-CPU Xeon at 2.0 GHz with Python
3.11; run back to back, with warm caches, it takes nearer 2.0 ms.

The reference mixes what the CLI does: a small-int loop, Fraction
arithmetic, and dict, str and JSON churn. A tight integer loop alone
slowed less than the program when the host was busy (1.4x against 1.6x),
so it left 9-13% of the noise in; this mix left 1-3% (medians of
ten-second blocks over 100 s, a `factor-point` batch and an enumeration).
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

NOMINAL_NS = 2_500_000


def reference_ns() -> int:
    """Wall time of the fixed reference work, in ns."""
    start = time.perf_counter_ns()
    s = 0
    for i in range(6000):
        s += i * i % 7
    x = Fraction(0)
    for i in range(1, 90):
        x += Fraction(i, i + 1)
    table = {str(i): [i, i * i, str(i)] for i in range(1100)}
    json.loads(json.dumps(table))
    return time.perf_counter_ns() - start


def scaled(ns: float, ref_before: int, ref_after: int) -> float:
    """ns at nominal host speed, from the reference times that bracket it."""
    return ns * NOMINAL_NS * 2 / (ref_before + ref_after)
