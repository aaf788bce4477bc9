"""The speed probe: a fixed pure-Python kernel that measures how fast the
machine runs interpreted code at this moment.

The machine this benchmark was written on changes speed by itself by up
to a fifth within seconds, while the time of library code relative to
this probe, taken a moment apart, holds within a few percent.  Each pass
therefore times the probe between its items and scales every item time
by ``REF_S / probe``: the time the item would have taken at the speed
at which the probe takes ``REF_S``.  The probe uses only the standard
library (dicts of tuples, integer arithmetic, ``Fraction``, sorting),
the same kinds of work the package does, so a change to the package
cannot move it.
"""

import gc
import time
from fractions import Fraction

# the probe's time at the reference speed; a typical best-of-three on a
# 2-core Intel Xeon VM with Python 3.11.7
REF_S = 0.0015
REPEAT = 3


def _kernel():
    table = {}
    acc = 0
    for i in range(1200):
        key = (i % 29, i % 7, -(i % 5))
        table[key] = table.get(key, 0) + 1
        acc += (key[0] * 3 - key[2]) // 2
    frac = Fraction(0)
    for i in range(1, 120):
        frac += Fraction(i % 5 - 2, i % 7 + 1)
    ordered = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return acc, frac, len(ordered)


def probe():
    """Best of REPEAT timed runs of the kernel, with the collector off so
    that the heap of the caller does not enter the time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(REPEAT):
            t = time.perf_counter()
            _kernel()
            dt = time.perf_counter() - t
            best = dt if best is None or dt < best else best
        return best
    finally:
        if enabled:
            gc.enable()
