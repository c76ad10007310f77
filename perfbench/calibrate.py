"""The speed of the machine, measured between computations.

On a shared machine the processor this process runs on slows down and
speeds up by up to 2x over seconds to minutes (other work on the same
cores), and loses whole time slices to the hypervisor.  A fixed reference
computation, timed right before and right after each timed computation,
measures the current speed; a time divided by it and multiplied by
`REFERENCE_S` is that time at the speed the reference computation has on
an uncontended processor of the machine the bounds were set on.

Times are thread CPU times (`time.thread_time`), so time slices taken by
the hypervisor do not count; the process is single-threaded and does no
I/O while it computes.
"""

from __future__ import annotations

import random
import time

# Sparse elimination over F_3, the kind of work curvlab does: the rank of
# 24 fixed vectors of length 24, computed 4 times (about 1.5 ms).  Changing
# it rescales every reported time.
_RNG = random.Random(0)
_VECTORS = [{j: c for j in range(24) if (c := _RNG.randrange(3))} for _ in range(24)]

# CPU time of one `probe()` on an uncontended 2-vCPU Xeon (the machine the
# bounds in BENCHMARK.json were set on), Python 3.11.
REFERENCE_S = 0.0015


def _rank(vectors) -> int:
    rows = {}  # pivot -> row with 1 there
    for v in vectors:
        v = dict(v)
        for piv, row in rows.items():
            c = v.get(piv)
            if c:
                for i, x in row.items():
                    s = (v.get(i, 0) - c * x) % 3
                    if s:
                        v[i] = s
                    else:
                        v.pop(i, None)
        if v:
            piv = min(v)
            inv = v[piv]  # its own inverse mod 3
            rows[piv] = {i: x * inv % 3 for i, x in v.items()}
    return len(rows)


def _sample() -> float:
    t0 = time.thread_time()
    for _ in range(4):
        _rank(_VECTORS)
    return time.thread_time() - t0


def probe() -> float:
    """CPU time of the reference computation now: the least of three."""
    return min(_sample() for _ in range(3))


class Clock:
    """Times computations in reference seconds."""

    def __init__(self):
        self.last = probe()

    def time(self, fn, *args):
        """(fn(*args), reference seconds, raw CPU seconds)."""
        before = self.last
        t0 = time.thread_time()
        out = fn(*args)
        raw = time.thread_time() - t0
        self.last = probe()
        return out, raw * REFERENCE_S / ((before + self.last) / 2), raw
