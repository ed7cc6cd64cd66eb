"""A fixed reference task that tracks the speed of the host.

The host this benchmark runs on is shared, and its speed drifts by tens of
percent over seconds to minutes; every timing in a run moves with it.  The
workload process therefore runs `measure()` right before and right after
each timed command.  The task uses no srgforge code, so no change to the
program can change its time.  It has three parts: interpreted integer
arithmetic; building and sorting a list of tuples, which allocates and
calls back into Python the way argparse, JSON and canon do; and a numpy
int64 product of 200 x 200 matrices, whose 320 KB operands make it slow
down with the host's caches the way exact_spectrum does.  Its time is the
geometric mean of the parts' times, so each part weighs the same.

Of the mixes tried (also big-integer row operations, smaller products, a
memory sweep, a gather and dict lookups), this one tracked the program's
canon, verify and spectrum work about as well as any: on a shared 2-core
host whose speed drifted by 20-50 % within two minutes, the drift of the
scaled times stayed within 4-11 %.

`scaled(seconds, ref)` turns a command's wall time into seconds on a host
on which `measure()` takes NOMINAL_S: wall time times NOMINAL_S over the
reference time measured around that command.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

# the reference time that scaled seconds are expressed against; about what
# measure() takes on an unloaded 2-core x86-64 host
NOMINAL_S = 0.003

_rng = random.Random(20220308)
_MATRIX = np.array([[_rng.randrange(2) for _ in range(200)]
                    for _ in range(200)], dtype=np.int64)


def _arith() -> int:
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def _alloc_sort() -> int:
    pairs = [(i, i * 7 % 17) for i in range(6000)]
    pairs.sort(key=lambda t: t[1])
    return pairs[0][0]


def _matmul() -> int:
    return int((_MATRIX @ _MATRIX).sum())


PARTS = (_arith, _alloc_sort, _matmul)


def measure() -> float:
    """Seconds the reference task takes now (geometric mean of its parts)."""
    log_sum = 0.0
    for part in PARTS:
        t0 = time.perf_counter()
        part()
        log_sum += math.log(time.perf_counter() - t0)
    return math.exp(log_sum / len(PARTS))


def scaled(seconds: float, ref: float) -> float:
    """Wall seconds at the host speed where measure() takes NOMINAL_S."""
    return seconds * NOMINAL_S / ref
