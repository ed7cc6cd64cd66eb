#!/usr/bin/env python3
"""Time srgforge's float32 product shapes on one BLAS thread and on the
default threads, with Python work between the calls.

    PYTHONPATH=src python3 scripts/product_latency.py N

multiplies two 0/1 float32 shapes N times each: a pair-kernel tile, 256 x
364 by 364 x 64 (`first_bad_pair` on a 364-vertex graph), and the 364 x
364 square A^2 of `exact_spectrum`.  Each call is timed alone, and about
2 ms of Python work runs between calls, as between the products of a
command.  It does this once inside the kernels' scope for a graph below
the crossover (`graphs._blas_scope(0)`, one BLAS thread) and once with
the threads numpy's BLAS starts with, and prints one JSON object: per
setting and shape the median and 99th percentile in ms and the number of
calls over 1 ms, and as "threads" the default thread count (null when
numpy's BLAS is not an OpenBLAS with a thread setter, and then both
settings run alike).  A default-threads p99 or count far above the
one-thread figures shows calls that waited for a BLAS worker thread.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext

import numpy as np

from srgforge import graphs

SHAPES = {"tile_256x364x64": ((256, 364), (364, 64)),
          "square_364": ((364, 364), (364, 364))}


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _times(calls: int, left, right) -> dict:
    ms = []
    for _ in range(calls):
        start = time.perf_counter()
        left @ right
        ms.append((time.perf_counter() - start) * 1e3)
        _busy(0.002)
    return {"median_ms": round(float(np.median(ms)), 4),
            "p99_ms": round(float(np.percentile(ms, 99)), 4),
            "over_1ms": sum(t > 1 for t in ms)}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit() or int(argv[0]) < 1:
        print("usage: product_latency.py N  (N >= 1 calls per shape)",
              file=sys.stderr)
        return 2
    calls = int(argv[0])
    rng = np.random.default_rng(0)
    operands = {name: [rng.integers(0, 2, shape).astype(np.float32)
                       for shape in shapes]
                for name, shapes in SHAPES.items()}
    lib = graphs._openblas_threads()
    report = {"calls": calls, "threads": lib and lib[1]()}
    for setting, scope in (("one_thread", graphs._blas_scope(0)),
                           ("default_threads", nullcontext())):
        with scope:
            report[setting] = {name: _times(calls, *pair)
                               for name, pair in operands.items()}
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
