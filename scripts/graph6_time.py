#!/usr/bin/env python3
"""Time the graph6 codec, `graphs.graph6_encode` and `graphs.graph6_decode`,
on the gen and verify sizes.

    PYTHONPATH=src python3 scripts/graph6_time.py N

builds the glued DDG d(q,d) and its coclique-attached SRG s(q,d) at
(q, d) = (2, 4) and (3, 3), 240 to 364 vertices, and at (2, 5) and (4, 3),
992 to 1365 vertices, as `pair_kernel_time.py` does.  It encodes and
decodes each N times in turn, each call timed alone, and prints one JSON
object: per input its vertex count and, for encode and decode, the median
and the first and third quartiles in ms.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from pair_kernel_time import glued
from srgforge import graph6_decode, graph6_encode


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit() or int(argv[0]) < 1:
        print("usage: graph6_time.py N  (N >= 1 calls per input and "
              "direction)", file=sys.stderr)
        return 2
    calls = int(argv[0])
    inputs = {}
    for q, d in ((2, 4), (3, 3), (2, 5), (4, 3)):
        ddg, _, srg = glued(q, d)
        inputs[f"s({q},{d})"], inputs[f"d({q},{d})"] = srg, ddg
    texts = {name: graph6_encode(g) for name, g in inputs.items()}
    ms = {name: {"encode": [], "decode": []} for name in inputs}
    for _ in range(calls):
        for name, g in inputs.items():
            for direction, call, arg in (("encode", graph6_encode, g),
                                         ("decode", graph6_decode,
                                          texts[name])):
                start = time.perf_counter()
                call(arg)
                ms[name][direction].append(
                    (time.perf_counter() - start) * 1e3)
    report = {"calls": calls}
    for name, times in ms.items():
        report[name] = {"vertices": inputs[name].n}
        for direction, series in times.items():
            q1, median, q3 = np.percentile(series, [25, 50, 75])
            report[name][direction] = {"median_ms": round(float(median), 3),
                                       "q1_ms": round(float(q1), 3),
                                       "q3_ms": round(float(q3), 3)}
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
