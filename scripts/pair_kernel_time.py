#!/usr/bin/env python3
"""Time the pair kernel, `graphs.first_bad_pair`, on the gen and verify
sizes.

    PYTHONPATH=src python3 scripts/pair_kernel_time.py N

builds the glued DDG d(q,d) and its coclique-attached SRG s(q,d) at
(q, d) = (2, 5) and (4, 3), 992 to 1365 vertices, and at (2, 4) and
(3, 3), 240 to 364 vertices, in that order (cyclic quasigroup, random
bijection family from seed 0, identity block map), and a copy of each
with one degree-keeping 2-switch, edges ab and cd made ad and cb, placed
by random.Random(0).  It calls `first_bad_pair` on each as the
verifiers do, with the adjacency matrix as the strata of an SRG and the
`SameClass` of its classes for a DDG, N times in turn, each call timed
alone, and prints one JSON object: per input the median and the first and
third quartiles in ms, and the first bad pair (null for a pass).
"""

from __future__ import annotations

import json
import random
import sys
import time

import numpy as np

from srgforge import (affine_geometry_design, ClassBlockMap, construct_ddg,
                      construct_srg1, cyclic_quasigroup, Graph, make_field,
                      projective_complement_design, random_bijection_family)
from srgforge.gf import as_prime_power
from srgforge.graphs import first_bad_pair, SameClass


def glued(q: int, d: int):
    field = make_field(*as_prime_power(q))
    design = affine_geometry_design(field, d)
    m = design.n_classes
    qg = cyclic_quasigroup(m)
    ddg, partition = construct_ddg(
        [design] * m, qg, random_bijection_family(m, q, qg, 0))
    srg = construct_srg1(ddg, partition, projective_complement_design(
        field, d), ClassBlockMap.identity(m))
    return ddg, SameClass(partition.class_of()), srg


def _switched(g: Graph, rng: random.Random) -> Graph:
    m = g.matrix.copy()
    while True:
        a, c = rng.randrange(g.n), rng.randrange(g.n)
        b = rng.choice(g.neighbours(a))
        d = rng.choice(g.neighbours(c))
        if len({a, b, c, d}) == 4 and not m[a, d] and not m[c, b]:
            break
    for x, drop, add in ((a, b, d), (b, a, c), (c, d, b), (d, c, a)):
        m[x, drop] = m[drop, x] = False
        m[x, add] = m[add, x] = True
    return Graph(m)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit() or int(argv[0]) < 1:
        print("usage: pair_kernel_time.py N  (N >= 1 calls per input)",
              file=sys.stderr)
        return 2
    calls = int(argv[0])
    rng = random.Random(0)
    inputs = {}
    for q, d in ((2, 5), (4, 3), (2, 4), (3, 3)):
        ddg, classes, srg = glued(q, d)
        for name, g, strata in ((f"s({q},{d})", srg, None),
                                (f"d({q},{d})", ddg, classes)):
            inputs[name] = (g.matrix, strata)
            inputs[name + "-switched"] = (_switched(g, rng).matrix, strata)
    ms = {name: [] for name in inputs}
    bad = {}
    for _ in range(calls):
        for name, (m, strata) in inputs.items():
            start = time.perf_counter()
            bad[name] = first_bad_pair(
                m, m if strata is None else strata, (None, None))[0]
            ms[name].append((time.perf_counter() - start) * 1e3)
    report = {"calls": calls}
    for name, times in ms.items():
        q1, median, q3 = np.percentile(times, [25, 50, 75])
        report[name] = {"median_ms": round(float(median), 3),
                        "q1_ms": round(float(q1), 3),
                        "q3_ms": round(float(q3), 3),
                        "bad_pair": bad[name] and list(bad[name])}
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
