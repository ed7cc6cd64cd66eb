#!/usr/bin/env python3
"""Time one layer of srgforge, call by call.

    PYTHONPATH=src python3 scripts/layer_time.py LAYER N

calls each input of LAYER N times, each call timed alone, and prints one
JSON object: "calls", N, and per input what LAYER reports.  LAYER is one of

pair-kernel  `graphs.first_bad_pair` on each graph of the ladder below, as
             the verifiers call it: with the adjacency matrix as the
             strata of an SRG and the `SameClass` of its classes for a
             DDG.  Per graph: the median and the first and third
             quartiles in ms, and the first bad pair (null for a pass).
graph6       `graphs.graph6_encode` and `graphs.graph6_decode` on the
             ladder's unswitched graphs, smallest (q, d) first.  Per
             graph: its vertex count and, for encode and decode, the
             median and quartiles in ms.
product      two 0/1 float32 shapes: a pair-kernel tile, 256 x 364 by 364
             x 64 (`first_bad_pair` on a 364-vertex graph), and the 364 x
             364 square A^2 of `exact_spectrum`, with about 2 ms of Python
             work after each call, as between the products of a command;
             once inside the kernels' scope for a graph below the
             crossover (`graphs._blas_scope(0)`, one BLAS thread),
             "one_thread", and once with the threads numpy's BLAS starts
             with, "default_threads".  Per setting and shape: the median
             and 99th percentile in ms and the number of calls over 1 ms;
             and as "threads" the default thread count (null when numpy's
             BLAS is not an OpenBLAS with a thread setter, and then both
             settings run alike).  A default-threads p99 or count far
             above the one-thread figures shows calls that waited for a
             BLAS worker thread.
canon        `canon.canonical_form` on N relabelled copies (random.Random(0)
             shuffles) of each graph the canon-small benchmark searches:
             T(8), the Chang graphs, Petersen, and the ladder's unswitched
             graphs at (2, 3) and (3, 2) as gen-ddg and gen-srg1 make them
             with --seed 1 (family seed 3).  Per graph: its vertex count
             and, "one_by_one" (each copy searched alone) and "shared"
             (one dict of known discrete partitions for all copies, as
             the canon and count-classes commands pass), the median and
             quartiles in ms per copy, the search nodes summed over the
             copies and, as "later_nodes", over the copies after the
             first; and for "shared", as "stored", the entries the dict
             holds after the last copy, one per distinct discrete
             partition of the searches that ran without a hit.

pair-kernel and graph6 call their inputs in turn N times over; product
makes one shape's N calls in a row, and canon one graph's N copies.  The
ladder is the glued DDG d(q,d) and its coclique-attached SRG s(q,d)
(cyclic quasigroup, random bijection family from seed 0 unless named,
identity block map) at (q, d) = (2, 5) and (4, 3), 992 to 1365 vertices,
and at (2, 4) and (3, 3), 240 to 364 vertices, each with a copy after one
degree-keeping 2-switch, edges ab and cd made ad and cb, placed by
random.Random(0) in that order.  A LAYER not named here or an N below 1
exits 2.
"""

from __future__ import annotations

import json
import random
import sys
import time
from contextlib import nullcontext

import numpy as np

from srgforge import (affine_geometry_design, as_prime_power, canon,
                      canonical_form, chang_graphs, ClassBlockMap,
                      construct_ddg, construct_srg1, cyclic_quasigroup,
                      Graph, graph6_decode, graph6_encode, graphs,
                      make_field, petersen_graph,
                      projective_complement_design, random_bijection_family,
                      triangular_graph)
from srgforge.graphs import first_bad_pair, SameClass


def ladder(pairs, family_seed: int = 0) -> dict:
    """Per (q, d) in pairs, s(q,d) and d(q,d) and their switched copies:
    name -> (graph, first_bad_pair's strata, None for an SRG's own)."""
    rng = random.Random(0)
    inputs = {}
    for q, d in pairs:
        field = make_field(*as_prime_power(q))
        design = affine_geometry_design(field, d)
        m = design.n_classes
        qg = cyclic_quasigroup(m)
        ddg, partition = construct_ddg(
            [design] * m, qg, random_bijection_family(m, q, qg, family_seed))
        srg = construct_srg1(ddg, partition, projective_complement_design(
            field, d), ClassBlockMap.identity(m))
        for name, g, strata in (
                (f"s({q},{d})", srg, None),
                (f"d({q},{d})", ddg, SameClass(partition.class_of()))):
            inputs[name] = g, strata
            inputs[name + "-switched"] = _switched(g, rng), strata
    return inputs


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


def _rounds(calls: int, jobs: dict, pause: float = 0.0):
    """Call each job, key -> (function, arguments), in turn, calls times
    over, each call timed alone and followed by pause seconds of Python
    work: key -> its times in ms, and key -> its last result."""
    ms, last = {key: [] for key in jobs}, {}
    for _ in range(calls):
        for key, (call, args) in jobs.items():
            start = time.perf_counter()
            last[key] = call(*args)
            ms[key].append((time.perf_counter() - start) * 1e3)
            end = time.perf_counter() + pause
            while time.perf_counter() < end:
                pass
    return ms, last


def _quartiles(ms: list[float]) -> dict:
    q1, median, q3 = np.percentile(ms, [25, 50, 75])
    return {"median_ms": round(float(median), 3),
            "q1_ms": round(float(q1), 3), "q3_ms": round(float(q3), 3)}


def pair_kernel(calls: int) -> dict:
    ms, bad = _rounds(calls, {
        name: (first_bad_pair, (g.matrix, g.matrix if strata is None
                                else strata, (None, None)))
        for name, (g, strata) in ladder(((2, 5), (4, 3), (2, 4),
                                         (3, 3))).items()})
    return {name: {**_quartiles(times), "bad_pair": bad[name][0]
                   and list(bad[name][0])} for name, times in ms.items()}


def graph6(calls: int) -> dict:
    inputs = {name: g for name, (g, _) in ladder(
        ((2, 4), (3, 3), (2, 5), (4, 3))).items()
        if not name.endswith("-switched")}
    ms, _ = _rounds(calls, {
        (name, direction): job for name, g in inputs.items()
        for direction, job in (("encode", (graph6_encode, (g,))),
                               ("decode", (graph6_decode,
                                           (graph6_encode(g),))))})
    return {name: {"vertices": g.n,
                   **{direction: _quartiles(ms[name, direction])
                      for direction in ("encode", "decode")}}
            for name, g in inputs.items()}


def product(calls: int) -> dict:
    rng = np.random.default_rng(0)
    operands = {name: [rng.integers(0, 2, shape).astype(np.float32)
                       for shape in shapes]
                for name, shapes in (
                    ("tile_256x364x64", ((256, 364), (364, 64))),
                    ("square_364", ((364, 364), (364, 364))))}
    lib = graphs._openblas_threads()
    report = {"threads": lib and lib[1]()}
    for setting, scope in (("one_thread", graphs._blas_scope(0)),
                           ("default_threads", nullcontext())):
        with scope:
            report[setting] = {}
            for name, pair in operands.items():
                ms = _rounds(calls, {name: (np.matmul, pair)}, 0.002)[0][name]
                report[setting][name] = {
                    "median_ms": round(float(np.median(ms)), 4),
                    "p99_ms": round(float(np.percentile(ms, 99)), 4),
                    "over_1ms": sum(t > 1 for t in ms)}
    return report


def canon_layer(calls: int) -> dict:
    searched = []  # the nodes of each search, in call order

    class Counted(canon._Search):
        def run(self):
            super().run()
            searched.append(self.nodes)

    inputs = dict(zip(("t8", "chang1", "chang2", "chang3", "petersen"),
                      (triangular_graph(8), *chang_graphs(),
                       petersen_graph())))
    inputs.update((name, g) for name, (g, _) in ladder(
        ((2, 3), (3, 2)), 3).items() if not name.endswith("-switched"))
    rng = random.Random(0)
    report = {}
    canon._Search, plain = Counted, canon._Search
    try:
        for name, g in inputs.items():
            copies = []
            for _ in range(calls):
                perm = list(range(g.n))
                rng.shuffle(perm)
                copies.append(g.relabel(tuple(perm)))
            report[name] = {"vertices": g.n}
            for mode, known in (("one_by_one", None), ("shared", {})):
                searched.clear()
                lines = iter(copies)
                ms = _rounds(calls, {mode: (
                    lambda: canonical_form(next(lines), known), ())})[0][mode]
                report[name][mode] = {**_quartiles(ms),
                                      "nodes": sum(searched),
                                      "later_nodes": sum(searched[1:])}
            report[name]["shared"]["stored"] = len(known)
    finally:
        canon._Search = plain
    return report


LAYERS = {"pair-kernel": pair_kernel, "graph6": graph6, "product": product,
          "canon": canon_layer}


def main(argv: list[str]) -> int:
    if (len(argv) != 2 or argv[0] not in LAYERS or not argv[1].isdecimal()
            or int(argv[1]) < 1):
        print(f"usage: layer_time.py {'|'.join(LAYERS)} N  (N >= 1 calls "
              "per input)", file=sys.stderr)
        return 2
    calls = int(argv[1])
    print(json.dumps({"calls": calls, **LAYERS[argv[0]](calls)},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
