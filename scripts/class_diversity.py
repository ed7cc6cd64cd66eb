#!/usr/bin/env python3
"""Sweep seeds and colorings, then count isomorphism classes.

Two experiments in one runner: seeded divisible-design-graph generation at
a fixed (q, d), and the 35-vertex clique-attachment sweep over Hoffman
colorings of the four (28,12,6,4) bases.  Prints one table per experiment
and a JSON summary if --out is given.
"""

from __future__ import annotations

import argparse
import itertools
import json

from srgforge import (affine_geometry_design, as_prime_power, chang_graphs,
                      ClassBlockMap, construct_ddg, construct_srg2,
                      count_classes, cyclic_quasigroup, fano_plane,
                      hoffman_colorings, make_field, random_bijection_family,
                      Srg2Config, triangular_graph)


def ddg_sweep(cfg: argparse.Namespace) -> dict:
    field = make_field(*as_prime_power(cfg.q))
    design = affine_geometry_design(field, cfg.d)
    m = design.n_classes
    quasigroup = cyclic_quasigroup(m)
    runs = []
    for seed in range(cfg.seeds):
        family = random_bijection_family(m, cfg.q, quasigroup, seed)
        g, _ = construct_ddg([design] * m, quasigroup, family)
        runs.append((g, seed))
    return count_classes(runs)


def srg2_sweep(cfg: argparse.Namespace) -> dict:
    fano = fano_plane()
    bases = [("t8", triangular_graph(8))]
    bases += [(f"chang{i + 1}", g) for i, g in enumerate(chang_graphs())]
    runs = []
    for name, base in bases:
        colorings = itertools.islice(hoffman_colorings(base),
                                     cfg.colorings_per_base)
        for idx, coloring in enumerate(colorings):
            srg = construct_srg2(Srg2Config(base, coloring, fano,
                                            ClassBlockMap.identity(7)))
            runs.append((srg, f"{name}:coloring{idx}"))
    return count_classes(runs)


def show(title: str, classes: dict) -> None:
    print(f"{title}: {len(classes)} classes")
    for key, entry in sorted(classes.items(),
                             key=lambda kv: -kv[1].count):
        print(f"  {entry.count:4d} runs  first={entry.first}  {key}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=3)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=200)
    parser.add_argument("--colorings-per-base", type=int, default=4)
    parser.add_argument("--out", help="write a JSON summary here")
    cfg = parser.parse_args()

    ddg_classes = ddg_sweep(cfg)
    show(f"DDG classes at (q={cfg.q}, d={cfg.d}) over {cfg.seeds} seeds",
         ddg_classes)
    srg_classes = srg2_sweep(cfg)
    show("SRG(35,18,9,9) classes over the coloring sweep", srg_classes)

    if cfg.out:
        summary = {
            "ddg": {k: {"count": e.count, "first": e.first}
                    for k, e in ddg_classes.items()},
            "srg35": {k: {"count": e.count, "first": str(e.first)}
                      for k, e in srg_classes.items()},
        }
        with open(cfg.out, "w", encoding="ascii") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")

    return 0 if len(ddg_classes) >= 2 and len(srg_classes) >= 2 else 1


if __name__ == "__main__":
    raise SystemExit(main())
