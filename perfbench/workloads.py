"""Seeded inputs and command schedules for the benchmark workloads.

Everything here runs before the timed loop and draws only on the workload
seed.  A workload run is a fixed number of rounds; each round is a list of
`Cmd`s run one at a time.  Every `Cmd` carries the argv the CLI sees and an
`expect` record that tells the output checker what a correct run produces.
The program under test sees only argv, stdin and the files named in argv.

Library calls made here (graph construction, relabelling, graph6 encoding)
happen while building inputs, never inside the timed loop or a trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path

from srgforge.ddg import (construct_ddg, cyclic_quasigroup,
                          random_bijection_family, random_left_quasigroup)
from srgforge.designs import (affine_geometry_design, fano_plane,
                              projective_complement_design)
from srgforge.gf import as_prime_power, make_field
from srgforge.graphs import graph6_encode, petersen_graph
from srgforge.srg import (chang_graphs, ClassBlockMap, construct_srg1,
                          construct_srg2, hoffman_colorings, Srg2Config,
                          triangular_graph)


@dataclass(frozen=True)
class Cmd:
    kind: str          # label for per-subcommand medians and the checker
    argv: tuple
    expect: dict
    pipe: bool = False  # stdin is the previous command's stdout


def retarget(cmd: Cmd, src: Path, dst: Path) -> Cmd:
    """The same command with its --out prefix moved from src to dst."""
    if "prefix" not in cmd.expect:
        return cmd
    prefix = str(dst / Path(cmd.expect["prefix"]).relative_to(src))
    argv = tuple(prefix if a == cmd.expect["prefix"] else a for a in cmd.argv)
    return replace(cmd, argv=argv, expect={**cmd.expect, "prefix": prefix})


def _seed(rng: random.Random) -> int:
    return rng.randrange(1 << 30)


def _gen(sub: str, q: int, d: int, seed: int, quasigroup: str,
         prefix: Path, **extra) -> Cmd:
    argv = (sub, "--q", str(q), "--d", str(d), "--seed", str(seed),
            "--quasigroup", quasigroup, "--out", str(prefix))
    return Cmd(sub, argv, {"q": q, "d": d, "seed": seed,
                           "prefix": str(prefix), **extra})


# ---------------------------------------------------------------------------
# graph sources, built the way the CLI generators build them


def glued_graphs(q: int, d: int, seed: int, quasigroup: str):
    """(DDG, partition, coclique-attached SRG) as gen-ddg/gen-srg1 make them
    with `--seed seed --quasigroup quasigroup --family random`."""
    field = make_field(*as_prime_power(q))
    design = affine_geometry_design(field, d)
    m = design.n_classes
    qg = (cyclic_quasigroup(m) if quasigroup == "cyclic"
          else random_left_quasigroup(m, 2 * seed))
    family = random_bijection_family(m, q, qg, 2 * seed + 1)
    g, partition = construct_ddg([design] * m, qg, family)
    srg = construct_srg1(g, partition, projective_complement_design(field, d),
                         ClassBlockMap.identity(m))
    return g, partition, srg


SRG2_BASES = ("t8", "chang1", "chang2", "chang3")


def named_graphs() -> dict:
    t8 = triangular_graph(8)
    chang = chang_graphs()
    return {"t8": t8, "chang1": chang[0], "chang2": chang[1],
            "chang3": chang[2], "petersen": petersen_graph()}


def srg2_output(base, coloring_index: int):
    """The graph `gen-srg2 --coloring coloring_index` prints for this base."""
    coloring = next(islice(hoffman_colorings(base), coloring_index, None))
    return construct_srg2(Srg2Config(base, coloring, fano_plane(),
                                     ClassBlockMap.identity(
                                         len(coloring.classes))))


def relabelled_g6(g, rng: random.Random) -> str:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph6_encode(g.relabel(perm))


# ---------------------------------------------------------------------------
# an independent replay of the verifiers' pair loop, for failing inputs


def first_witness(rows, stratum, names):
    """First pair whose common-neighbour count differs from the first count
    seen in its stratum, as the verifiers report it; None if there is none.
    Returns (witness, first count per stratum)."""
    seen: dict = {}
    n = len(rows)
    for u in range(n):
        row_u = rows[u]
        for w in range(u + 1, n):
            s = stratum(u, w)
            c = (row_u & rows[w]).bit_count()
            first = seen.setdefault(s, c)
            if c != first:
                return ({"check": names[s], "pair": [u, w], "count": c,
                         "expected": first}, seen)
    return None, seen


def _neighbours(row: int) -> list[int]:
    return [v for v in range(row.bit_length()) if row >> v & 1]


def _flip_edges(g6: str, n: int, edges) -> str:
    """Toggle the graph6 body bits of the given vertex pairs."""
    data = bytearray(g6.encode("ascii"))
    head = 1 if n <= 62 else 4
    for u, w in edges:
        i, j = min(u, w), max(u, w)
        pos = j * (j - 1) // 2 + i
        data[head + pos // 6] = ((data[head + pos // 6] - 63)
                                 ^ (1 << (5 - pos % 6))) + 63
    return data.decode("ascii")


def two_switch(rows, rng: random.Random):
    """Degree-preserving switch ab, cd -> ad, cb placed from rng."""
    n = len(rows)
    while True:
        a, c = rng.randrange(n), rng.randrange(n)
        b = rng.choice(_neighbours(rows[a]))
        d = rng.choice(_neighbours(rows[c]))
        if (len({a, b, c, d}) == 4 and not rows[a] >> d & 1
                and not rows[c] >> b & 1):
            return a, b, c, d


def _switched(rows, a, b, c, d):
    out = list(rows)
    for x, drop, add in ((a, b, d), (b, a, c), (c, d, b), (d, c, a)):
        out[x] = out[x] ^ (1 << drop) ^ (1 << add)
    return out


# ---------------------------------------------------------------------------
# workloads


def gen_mid(rng: random.Random, work: Path, rounds: int) -> list[list[Cmd]]:
    """gen-ddg and gen-srg1 at (2,4) with both quasigroup sources and at
    (3,3) with the source alternating by round: 240 to 364 vertices, no
    canon (the manifest skips canon above 64 vertices)."""
    out = []
    for r in range(rounds):
        cmds = []
        for q, d, sources in ((2, 4, ("cyclic", "random")),
                              (3, 3, (("cyclic", "random")[r % 2],))):
            for source in sources:
                for sub in ("gen-ddg", "gen-srg1"):
                    cmds.append(_gen(sub, q, d, _seed(rng), source,
                                     work / f"r{r}-{sub}-{q}-{d}-{source}"))
        out.append(cmds)
    return out


VERIFY_LARGE = ((2, 5), (4, 3))
# (kind, q, d) entries run once per round.  The repeats weight each round
# toward the largest inputs.
VERIFY_PASS_MIX = (("ddg", 2, 5), ("srg", 2, 5), ("ddg", 4, 3), ("ddg", 4, 3),
                   ("srg", 4, 3), ("srg", 4, 3))
VERIFY_FAIL_MIX = (("ddg", 2, 5), ("srg", 2, 5), ("ddg", 4, 3), ("srg", 4, 3),
                   ("srg", 4, 3))


def verify_large(rng: random.Random, work: Path,
                 rounds: int) -> list[list[Cmd]]:
    """verify --expect ddg/srg on the (2,5) and (4,3) outputs (992 to 1365
    vertices) and on 2-switched copies of them that must fail."""
    sources = {}
    for q, d in VERIFY_LARGE:
        g, partition, srg = glued_graphs(q, d, _seed(rng),
                                         rng.choice(("cyclic", "random")))
        classes = work / f"ddg-{q}-{d}.classes"
        classes.write_text("".join(" ".join(map(str, c)) + "\n"
                                   for c in partition.classes))
        cls = partition.class_of()
        m, size = len(partition.classes), len(partition.classes[0])
        for kind, graph in (("ddg", g), ("srg", srg)):
            path = work / f"{kind}-{q}-{d}.g6"
            text = graph6_encode(graph)
            path.write_text(text + "\n")
            src = {"text": text, "path": path, "rows": graph.rows}
            if kind == "ddg":
                src.update(extra=("--classes", str(classes)),
                           stratum=lambda u, w, c=cls: c[u] == c[w],
                           names={True: "same-class", False: "cross-class"},
                           params=lambda seen, m=m, size=size: {
                               "lambda1": seen.get(True, 0),
                               "lambda2": seen.get(False, 0),
                               "m": m, "n": size})
            else:
                src.update(extra=(),
                           stratum=lambda u, w, rows=graph.rows:
                               rows[u] >> w & 1,
                           names={1: "lambda", 0: "mu"},
                           params=lambda seen: {"lambda": seen.get(1, 0),
                                                "mu": seen.get(0, 0)})
            sources[kind, q, d] = src

    def verify_argv(kind, src, path):
        return ("verify", "--expect", kind, *src["extra"], "--in", str(path))

    out = []
    for r in range(rounds):
        cmds = []
        for kind, q, d in VERIFY_PASS_MIX:
            src = sources[kind, q, d]
            cmds.append(Cmd("verify-pass", verify_argv(kind, src, src["path"]),
                            {"kind": kind, "q": q, "d": d, "n": len(src["rows"]),
                             "rc": 0}))
        for i, (kind, q, d) in enumerate(VERIFY_FAIL_MIX):
            src = sources[kind, q, d]
            rows = src["rows"]
            while True:
                a, b, c, d_ = two_switch(rows, rng)
                switched = _switched(rows, a, b, c, d_)
                witness, seen = first_witness(switched, src["stratum"],
                                              src["names"])
                if witness is not None:
                    break
            path = work / f"r{r}-{i}-{kind}-{q}-{d}-switched.g6"
            path.write_text(_flip_edges(src["text"], len(rows),
                                        ((a, b), (c, d_), (a, d_), (c, b)))
                            + "\n")
            n, k = len(rows), rows[0].bit_count()
            cert = {"kind": kind, "passed": False, "provenance": {},
                    "parameters": {"v": n, "k": k, **src["params"](seen)},
                    "witnesses": [witness]}
            cmds.append(Cmd("verify-fail", verify_argv(kind, src, path),
                            {"kind": kind, "q": q, "d": d, "n": n, "rc": 1,
                             "cert": cert}))
        out.append(cmds)
    return out


CANON_GLUED = ((3, 2), (2, 3))
KNOWN_AUT = {"t8": 40320, "chang1": 384, "chang2": 360, "chang3": 96,
             "petersen": 120}
CLASS_BATCH = ("t8", "chang1", "chang2", "chang3")
BATCH_COPIES = 2
CENSUS = ((2, 2), (3, 2), (2, 3))


def canon_copies(n: int) -> int:
    """Relabelled copies per canon input.  Canon's search cost depends on
    the labelling, so each command averages over more than one; the 56-
    and 63-vertex graphs, whose cost varies most and which make up the
    tail, get more."""
    return 4 if n >= 50 else 2


def canon_small(rng: random.Random, work: Path,
                rounds: int) -> list[list[Cmd]]:
    """15 to 63 vertices: gen-srg2 on every base and colorings 0-3, gen-ddg
    and gen-srg1 at (3,2) and (2,3), canon on relabelled copies of all of
    those and of T(8), the Chang graphs and Petersen, count-classes on a
    batch of T(8) and Chang copies, and sp-graph piped into clique-census."""
    named = named_graphs()
    srg2 = {(b, c): srg2_output(named[b], c)
            for b in SRG2_BASES for c in range(4)}
    out = []
    for r in range(rounds):
        cmds = []
        graphs = {}
        for (base, c), g in srg2.items():
            gid = f"srg2-{base}-{c}"
            graphs[gid] = g
            prefix = str(work / f"r{r}-{gid}")
            cmds.append(Cmd("gen-srg2", ("gen-srg2", "--base", base,
                                         "--coloring", str(c), "--out", prefix),
                            {"prefix": prefix, "graph_id": gid}))
        for q, d in CANON_GLUED:
            # one fixed instance per round index, the same for every workload
            # seed: canon's cost differs several-fold between these graphs,
            # so drawing them from the seed would swamp the run-to-run spread
            seed = r + 1
            g, _, srg = glued_graphs(q, d, seed, "cyclic")
            for sub, graph in (("gen-ddg", g), ("gen-srg1", srg)):
                gid = f"{sub}-{q}-{d}-s{seed}"
                graphs[gid] = graph
                cmds.append(_gen(sub, q, d, seed, "cyclic",
                                 work / f"r{r}-{sub}-{q}-{d}", graph_id=gid))
        graphs.update(named)
        for gid, g in graphs.items():
            path = work / f"r{r}-canon-{gid}.g6"
            copies = canon_copies(g.n)
            path.write_text("".join(relabelled_g6(g, rng) + "\n"
                                    for _ in range(copies)))
            cmds.append(Cmd("canon", ("canon", "--in", str(path)),
                            {"graph_id": gid, "n": g.n, "copies": copies,
                             "aut": KNOWN_AUT.get(gid)}))
        batch = [gid for gid in CLASS_BATCH for _ in range(BATCH_COPIES)]
        rng.shuffle(batch)
        path = work / f"r{r}-batch.g6"
        path.write_text("".join(relabelled_g6(named[gid], rng) + "\n"
                                for gid in batch))
        cmds.append(Cmd("count-classes", ("count-classes", "--in", str(path)),
                        {"first": {gid: batch.index(gid) for gid in CLASS_BATCH},
                         "count": BATCH_COPIES}))
        for q, d in CENSUS:
            cmds.append(Cmd("sp-graph", ("sp-graph", "--q", str(q), "--d",
                                         str(d), "--complement"),
                            {"n": (q ** (2 * d) - 1) // (q - 1)}))
            cmds.append(Cmd("clique-census", ("clique-census",),
                            {"q": q, "d": d}, pipe=True))
        out.append(cmds)
    return out


# name -> (round maker, rounds per second of --seconds), sized so that a run
# takes about --seconds on a 2-core x86 host
WORKLOADS = {
    "gen-mid": (gen_mid, 0.5),
    "verify-large": (verify_large, 0.1),
    "canon-small": (canon_small, 0.105),
}


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds in one run: fixed by --seconds, not by the clock, so that every
    run of a workload draws the same number of samples of each command."""
    return max(2, round(seconds * WORKLOADS[workload][1]))


def build(workload: str, seed: int, work: Path, rounds: int) -> list[list[Cmd]]:
    make_rounds = WORKLOADS[workload][0]
    return make_rounds(random.Random(f"{workload}:{seed}"), work, rounds)
