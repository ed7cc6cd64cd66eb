#!/usr/bin/env python3
"""Replay a fixed command set through the CLI and print output digests.

Runs every command in-process through `srgforge.cli.main`, in one working
directory, and prints `exit <code>  <command>` and `<sha256>  stdout of
<command>` per command, then `<sha256>  <file>` for every file written.
Two checkouts that print the same lines wrote the same bytes, so a
refactor shows that it kept behaviour by diffing this output before and
after:

    PYTHONPATH=src python3 scripts/replay_digests.py > before.txt

The command set:

- `gen-ddg` and `gen-srg1` on the (q, d) ladder, seeds 0 and 5, cyclic and
  random quasigroups;
- `gen-srg2` on the four 28-vertex bases, colorings 0 to 2;
- `verify` of every generated graph (`--expect ddg --classes` for the
  divisible design graphs, `--expect srg` for the others);
- `canon` of every generated graph with at most 63 vertices (larger
  searches can run until `canon.MAX_NODES` stops them, tens of seconds at
  240 vertices);
- `sp-graph --complement` piped into `clique-census` at (2,2), (3,2) and
  (2,3);
- after the digests of those files, runs that read their inputs from
  files, at the first (q, d) of the ladder: `gen-ddg` and `gen-srg1` with
  `--quasigroup file:` and `--family file:` from the saved seed-5 random
  run, `gen-srg1` with `--phi FILE` and `--phi file:FILE`, and `gen-srg2`
  with `--design file:` (a saved Fano plane) and `--base g6:` (a saved
  T(8)); then the digests of the files these add;
- last, `spectrum` on the seed-0 cyclic outputs of the first (q, d):
  `--ddg` and `--srg` with their formula parameters, `--candidates` with
  the DDG's theta1 written as +-sqrt(k - lambda1), a radical within the
  degree bound and one past it, `--candidates` with 2^60 beside the SRG
  eigenvalues, and one list that misses an eigenvalue (exit 2);
- then fields past GF(4), whatever the ladder: `sp-graph` over GF(8),
  `gen-ddg` over GF(8) and `gen-srg1` over GF(9), at d = 2 and seed 0,
  and the digests of the files these add;
- then `verify --expect ddg --classes` and `verify --expect srg` on the
  seed-0 cyclic outputs of the first (q, d) with their last edge removed,
  which fail on the regularity witness, and the digests of the files these
  add;
- then `spectrum` on two disjoint Petersen graphs with 3, 1, -2: they
  are regular of degree 3 but disconnected, so the product of the other
  factors is not constant and the degree factor A - 3I is multiplied in;
  and on C5 with 2, +-sqrt(5), which misses its eigenvalues
  (-1 +- sqrt(5))/2 (exit 2); then the digests of the two graph files;
- finally, at every (q, d) of the ladder, `verify --expect ddg --classes`
  and `verify --expect srg` on the seed-0 cyclic outputs after one
  degree-preserving 2-switch drawn with a fixed seed, which keep their
  degrees and fail on a common-neighbour pair witness; then the digests of
  the files these add;
- after those, `spectrum` runs that reach the modular trace solve and the
  modular zero test: the seed-0 cyclic SRG of the first (q, d) with
  -30..30 and its degree k, K_20 with -19..19 and the first 150 non-square
  radicands (a 339-row solve), and K3 x K4 x K5 x K7 with its 14
  eigenvalues, whose annihilating product is bounded past 2^53; then the
  digests of the two graph files;
- then refusals, which exit 2: `canon` on Petersen followed by an
  edgeless 257-vertex line (over the canon vertex limit) and on Petersen
  followed by the malformed line `I?????`, and `sp-graph --q 2 --d 4
  --complement` piped into `clique-census` (255 vertices, over the census
  limit); then the digests of the two graph files;
- last of all, `canon` and `count-classes` on one file of T(8), two
  relabelled copies of it, the Chang graphs and Petersen, where the
  copies' searches stop at T(8)'s known canonical leaf; then the digest
  of that file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import math
import os
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

from srgforge import (chang_graphs, complete_graph, cycle_graph, empty_graph,
                      fano_plane, from_edges, Graph, graph6_decode,
                      graph6_encode, petersen_graph, save_design,
                      srg1_target_params, srg_spectrum, theorem1_params,
                      triangular_graph)
from srgforge.cli import main as cli_main

LADDER = ((2, 3), (3, 2), (4, 2), (2, 4), (3, 3), (2, 5), (4, 3))
CANON_MAX_VERTICES = 63


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], stdin: str = "") -> str:
    """Run one command, print its exit code and stdout digest; return the
    stdout."""
    out = io.StringIO()
    old_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
    finally:
        sys.stdin = old_stdin
    command = " ".join(argv)
    print(f"exit {code}  {command}")
    print(f"{_sha(out.getvalue().encode())}  stdout of {command}")
    return out.getvalue()


def replay(ladder) -> None:
    graphs = []  # (prefix, expect)
    for q, d in ladder:
        for seed in (0, 5):
            for qg in ("cyclic", "random"):
                for cmd, kind in (("gen-ddg", "ddg"), ("gen-srg1", "srg")):
                    prefix = f"{cmd[4:]}-q{q}-d{d}-s{seed}-{qg}"
                    run([cmd, "--q", str(q), "--d", str(d), "--seed",
                         str(seed), "--quasigroup", qg, "--out", prefix])
                    graphs.append((prefix, kind))
    for base in ("t8", "chang1", "chang2", "chang3"):
        for coloring in range(3):
            prefix = f"srg2-{base}-c{coloring}"
            run(["gen-srg2", "--base", base, "--coloring", str(coloring),
                 "--out", prefix])
            graphs.append((prefix, "srg"))

    for prefix, kind in graphs:
        if not os.path.exists(prefix + ".g6"):
            continue
        flags = ["--classes", prefix + ".classes"] if kind == "ddg" else []
        run(["verify", "--expect", kind, *flags, "--in", prefix + ".g6",
             "--cert", prefix + ".verify.json"])
        with open(prefix + ".g6", encoding="ascii") as fh:
            n = graph6_decode(fh.read()).n
        if n <= CANON_MAX_VERTICES:
            run(["canon", "--in", prefix + ".g6"])

    for q, d in ((2, 2), (3, 2), (2, 3)):
        text = run(["sp-graph", "--q", str(q), "--d", str(d), "--complement"])
        run(["clique-census"], stdin=text)

    listed = print_files()
    replay_file_inputs(*ladder[0])
    listed = print_files(listed)
    replay_spectrum(*ladder[0])
    run(["sp-graph", "--q", "8", "--d", "2"])
    run(["gen-ddg", "--q", "8", "--d", "2", "--seed", "0"])
    run(["gen-srg1", "--q", "9", "--d", "2", "--seed", "0"])
    listed = print_files(listed)
    replay_removed_edge(*ladder[0])
    listed = print_files(listed)
    replay_degree_factor()
    listed = print_files(listed)
    replay_two_switched(ladder)
    listed = print_files(listed)
    replay_modular(*ladder[0])
    listed = print_files(listed)
    replay_refusals()
    listed = print_files(listed)
    replay_shared_classes()
    print_files(listed)


def replay_file_inputs(q: int, d: int) -> None:
    saved = f"ddg-q{q}-d{d}-s5-random"
    flags = ["--q", str(q), "--d", str(d), "--seed", "5"]
    files = ["--quasigroup", f"file:{saved}.quasigroup",
             "--family", f"file:{saved}.family"]
    run(["gen-ddg", *flags, *files, "--out", "file-ddg"])
    run(["gen-srg1", *flags, *files, "--out", "file-srg1"])

    m = (q**d - 1) // (q - 1)
    Path("phi.txt").write_text(" ".join(map(str, [*range(1, m), 0])) + "\n",
                               encoding="ascii")
    for phi, prefix in (("phi.txt", "phi-srg1"),
                        ("file:phi.txt", "file-phi-srg1")):
        run(["gen-srg1", *flags, "--quasigroup", "random", "--phi", phi,
             "--out", prefix])

    save_design(fano_plane(), "fano.txt")
    run(["gen-srg2", "--base", "t8", "--design", "file:fano.txt",
         "--out", "file-srg2-design"])
    Path("t8.g6").write_text(graph6_encode(triangular_graph(8)) + "\n",
                             encoding="ascii")
    run(["gen-srg2", "--base", "g6:t8.g6", "--out", "file-srg2-base"])


def replay_spectrum(q: int, d: int) -> None:
    ddg = ["spectrum", "--in", f"ddg-q{q}-d{d}-s0-cyclic.g6"]
    srg = ["spectrum", "--in", f"srg1-q{q}-d{d}-s0-cyclic.g6"]
    params = theorem1_params(q, d)
    target = srg1_target_params(q, d)
    run([*ddg, "--ddg", ",".join(map(str, (
        params.v, params.k, params.lambda1, params.lambda2, params.m,
        params.n)))])
    run([*srg, "--srg", ",".join(map(str, (
        target.v, target.k, target.lam, target.mu)))])
    k, r, s = [e for e, _ in srg_spectrum(target).entries()]
    run([*ddg, f"--candidates={params.k},sqrt({params.k - params.lambda1}),"
         f"-sqrt({params.k - params.lambda1}),0,sqrt(2),"
         f"-sqrt({params.k ** 2 + 1})"])
    run([*srg, f"--candidates={2 ** 60},{k},{r},{s}"])
    run([*srg, f"--candidates={k},{r}"])


def replay_removed_edge(q: int, d: int) -> None:
    """verify the seed-0 cyclic outputs of (q, d) with their last edge uv
    removed: vertices u and v lose a neighbour, and the regularity witness
    names vertex 0 and u."""
    for prefix, kind in ((f"ddg-q{q}-d{d}-s0-cyclic", "ddg"),
                         (f"srg1-q{q}-d{d}-s0-cyclic", "srg")):
        with open(prefix + ".g6", encoding="ascii") as fh:
            g = graph6_decode(fh.read())
        m = g.matrix.copy()
        u, v = max(g.edges())
        m[u, v] = m[v, u] = False
        Path(f"cut-{prefix}.g6").write_text(graph6_encode(Graph(m)) + "\n",
                                            encoding="ascii")
        flags = ["--classes", prefix + ".classes"] if kind == "ddg" else []
        run(["verify", "--expect", kind, *flags, "--in", f"cut-{prefix}.g6",
             "--cert", f"cut-{prefix}.verify.json"])


def replay_degree_factor() -> None:
    pet = petersen_graph()
    two = from_edges(20, [*pet.edges(),
                          *((u + 10, w + 10) for u, w in pet.edges())])
    for name, g in (("two-petersen.g6", two), ("c5.g6", cycle_graph(5))):
        Path(name).write_text(graph6_encode(g) + "\n", encoding="ascii")
    run(["spectrum", "--in", "two-petersen.g6", "--candidates=3,1,-2"])
    run(["spectrum", "--in", "c5.g6", "--candidates=2,sqrt(5),-sqrt(5)"])


def replay_two_switched(ladder) -> None:
    """verify the seed-0 cyclic outputs of every (q, d) after one 2-switch:
    edges ab and cd, drawn by random.Random(0) from the edges u < w in
    lexicographic order, with ac and bd absent, become ac and bd.  Every
    degree stays, so the verifiers pass the regularity check and stop on
    a pair whose common-neighbour count breaks its stratum."""
    for q, d in ladder:
        for prefix, kind in ((f"ddg-q{q}-d{d}-s0-cyclic", "ddg"),
                             (f"srg1-q{q}-d{d}-s0-cyclic", "srg")):
            if not os.path.exists(prefix + ".g6"):
                continue
            with open(prefix + ".g6", encoding="ascii") as fh:
                m = graph6_decode(fh.read()).matrix.copy()
            edges = np.argwhere(np.triu(m)).tolist()
            rnd = random.Random(0)
            while True:
                (a, b), (c, e) = rnd.sample(edges, 2)
                if len({a, b, c, e}) == 4 and not (m[a, c] or m[b, e]):
                    break
            m[a, b] = m[b, a] = m[c, e] = m[e, c] = False
            m[a, c] = m[c, a] = m[b, e] = m[e, b] = True
            Path(f"switched-{prefix}.g6").write_text(
                graph6_encode(Graph(m)) + "\n", encoding="ascii")
            flags = ["--classes", prefix + ".classes"] if kind == "ddg" else []
            run(["verify", "--expect", kind, *flags,
                 "--in", f"switched-{prefix}.g6",
                 "--cert", f"switched-{prefix}.verify.json"])


def replay_modular(q: int, d: int) -> None:
    """spectrum runs past the float-only paths: an SRG with 61 integer
    candidates besides its degree, K_20 with 189 candidates, and a product
    of complete graphs, whose eigenvalues are the sums of one of k - 1 and
    -1 per factor K_k, zero-tested modulo primes."""
    k = srg1_target_params(q, d).k
    run(["spectrum", "--in", f"srg1-q{q}-d{d}-s0-cyclic.g6",
         "--candidates=" + ",".join(map(str, [*range(-30, 31), k]))])
    rads = [t for t in range(2, 400) if math.isqrt(t) ** 2 != t][:150]
    m = np.zeros((1, 1), bool)
    for order in (3, 4, 5, 7):
        m = np.kron(m, np.eye(order, dtype=bool)) | \
            np.kron(np.eye(len(m), dtype=bool), ~np.eye(order, dtype=bool))
    for name, g in (("k20.g6", complete_graph(20)),
                    ("k3457.g6", Graph(m))):
        Path(name).write_text(graph6_encode(g) + "\n", encoding="ascii")
    run(["spectrum", "--in", "k20.g6", "--candidates=" + ",".join(
        [*map(str, range(-19, 20)), *(f"sqrt({t})" for t in rads)])])
    eigs = {sum(choice) for choice in itertools.product(
        *[(order - 1, -1) for order in (3, 4, 5, 7)])}
    run(["spectrum", "--in", "k3457.g6",
         "--candidates=" + ",".join(map(str, sorted(eigs)))])


def replay_refusals() -> None:
    """Runs that exit 2 on a resource limit or a malformed line after a
    good one; their stdout digests show what a refusal prints."""
    pet = graph6_encode(petersen_graph())
    for name, second in (("pet-e257.g6", graph6_encode(empty_graph(257))),
                         ("pet-bad.g6", "I?????")):
        Path(name).write_text(f"{pet}\n{second}\n", encoding="ascii")
        run(["canon", "--in", name])
    text = run(["sp-graph", "--q", "2", "--d", "4", "--complement"])
    run(["clique-census"], stdin=text)


def replay_shared_classes() -> None:
    """One canon and one count-classes run over several lines, some of
    them isomorphic, so that later lines reach an earlier line's leaf."""
    t8 = triangular_graph(8)
    copies = []
    for seed in (1, 2):
        perm = list(range(t8.n))
        random.Random(seed).shuffle(perm)
        copies.append(t8.relabel(tuple(perm)))
    graphs = (t8, copies[0], *chang_graphs(), copies[1], petersen_graph())
    Path("classes.g6").write_text(
        "".join(graph6_encode(g) + "\n" for g in graphs), encoding="ascii")
    run(["canon", "--in", "classes.g6"])
    run(["count-classes", "--in", "classes.g6"])


def print_files(listed: frozenset = frozenset()) -> frozenset:
    """Print the digest of every file in the working directory not in
    listed; return the names of all of them."""
    paths = sorted(Path(".").iterdir())
    for path in paths:
        if path.name not in listed:
            print(f"{_sha(path.read_bytes())}  {path.name}")
    return frozenset(path.name for path in paths)


def _qd(text: str) -> tuple[int, int]:
    q, d = text.split(",")
    return int(q), int(d)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--ladder", nargs="+", type=_qd, default=LADDER,
                        metavar="Q,D", help="(q, d) pairs to generate "
                        "(default: the full ladder)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            replay(args.ladder)
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
