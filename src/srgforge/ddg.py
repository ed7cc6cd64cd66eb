"""Divisible design graphs glued from resolvable designs.

The construction takes m resolvable designs with matching shape (each with m
parallel classes of q blocks), a left quasigroup on [0, m) and a family of
block bijections.  Vertices are the disjoint union of the m point sets.  For
x in part i and y in part j, the quasigroup picks one parallel class on each
side (class i*j in design i, class j*i in design j), the bijection sigma_ij
matches up their blocks, and x ~ y exactly when y's block is NOT the image
of x's block.  Every part induces a complete multipartite graph and the
whole graph is a divisible design graph: common-neighbour counts depend only
on whether a vertex pair shares a part.

The verifier checks that property exhaustively and infers the parameters, so
it doubles as a recognizer for graphs from outside this package.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import numpy as np

from .designs import (check_glued, data_lines, int_lines, int_tokens,
                      write_lines)
from .errors import NotAClique, NotRegularClique, ParseError, ShapeError, ShapeMismatch
from .gf import as_prime_power
from .graphs import (Certificate, Graph, SameClass, VertexPartition,
                     certificate, complement, degrees, pair_witness,
                     regularity)


def _invert(perm: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


@dataclass(frozen=True)
class LeftQuasigroup:
    """Binary operation on [0, m) whose left translations are bijections."""

    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        ref = list(range(self.m))
        for i, row in enumerate(self.table):
            if sorted(row) != ref:
                raise ValueError(f"row {i} is not a permutation of [0, {self.m})")

    @property
    def m(self) -> int:
        return len(self.table)

    def op(self, i: int, h: int) -> int:
        return self.table[i][h]


@dataclass(frozen=True)
class BijectionFamily:
    """Permutations sigma_ij of [0, q) matching blocks of part i to part j.

    `pairs` holds sigma_ij for i < j in itertools.combinations(range(m), 2)
    order, as they are drawn and as a family file lists them.  `sigma`
    fills in the rest: sigma_ii is the identity and sigma_ji the inverse of
    sigma_ij, which together make the adjacency rule symmetric.
    """

    m: int
    q: int
    pairs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.pairs) != (want := self.m * (self.m - 1) // 2):
            raise ValueError(f"order {self.m} needs {want} pairs, got {len(self.pairs)}")
        ref = list(range(self.q))
        for (i, j), perm in self.indexed():
            if sorted(perm) != ref:
                raise ValueError(
                    f"sigma[{i}][{j}] is not a permutation of [0, {self.q})")

    def indexed(self):
        return zip(combinations(range(self.m), 2), self.pairs)

    @cached_property
    def sigma(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """m x m nested tuples with sigma[i][j] = sigma_ij."""
        ident = tuple(range(self.q))
        sigma = [[ident] * self.m for _ in range(self.m)]
        for (i, j), perm in self.indexed():
            sigma[i][j], sigma[j][i] = perm, _invert(perm)
        return tuple(map(tuple, sigma))


@dataclass(frozen=True)
class DdgParams:
    """(v, k, lambda1, lambda2, m, n) with v = m * n."""

    v: int
    k: int
    lambda1: int
    lambda2: int
    m: int
    n: int

    def __post_init__(self):
        if self.v != self.m * self.n:
            raise ValueError(f"v = {self.v} but m*n = {self.m * self.n}")

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.v, self.k, self.lambda1, self.lambda2, self.m, self.n)

    @classmethod
    def from_certificate(cls, cert: Certificate) -> "DdgParams":
        p = cert.parameters
        return cls(p["v"], p["k"], p["lambda1"], p["lambda2"], p["m"], p["n"])


def theorem1_params(q: int, d: int) -> DdgParams:
    """Parameters of the glued graph on prime power q and dimension d >= 2."""
    as_prime_power(q)
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    m = (q**d - 1) // (q - 1)
    return DdgParams(
        v=q**d * m,
        k=q ** (d - 1) * (q**d - 1),
        lambda1=q ** (d - 1) * (q**d - q ** (d - 1) - 1),
        lambda2=q ** (d - 2) * (q - 1) * (q**d - 1),
        m=m,
        n=q**d,
    )


def _shuffled(rng: random.Random, n: int) -> tuple[int, ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def cyclic_quasigroup(m: int) -> LeftQuasigroup:
    """table[i][h] = (i + h) mod m; the rotation group row by row."""
    if m < 1:
        raise ValueError("order must be >= 1")
    return LeftQuasigroup(
        tuple(tuple((i + h) % m for h in range(m)) for i in range(m)))


def random_left_quasigroup(m: int, seed: int) -> LeftQuasigroup:
    """Each row an independent uniform permutation; reproducible from seed."""
    if m < 1:
        raise ValueError("order must be >= 1")
    rng = random.Random(seed)
    return LeftQuasigroup(tuple(_shuffled(rng, m) for _ in range(m)))


def identity_family(m: int, q: int) -> BijectionFamily:
    ident = tuple(range(q))
    return BijectionFamily(m, q, tuple(ident for _ in combinations(range(m), 2)))


def random_bijection_family(m: int, q: int, quasigroup: LeftQuasigroup,
                            seed: int) -> BijectionFamily:
    """Uniform sigma_ij for each i < j, drawn in `pairs` order.  The family
    does not depend on `quasigroup`, only checked for its order m; the
    argument stays because the benchmark's workloads pass it by position."""
    if quasigroup.m != m:
        raise ShapeMismatch(f"quasigroup order {quasigroup.m} != {m}")
    rng = random.Random(seed)
    return BijectionFamily(m, q, tuple(_shuffled(rng, q)
                                       for _ in combinations(range(m), 2)))


def construct_ddg(designs, quasigroup: LeftQuasigroup,
                  family: BijectionFamily) -> tuple[Graph, VertexPartition]:
    """Build the glued graph; parts appear in design order.

    Vertex i*P + t is point t of design i, P the common point count.  The
    returned partition lists the m parts in that order.
    """
    m = len(designs)
    if m == 0:
        raise ShapeMismatch("need at least one design")
    if quasigroup.m != m or family.m != m:
        raise ShapeMismatch(
            f"{m} designs but quasigroup order {quasigroup.m}, "
            f"family order {family.m}")
    P = designs[0].n_points
    q = designs[0].blocks_per_class
    for i, dz in enumerate(designs):
        if dz.n_points != P or dz.n_classes != m or dz.blocks_per_class != q:
            raise ShapeMismatch(
                f"design {i} has shape ({dz.n_points} points, "
                f"{dz.n_classes} classes, {dz.blocks_per_class} blocks); "
                f"expected ({P}, {m}, {q})")
    if family.q != q:
        raise ShapeMismatch(f"family block count {family.q} != {q}")

    # one block index table per distinct design: callers repeat one design
    distinct = list({id(dz): dz for dz in designs}.values())
    tables = np.array([dz.block_index_table() for dz in distinct])[
        [distinct.index(dz) for dz in designs]]
    # x ~ y unless sigma_ij maps x's block (class i*j of design i, left) to
    # y's block (class j*i of design j, right); never so for x = y
    op, parts = np.array(quasigroup.table), np.arange(m)[:, None]
    left = np.take_along_axis(np.array(family.sigma), tables[parts, op], 2)
    right = tables[parts.T, op.T]
    adj = np.empty((m * P, m * P), bool)  # seen as [i, x, j, y] below
    np.not_equal(left.transpose(0, 2, 1)[..., None], right[:, None],
                 out=adj.reshape(m, P, m, P))

    g = Graph(adj)
    partition = VertexPartition.from_lists(
        m * P, [range(j * P, (j + 1) * P) for j in range(m)])
    return g, partition


def verify_ddg(g: Graph, partition: VertexPartition) -> Certificate:
    """Exhaustive divisible-design check with inferred parameters.

    Requires equal class sizes and regularity, then demands a constant
    common-neighbour count lambda1 over same-class pairs and lambda2 over
    cross-class pairs, both inferred from the first pair of each kind.
    Complete and edgeless graphs are flagged as excluded, not passed.
    """
    n_v = g.n
    if partition.n != n_v:
        return certificate("ddg", parameters={"v": n_v}, witnesses=[
            {"check": "partition-shape", "partition_n": partition.n}])

    deg = degrees(g.matrix)
    ecount = int(deg.sum()) // 2
    if n_v > 1 and ecount in (0, n_v * (n_v - 1) // 2):
        reason = "edgeless" if ecount == 0 else "complete"
        return certificate("ddg", parameters={"v": n_v}, witnesses=[
            {"check": "excluded", "reason": reason}])

    witnesses = []
    sizes = sorted({len(c) for c in partition.classes})
    if len(sizes) != 1:
        witnesses.append({"check": "class-size", "sizes": sizes})

    k, irregular = regularity(g, deg)
    if irregular:
        witnesses.append(irregular)

    lam2 = lam1 = 0
    if not witnesses:
        bad, (lam2, lam1) = pair_witness(g.matrix,
                                         SameClass(partition.class_of()),
                                         ("cross-class", "same-class"))
        witnesses += [bad] if bad else []

    m = len(partition.classes)
    return certificate(
        "ddg",
        parameters={
            "v": n_v, "k": k,
            "lambda1": lam1, "lambda2": lam2,
            "m": m, "n": sizes[0] if m else 0,
        },
        witnesses=witnesses,
    )


def extract_ddg_from_srg(g: Graph, clique) -> tuple[Graph, VertexPartition,
                                                    Certificate]:
    """Peel a regular clique off a graph and test the complement remainder.

    Checks that `clique` is a clique whose outside vertices all see the same
    number of clique vertices, takes the complement, induces on the outside
    vertices (in increasing order), groups them by which clique vertices
    they attach to, and runs verify_ddg on the result.
    """
    cl = sorted(set(clique))
    if cl and not (0 <= cl[0] and cl[-1] < g.n):
        raise ValueError(f"clique vertices must lie in [0, {g.n})")
    # symmetric: its first false entry in row-major order is the first
    # non-adjacent pair of itertools.combinations(cl, 2)
    inner = g.matrix[np.ix_(cl, cl)] | np.eye(len(cl), dtype=bool)
    if not inner.all():
        a, b = divmod(int(inner.argmin()), len(cl))
        raise NotAClique(f"vertices {cl[a]} and {cl[b]} are not adjacent")
    outside = np.setdiff1d(np.arange(g.n), cl)

    attach = g.matrix[np.ix_(outside, cl)]
    seen = degrees(attach)
    if len(seen) and seen.min() != seen.max():
        lo, hi = seen.argmin(), seen.argmax()
        raise NotRegularClique(
            f"vertex {outside[lo]} sees {seen[lo]} clique vertices but "
            f"vertex {outside[hi]} sees {seen[hi]}")

    sub = complement(g).induced(outside)
    # one class per attachment set, ordered by first member
    _, first, fibre = np.unique(attach, axis=0, return_index=True,
                                return_inverse=True)
    classes = [np.flatnonzero(fibre == f).tolist() for f in np.argsort(first)]
    partition = VertexPartition.from_lists(len(outside), classes)
    return sub, partition, verify_ddg(sub, partition)


def counting_lower_bound(q: int, d: int) -> Fraction:
    """Exact rational (q!)^m / ((q^d m^2)^{q^d m} (q^{d+1} m)^{m-1}).

    m = (q^d - 1)/(q - 1).  A crude lower bound on the number of distinct
    outputs; far below 1 at small sizes, informative only asymptotically.
    """
    if q < 2 or d < 2:
        raise ValueError(f"need q >= 2 and d >= 2, got ({q}, {d})")
    check_glued(q, d)  # the vertex limit before factoring q
    as_prime_power(q)
    m = (q**d - 1) // (q - 1)
    num = Fraction(math.factorial(q)) ** m
    den = Fraction(q**d * m * m) ** (q**d * m) * Fraction(q ** (d + 1) * m) ** (m - 1)
    return num / den


# ---------------------------------------------------------------------------
# text formats: quasigroup as m rows of m integers; family as lines
# `i j : p_0 p_1 ... p_{q-1}` with omitted pairs defaulting to the identity
# and sigma[j][i] derived from sigma[i][j] when only one is given.


def load_quasigroup(path: str) -> LeftQuasigroup:
    rows = [tuple(values) for _, values in int_lines(path)]
    if not rows:
        raise ParseError(f"{path}: empty quasigroup file")
    m = len(rows)
    for row in rows:
        if len(row) != m:
            raise ShapeError(f"{path}: expected {m}x{m} table, "
                             f"found a row of length {len(row)}")
    return LeftQuasigroup(tuple(rows))


def save_quasigroup(qg: LeftQuasigroup, path: str) -> None:
    write_lines(path, qg.table)


def load_family(path: str, m: int, q: int) -> BijectionFamily:
    ident = tuple(range(q))
    given: dict[tuple[int, int], tuple[int, ...]] = {}
    for lineno, line in data_lines(path):
        head, sep, tail = line.partition(":")
        if not sep or len(head.split()) != 2:
            raise ParseError("expected `i j : permutation`", line=lineno)
        i, j, *perm = int_tokens(head.split() + tail.split(), lineno, line)
        if not (0 <= i < m and 0 <= j < m):
            raise ShapeError(f"line {lineno}: pair ({i}, {j}) outside [0, {m})")
        if sorted(perm) != list(range(q)):
            raise ShapeError(f"line {lineno}: not a permutation of [0, {q})")
        # a line (j, i), j > i, gives sigma[i][j] as the inverse of perm
        key = (min(i, j), max(i, j))
        if key in given:
            raise ParseError(f"pair ({i}, {j}) given twice", line=lineno)
        given[key] = tuple(perm) if i <= j else _invert(tuple(perm))
    # a line (i, i) is taken only for the identity
    if bad := sorted(i for (i, j), p in given.items() if i == j and p != ident):
        raise ValueError(f"sigma[{bad[0]}][{bad[0]}] must be the identity")
    return BijectionFamily(m, q, tuple(given.get(pair, ident)
                                       for pair in combinations(range(m), 2)))


def save_family(family: BijectionFamily, path: str) -> None:
    write_lines(path, ((i, j, ":", *perm) for (i, j), perm in family.indexed()))
