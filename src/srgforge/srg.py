"""Strongly regular graphs from divisible design graphs.

Two extension constructions.  The first attaches the points of a symmetric
2-design to a divisible design graph as a coclique, joining each canonical
class to one design block; with the right ingredient parameters the result
is strongly regular with lambda = mu.  The second starts from a strongly
regular graph with lambda = mu + 2 and a partition into maximum cocliques
(a Hoffman coloring), fills in the cocliques to get a divisible design
graph, and attaches a symmetric design as a clique.

Also here: the exhaustive strongly-regular verifier and `srg_params`, which
turns its certificate into the `SrgParams` record (defined in `spectra`,
beside the closed forms that read it), the triangular graphs, Seidel
switching and the three switched companions of the 28-vertex triangular
graph, and the Hoffman-coloring search.  The clique attachment resolves
its base's parameters once and reads k and mu from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count

import numpy as np

from .ddg import DdgParams, theorem1_params, verify_ddg
from .designs import incidence, SymmetricDesign, verify_symmetric
from .errors import (NotPrime, NotSrg, PreconditionFailed, ShapeMismatch,
                     TooLarge)
from .graphs import (bitset, Certificate, certificate, cliques, complement,
                     complete_graph, first_bad_pair, Graph, line_graph,
                     pair_witness, regularity, SameClass, VertexPartition)
from .spectra import hoffman_coclique_size, SrgParams


@dataclass(frozen=True)
class ClassBlockMap:
    """Bijection from canonical class indices to design block indices."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError("mapping is not a bijection onto the block set")

    @property
    def m(self) -> int:
        return len(self.mapping)

    @staticmethod
    def identity(m: int) -> "ClassBlockMap":
        return ClassBlockMap(tuple(range(m)))


@dataclass(frozen=True)
class Srg2Config:
    """Ingredients for the clique-attachment construction."""

    base: Graph
    coloring: VertexPartition
    design: SymmetricDesign
    block_map: ClassBlockMap
    base_params: SrgParams | None = None  # as for construct_ddg_hoffman


# ---------------------------------------------------------------------------
# verification


def verify_srg(g: Graph) -> Certificate:
    """Exhaustive strong-regularity check with inferred parameters.

    Regularity, then a constant common-neighbour count over adjacent pairs
    (lambda) and over non-adjacent pairs (mu), both inferred from the first
    pair of each kind.
    """
    n = g.n
    k, irregular = regularity(g)
    witnesses = [irregular] if irregular else []

    mu = lam = 0
    if not witnesses:
        bad, (mu, lam) = pair_witness(g.matrix, g.matrix, ("mu", "lambda"))
        witnesses += [bad] if bad else []

    return certificate("srg", parameters={"v": n, "k": k, "lambda": lam,
                                          "mu": mu}, witnesses=witnesses)


# ---------------------------------------------------------------------------
# coclique attachment


def srg1_target_params(q: int, d: int) -> SrgParams:
    """((q^2d - 1)/(q-1), q^{2d-1}, q^{2d-2}(q-1), q^{2d-2}(q-1))."""
    theorem1_params(q, d)  # validates q prime power, d >= 2
    return SrgParams(
        v=(q ** (2 * d) - 1) // (q - 1),
        k=q ** (2 * d - 1),
        lam=q ** (2 * d - 2) * (q - 1),
        mu=q ** (2 * d - 2) * (q - 1),
    )


def _shape_qd(m: int, n: int) -> tuple[int, int] | None:
    """(q, d) with q >= 2, d >= 2, n = q^d and q - 1 = (n - 1)/m, read off
    m classes of n vertices; None when no such pair exists."""
    if m < 1 or (n - 1) % m:
        return None
    q = (n - 1) // m + 1
    d, t = 0, 1
    while q >= 2 and t < n:
        t *= q
        d += 1
    return (q, d) if q >= 2 and t == n and d >= 2 else None


def _theorem1_qd(params: DdgParams) -> tuple[int, int] | None:
    """Recover (q, d) when params matches the glued-design family."""
    qd = _shape_qd(params.m, params.n)
    if qd is None:
        return None
    try:
        expected = theorem1_params(*qd)
    except NotPrime:
        return None
    return qd if expected == params else None


def construct_srg1(ddg_graph: Graph, partition: VertexPartition,
                   design: SymmetricDesign, block_map: ClassBlockMap) -> Graph:
    """Attach the design points to the graph as a coclique: first
    check_srg1_preconditions, which raises on unfit ingredients, then
    attach_coclique.  gen-srg1 runs the two in the other order, and the
    preconditions only when a verifier of the result fails
    (cli.cmd_gen_srg1 proves that this changes no outcome)."""
    check_srg1_preconditions(ddg_graph, partition, design, block_map)
    return attach_coclique(ddg_graph, partition, design, block_map)


def check_srg1_preconditions(ddg_graph: Graph, partition: VertexPartition,
                             design: SymmetricDesign,
                             block_map: ClassBlockMap) -> None:
    """ShapeMismatch unless the design has one point per class and the
    block map covers the classes; PreconditionFailed unless the design
    passes verify_symmetric and the graph passes verify_ddg with parameters
    from the glued-design family (so that the attachment counts work
    out)."""
    _check_attachment(design, block_map, len(partition.classes), "partition")
    cert = verify_ddg(ddg_graph, partition)
    if not cert.passed:
        raise PreconditionFailed(f"not a divisible design graph: "
                                 f"{cert.witnesses[0]}")
    params = DdgParams.from_certificate(cert)
    if _theorem1_qd(params) is None:
        raise PreconditionFailed(f"parameters {params.as_tuple()} are not of "
                                 f"the glued-design form")


def attach_coclique(ddg_graph: Graph, partition: VertexPartition,
                    design: SymmetricDesign,
                    block_map: ClassBlockMap) -> Graph:
    """The graph with design point y as vertex v + y, joined to every
    vertex of canonical class i exactly when y lies in block block_map(i);
    the attached points form a coclique.  Nothing is checked: the shapes
    must agree, and the result is strongly regular only on ingredients
    that pass check_srg1_preconditions."""
    return Graph(_attach_design(ddg_graph, partition, design, block_map))


def _check_attachment(design: SymmetricDesign, block_map: ClassBlockMap,
                      m: int, classes: str) -> Certificate:
    """Preconditions of attaching design to m classes through block_map:
    one point per class, a block map over the m classes and the design
    axioms; returns the design's certificate."""
    if design.n_points != m:
        raise ShapeMismatch(f"design has {design.n_points} points, "
                            f"{classes} has {m} classes")
    if block_map.m != m:
        raise ShapeMismatch(f"block map covers {block_map.m} classes, need {m}")
    dcert = verify_symmetric(design)
    if not dcert.passed:
        raise PreconditionFailed(f"design axioms fail: {dcert.witnesses[0]}")
    return dcert


def _attach_design(g: Graph, partition: VertexPartition,
                   design: SymmetricDesign,
                   block_map: ClassBlockMap) -> np.ndarray:
    """Adjacency matrix of g plus one new vertex per design point: point y
    becomes vertex g.n + y, joined to every vertex of class i when y lies in
    block block_map(i); the attached points are pairwise non-adjacent."""
    v_star = g.n
    block_of = np.array(block_map.mapping)[partition.class_of()]
    attach = incidence(design.n_points, design.blocks).T[block_of]
    m = np.zeros((v_star + design.n_points,) * 2, bool)
    m[:v_star, :v_star] = g.matrix
    m[:v_star, v_star:] = attach
    m[v_star:, :v_star] = attach.T
    return m


def verify_srg1_cases(g: Graph, partition: VertexPartition,
                      design: SymmetricDesign,
                      srg_cert: Certificate | None = None) -> Certificate:
    """Stratified common-neighbour audit of a coclique-attached graph.

    Splits every vertex pair into four strata (same class, different
    classes, both attached, mixed) and checks the exact split of a pair's
    common neighbours between the original vertices and the attached
    coclique: q^{d-1} in the coclique within a class, q^{d-2}(q-1) across
    classes, none with an attached end, and q^{2d-2}(q-1) in all.  Totals
    are checked as verify_srg checks lambda = mu, unless srg_cert,
    verify_srg's certificate of the same g, passed with lambda = mu =
    q^{2d-2}(q-1): then that pass is skipped, as it cannot fail.
    """
    witnesses = []
    v_star = partition.n
    m = len(partition.classes)
    if design.n_points != m or g.n != v_star + m:
        return certificate("srg", parameters={}, witnesses=[
            {"check": "shape", "graph_n": g.n, "classes": m,
             "design_points": design.n_points}])

    n = len(partition.classes[0]) if m else 0
    qd = _shape_qd(m, n)
    if qd is None:
        return certificate("srg", parameters={}, witnesses=[
            {"check": "shape", "m": m, "n": n}])
    q, d = qd

    target = q ** (2 * d - 2) * (q - 1)
    same, cross = q ** (d - 1), q ** (d - 2) * (q - 1)
    # (original, attached) split of each stratum's common neighbours
    expected = {"same-class": (target - same, same),
                "cross-class": (target - cross, cross),
                "attached": (target, 0), "mixed": (target, 0)}

    # Every stratum's split totals `target`, so a pair fails exactly when
    # its total (verify_srg's adjacency fold, lambda = mu = target) or its
    # count in the attached coclique is off: checked by the kernel's class
    # fold for original pairs, and for pairs (u, w) with an attached end
    # w >= v_star by one boolean product of attachment rows kept to u < w.
    # The first bad pair is the lexicographically smallest hit of the three
    # checks.
    cls = np.array(partition.class_of())
    att = g.matrix[:, v_star:]
    totals_known = srg_cert is not None and srg_cert.passed and \
        srg_cert.parameters["lambda"] == srg_cert.parameters["mu"] == target
    found = [
        None if totals_known else
        first_bad_pair(g.matrix, g.matrix, (target, target))[0],
        first_bad_pair(att[:v_star], SameClass(cls), (cross, same))[0],
    ]
    hits = [bad[:2] for bad in found if bad]
    shared = np.triu(att @ att[v_star:].T, 1 - v_star)
    if shared.any():
        u, y = divmod(int(shared.argmax()), m)
        hits.append((u, v_star + y))
    if hits:
        u, w = min(hits)
        name = (("attached" if u >= v_star else "mixed") if w >= v_star
                else "same-class" if cls[u] == cls[w] else "cross-class")
        common = g.matrix[u] & g.matrix[w]
        witnesses.append({"check": name, "pair": [u, w],
                          "split": [int(np.count_nonzero(common[:v_star])),
                                    int(np.count_nonzero(common[v_star:]))],
                          "expected": list(expected[name])})

    return certificate("srg", parameters={
        "q": q, "d": d, "target": target,
        **{name.replace("-", "_"): target for name in expected},
    }, witnesses=witnesses)


# ---------------------------------------------------------------------------
# source graphs: triangular graphs and their switched companions


def triangular_graph(r: int) -> Graph:
    """Line graph of the complete graph on r vertices."""
    if r < 4:
        raise ValueError(f"need r >= 4, got {r}")
    return line_graph(complete_graph(r))


def seidel_switch(g: Graph, vertices) -> Graph:
    """Complement all adjacencies between the vertex set and its complement."""
    side = np.zeros(g.n, bool)
    side[list(vertices)] = True
    return Graph(g.matrix ^ (side[:, None] != side))


# switching sets inside the 28-vertex triangular graph, named by the
# subgraph of the complete graph on 8 vertices whose edges they are
_CHANG_EDGE_SETS = {
    "4K2": [(0, 1), (2, 3), (4, 5), (6, 7)],
    "C3+C5": [(0, 1), (1, 2), (0, 2),
              (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)],
    "C8": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7)],
}


def chang_graphs() -> list[Graph]:
    """The three Seidel switchings of the 28-vertex triangular graph that
    stay strongly regular (28,12,6,4) without staying isomorphic to it.

    Switching sets: a perfect matching, a triangle plus a pentagon, and an
    8-cycle, each read as a set of line-graph vertices.
    """
    t8 = triangular_graph(8)
    # line_graph numbers T(8)'s vertices by K8's edges in this order
    idx = {e: i for i, e in enumerate(combinations(range(8), 2))}
    out = []
    for name in ("4K2", "C3+C5", "C8"):
        sw = [idx[e] for e in _CHANG_EDGE_SETS[name]]
        out.append(seidel_switch(t8, sw))
    return out


# ---------------------------------------------------------------------------
# Hoffman colorings and the clique attachment


# search nodes (_colorings calls, those that yield nothing included) past
# which a Hoffman-coloring enumeration stops: ten times the 23,572 that
# enumerate T(8)'s 6240 colorings.  The count depends only on the graph
# and how far the enumeration goes, so an index is refused on every host
MAX_COLORING_NODES = 250_000


def _colorings(co_rows, size: int, uncovered: int, acc: list, nodes):
    """Partitions of the uncovered vertices into cliques of the complement
    rows co_rows, i.e. cocliques of the graph, in lexicographic order;
    TooLarge once the counter `nodes` passes MAX_COLORING_NODES."""
    if next(nodes) > MAX_COLORING_NODES:
        raise TooLarge(f"Hoffman colorings of {len(co_rows)} vertices need "
                       f"more than {MAX_COLORING_NODES} search nodes")
    if uncovered == 0:
        yield VertexPartition.from_lists(len(co_rows), [list(b) for b in acc])
        return
    v0 = (uncovered & -uncovered).bit_length() - 1
    pool = uncovered & co_rows[v0] & ~((2 << v0) - 1)
    for block in cliques(co_rows, size, pool, (v0,)):
        acc.append(block)
        yield from _colorings(co_rows, size, uncovered & ~bitset(block), acc,
                              nodes)
        acc.pop()


def srg_params(g: Graph) -> SrgParams:
    """Verified parameters of g; NotSrg when g is not strongly regular."""
    cert = verify_srg(g)
    if not cert.passed:
        raise NotSrg(f"not strongly regular: {cert.witnesses[0]}")
    return SrgParams.from_certificate(cert)


def need_lam_mu2(params: SrgParams) -> None:
    """PreconditionFailed unless lambda = mu + 2, as a fill-in base needs."""
    if params.lam != params.mu + 2:
        raise PreconditionFailed(f"need lambda = mu + 2, got lambda = "
                                 f"{params.lam}, mu = {params.mu}")


class HoffmanColorings:
    """The partitions of g into independent sets of maximum (ratio-bound)
    size, in lexicographic order; empty when none exists.  g is verified on
    construction and `params` holds its parameters, so a caller can test
    them before iterating starts the search, which raises TooLarge past
    MAX_COLORING_NODES search nodes."""

    def __init__(self, g: Graph):
        self.g, self.params = g, srg_params(g)

    def __iter__(self):
        size, n = hoffman_coclique_size(self.params), self.g.n
        if size.denominator != 1 or size < 1 or n % int(size):
            return iter(())
        return _colorings(complement(self.g).rows, int(size), (1 << n) - 1, [],
                          count(1))


hoffman_colorings = HoffmanColorings  # the name callers use


def find_hoffman_coloring(g: Graph) -> VertexPartition | None:
    """First Hoffman coloring in deterministic order, or None."""
    return next(iter(hoffman_colorings(g)), None)


def construct_ddg_hoffman(base: Graph, coloring: VertexPartition,
                          params: SrgParams | None = None
                          ) -> tuple[Graph, VertexPartition]:
    """Fill in the coloring classes of a strongly regular graph.

    For a base with lambda = mu + 2 and a Hoffman coloring, adding all
    intra-class edges produces a divisible design graph with parameters
    (mn, k+n-1, n+mu-2, 2k/(m-1)+mu, m, n); that outcome is re-verified
    exhaustively before returning.  `params` are the base's parameters as
    verify_srg found them, e.g. `hoffman_colorings(base).params`; when None
    the base is verified here (NotSrg when it is not strongly regular).
    """
    params = params or srg_params(base)
    need_lam_mu2(params)
    if coloring.n != base.n:
        raise ShapeMismatch(f"coloring covers {coloring.n} vertices, "
                            f"graph has {base.n}")

    size = hoffman_coclique_size(params)
    if size.denominator != 1:
        raise PreconditionFailed(f"ratio bound {size} is not an integer")
    n = int(size)
    m = len(coloring.classes)
    part = np.array(coloring.class_of())
    same = part[:, None] == part
    adjacent = set(part[(base.matrix & same).any(axis=1)].tolist())
    for i, cls in enumerate(coloring.classes):
        if len(cls) != n:
            raise PreconditionFailed(f"class of size {len(cls)} is not a "
                                     f"maximum coclique (need {n})")
        if i in adjacent:
            # symmetric block: row-major order finds combinations' first pair
            a, b = divmod(int(base.matrix[np.ix_(cls, cls)].argmax()), n)
            raise PreconditionFailed(f"class member pair ({cls[a]}, {cls[b]}) "
                                     f"is adjacent: not a coclique")

    filled = base.matrix | same
    np.fill_diagonal(filled, False)
    g = Graph(filled)

    lam2 = Fraction(2 * params.k, m - 1) + params.mu
    expected = None
    if lam2.denominator == 1:
        expected = DdgParams(m * n, params.k + n - 1, n + params.mu - 2,
                             int(lam2), m, n)
    out_cert = verify_ddg(g, coloring)
    if expected is None or not out_cert.passed or \
            DdgParams.from_certificate(out_cert) != expected:
        raise PreconditionFailed("filled-in coloring is not a divisible "
                                 "design graph with the expected parameters")
    return g, coloring


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the clique-attachment feasibility test: the three
    quantities that must coincide, and whether they do.  The first value is
    None when k - mu + 1 is not a perfect square."""

    holds: bool
    values: tuple


def srg2_condition(k: int, mu: int, m: int, n: int, lam_inf: int) -> ConditionReport:
    """Test sqrt(k-mu+1) + n + mu - 2 = m - 2 + n lam_inf = 2k/(m-1) + mu + lam_inf."""
    second = m - 2 + n * lam_inf
    third = Fraction(2 * k, m - 1) + mu + lam_inf
    t = k - mu + 1
    root = math.isqrt(t) if t >= 0 else -1
    if t < 0 or root * root != t:
        return ConditionReport(False, (None, second, third))
    first = root + n + mu - 2
    third = int(third) if third.denominator == 1 else third
    return ConditionReport(first == second == third, (first, second, third))


def construct_srg2(config: Srg2Config) -> Graph:
    """Fill in the coloring, then attach the design points as a clique.

    Design point y becomes vertex v + y, adjacent to all other attached
    points and to every vertex of coloring class i with y in block
    block_map(i).  Requires the three-way parameter condition to hold.
    """
    params = config.base_params or srg_params(config.base)
    ddg_g, partition = construct_ddg_hoffman(config.base, config.coloring,
                                             params)
    m = len(partition.classes)
    n = partition.n // m

    lam_inf = _check_attachment(config.design, config.block_map, m,
                                "coloring").parameters["lambda"]
    cond = srg2_condition(params.k, params.mu, m, n, lam_inf)
    if not cond.holds:
        raise PreconditionFailed(f"attachment condition fails: quantities "
                                 f"{cond.values} are not all equal")

    adj = _attach_design(ddg_g, partition, config.design, config.block_map)
    adj[ddg_g.n:, ddg_g.n:] = ~np.eye(m, dtype=bool)
    return Graph(adj)
