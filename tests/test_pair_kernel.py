"""The shared pair kernel against the per-verifier pair loops it replaced.

`ref_verify_srg`, `ref_verify_ddg` and `ref_verify_srg1_cases` are the
three verifiers as they were written before `first_bad_pair` existed, each
with its own Python pair loop, and serve as the oracle of the numpy kernel.
The kernel-based verifiers must give the same certificate JSON, first
witness and inferred parameters included, both on random inputs and on
2-switched outputs of the constructions.  The kernel checks its two
strata, adjacency or classes, in its packed words: their digits are
compared with Python-int counts, flips, switches and moved pairs with a
recount, and a passing scan must unpack no tile.  The last tests check
that the kernels' results do not depend on the BLAS thread count, the
scope that runs small graphs' products on the calling thread, and the
lookup of the thread setter when it finds none.
"""

from __future__ import annotations

import random
import tracemalloc
from functools import cache
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import graph_from_bits, rows_graph, rows_matrix
from srgforge import (affine_geometry_design, certificate, ClassBlockMap,
                      complete_graph, construct_ddg, construct_srg1,
                      cyclic_quasigroup, ddg_formula_spectrum, DdgParams,
                      empty_graph, exact_spectrum, Graph, make_field,
                      projective_complement_design, random_bijection_family,
                      srg1_target_params, srg_spectrum, symplectic_graph,
                      triangular_graph, verify_ddg, verify_resolvable,
                      verify_srg, verify_srg1_cases, verify_symmetric,
                      VertexPartition)
from srgforge import graphs
from srgforge.gf import as_prime_power
from srgforge.graphs import first_bad_pair, graph6_decode, graph6_encode


def ref_verify_srg(g):
    witnesses = []
    n = g.n
    k = g.rows[0].bit_count() if n else 0
    for u in range(n):
        if g.rows[u].bit_count() != k:
            witnesses.append({"check": "regular", "vertices": [0, u],
                              "degrees": [k, g.rows[u].bit_count()]})
            break

    lam = mu = None
    if not witnesses:
        for u in range(n):
            row_u = g.rows[u]
            for w in range(u + 1, n):
                c = (row_u & g.rows[w]).bit_count()
                if row_u >> w & 1:
                    if lam is None:
                        lam = c
                    elif c != lam:
                        witnesses.append({"check": "lambda", "pair": [u, w],
                                          "count": c, "expected": lam})
                        break
                else:
                    if mu is None:
                        mu = c
                    elif c != mu:
                        witnesses.append({"check": "mu", "pair": [u, w],
                                          "count": c, "expected": mu})
                        break
            if witnesses:
                break

    lam = lam if lam is not None else 0
    mu = mu if mu is not None else 0
    if not witnesses and k * (k - lam - 1) != (n - k - 1) * mu:
        witnesses.append({"check": "feasibility",
                          "lhs": k * (k - lam - 1), "rhs": (n - k - 1) * mu})

    return certificate("srg", parameters={"v": n, "k": k, "lambda": lam,
                                          "mu": mu}, witnesses=witnesses)


def ref_verify_ddg(g, partition):
    n_v = g.n
    if partition.n != n_v:
        return certificate("ddg", parameters={"v": n_v}, witnesses=[
            {"check": "partition-shape", "partition_n": partition.n}])

    ecount = g.edge_count()
    if n_v > 1 and ecount in (0, n_v * (n_v - 1) // 2):
        reason = "edgeless" if ecount == 0 else "complete"
        return certificate("ddg", parameters={"v": n_v}, witnesses=[
            {"check": "excluded", "reason": reason}])

    witnesses = []
    sizes = sorted({len(c) for c in partition.classes})
    if len(sizes) != 1:
        witnesses.append({"check": "class-size", "sizes": sizes})

    k = g.rows[0].bit_count() if n_v else 0
    for u in range(n_v):
        if g.rows[u].bit_count() != k:
            witnesses.append({"check": "regular", "vertices": [0, u],
                              "degrees": [k, g.rows[u].bit_count()]})
            break

    lam1 = lam2 = None
    if not witnesses:
        cls_of = partition.class_of()
        for u in range(n_v):
            row_u = g.rows[u]
            cu = cls_of[u]
            for w in range(u + 1, n_v):
                c = (row_u & g.rows[w]).bit_count()
                if cls_of[w] == cu:
                    if lam1 is None:
                        lam1 = c
                    elif c != lam1:
                        witnesses.append({"check": "same-class", "pair": [u, w],
                                          "count": c, "expected": lam1})
                        break
                else:
                    if lam2 is None:
                        lam2 = c
                    elif c != lam2:
                        witnesses.append({"check": "cross-class", "pair": [u, w],
                                          "count": c, "expected": lam2})
                        break
            if witnesses:
                break

    m = len(partition.classes)
    return certificate(
        "ddg",
        parameters={
            "v": n_v, "k": k,
            "lambda1": lam1 if lam1 is not None else 0,
            "lambda2": lam2 if lam2 is not None else 0,
            "m": m, "n": sizes[0] if m else 0,
        },
        witnesses=witnesses,
    )


def ref_verify_srg1_cases(g, partition, design):
    witnesses = []
    v_star = partition.n
    m = len(partition.classes)
    n = len(partition.classes[0])
    if design.n_points != m or g.n != v_star + m:
        return certificate("srg", parameters={}, witnesses=[
            {"check": "shape", "graph_n": g.n, "classes": m,
             "design_points": design.n_points}])

    q = (n - 1) // m + 1 if m and (n - 1) % m == 0 else 0
    d, t = 0, 1
    while q >= 2 and t < n:
        t *= q
        d += 1
    if q < 2 or t != n or d < 2:
        return certificate("srg", parameters={}, witnesses=[
            {"check": "shape", "m": m, "n": n}])

    target = q ** (2 * d - 2) * (q - 1)
    expected = {
        "same-class": (q ** (d - 1) * (q**d - q ** (d - 1) - 1), q ** (d - 1)),
        "cross-class": (q ** (d - 2) * (q - 1) * (q**d - 1),
                        q ** (d - 2) * (q - 1)),
        "attached": (q**d * q ** (d - 2) * (q - 1), 0),
        "mixed": (q ** (2 * d - 2) * (q - 1), 0),
    }

    star_mask = (1 << v_star) - 1
    coc_mask = ((1 << g.n) - 1) ^ star_mask
    cls_of = partition.class_of() + [-1] * m

    def stratum(u, w):
        if u < v_star and w < v_star:
            return "same-class" if cls_of[u] == cls_of[w] else "cross-class"
        if u >= v_star and w >= v_star:
            return "attached"
        return "mixed"

    for u in range(g.n):
        row_u = g.rows[u]
        for w in range(u + 1, g.n):
            common = row_u & g.rows[w]
            split = ((common & star_mask).bit_count(),
                     (common & coc_mask).bit_count())
            name = stratum(u, w)
            if split != expected[name]:
                witnesses.append({"check": name, "pair": [u, w],
                                  "split": list(split),
                                  "expected": list(expected[name])})
                break
        if witnesses:
            break

    return certificate("srg", parameters={
        "q": q, "d": d, "target": target,
        **{name.replace("-", "_"): sum(pair) for name, pair in expected.items()},
    }, witnesses=witnesses)


# ---------------------------------------------------------------------------
# inputs


def _srg1_pieces(q: int, d: int, seed: int):
    field = make_field(*as_prime_power(q))
    design = affine_geometry_design(field, d)
    m = design.n_classes
    qg = cyclic_quasigroup(m)
    ddg_g, partition = construct_ddg(
        [design] * m, qg, random_bijection_family(m, q, qg, seed))
    attach = projective_complement_design(field, d)
    # class 0 gets a block without point 0, so vertex 0 and the first
    # attached vertex are not adjacent
    i = next(i for i, block in enumerate(attach.blocks) if 0 not in block)
    mapping = list(range(m))
    mapping[0], mapping[i] = i, 0
    srg_g = construct_srg1(ddg_g, partition, attach, ClassBlockMap(tuple(mapping)))
    return ddg_g, partition, srg_g, attach


# (4, 2) gives 80- and 85-vertex graphs, whose rows span two 64-bit words
_PIECES = {(q, d): _srg1_pieces(q, d, 7) for q, d in ((3, 2), (2, 3), (4, 2))}


def _toggled(g: Graph, pairs) -> Graph:
    rows = list(g.rows)
    for u, w in pairs:
        u, w = u % g.n, w % g.n
        if u != w:
            rows[u] ^= 1 << w
            rows[w] ^= 1 << u
    return rows_graph(g.n, rows)


def _two_switched(g: Graph, seed: int, switches: int) -> Graph:
    """Apply degree-keeping 2-switches: edges ab, cd with ac, bd absent
    become ac, bd."""
    rnd = random.Random(seed)
    edges = sorted(g.edges())
    done = 0
    while done < switches:
        (a, b), (c, d) = rnd.sample(edges, 2)
        if len({a, b, c, d}) < 4 or g.has_edge(a, c) or g.has_edge(b, d):
            continue
        g = _toggled(g, [(a, b), (c, d), (a, c), (b, d)])
        edges = sorted(g.edges())
        done += 1
    return g


def _same(got, ref):
    assert got.to_json() == ref.to_json()


@st.composite
def partitions(draw, n: int):
    """Equal classes of a divisor of n in a random vertex order, or (rarely)
    an arbitrary split."""
    order = draw(st.permutations(range(n)))
    if n and draw(st.integers(0, 4)):
        size = draw(st.sampled_from([s for s in range(1, n + 1) if n % s == 0]))
        cuts = list(range(0, n + 1, size))
    else:
        cuts = sorted({0, n, *draw(st.lists(st.integers(0, n), max_size=4))})
    return VertexPartition.from_lists(
        n, [order[a:b] for a, b in zip(cuts, cuts[1:]) if b > a])


@st.composite
def circulants(draw):
    """Regular graphs, so the verifiers reach their pair loops."""
    n = draw(st.integers(2, 16))
    steps = draw(st.sets(st.integers(1, n // 2)))
    rows = [0] * n
    for u in range(n):
        for s in steps:
            for w in ((u + s) % n, (u - s) % n):
                rows[u] |= 1 << w
    return rows_graph(n, rows)


def _bits_graph(draw):
    n = draw(st.integers(0, 12))
    bits = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_from_bits(n, bits)


@given(st.data())
def test_random_graphs_match_reference(data):
    if data.draw(st.booleans()):
        g = data.draw(circulants())
    else:
        g = _bits_graph(data.draw)
    _same(verify_srg(g), ref_verify_srg(g))
    partition = data.draw(partitions(g.n))
    _same(verify_ddg(g, partition), ref_verify_ddg(g, partition))


@given(st.sampled_from(sorted(_PIECES)), st.integers(0, 10**6),
       st.integers(1, 3))
def test_two_switched_outputs_match_reference(qd, seed, switches):
    ddg_g, partition, srg_g, attach = _PIECES[qd]
    g = _two_switched(ddg_g, seed, switches)
    _same(verify_ddg(g, partition), ref_verify_ddg(g, partition))
    _same(verify_srg(g), ref_verify_srg(g))
    s = _two_switched(srg_g, seed, switches)
    _same(verify_srg(s), ref_verify_srg(s))
    _same(verify_srg1_cases(s, partition, attach),
          ref_verify_srg1_cases(s, partition, attach))


@given(st.sampled_from(sorted(_PIECES)),
       st.lists(st.tuples(st.integers(0, 10**4), st.integers(0, 10**4)),
                max_size=3),
       st.lists(st.integers(0, 10**4), max_size=2))
def test_srg1_cases_strata_match_reference(qd, pairs, attached):
    """Toggled pairs anywhere, plus pairs with an end in the attached
    coclique, so every stratum can hold the first witness."""
    _, partition, srg_g, attach = _PIECES[qd]
    v_star = partition.n
    pairs += [(v_star + a % attach.n_points, a // 7) for a in attached]
    s = _toggled(srg_g, pairs)
    _same(verify_srg1_cases(s, partition, attach),
          ref_verify_srg1_cases(s, partition, attach))


def test_srg1_cases_split_only_witness():
    """Attached vertex y, not adjacent to u, trades a neighbour x in N(u)
    for a coclique neighbour y2 in N(u): pair (u, y) keeps its total but
    not its split, and no other pair (u, w) changes."""
    for _, partition, srg_g, attach in _PIECES.values():
        v_star = partition.n
        for u in (0, 1, len(partition.classes[0])):
            near = srg_g.rows[u]
            for y in range(v_star, srg_g.n):
                if near >> y & 1:
                    continue
                y2 = next(y2 for y2 in range(v_star, srg_g.n) if near >> y2 & 1)
                x = next(x for x in srg_g.neighbours(y) if near >> x & 1)
                s = _toggled(srg_g, [(y, x), (y, y2)])
                cert = verify_srg1_cases(s, partition, attach)
                _same(cert, ref_verify_srg1_cases(s, partition, attach))
                if u == 0:
                    assert cert.witnesses[0]["check"] == "mixed"
                    assert cert.witnesses[0]["pair"] == [0, y]


def test_passing_outputs_match_reference():
    for ddg_g, partition, srg_g, attach in _PIECES.values():
        assert verify_ddg(ddg_g, partition).passed
        _same(verify_ddg(ddg_g, partition), ref_verify_ddg(ddg_g, partition))
        _same(verify_srg(srg_g), ref_verify_srg(srg_g))
        _same(verify_srg1_cases(srg_g, partition, attach),
              ref_verify_srg1_cases(srg_g, partition, attach))


@given(st.data(), st.sampled_from([1, 3, 8, 64]))
def test_small_blocks_match_reference(data, pair_rows):
    """The inputs above fit in a few row blocks and one column tile;
    smaller blocks and tiles put their edges before, at and after the
    first witness."""
    if data.draw(st.booleans()):
        g = data.draw(circulants())
        partition = data.draw(partitions(g.n))
        s = attach = None
    else:
        g, partition, s, attach = _PIECES[data.draw(st.sampled_from(
            sorted(_PIECES)))]
        seed = data.draw(st.integers(0, 10**6))
        g, s = _two_switched(g, seed, 1), _two_switched(s, seed, 1)
    with patch.object(graphs, "_PAIR_ROWS", pair_rows):
        _same(verify_srg(g), ref_verify_srg(g))
        _same(verify_ddg(g, partition), ref_verify_ddg(g, partition))
        if s is not None:
            _same(verify_srg(s), ref_verify_srg(s))
            _same(verify_srg1_cases(s, partition, attach),
                  ref_verify_srg1_cases(s, partition, attach))


def _recounted(m):
    """Counts of all row pairs u != w of a boolean matrix, from Python-int
    bitsets; 0 on the diagonal."""
    rows = graphs.bit_rows(m)
    return np.array([[(x & y).bit_count() if u != w else 0
                      for w, y in enumerate(rows)]
                     for u, x in enumerate(rows)])


def _unpacked_counts(m, size: int):
    """Counts of all row pairs of a boolean n x c matrix as first_bad_pair
    unpacks a tile: blocks of `size` rows packed k = floor(24 / s) to a
    word (`_packed`), s the bit length of max(c, 1), multiplied by every
    row and cut into digits (`_digits`); 0 on the diagonal."""
    n, c = m.shape
    s = max(c, 1).bit_length()
    m8 = m.view(np.uint8)
    rows = m8.astype(np.float32)
    counts = np.zeros((n, n), np.int64)
    for a in range(0, n, size):
        block = m8[a:a + size]
        words, shifts, weights = graphs._packed(block, 24 // s, s)
        counts[a:a + len(block)] = graphs._digits(
            rows @ words, shifts, weights, 0, s)[:len(block)]
    np.fill_diagonal(counts, 0)
    return counts


@given(st.integers(0, 200), st.sampled_from([0.03, 0.97]),
       st.integers(0, 2**32 - 1), st.data())
def test_tiled_counts_match_bit_count(n, density, seed, data):
    """Sparse and dense graphs, whole or as a column slice m[:, c0:]: the
    unpacked digits give every pair's count, and a class scan of the
    slice, with values inferred or given, and an adjacency scan of the
    whole graph find the witness and values of the recount."""
    rng = np.random.default_rng(seed)
    m = np.triu(rng.random((n, n)) < density, 1)
    m |= m.T
    sliced = m[:, data.draw(st.integers(0, n)):]
    pair_rows = data.draw(st.sampled_from([8, 64]))
    assert (_unpacked_counts(sliced, pair_rows) == _recounted(sliced)).all()
    same = rng.integers(0, data.draw(st.integers(1, 4)), n)
    fixed = tuple(data.draw(st.integers(0, sliced.shape[1]))
                  for _ in range(2))
    with patch.object(graphs, "_PAIR_ROWS", pair_rows):
        _check_folded(sliced, same=same)
        _check_folded(sliced, fixed, same)
        _check_folded(m)


def test_kernel_keeps_unmet_strata():
    # path 0-1-2-3: pairs (0,1) count 0 (adjacent), (0,2) count 1, (0,3) 0
    adj = rows_matrix(4, (0b0010, 0b0101, 0b1010, 0b0100))
    assert first_bad_pair(adj, adj, (None, None)) == ((0, 3, 0), (1, 0))
    # fixed values are kept, and the first pair can be the witness
    assert first_bad_pair(adj, adj, (1, 3)) == ((0, 1, 0), (1, 3))
    # classes {0, 2, 3} and {1}: (0, 3) breaks the same-class count 1 of
    # (0, 2), given or inferred
    for values in ((0, 1), (None, None)):
        assert first_bad_pair(adj, graphs.SameClass([0, 1, 0, 0]),
                              values) == ((0, 3, 0), (0, 1))
    # the same-class stratum is first met at (0, 3), after the witness
    # (0, 2), so it keeps its None
    assert first_bad_pair(adj, graphs.SameClass([0, 1, 2, 0]),
                          (None, None)) == ((0, 2, 1), (0, None))
    # a single edge has no non-adjacent pair, so stratum 0 stays unmet
    edge = rows_matrix(2, (0b10, 0b01))
    assert first_bad_pair(edge, edge, (None, None)) == (None, (None, 0))
    # one class: a stratum never met keeps its given value
    assert first_bad_pair(adj, graphs.SameClass(np.zeros(4)), (4, None)) == (
        (0, 2, 1), (4, 0))
    # graphs with no pair at all
    for n in (0, 1):
        assert first_bad_pair(np.zeros((n, 3), bool), graphs.SameClass(
            np.zeros(n)), (None, 3)) == (None, (None, 3))
        empty = np.zeros((n, n), bool)
        assert first_bad_pair(empty, empty, (None, None)) == (
            None, (None, None))
    # no columns: every count is 0
    assert first_bad_pair(adj[:, 4:], graphs.SameClass([0, 1, 1, 0]),
                          (None, None)) == (None, (0, 0))
    # given values lie in [0, c], and the fold's words are exact only for
    # c + |delta| < 2^24
    for values in ((0, 1), (-1, None)):
        with pytest.raises(ValueError, match="outside \\[0, 0\\]"):
            first_bad_pair(adj[:, 4:], graphs.SameClass([0, 1, 1, 0]), values)
    with pytest.raises(ValueError, match="outside \\[0, 4\\]"):
        first_bad_pair(adj, adj, (None, 5))
    with pytest.raises(ValueError, match="2\\^23"):
        first_bad_pair(np.zeros((0, 1 << 23), bool), graphs.SameClass([]),
                       (None, None))


@pytest.mark.parametrize("c", [15, 16, 255, 256, 4095, 4096])
@pytest.mark.parametrize("pair_rows", [8, 64])
def test_packing_boundaries(c, pair_rows):
    """c at each side of a change of k = floor(24 / bit length of c): 6, 5,
    3, 2, 2, 1 slabs a word.  At c = 15, 255 and 4095 a word of all-ones
    rows reaches 2^24 - 1 (15 * 1118481, 255 * 65793, 4095 * 4097), the
    largest integer float32 holds with its neighbours.  The unpacked
    digits must still count every pair as the Python ints do, whole and on
    a column slice; class scans must pass on all-ones rows, whose words
    are all 2^24 - 1 there, find what the recount finds on rows that mix
    full and partial counts, and, from c = 255 on, find a moved pair."""
    s = c.bit_length()
    k = 24 // s
    words = np.ones((1, c), np.float32) @ graphs._packed(
        np.ones((k, c), np.uint8), k, s)[0]
    assert int(words.max()) == c * sum(1 << j * s for j in range(k))
    if c in (15, 255, 4095):
        assert int(words.max()) == (1 << 24) - 1
    rng = np.random.default_rng(c)
    n = 6 * k + 5
    m = np.ones((n, c), bool)
    # every third row random, so the slabs mix full and partial counts
    m[::3] = rng.random((len(m[::3]), c)) < 0.5
    ref = _recounted(m)
    assert (_unpacked_counts(m, pair_rows) == ref).all()
    assert (_unpacked_counts(m[:, c // 3:], pair_rows) ==
            _recounted(m[:, c // 3:])).all()
    with patch.object(graphs, "_PAIR_ROWS", pair_rows):
        for same, values in ((np.zeros(n), (None, c)),
                             (np.arange(n) % 2, (c, c))):
            assert first_bad_pair(np.ones((n, c), bool), graphs.SameClass(
                same), (None, None)) == (None, values)
        assert first_bad_pair(m, graphs.SameClass(np.zeros(n)),
                              (None, c)) == ((0, 1, ref[0, 1]), (None, c))
        assert first_bad_pair(m[1:3], graphs.SameClass([0, 0]),
                              (None, c)) == (None, (None, c))
        random_rows = np.arange(n) % 3 == 0
        _check_folded(m, same=random_rows)
        _check_folded(m, (c, c), random_rows)
        _check_folded(m[:, c // 3:], same=random_rows)
        # c - n all-ones columns and n private ones: a moved pair is the
        # witness at the last pair, the far column and the first row
        for u, w in ((n - 2, n - 1), (1, n - 1), (0, 2)) if c > n else ():
            moved = _moved(np.ones((n, c - n), bool), (u, w))
            assert first_bad_pair(moved, graphs.SameClass(np.zeros(n)), (
                None, None)) == ((u, w, c - n + 1), (None, c - n))


def _two_slab_case():
    """40 random rows of 300 columns, their recount, and one stratum per
    distinct count, for the pair-loop references."""
    m = np.random.default_rng(40).random((40, 300)) < 0.5
    ref = _recounted(m)
    counts = np.unique(ref[np.triu_indices(40, 1)])
    return m, ref, np.searchsorted(counts, ref), tuple(map(int, counts))


def _moved(rows, *pairs):
    """rows with a private column each appended, set in its own row; for
    each pair (u, w), with no end shared, row w's mark moves from its own
    column to u's: every degree keeps, and the count of (u, w) alone
    grows by 1."""
    n, c = rows.shape
    m = np.hstack([rows, np.eye(n, dtype=bool)])
    for u, w in pairs:
        m[w, c + w] = False
        m[w, c + u] = True
    return m


def _slab_rows():
    """The first 40 rows of the glued (3, 3) DDG and their classes: with a
    private column each, 391 columns, they make one block of 2 slabs of
    h = 20 rows, packed row r holding rows r and 20 + r."""
    ddg, cls, _ = _glued(3, 3)
    assert len(set(cls[:40])) == 2
    return ddg[:40], cls[:40]


def test_low_slab_witness_wins():
    """Bad pairs (5, 35) in the low slab and (25, 30) in the high slab
    share packed row 5; the high one sits at an earlier column of the
    tile, but (5, 35) comes first in lexicographic order.  On zero rows
    whose only same-class pair is one of the two, the same-class stratum
    met at the high-slab pair, after the witness, keeps its None; met at
    the low-slab pair, it takes that pair's count, which leaves the
    high-slab pair the witness."""
    rows, cls = _slab_rows()
    pairs = [(5, 35), (25, 30)]
    assert _check_folded(_moved(rows, *pairs), same=cls)[:2] == (5, 35)
    zero = _moved(np.zeros_like(rows), *pairs)
    for (u, w), want in (((25, 30), ((5, 35, 1), (0, None))),
                         ((5, 35), ((25, 30, 1), (0, 1)))):
        same = np.arange(40)
        same[w] = u
        assert first_bad_pair(zero, graphs.SameClass(same), (None, None)) == \
            want
        _check_folded(zero, same=same)


@pytest.mark.parametrize("u", [19, 20])
def test_witness_on_slab_boundary_row(u):
    """Row 19 ends the low slab and row 20 opens the high one: a bad pair
    on either is found, with its count, and so is one at the first column
    after its row, with the values inferred and given."""
    rows, cls = _slab_rows()
    _, values = first_bad_pair(_moved(rows), graphs.SameClass(cls),
                               (None, None))
    for w in (u + 1, 39):
        m = _moved(rows, (u, w))
        assert _check_folded(m, same=cls)[:2] == (u, w)
        assert _check_folded(m, values, cls)[:2] == (u, w)


def ref_first_bad_pair(ref, strata, values):
    """first_bad_pair as a pair loop over recounted counts: the first pair
    u < w off its stratum's value, each unset value taken from the first
    pair of its stratum."""
    values = list(values)
    for u, w in zip(*np.triu_indices(len(ref), 1)):
        t, count = int(strata[u, w]), int(ref[u, w])
        if values[t] is None:
            values[t] = count
        elif count != values[t]:
            return (int(u), int(w), count), tuple(values)
    return None, tuple(values)


@pytest.mark.parametrize("case", ["first-full-block", "second-full-block",
                                  "last-partial-block"])
@pytest.mark.parametrize("seed", [0, 1])
def test_switched_witness_in_full_and_partial_blocks(case, seed):
    """The glued (3, 3) DDG's 351 rows, with a private column each (702
    columns, two slabs a word), fall in blocks of 8, then _PAIR_ROWS = 128
    rows: [8, 136) and [136, 264) are the full blocks and [264, 351) the
    last, partial one.  A degree-keeping move (`_moved`) puts a bad pair
    at a random row of the block named, and another at a later row;
    witness and values, inferred and given, match the recount."""
    ddg, cls, _ = _glued(3, 3)
    assert graphs._PAIR_ROWS == 128
    lo, hi = {"first-full-block": (8, 136), "second-full-block": (136, 264),
              "last-partial-block": (264, 351)}[case]
    rng = np.random.default_rng(seed)
    u = int(rng.integers(lo, min(hi, len(ddg) - 3)))
    x, y, w = sorted(rng.choice(np.arange(u + 1, len(ddg)), 3, replace=False))
    _, values = first_bad_pair(_moved(ddg), graphs.SameClass(cls),
                               (None, None))
    m = _moved(ddg, (u, int(w)), (int(x), int(y)))
    assert _check_folded(m, same=cls)[:2] == (u, w)
    assert _check_folded(m, values, cls)[:2] == (u, w)


# ---------------------------------------------------------------------------
# the folded check: two-valued adjacency strata and SameClass strata are
# checked in the packed words, and only a tile holding a bad pair is
# unpacked


def _scanned(ref, strata, values):
    """ref_first_bad_pair in array operations, fast enough for graphs of
    a thousand vertices: ref the recounted counts and strata an n x n
    matrix."""
    u, w = np.triu_indices(len(ref), 1)
    st, counts = strata[u, w].astype(np.intp), ref[u, w]
    firsts = [next(iter(np.flatnonzero(st == t)), None)
              for t in range(len(values))]
    found = [int(counts[f]) if v is None and f is not None else v
             for v, f in zip(values, firsts)]
    bad = np.flatnonzero(counts != np.array(
        [-1 if v is None else v for v in found])[st])
    if not len(bad):
        return None, tuple(found)
    f = bad[0]
    return (int(u[f]), int(w[f]), int(counts[f])), tuple(
        None if v is None and (g is None or g > f) else x
        for v, g, x in zip(values, firsts, found))


def _gram(m):
    """Counts of all row pairs of a boolean matrix, from a float64
    product: exact, as every sum is at most the column count."""
    x = m.astype(np.float64)
    return (x @ x.T).astype(np.int64)


def _flipped(m, *pairs):
    m = m.copy()
    for u, w in pairs:
        m[u, w] = m[w, u] = not m[u, w]
    return m


def _check_folded(m, values=(None, None), same=None):
    """first_bad_pair on adjacency strata (m itself) or, given the class
    vector `same`, on SameClass strata, against the recount; the witness
    is returned."""
    strata = m if same is None else graphs.SameClass(same)
    matrix = m if same is None else np.equal.outer(same, same)
    want = _scanned(_gram(m), matrix, values)
    assert first_bad_pair(m, strata, values) == want
    return want[0]


@cache
def _glued(q: int, d: int):
    """(DDG matrix, class vector, SRG matrix) of the (q, d) pieces."""
    ddg_g, partition, srg_g, _ = _srg1_pieces(q, d, 7)
    return ddg_g.matrix, np.array(partition.class_of()), srg_g.matrix


def test_scanned_matches_the_pair_loop():
    """The array reference of the tests below against ref_first_bad_pair,
    with values inferred and given, a stratum met after the witness, and
    one never met."""
    m, ref, strata, values = _two_slab_case()
    unset = (None,) * (len(values) + 1)
    assert _scanned(ref, strata, unset) == ref_first_bad_pair(
        ref, strata, unset)
    for u, w in ((5, 35), (25, 30), (0, 1)):
        moved = strata.copy()
        moved[u, w] = len(values)
        for given in (unset, (*values, None), (*values, 0)):
            assert _scanned(ref, moved, given) == ref_first_bad_pair(
                ref, moved, given)


def _edge_between(m, rows, lo: int, hi: int = None, near: int = None):
    """An edge (u, w), lo <= u < w < hi, with no end in or next to a row
    of `rows`, so a flip of it changes only pairs of later rows, and with
    an end next to row `near` if given."""
    clear = np.flatnonzero(~m[rows].any(axis=0))
    clear = clear[(clear >= lo) & (clear < (hi or len(m)))]
    clear = clear[~np.isin(clear, rows)]
    sub = np.triu(m[np.ix_(clear, clear)], 1)
    if near is not None:
        sub &= np.logical_or.outer(m[near, clear], m[near, clear])
    u, w = divmod(int(sub.argmax()), len(clear))
    assert sub[u, w]
    return int(clear[u]), int(clear[w])


def _switched(m, lo: int, hi: int = None):
    """A 2-switch of vertices in [lo, hi): edges ab and cd, with c and d
    next to neither a nor b, made ad and cb."""
    a, b = _edge_between(m, [], lo, hi)
    c, d = _edge_between(m, [a, b], lo, hi)
    return _flipped(m, (a, b), (c, d), (a, d), (c, b))


@pytest.mark.parametrize("q, d", [(2, 3), (3, 3), (2, 5), (4, 3)])
@pytest.mark.parametrize("kind", ["srg", "ddg"])
def test_folded_flips_and_switches_match_recount(q, d, kind):
    """Single-edge flips and 2-switches of the glued DDG and SRG, from 56
    vertices (one block, one tile) to 1365: a flip inside the first tile,
    one whose first bad row is 3 and one whose first bad row is 4, which
    open and end the second slab of block 0 past 128 vertices (rows 0 to
    7, two slabs of four), and, past one tile, a flip whose pairs all lie
    in a later tile and a 2-switch of four late vertices.  Witness, count
    and values match the recount."""
    ddg, cls, srg = _glued(q, d)
    m, same = (srg, None) if kind == "srg" else (ddg, cls)
    # a relabelling, as the glued rows 0 to 3 share most neighbours
    perm = np.random.default_rng(len(m)).permutation(len(m))
    m = m[np.ix_(perm, perm)]
    same = None if same is None else same[perm]
    tile = 2 * graphs._PAIR_ROWS
    bad = _check_folded(_flipped(m, (1, 2)), same=same)
    assert bad[1] <= tile
    for first in (3, 4):
        u, w = _edge_between(m, list(range(first)), 8, near=first)
        bad = _check_folded(_flipped(m, (u, w)), same=same)
        assert bad[0] == first
    if len(m) > tile + 1:
        late = _edge_between(m, [], tile + 1)
        bad = _check_folded(_flipped(m, late), same=same)
        assert bad[0] < 8 and bad[1] > tile
        bad = _check_folded(_switched(m, tile + 1), same=same)
        assert bad[0] < 8 and bad[1] > tile


def test_folded_adjacency_strata_of_both_signs():
    """delta = lambda - mu < 0 on Sp(10, 2) (1023 vertices, mu = 255,
    lambda = 253) and > 0 on T(33) (528 vertices, lambda = 31, mu = 4):
    each passes with its values, and a flip or a 2-switch is found as the
    recount finds it, also with the values given."""
    sp = symplectic_graph(make_field(2, 1), 5).matrix
    t33 = triangular_graph(33).matrix
    for m, values in ((sp, (255, 253)), (t33, (4, 31))):
        assert first_bad_pair(m, m, (None, None)) == (None, values)
        rng = np.random.default_rng(len(m))
        for _ in range(3):
            u, w = sorted(rng.choice(len(m), 2, replace=False))
            _check_folded(_flipped(m, (u, w)))
            _check_folded(_flipped(m, (u, w)), values)
        _check_folded(_switched(m, 300))


def test_folded_classes_of_both_signs():
    """SameClass strata with lambda1 < lambda2 (the glued (2, 5) DDG,
    992 vertices) and lambda1 > lambda2 (K_{32 x 32} with its parts as
    classes: 992 and 960)."""
    ddg, cls, _ = _glued(2, 5)
    k32 = graphs.complete_multipartite(*[32] * 32).matrix
    parts = np.repeat(np.arange(32), 32)
    for m, same, values in ((ddg, cls, (248, 240)), (k32, parts, (960, 992))):
        assert first_bad_pair(m, graphs.SameClass(same), (None, None)) == (
            None, values)
        rng = np.random.default_rng(len(m))
        for _ in range(3):
            u, w = sorted(rng.choice(len(m), 2, replace=False))
            _check_folded(_flipped(m, (u, w)), same=same)
            _check_folded(_flipped(m, (u, w)), values, same)


def _triangles(n: int, lone):
    """Disjoint triangles on the vertices in order, past the isolated ones
    of `lone`: lambda = 1 and mu = 0, so folded digits cnt - S reach -1.
    A flip of (u, w), u first in its triangle, changes pairs of rows u and
    later only, and of columns in or next to w's triangle."""
    labels = np.full(n, -1)
    labels[lone] = -2 - np.arange(len(lone))
    labels[labels == -1] = np.arange(n - len(lone)) // 3
    return np.equal.outer(labels, labels) & ~np.eye(n, dtype=bool)


class _CountedClasses(graphs.SameClass):
    """SameClass strata that count the slices read from them."""

    reads = 0

    def __getitem__(self, key):
        _CountedClasses.reads += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("n", [40, 300])
@pytest.mark.parametrize("shape", ["one class", "singletons"])
def test_stratum_never_met_is_not_looked_for(n, shape):
    """SameClass strata of one class have no cross-class pair, and of
    singleton classes no same-class pair.  On G(n, 1/2), failing and
    passing (the empty graph), first_bad_pair and pair_witness give the
    array reference's witness and values, the missing stratum's value
    None (0 from pair_witness), and the value pass reads row 0 alone: one
    slice before the scan, which stops in the first block of a failing
    graph."""
    rng = np.random.default_rng(n)
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    same = np.zeros(n, int) if shape == "one class" else np.arange(n)
    missing = 0 if shape == "one class" else 1
    for m in (upper | upper.T, np.zeros((n, n), bool)):
        bad, values = first_bad_pair(m, graphs.SameClass(same), (None, None))
        assert (bad, values) == _scanned(_gram(m), np.equal.outer(same, same),
                                         (None, None))
        assert values[missing] is None and (bad is None) == (not m.any())
        witness, inferred = graphs.pair_witness(
            m, graphs.SameClass(same), ("cross-class", "same-class"))
        assert inferred == tuple(v or 0 for v in values)
        assert (witness is None) == (bad is None)
    _CountedClasses.reads = 0
    assert first_bad_pair(upper | upper.T, _CountedClasses(same),
                          (None, None))[0]
    assert _CountedClasses.reads <= 3


def test_folded_witness_anywhere_in_a_block(monkeypatch):
    """Bad pairs put in place in the blocks [0, 8), then [8 + 128 i,
    136 + 128 i): on the slab boundaries of block 0 (rows 3 and 4) and of
    [136, 264) (rows 199 and 200), in a later tile, and two at once, the
    earlier row in the later tile, so the block is packed again.
    Adjacency strata of triangles, and SameClass strata of rows with one
    class column and one private column each (counts 1 and 0), where a
    column shared by rows u and w changes their pair alone."""
    for lone, pairs, row in ((0, [(3, 300)], 3), (1, [(4, 300)], 4),
                             (1, [(199, 300)], 199), (2, [(200, 300)], 200),
                             (1, [(202, 450)], 202),
                             (1, [(205, 210), (151, 450)], 151)):
        m = _flipped(_triangles(516 - (lone == 1), range(lone)), *pairs)
        assert _check_folded(m)[0] == row
    # loops on isolated vertices count in their words against themselves
    # only, so the graph passes with no tile unpacked; a flip then fails
    # as the recount says
    lone = [150, 151, 300, 301, 302]
    m = _triangles(518, lone)
    m[lone, lone] = True
    unpacked = []
    digits = graphs._digits
    monkeypatch.setattr(graphs, "_digits", lambda *args: (
        unpacked.append(1), digits(*args))[1])
    assert first_bad_pair(m, m, (None, None)) == (None, (0, 1))
    assert not unpacked
    for pairs in ([(151, 152)], [(301, 305)], [(2, 150)]):
        _check_folded(_flipped(m, *pairs))
    n = 513
    same = np.arange(n) // 3
    rows = np.hstack([np.equal.outer(same, np.arange(n // 3)),
                      np.eye(n, dtype=bool)])
    for pairs in ([(3, 300)], [(4, 300)], [(199, 300)], [(200, 300)],
                  [(202, 450)], [(205, 210), (151, 450)]):
        marked = rows.copy()
        for u, w in pairs:
            marked[w, n // 3 + u] = True  # a column shared by u and w
        u, w = min(pairs)
        assert _check_folded(marked, same=same) == (
            u, w, 1 + (same[u] == same[w]))


@pytest.mark.parametrize("parts, size, window, s",
                         [(22, 89, 2047, 11), (63, 32, 2048, 12)])
def test_folded_digit_bound(monkeypatch, parts, size, window, s):
    """Adjacency digits cnt - delta S fill a window of c + |delta| + 1
    integers: K_{22 x 89} (1958 vertices, delta = -89) has c + |delta| =
    2047 and packs 11-bit digits, K_{63 x 32} (2016 vertices, delta = -32)
    reaches 2048 and packs 12-bit ones, two slabs a word either way: the
    bit width of every unpacked tile given these values.  Flips there, and
    with values inferred, match the recount."""
    m = graphs.complete_multipartite(*[size] * parts).matrix
    n = len(m)
    values = (n - size, n - 2 * size)
    assert n + size == window and window.bit_length() == s
    assert first_bad_pair(m, m, (None, None)) == (None, values)
    flips = [_flipped(m, *pairs) for pairs in
             ([(5, 6)], [(0, size)], [(3, n - 1), (1, n - 2)])]
    for flipped in flips:
        _check_folded(flipped)
    seen = []
    digits = graphs._digits
    monkeypatch.setattr(graphs, "_digits", lambda *args: (
        seen.append(args[-1]), digits(*args))[1])
    for flipped in flips:
        _check_folded(flipped, values)
    assert set(seen) == {s}


def _tiles(n: int) -> int:
    """Column tiles of a whole folded pass over n rows: a block of 8 rows,
    then blocks of _PAIR_ROWS."""
    starts = [0, *range(8, n - 1, graphs._PAIR_ROWS)]
    return sum(-(-(n - a - 1) // (2 * graphs._PAIR_ROWS)) for a in starts)


class _Operand(np.ndarray):
    """A block operand that counts the matrix products it enters."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and method == "__call__":
            _Operand.products += 1
        plain = [x.view(np.ndarray) if isinstance(x, _Operand) else x
                 for x in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(x.view(np.ndarray) for x in kwargs["out"])
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.mark.parametrize("kind", ["srg", "ddg", "srg1-cases"])
def test_passing_tiles_are_not_unpacked(monkeypatch, kind):
    """On s(q, d) and d(q, d) at (3, 3) and (4, 3), 351 to 1365 vertices,
    a passing verify, or verify_srg1_cases on s(q, d) with no certificate,
    unpacks no tile and a 2-switched copy whose bad pairs lie in one tile
    of the rows it scans unpacks exactly that one; neither runs more
    products than the tiles it scans, one each, as a differing tile's
    counts come from its own product.  The audit's class fold, which
    passes on both, adds the tiles of the DDG's rows."""
    unpacked = []
    digits, packed = graphs._digits, graphs._packed
    monkeypatch.setattr(graphs, "_digits", lambda *args: (
        unpacked.append(1), digits(*args))[1])
    monkeypatch.setattr(graphs, "_packed", lambda *args: (
        lambda block, *rest: (block.view(_Operand), *rest))(*packed(*args)))
    for q, d in ((3, 3), (4, 3)):
        ddg, cls, srg = _glued(q, d)
        partition = VertexPartition.from_lists(len(cls), [
            np.flatnonzero(cls == t) for t in range(cls.max() + 1)])
        design = projective_complement_design(
            make_field(*as_prime_power(q)), d)
        m = ddg if kind == "ddg" else srg
        verify = {"srg": verify_srg,
                  "ddg": lambda g: verify_ddg(g, partition),
                  "srg1-cases": lambda g: verify_srg1_cases(
                      g, partition, design)}[kind]
        audit = _tiles(len(ddg)) if kind == "srg1-cases" else 0
        unpacked.clear()
        _Operand.products = 0
        assert verify(Graph(m)).passed
        assert (unpacked, _Operand.products) == ([], _tiles(len(m)) + audit)
        _Operand.products = 0
        cert = verify(Graph(_switched(m, 8, 256)))
        assert cert.witnesses[0]["pair"][1] < 256
        assert len(unpacked) == 1
        assert 1 + audit <= _Operand.products <= \
            -(-(len(m) - 1) // 256) + audit


@pytest.mark.parametrize("kind", ["designs", "srg", "ddg"])
def test_scans_with_an_unmet_stratum_are_not_unpacked(monkeypatch, kind):
    """Scans whose pairs all lie in one stratum fold too, the unmet
    stratum taking the other's value: passing verify_symmetric on the
    projective complement design and verify_resolvable on the affine
    design at (2, 5) and (4, 3), verify_srg on K_300 and its complement,
    and verify_ddg on s(3, 3) (lambda = mu) as one class and as singleton
    classes unpack no tile.  With delta = 0, K_300's adjacency digits
    take the 9 bits of c = 300, not the 10 of c + 298."""
    unpacked, widths = [], set()
    digits, packed = graphs._digits, graphs._packed
    monkeypatch.setattr(graphs, "_digits", lambda *args: (
        unpacked.append(1), digits(*args))[1])
    monkeypatch.setattr(graphs, "_packed", lambda *args: (
        widths.add(args[2]), packed(*args))[1])
    if kind == "designs":
        fields = [(make_field(*as_prime_power(q)), d)
                  for q, d in ((2, 5), (4, 3))]
        certs = [verify(build(field, d)) for field, d in fields
                 for verify, build in (
                     (verify_symmetric, projective_complement_design),
                     (verify_resolvable, affine_geometry_design))]
    elif kind == "srg":
        certs = [verify_srg(complete_graph(300)),
                 verify_srg(empty_graph(300))]
        assert widths == {9}
    else:
        g = Graph(_glued(3, 3)[2])
        certs = [verify_ddg(g, VertexPartition.from_lists(g.n, parts))
                 for parts in ([range(g.n)], [[v] for v in range(g.n)])]
    assert all(cert.passed for cert in certs)
    assert not unpacked


def test_verifier_memory_stays_below_decode():
    """At 992 to 1365 vertices, the sizes the verify-large benchmark
    times, graph6_decode's own traced peak must stay below 2.25 n^2 bytes:
    the n x n matrix, the unpacked bits and its buffers, with no n x n
    mask beside them.  The verifiers' float32 tiles, packed blocks, strata
    and masks must add less than 2.5 n^2 bytes of traced memory (numpy
    buffers included).  A float32 copy of the whole matrix (4 n^2 bytes)
    would break this.  The pair kernel alone must hold less than two
    float32 tiles of 2 * _PAIR_ROWS rows:
    its one tile buffer, the packed block (built, then transposed) and the
    per-tile counts fit, but a tile of twice the rows, or a block left
    unpacked, does not."""
    for q, d in ((2, 5), (4, 3)):
        ddg_g, partition, srg_g, _ = _srg1_pieces(q, d, 7)
        for g, verify in ((ddg_g, lambda h: verify_ddg(h, partition)),
                          (srg_g, verify_srg)):
            text = graph6_encode(g)
            tracemalloc.start()
            try:
                h = graph6_decode(text)
                decode_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                assert verify(h).passed
                added = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert decode_peak < 2.25 * g.n ** 2, (g.n, decode_peak)
            assert added < 2.5 * g.n ** 2, (g.n, added)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                first_bad_pair(h.matrix, h.matrix, (None, None))
                kernel = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            tile_bytes = 2 * graphs._PAIR_ROWS * g.n * 4
            assert kernel < 2 * tile_bytes, (g.n, kernel, tile_bytes)


def test_srg1_audit_memory_stays_below_a_quarter_of_n_squared():
    """At 1023 and 1365 vertices, with verify_srg's passing certificate to
    settle the totals, the coclique audit's traced peak stays below n^2 / 4
    bytes: the class scan's tiles of n x m float32 and the attached pairs'
    n x m product, with no n x n strata matrix (n^2 bytes) beside them."""
    for q, d in ((2, 5), (4, 3)):
        _, partition, srg_g, attach = _srg1_pieces(q, d, 7)
        srg_cert = verify_srg(srg_g)
        assert srg_cert.passed
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert verify_srg1_cases(srg_g, partition, attach,
                                     srg_cert).passed
            added = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert added < srg_g.n ** 2 / 4, (srg_g.n, added)


def test_class_scan_keeps_no_first_tile_mask():
    """The coclique audit's class scan of s(3, 3) (351 rows of 13 attached
    columns) holds its tile buffer, packed block and words, about 70 KB
    traced at its peak; a 128 x 256 boolean mask of the first tile's
    upper pairs, built on every call, would add 32 KB."""
    _, partition, srg_g, _ = _srg1_pieces(3, 3, 7)
    cls = np.array(partition.class_of())
    att = srg_g.matrix[:len(cls), len(cls):]
    values = first_bad_pair(att, graphs.SameClass(cls), (None, None))[1]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert first_bad_pair(att, graphs.SameClass(cls), values) == (
            None, values)
        added = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert added < 88_000, added


@pytest.mark.parametrize("q, d, kind", [(3, 3, "srg"), (3, 3, "ddg"),
                                        (2, 5, "srg")])
def test_spectrum_memory_holds_its_products_only(q, d, kind):
    """exact_spectrum's traced peak above the input graph is at most the
    n x n float32 arrays it multiplies, A and A^2 for an SRG spectrum and
    the running product too for a glued DDG's, plus O(n) bytes: no float64
    copy for a trace, no absolute-value copy for a number-type bound and no
    boolean matrix for the constancy test.  A second call on the same graph
    gives the same spectrum and the graph's matrix is untouched, so the
    factor built in A^2's place is an array of the call's own."""
    ddg_g, partition, srg_g, _ = _srg1_pieces(q, d, 7)
    if kind == "srg":
        g, arrays = srg_g, 2
        candidates = [e for e, _ in
                      srg_spectrum(srg1_target_params(q, d)).entries()]
    else:
        g, arrays = ddg_g, 3
        params = DdgParams.from_certificate(verify_ddg(g, partition))
        candidates = ddg_formula_spectrum(params).candidates()
    matrix = g.matrix.copy()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spectrum = exact_spectrum(g, candidates)
        added = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert spectrum.order == g.n
    assert added <= arrays * 4 * g.n * g.n + 128 * g.n, (g.n, added)
    assert exact_spectrum(g, candidates) == spectrum
    assert np.array_equal(g.matrix, matrix)


# ---------------------------------------------------------------------------
# BLAS threading: the kernels' products give the same results on any number
# of threads, and the scope sets and restores the thread count


_OPENBLAS = graphs._openblas_threads()
needs_openblas = pytest.mark.skipif(
    _OPENBLAS is None, reason="numpy's BLAS has no OpenBLAS thread setter")


def _kernel_results(q: int, d: int):
    """Every product kernel's output on the (q, d) pieces: the certificate
    JSON of the three verifiers, on the outputs and on a 2-switched SRG,
    the two spectra, and at (3, 3) the bytes of the SRG's edge counts."""
    ddg_g, partition, srg_g, attach = _srg1_pieces(q, d, 7)
    params = DdgParams.from_certificate(verify_ddg(ddg_g, partition))
    out = [verify_ddg(ddg_g, partition).to_json(),
           verify_srg(srg_g).to_json(),
           verify_srg(_two_switched(srg_g, 1, 1)).to_json(),
           verify_srg1_cases(srg_g, partition, attach).to_json(),
           repr(exact_spectrum(ddg_g,
                               ddg_formula_spectrum(params).candidates())),
           repr(exact_spectrum(srg_g, [e for e, _ in srg_spectrum(
               srg1_target_params(q, d)).entries()]))]
    if srg_g.n <= 364:
        out.append(graphs.common_edge_counts(srg_g.matrix).tobytes())
    return out


@needs_openblas
@pytest.mark.parametrize("q, d", [(3, 3), (2, 5)])
def test_results_do_not_depend_on_blas_threads(monkeypatch, q, d):
    """With the scope's crossover at 0, the kernels multiply on the
    caller's threads, set to 1 and then to 2 by the OpenBLAS setter: every
    certificate, edge count and spectrum is the same, as every product is
    exact in any order of summation."""
    monkeypatch.setattr(graphs, "_SERIAL_BELOW", 0)
    setter, get = _OPENBLAS
    before, results = get(), []
    try:
        for count in (1, 2):
            setter(count)
            assert get() == count
            results.append(_kernel_results(q, d))
    finally:
        setter(before)
    assert results[0] == results[1]


@needs_openblas
def test_scope_sets_one_thread_below_the_crossover_only():
    """Below the crossover the scope reads 1 thread inside and the previous
    count after it, also when its body raises; at and above it the count
    is untouched."""
    setter, get = _OPENBLAS
    before = get()
    setter(2)
    try:
        with graphs._blas_scope(graphs._SERIAL_BELOW - 1):
            assert get() == 1
        assert get() == 2
        with pytest.raises(KeyError):
            with graphs._blas_scope(1):
                assert get() == 1
                raise KeyError("body")
        assert get() == 2
        for n in (graphs._SERIAL_BELOW, 4096):
            with graphs._blas_scope(n):
                assert get() == 2
        assert get() == 2
    finally:
        setter(before)


def test_kernels_multiply_in_the_scope(monkeypatch):
    """The pair kernel, the edge counts and a spectrum's two stages, in one
    scope, set one thread and restore the count below the crossover, and
    leave it alone from the crossover on (a recording stand-in for
    OpenBLAS)."""
    calls = []
    monkeypatch.setattr(graphs, "_openblas_threads",
                        lambda: (calls.append, lambda: 3))
    srg_g = _PIECES[(3, 2)][2]
    small = [lambda: verify_srg(srg_g),
             lambda: graphs.common_edge_counts(srg_g.matrix),
             lambda: exact_spectrum(srg_g, [e for e, _ in srg_spectrum(
                 srg1_target_params(3, 2)).entries()])]
    for kernel in small:
        calls.clear()
        kernel()
        assert calls == [1, 3]
    big = graphs.empty_graph(graphs._SERIAL_BELOW)
    calls.clear()
    verify_srg(graphs.complement(big))
    graphs.common_edge_counts(big.matrix)
    exact_spectrum(big, [0])
    assert calls == []


def test_kernels_run_without_openblas(monkeypatch):
    """When the lookup finds no OpenBLAS, the scope changes nothing and
    every kernel gives the same results."""
    expected = _kernel_results(3, 3)
    monkeypatch.setattr(graphs, "_openblas_threads", lambda: None)
    with graphs._blas_scope(1):
        pass
    assert _kernel_results(3, 3) == expected


def _refuse(path):
    raise OSError(f"cannot open {path}")


@pytest.mark.parametrize("cdll", [_refuse, lambda path: object()],
                         ids=["unopenable", "no-symbols"])
def test_lookup_falls_back_to_no_openblas(monkeypatch, cdll):
    """The lookup opens numpy's own extension module and nothing else.
    When that fails, or the handle has none of the four spellings of the
    setter and getter, it finds no OpenBLAS, and the kernels, which then
    leave the thread count alone, give the same results."""
    expected = _kernel_results(3, 3)
    opened = []
    monkeypatch.setattr(graphs.ctypes, "CDLL",
                        lambda path: opened.append(path) or cdll(path))
    lookup = graphs._openblas_threads.__wrapped__
    assert lookup() is None
    assert opened == [np._core._multiarray_umath.__file__]
    monkeypatch.setattr(graphs, "_openblas_threads", lookup)
    assert _kernel_results(3, 3) == expected
