"""Canonical labeling: invariance, brute-force agreement, group orders.

`ref_refine` and `ref_level_value` are the refinement and level value as
they were before refinement skipped singleton cells, cells became bit
masks and the level value packed its bits, with the refinement counting
neighbours in a list of relations instead of in the adjacency alone and
keeping its splitter queue by Hopcroft's rule; they serve as the oracle of
the fast versions, which must give the same ordered cells (as masks) and
level values that order the same way.  `full_queue_refine` queues every
subcell, as the refinement did before Hopcroft's rule; on the inputs canon
feeds the refinement it must reach the same set partition.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from conftest import graph_from_bits, graphs, rows_graph
from srgforge import (as_prime_power, canon, canonical_form, chang_graphs,
                      ClassBlockMap, complement, complete_graph,
                      complete_multipartite, construct_srg1, count_classes,
                      cycle_graph, empty_graph, fano_plane, from_edges,
                      graph6_decode, graph6_encode, Graph, line_graph,
                      make_field, path_graph, petersen_graph,
                      projective_complement_design, symplectic_graph,
                      TooLarge, triangular_graph)
from srgforge.cli import main
from srgforge.graphs import bitset, set_bits
from test_ddg import build


def _count_groups(relations, cell, smask):
    """The vertices of cell grouped by the tuple of neighbour counts in
    smask, one per relation, in ascending order of the tuple."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for v in cell:
        key = tuple((rows[v] & smask).bit_count() for rows in relations)
        groups.setdefault(key, []).append(v)
    return [groups[key] for key in sorted(groups)]


def ref_refine(relations, cells, work):
    """Split cells by the tuple of neighbour counts, one per relation,
    against every splitter in work until the partition is equitable.  A
    split cell waiting in work is replaced there by the masks of all its
    subcells; any other split cell queues all of them but the first
    largest."""
    while work:
        smask = work.pop()
        out = []
        for cell in cells:
            subs = _count_groups(relations, cell, smask)
            out += subs
            if len(subs) == 1:
                continue
            masks = [bitset(sub) for sub in subs]
            if bitset(cell) in work:
                at = work.index(bitset(cell))
                work[at:at + 1] = masks
            else:
                sizes = [len(sub) for sub in subs]
                largest = sizes.index(max(sizes))
                work += masks[:largest] + masks[largest + 1:]
        cells = out
    return cells


def full_queue_refine(relations, cells, work):
    """ref_refine with every subcell of a split cell queued."""
    while work:
        smask = work.pop()
        out = []
        for cell in cells:
            subs = _count_groups(relations, cell, smask)
            out += subs
            if len(subs) > 1:
                work += [bitset(sub) for sub in subs]
        cells = out
    return cells


def ref_level_value(rows, cells):
    """(cell sizes, adjacency bits among the leading singletons): equal for
    nodes related by an automorphism, totally ordered within one search."""
    sizes = tuple(len(c) for c in cells)
    lead = []
    for cell in cells:
        if len(cell) != 1:
            break
        lead.append(cell[0])
    bits = []
    for j in range(1, len(lead)):
        vj = lead[j]
        for i in range(j):
            bits.append(rows[lead[i]] >> vj & 1)
    return (sizes, tuple(bits))


@st.composite
def partitioned_graphs(draw):
    """A graph on up to 70 vertices (two words past 64), a list of
    relations (its pair colour classes, or its rows followed by up to two
    other graphs' rows), three ordered partitions with one shape of cell
    sizes (leading singletons first) and a splitter stack of cell masks,
    single vertices and vertex subsets."""
    g = draw(graphs(min_n=1, max_n=70))
    n = g.n
    other = st.integers(0, (1 << n * (n - 1) // 2) - 1).map(
        lambda bits: graph_from_bits(n, bits).rows)
    relations = draw(st.one_of(
        st.just(canon._pair_relations(g.matrix)),
        st.lists(other, max_size=2).map(lambda rest: [g.rows, *rest])))
    lead = draw(st.integers(min_value=0, max_value=n))
    cuts = [True] * lead + draw(st.lists(st.booleans(), min_size=n - lead,
                                         max_size=n - lead))
    partitions = []
    for _ in range(3):
        order = draw(st.permutations(range(n)))
        cells, cell = [], []
        for v, cut in zip(order, cuts):
            cell.append(v)
            if cut:
                cells.append(cell)
                cell = []
        if cell:
            cells.append(cell)
        partitions.append(cells)
    cell_masks = [sum(1 << v for v in cell) for cell in partitions[0]]
    splitter = st.one_of(st.sampled_from(cell_masks),
                         st.integers(0, n - 1).map(lambda v: 1 << v),
                         st.integers(0, (1 << n) - 1))
    work = draw(st.lists(splitter, min_size=1, max_size=4))
    return g, relations, partitions, work


@given(partitioned_graphs())
def test_refine_and_level_value_match_reference(case):
    g, relations, partitions, work = case
    values, ref_values = [], []
    for cells in partitions:
        masks = [bitset(cell) for cell in cells]
        # every cell as a splitter, where split cells are often waiting in
        # the queue, then the drawn splitters
        for stack in (masks, work):
            refined = list(masks)
            canon._refine(relations, refined, list(stack))
            ref = ref_refine(relations, cells, list(stack))
            assert refined == [bitset(cell) for cell in ref]
        for part, ref_part in ((masks, cells), (refined, ref)):
            values.append(canon._level_value(g.matrix, part))
            ref_values.append(ref_level_value(g.rows, ref_part))
    for (a, ra), (b, rb) in itertools.product(zip(values, ref_values),
                                              repeat=2):
        assert (a < b) == (ra < rb)
        assert (a == b) == (ra == rb)


@given(graphs(min_n=1, max_n=40), st.booleans(), st.data())
def test_queue_rule_keeps_the_set_partition(g, colours, data):
    """On the inputs canon feeds the refinement, the refined set partition
    is the full queue's: the unit partition with the vertex set as
    splitter, the equitable partition reached from it with every cell as
    splitter, and an equitable partition with one vertex individualized
    and that vertex as splitter."""
    relations = canon._pair_relations(g.matrix) if colours else [g.rows]

    def check(cells, work):
        refined = [bitset(cell) for cell in cells]
        canon._refine(relations, refined, list(work))
        ref = full_queue_refine(relations, cells, list(work))
        assert set(refined) == {bitset(cell) for cell in ref}
        return [list(set_bits(cell)) for cell in refined]

    everything = [list(range(g.n))]
    cells = check(everything, [bitset(everything[0])])
    cells = check(cells, [bitset(cell) for cell in cells])
    open_cells = [i for i, cell in enumerate(cells) if len(cell) > 1]
    if open_cells:
        target = data.draw(st.sampled_from(open_cells))
        u = data.draw(st.sampled_from(cells[target]))
        rest = [v for v in cells[target] if v != u]
        check(cells[:target] + [[u], rest] + cells[target + 1:], [1 << u])


@given(graphs(max_n=20), st.integers(1, 3))
def test_pair_relations_match_a_set_count(g, per_stack):
    """The pair colour relations, also when built a few classes per stacked
    mask, against colours from common-neighbour sets: (adjacent, t) in
    order, the largest class (the first of equal ones) left out."""
    rows = g.rows
    colour = {}
    for u, w in itertools.permutations(range(g.n), 2):
        common = list(set_bits(rows[u] & rows[w]))
        t = sum(rows[a] >> b & 1 for a, b in itertools.combinations(common, 2))
        colour[u, w] = (rows[u] >> w & 1, t)
    classes = sorted(set(colour.values()))
    sizes = [list(colour.values()).count(c) for c in classes]
    if classes:
        del classes[sizes.index(max(sizes))]
    expected = [tuple(sum(1 << w for w in range(g.n) if (u, w) in colour
                          and colour[u, w] == c) for u in range(g.n))
                for c in classes]
    assert canon._pair_relations(g.matrix) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(canon, "_STACK_ENTRIES", per_stack * g.n * g.n)
        assert canon._pair_relations(g.matrix) == expected


def brute_min_bits(g: Graph) -> tuple:
    """Minimum upper-triangle bit tuple over all relabelings."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        h = g.relabel(perm)
        bits = tuple(h.rows)
        if best is None or bits < best:
            best = bits
    return best


def brute_aut_order(g: Graph) -> int:
    return sum(1 for perm in itertools.permutations(range(g.n))
               if g.relabel(perm) == g)


def hypercube(d: int) -> Graph:
    return from_edges(1 << d, [(u, u ^ 1 << i) for u in range(1 << d)
                               for i in range(d)])


def disjoint_union(*parts: Graph) -> Graph:
    edges, base = [], 0
    for part in parts:
        edges += [(base + u, base + v) for u, v in part.edges()]
        base += part.n
    return from_edges(base, edges)


def paley(q: int) -> Graph:
    squares = {x * x % q for x in range(1, q)}
    return from_edges(q, [(a, b) for a in range(q) for b in range(a + 1, q)
                          if (b - a) % q in squares])


def heawood() -> Graph:
    """Point-line incidence graph of the Fano plane."""
    return from_edges(14, [(p, 7 + i) for i, block in
                           enumerate(fano_plane().blocks) for p in block])


# graphs with large automorphism groups, where leaves equivalent to the
# first leaf turn up all over the search tree
SYMMETRIC = {
    "3K3": complement(complete_multipartite(3, 3, 3)),
    "K3,3": complete_multipartite(3, 3),
    "Q3": hypercube(3),
    "Q4": hypercube(4),
    "C9": cycle_graph(9),
    "2C5": disjoint_union(cycle_graph(5), cycle_graph(5)),
    "K3xK3": line_graph(complete_multipartite(3, 3)),
    "4K2": complement(complete_multipartite(2, 2, 2, 2)),
    "K2+3K1": disjoint_union(complete_graph(2), empty_graph(3)),
    "Paley13": paley(13),
    "Heawood": heawood(),
    "co-Q3": complement(hypercube(3)),
}


@given(st.one_of(graphs(max_n=10),
                 st.sampled_from([triangular_graph(8), SYMMETRIC["Q4"],
                                  SYMMETRIC["3K3"], SYMMETRIC["K3xK3"]])),
       st.randoms())
def test_relabeling_invariance(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = g.relabel(tuple(perm))
    assert canonical_form(h) == canonical_form(g)


def networkx_group(g: Graph) -> tuple[int, int]:
    """(|Aut|, orbit count) from every isomorphism of g onto itself that
    networkx's VF2 matcher enumerates."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    images: list[set[int]] = [set() for _ in range(g.n)]
    order = 0
    for iso in GraphMatcher(nxg, nxg).isomorphisms_iter():
        order += 1
        for v, w in iso.items():
            images[v].add(w)
    return order, len({frozenset(orbit) for orbit in images})


def gnp_graphs():
    rnd = random.Random(2014)
    for n in range(1, 10):
        for p in (0.2, 0.5, 0.8):
            for _ in range(6):
                yield f"G({n},{p})", graph_from_bits(n, sum(
                    (rnd.random() < p) << i
                    for i in range(n * (n - 1) // 2)))


def test_group_matches_networkx():
    """|Aut| and the orbit count agree with a networkx enumeration on the
    symmetric graphs and on seeded G(n, p) graphs."""
    for name, g in [*SYMMETRIC.items(), *gnp_graphs()]:
        form = canonical_form(g)
        assert (form.aut_order, form.orbit_count) == networkx_group(g), name


def cycle_union(sizes) -> Graph:
    """Disjoint cycles of the given lengths."""
    edges, offset = [], 0
    for size in sizes:
        edges += [(offset + i, offset + (i + 1) % size) for i in range(size)]
        offset += size
    return from_edges(offset, edges)


@pytest.mark.parametrize("sizes, seed", [((3, 4, 5), 0), ((3, 5, 8), 1),
                                         ((4, 6, 6), 1)])
def test_ties_with_a_later_best_leaf(sizes, seed):
    """Relabelled disjoint cycles whose best leaf is not the first leaf
    and has leaves tying it (not the first leaf) further on.  Backjumping
    after such a tie, as after a tie with the first leaf, is unsound: it
    loses automorphisms (C3+C4+C5) or the canonical leaf (the others)."""
    base = cycle_union(sizes)
    perm = list(range(base.n))
    random.Random(seed).shuffle(perm)
    g = base.relabel(tuple(perm))
    search = canon._Search(g)
    search.run()
    assert search.best != search.first
    form = canonical_form(g)
    assert (form.aut_order, form.orbit_count) == networkx_group(g)
    assert form == canonical_form(base)


def test_brute_force_classes_n6():
    rnd = random.Random(17)
    pool = [graph_from_bits(6, rnd.getrandbits(15)) for _ in range(40)]
    by_brute: dict = {}
    by_canon: dict = {}
    for idx, g in enumerate(pool):
        by_brute.setdefault(brute_min_bits(g), []).append(idx)
        by_canon.setdefault(canonical_form(g).graph6, []).append(idx)
    assert sorted(by_brute.values()) == sorted(by_canon.values())


@pytest.mark.parametrize("n,count", [(5, 8), (7, 5), (8, 3)])
def test_brute_force_aut_order(n, count):
    rnd = random.Random(n)
    for _ in range(count):
        g = graph_from_bits(n, rnd.getrandbits(n * (n - 1) // 2))
        assert canonical_form(g).aut_order == brute_aut_order(g)


def test_known_group_orders():
    assert canonical_form(petersen_graph()).aut_order == 120
    assert canonical_form(petersen_graph()).orbit_count == 1
    assert canonical_form(triangular_graph(6)).aut_order == 720
    assert canonical_form(complete_graph(5)).aut_order == 120
    assert canonical_form(cycle_graph(7)).aut_order == 14
    assert canonical_form(path_graph(4)).aut_order == 2
    assert canonical_form(empty_graph(0)).aut_order == 1
    assert canonical_form(empty_graph(1)).aut_order == 1
    assert canonical_form(triangular_graph(8)).aut_order == 40320
    sp43 = symplectic_graph(make_field(*as_prime_power(3)), 2)
    assert canonical_form(sp43).aut_order == 51840
    assert [canonical_form(c).aut_order for c in chang_graphs()] == \
        [384, 360, 96]


def test_orbit_counts():
    assert canonical_form(path_graph(4)).orbit_count == 2
    assert canonical_form(complete_graph(4)).orbit_count == 1
    star = rows_graph(4, (0b1110, 0b0001, 0b0001, 0b0001))
    assert canonical_form(star).orbit_count == 2


def test_too_large():
    with pytest.raises(TooLarge):
        canonical_form(path_graph(257))


def glued_pair():
    """d(2,3) and s(2,3): the glued DDG with seed 1 and the cyclic
    quasigroup, and the SRG attached to it."""
    g, partition = build(2, 3, seed=1)
    design = projective_complement_design(make_field(2, 1), 3)
    srg = construct_srg1(g, partition, design,
                         ClassBlockMap.identity(len(partition.classes)))
    return g, srg


def test_pinned_canonical_forms():
    """(graph6, orbit count, |Aut|) of three fixed relabellings each of
    d(2,3) and s(2,3); any change to the refinement order, the level value
    or the target cell selector moves this digest."""
    lines = []
    for g in glued_pair():
        for k in range(3):
            perm = list(range(g.n))
            random.Random(k).shuffle(perm)
            form = canonical_form(g.relabel(tuple(perm)))
            lines.append(f"{form.graph6} {form.orbit_count} "
                         f"{form.aut_order}\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == \
        "c407f378ab12ea794bdf4bcaac61bd5b4322b5a1ad5fe5dab0dfe2a09e79356e"


def test_pinned_node_counts():
    """Search nodes of the generated labelling of d(2,3) and s(2,3): the
    ground truth of the node budget."""
    counts = []
    for g in glued_pair():
        search = canon._Search(g)
        search.run()
        counts.append(search.nodes)
    assert counts == [5, 8]


def test_pinned_refinement_work():
    """Splitter rows summed into count planes (one per splitter vertex and
    relation) by the search of the generated labelling of d(2,3) and
    s(2,3): a host-independent measure of refinement work."""
    work = []
    for g in glued_pair():
        search = canon._Search(g)
        search.run()
        work.append(search.splitter_rows)
    assert work == [1980, 2747]


def test_discrete_root_skips_pair_colours(monkeypatch):
    """Pair colours are built only when the plain root refinement leaves a
    cell open: with the t kernel made to raise, a seeded G(256, 1/2) and a
    relabelled copy still get one canonical form, while Petersen, whose
    root stays one cell, reaches the kernel."""
    rnd = random.Random(256)
    g = graph_from_bits(256, rnd.getrandbits(256 * 255 // 2))
    perm = list(range(g.n))
    rnd.shuffle(perm)

    def refuse(m):
        raise AssertionError("pair colours built")
    monkeypatch.setattr(canon, "common_edge_counts", refuse)
    form = canonical_form(g)
    assert form.aut_order == 1
    assert canonical_form(g.relabel(tuple(perm))) == form
    with pytest.raises(AssertionError, match="pair colours built"):
        canonical_form(petersen_graph())


def test_twin_pair_refines_on_many_colours():
    """A seeded G(128, 1/2) with vertex 1 made a twin of vertex 0: the
    plain root refinement leaves the twins in one cell, and refinement goes
    on with 812 pair colour relations.  The form ignores a relabelling, the
    twins make up the one orbit of two, and the graph6 digest and the node
    count are pinned."""
    rnd = random.Random(128)
    m = graph_from_bits(128, rnd.getrandbits(128 * 127 // 2)).matrix.copy()
    m[1] = m[0]
    m[:, 1] = m[:, 0]  # and m[0, 1] = m[0, 0] = False
    g = Graph(m)
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert len(canon._pair_relations(g.matrix)) == 812
    form = canonical_form(g)
    assert (form.aut_order, form.orbit_count) == (2, 127)
    assert canonical_form(g.relabel(tuple(perm))) == form
    assert hashlib.sha256(form.graph6.encode()).hexdigest() == \
        "59e8e3a3a9ba1b7d8fe36beab0201deabe6a537ac9fb7829312d565261426125"
    search = canon._Search(g)
    search.run()
    assert search.nodes == 3


def _cli_lines(capsys, argv):
    """stdout lines of one in-process CLI run that exits 0."""
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out.splitlines()


def test_count_classes_at_240_vertices(tmp_path, monkeypatch, capsys):
    """The (2,4) DDGs of seeds 0-3 and one relabelled copy of each fall
    into 4 classes of 2."""
    monkeypatch.chdir(tmp_path)
    lines = []
    for seed in range(4):
        _cli_lines(capsys, ["gen-ddg", "--q", "2", "--d", "4", "--seed",
                            str(seed), "--out", f"d{seed}"])
        g = graph6_decode((tmp_path / f"d{seed}.g6").read_text())
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        lines += [graph6_encode(g), graph6_encode(g.relabel(tuple(perm)))]
    (tmp_path / "all.g6").write_text("\n".join(lines) + "\n")
    classes = json.loads("\n".join(_cli_lines(
        capsys, ["count-classes", "--in", "all.g6"])))
    assert sorted((e["count"], e["first"]) for e in classes.values()) == \
        [(2, 0), (2, 2), (2, 4), (2, 6)]


def test_srg1_at_255_vertices_is_not_the_symplectic_complement(
        tmp_path, monkeypatch, capsys):
    """canon separates the glued (2,4) SRG from the complement of Sp(8, 2),
    whose group order is |Sp(8, 2)|."""
    monkeypatch.chdir(tmp_path)
    _cli_lines(capsys, ["gen-srg1", "--q", "2", "--d", "4", "--seed", "0",
                        "--out", "s"])
    (tmp_path / "c.g6").write_text("\n".join(_cli_lines(
        capsys, ["sp-graph", "--q", "2", "--d", "4", "--complement"])) + "\n")
    [srg] = _cli_lines(capsys, ["canon", "--in", "s.g6"])
    [control] = _cli_lines(capsys, ["canon", "--in", "c.g6"])
    assert srg.split()[0] != control.split()[0]
    assert int(control.split()[1]) == 47377612800


def test_node_budget(monkeypatch, tmp_path, capsys):
    t8 = triangular_graph(8)
    monkeypatch.setattr(canon, "MAX_NODES", 33)
    assert canonical_form(t8).aut_order == 40320
    monkeypatch.setattr(canon, "MAX_NODES", 32)
    with pytest.raises(TooLarge, match="32 search nodes"):
        canonical_form(t8)

    path = tmp_path / "t8.g6"
    path.write_text(graph6_encode(t8) + "\n")
    for sub in ("canon", "count-classes"):
        capsys.readouterr()
        assert main([sub, "--in", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("srgforge: ") and "Traceback" not in err


def test_over_limit_input_is_refused_before_decoding(monkeypatch, tmp_path,
                                                     capsys):
    """canon and count-classes read every line's size prefix before they
    decode one: Petersen followed by a 4095-vertex line exits 2 with an
    empty stdout, and graph6_decode is never called.  clique-census reads
    the prefix of its one line the same way."""
    n = 4095  # size prefix "~?~~"
    big = "~?~~" + "?" * ((n * (n - 1) // 2 + 5) // 6)
    path = tmp_path / "two.g6"
    path.write_text(graph6_encode(petersen_graph()) + "\n" + big + "\n")
    (tmp_path / "big.g6").write_text(big + "\n")
    calls = []

    def counting(text):
        calls.append(text)
        return graph6_decode(text)
    monkeypatch.setattr("srgforge.cli.graph6_decode", counting)
    for sub in ("canon", "count-classes"):
        capsys.readouterr()
        assert main([sub, "--in", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "4095 vertices, over the 256-vertex limit" in err
    assert main(["clique-census", "--in", str(tmp_path / "big.g6")]) == 2
    assert capsys.readouterr() == ("", "srgforge: refusing exhaustive "
                                   "census at n=4095, over the 120-vertex "
                                   "limit\n")
    assert calls == []


def test_count_classes():
    pet = petersen_graph()
    rot = pet.relabel(tuple((i + 1) % 10 for i in range(10)))
    c7 = cycle_graph(7)
    classes = count_classes([(pet, "a"), (rot, "b"), (c7, "c")])
    assert len(classes) == 2
    counts = sorted((e.count, e.first) for e in classes.values())
    assert counts == [(1, "c"), (2, "a")]

    bare = count_classes([pet, rot])
    entry = next(iter(bare.values()))
    assert entry.count == 2 and entry.first == 0
