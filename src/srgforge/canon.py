"""Canonical labeling by individualization and refinement.

A backtracking search over vertex individualizations.  An ordered
partition is a list of cells, each one int with bit v set for each vertex
v in it; a cell's vertices are taken in ascending order.  Each node refines
the partition to equitability, records an isomorphism-invariant level value
(cell sizes plus the adjacency bits among the leading singletons, packed in
graph6 body order), and branches on the first smallest non-singleton cell.
Refinement counts each vertex's neighbours in a splitter cell, listed once
per pop, in each of a list of relations, as bit planes (bit v of plane i is
bit i of the count), a ripple-carry sum of the splitter's rows (a
one-vertex splitter's planes are its rows), and splits a cell by the planes
that cut it from the most significant down, which puts its subcells in
ascending order of the tuple of counts; only non-singleton cells are
scanned, and the refinement stops once the partition is discrete.  The
splitter queue keeps Hopcroft's rule: a split cell waiting in the queue is
replaced there by all its subcells, and any other split cell queues all of
them but its first largest, whose counts are its parent's minus its
siblings'.  The search counts the splitter rows summed into count planes,
its refinement work, beside its nodes.

The relations are the adjacency alone when it refines the root partition
to singletons.  Otherwise refinement goes on from the partition it
reached on pair colours: every ordered pair u != w gets the colour
(m[u, w], t(u, w)), t(u, w) the number of edges among the common
neighbours of u and w (McKay & Piperno 2014 refine on such isomorphism-
invariant pair colourings), and the relations are the colour classes in
colour order without the largest one, which the others imply; their bitset
rows come from one stacked mask of all kept classes and one bit_rows call.
t is constant on the edges and on the non-edges of a rank 3 graph such as
the complement of Sp(2d, q), but takes several values on the glued graphs,
which the adjacency alone leaves in one cell: d(2,3) and s(2,3) take 5 and
8 search nodes, and the 240-255-vertex (2,4) outputs well under a second.

The canonical labeling is the leaf whose sequence of level values is
lexicographically smallest.  The colours are a function of the graph, and
at a discrete partition the level value contains the full adjacency bit
string, so the minimum pins down a unique relabeled graph.

Three prunings keep the tree small without losing soundness: a subtree is
cut when its value prefix already exceeds the best leaf (unless it ties the
first leaf, which must stay visitable for automorphism discovery); sibling
branches are cut when a discovered automorphism fixing the current prefix
maps them to an already-explored branch; and a leaf equivalent to the
first leaf sends the search back to the deepest node its path shares with
the first leaf's path (McKay 1981), since the automorphism maps that
node's fully explored first-path child onto the current child.  Leaves
tying the first or best leaf yield automorphisms; the group order follows
from the orbit sizes of the first-path choices under the discovered
generators.

canonical_form raises TooLarge on a graph of more than MAX_VERTICES
vertices, before any work, and on a search past MAX_NODES nodes.  The node
count depends only on the graph and its labelling, so the same input is
refused on every host.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TooLarge
from .graphs import (bit_rows, check_vertices, common_edge_counts, Graph,
                     graph6_encode, set_bits)

MAX_VERTICES = 256
MAX_NODES = 25_000


@dataclass(frozen=True)
class CanonicalForm:
    """Isomorphism-class certificate: same graph6 iff isomorphic graphs."""

    n: int
    graph6: str
    orbit_count: int
    aut_order: int


def _count_planes(rows, splitter):
    """Bit planes of the neighbour counts against the splitter, a list of
    vertices: bit v of plane i is bit i of the number of w in splitter with
    bit v of rows[w] set, summed row by row with a ripple carry."""
    planes = []
    for w in splitter:
        carry = rows[w]
        for i, plane in enumerate(planes):
            planes[i] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            planes.append(carry)
    return planes


def _split(cell, planes):
    """The subcells of cell in ascending count order: split by each plane
    from the most significant down, non-members before members."""
    subs = [cell]
    for plane in reversed(planes):
        cut = []
        for sub in subs:
            x = plane & sub
            if x and x != sub:
                cut += (sub ^ x, x)
            else:
                cut.append(sub)
        subs = cut
    return subs


def _refine(relations, cells, work):
    """Split cells by neighbour counts in each relation against every
    splitter popped from the stack work, listed once per pop for all
    relations, until the partition is equitable; returns the number of
    splitter rows summed into count planes (one per splitter vertex and
    relation), and updates cells in place.

    relations is a list of bitset row tuples.  Subcells come in ascending
    order of the tuple of counts, one per relation in list order: the
    planes of the first relation are the most significant.  Only the
    non-singleton cells are scanned, and the loop stops once none is left.
    A cell is split only by the planes that cut it, and a one-vertex
    splitter's planes are its rows.  A split cell is replaced in place by
    its subcells.  If it is waiting in work it is replaced there too, in
    place, by all of them; otherwise all but the first largest are pushed,
    in order, since the counts against that one are the parent's minus its
    siblings' (Hopcroft 1971; McKay & Piperno 2014).

    Precondition, which makes the result the coarsest equitable partition
    finer than cells: every cell not in work is one to which every cell
    already has uniform counts, or becomes one once every cell has uniform
    counts to the cells in work (as C minus v does, for such a cell C and
    {v} in work).
    """
    summed = 0
    open_cells = [cell for cell in cells if cell & (cell - 1)]
    while work and open_cells:
        splitter = work.pop()
        if splitter and not splitter & (splitter - 1):
            w = splitter.bit_length() - 1
            planes = [rows[w] for rows in reversed(relations)]
            summed += len(relations)
        else:
            members = list(set_bits(splitter))
            planes = [plane for rows in reversed(relations)
                      for plane in _count_planes(rows, members)]
            summed += len(members) * len(relations)
        still_open = []
        for cell in open_cells:
            cuts = [x for plane in planes if (x := plane & cell) and x != cell]
            if not cuts:
                still_open.append(cell)
                continue
            subs = [cell ^ cuts[0], cuts[0]] if len(cuts) == 1 \
                else _split(cell, cuts)
            if cell in work:
                at = work.index(cell)
                work[at:at + 1] = subs
            else:
                largest = max(subs, key=int.bit_count)
                work += [sub for sub in subs if sub != largest]
            at = cells.index(cell)
            cells[at:at + 1] = subs
            still_open += [sub for sub in subs if sub & (sub - 1)]
        open_cells = still_open
    return summed


# bools in one stacked colour-class mask of _pair_relations
_STACK_ENTRIES = 1 << 24


def _pair_relations(m):
    """Bitset rows of each class of the pair colour (m[u, w], t(u, w)),
    u != w, t(u, w) the edges among the common neighbours, in colour order
    and without the largest class (of equal ones, the first).  That class
    is implied: a cell inside a splitter S or disjoint from it has the same
    |S| - [v in S] for every v in it, which the counts of all classes sum
    to.  The rows of the kept classes come from one stacked mask of them
    all and one bit_rows call, or from a few, each of at most
    _STACK_ENTRIES entries."""
    n = len(m)
    t = common_edge_counts(m)
    colour = np.where(m, t + t.max(initial=0) + 1, t)
    np.fill_diagonal(colour, -1)
    values, sizes = np.unique(colour[colour >= 0], return_counts=True)
    keep = np.delete(values, sizes.argmax()) if len(values) else values
    step = max(1, _STACK_ENTRIES // max(1, n * n))
    relations = []
    for i in range(0, len(keep), step):
        rows = bit_rows(colour == keep[i:i + step, None, None])
        relations += [rows[j:j + n] for j in range(0, len(rows), n)]
    return relations


@lru_cache(maxsize=64)
def _lead_mask(size: int) -> np.ndarray:
    """Entries (j, i), i < j, in row-major order: the graph6 body order."""
    mask = np.tri(size, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _level_value(matrix, cells):
    """(cell sizes, adjacency bits among the leading singletons): equal for
    nodes related by an automorphism, totally ordered within one search.

    The bits are packed in graph6 body order into one bytes value.  Equal
    sizes mean an equal number of leading singletons, so two packed values
    compared within one search have the same length and order as the bit
    tuples they pack.
    """
    sizes = tuple(map(int.bit_count, cells))
    lead = []
    for cell in cells:
        if cell & (cell - 1):
            break
        lead.append(cell.bit_length() - 1)
    if len(lead) < 2:
        return (sizes, b"")
    bits = matrix[lead][:, lead][_lead_mask(len(lead))]
    return (sizes, np.packbits(bits).tobytes())


def _orbit(start: int, gens) -> set[int]:
    seen, stack = {start}, [start]
    while stack:
        x = stack.pop()
        new = {p[x] for p in gens} - seen
        seen |= new
        stack += new
    return seen


class _Search:
    def __init__(self, g: Graph):
        self.relations = [g.rows]
        self.matrix = g.matrix
        self.n = g.n
        self.nodes = 0
        self.splitter_rows = 0  # refinement work, summed by _refine
        self.gens: dict[tuple[int, ...], None] = {}  # in discovery order
        self.first = None  # (value sequence, labeling position -> vertex)
        self.best = None
        self.first_prefix: tuple[int, ...] = ()

    def run(self):
        if self.n == 0:
            self.first = self.best = ((), ())
            return
        full = (1 << self.n) - 1
        cells, work = [full], []
        self.splitter_rows += _refine(self.relations, cells, [full])
        if any(cell & (cell - 1) for cell in cells):
            # the adjacency alone leaves a cell open: refine on the pair
            # colours, with every cell as a splitter
            self.relations = _pair_relations(self.matrix)
            work = list(cells)
        self._node(cells, work, (), ())

    def _node(self, cells, work, prefix, values):
        """Search below one node; returns the depth to jump back to after
        a leaf equivalent to the first leaf, else None."""
        self.nodes += 1
        if self.nodes > MAX_NODES:
            raise TooLarge(f"canonical labeling of {self.n} vertices needs "
                           f"more than {MAX_NODES} search nodes")
        self.splitter_rows += _refine(self.relations, cells, work)
        value = _level_value(self.matrix, cells)
        values = values + (value,)
        depth = len(values)
        if self.best is not None:
            if values > self.best[0][:depth] and values != self.first[0][:depth]:
                return None

        sizes = value[0]
        size = min((s for s in sizes if s > 1), default=0)
        if not size:
            return self._leaf(cells, values, prefix)

        target = sizes.index(size)
        cell = cells[target]
        tried: list[int] = []
        for u in set_bits(cell):
            if tried:
                fixing = [p for p in self.gens
                          if all(p[x] == x for x in prefix)]
                if fixing and not _orbit(u, fixing).isdisjoint(tried):
                    continue
            tried.append(u)
            child = list(cells)
            child[target:target + 1] = [1 << u, cell ^ 1 << u]
            jump = self._node(child, [1 << u], prefix + (u,), values)
            if jump is not None and jump < len(prefix):
                return jump
        return None

    def _leaf(self, cells, values, prefix):
        """Record a discrete partition; returns the length of the prefix
        shared with the first leaf when it is equivalent to that leaf."""
        lab = tuple(cell.bit_length() - 1 for cell in cells)
        if self.first is None:
            self.first = self.best = (values, lab)
            self.first_prefix = prefix
            return None
        jump = None
        if values == self.first[0]:
            self._record_automorphism(self.first[1], lab)
            jump = 0
            while prefix[jump] == self.first_prefix[jump]:
                jump += 1
        elif values == self.best[0]:
            self._record_automorphism(self.best[1], lab)
        if values < self.best[0]:
            self.best = (values, lab)
        return jump

    def _record_automorphism(self, lab1, lab2):
        perm = [0] * self.n
        for pos in range(self.n):
            perm[lab1[pos]] = lab2[pos]
        if any(p != i for i, p in enumerate(perm)):
            self.gens[tuple(perm)] = None

    def aut_order(self) -> int:
        order = 1
        for depth, chosen in enumerate(self.first_prefix):
            prefix = self.first_prefix[:depth]
            fixing = [p for p in self.gens if all(p[x] == x for x in prefix)]
            order *= len(_orbit(chosen, fixing))
        return order

    def orbit_count(self) -> int:
        seen: set[int] = set()
        count = 0
        for v in range(self.n):
            if v not in seen:
                seen |= _orbit(v, self.gens)
                count += 1
        return count


def check_canon_vertices(n: int) -> None:
    """TooLarge for a graph of more than MAX_VERTICES vertices."""
    check_vertices(n, "the canon input", MAX_VERTICES)


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical graph6 string plus automorphism statistics.

    Isomorphic graphs map to the same string; any relabeling of g leaves
    the result unchanged.
    """
    check_canon_vertices(g.n)
    search = _Search(g)
    search.run()
    return CanonicalForm(
        n=g.n,
        # the best leaf's labelling lists g's vertices in canonical order
        graph6=graph6_encode(g.induced(search.best[1])),
        orbit_count=search.orbit_count(),
        aut_order=search.aut_order(),
    )


@dataclass(frozen=True)
class ClassCount:
    count: int
    first: object


def count_classes(graphs) -> dict[str, ClassCount]:
    """Group a stream of graphs by canonical form.

    Items may be Graph objects or (Graph, provenance) pairs; bare graphs
    get their stream index as provenance.  Keys are canonical graph6
    strings, values carry the class size and the provenance of the first
    member seen.
    """
    out: dict[str, ClassCount] = {}
    for i, item in enumerate(graphs):
        g, prov = item if isinstance(item, tuple) else (item, i)
        key = canonical_form(g).graph6
        entry = out.get(key)
        out[key] = ClassCount(1, prov) if entry is None else \
            ClassCount(entry.count + 1, entry.first)
    return out
