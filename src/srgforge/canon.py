"""Canonical labeling by individualization and refinement.

A backtracking search over vertex individualizations.  Each node refines
the ordered partition to equitability (splitting cells by neighbour counts
against splitter cells; only non-singleton cells are scanned, and the
refinement stops once the partition is discrete), records an
isomorphism-invariant level value (cell sizes plus the adjacency bits among
the leading singletons, packed in graph6 body order), and branches on the
first smallest non-singleton cell.  The canonical labeling is the leaf
whose sequence of level values is lexicographically smallest; at a discrete
partition the level value contains the full adjacency bit string, so the
minimum pins down a unique relabeled graph.

Two prunings keep the tree small without losing soundness: a subtree is cut
when its value prefix already exceeds the best leaf (unless it ties the
first leaf, which must stay visitable for automorphism discovery), and
sibling branches are cut when a discovered automorphism fixing the current
prefix maps them to an already-explored branch.  Leaves tying the first or
best leaf yield automorphisms; the group order follows from the orbit sizes
of the first-path choices under the discovered generators.

The search visits at most MAX_NODES nodes and raises TooLarge past it.  The
node count depends only on the graph and its labelling, so the same input
is refused on every host.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TooLarge
from .graphs import bitset, body_mask, Graph, graph6_encode

MAX_VERTICES = 256
MAX_NODES = 25_000


@dataclass(frozen=True)
class CanonicalForm:
    """Isomorphism-class certificate: same graph6 iff isomorphic graphs."""

    n: int
    graph6: str
    orbit_count: int
    aut_order: int


def _refine(rows, cells, work):
    """Split cells by neighbour counts against every splitter in work until
    the partition is equitable; new subcells join the splitter queue.

    Only the non-singleton cells are scanned, and the loop stops once none
    is left.  A split cell is replaced in place by its subcells in ascending
    count order, and their masks are pushed in forward cell order, so the
    splitter pops, and with them the result, are those of a scan of every
    cell until the queue runs dry.  A single-vertex splitter w splits a cell
    into its non-neighbours and neighbours of w, read off the cell's mask.
    cells is updated in place and returned.
    """
    open_cells = [i for i, cell in enumerate(cells) if len(cell) > 1]
    open_masks = [bitset(cells[i]) for i in open_cells]
    while work and open_cells:
        smask = work.pop()
        single = rows[smask.bit_length() - 1] \
            if smask.bit_count() == 1 else None
        split_at = {}
        for i, cmask in zip(open_cells, open_masks):
            cell = cells[i]
            if single is not None:
                x = single & cmask
                if not x or x == cmask:
                    continue
                subs = ([v for v in cell if not x >> v & 1],
                        [v for v in cell if x >> v & 1])
                sub_masks = (cmask ^ x, x)
            else:
                counts = [(rows[v] & smask).bit_count() for v in cell]
                if counts.count(counts[0]) == len(counts):
                    continue
                groups: dict[int, list[int]] = {}
                for v, count in zip(cell, counts):
                    groups.setdefault(count, []).append(v)
                subs = [groups[count] for count in sorted(groups)]
                sub_masks = [bitset(sub) for sub in subs]
            work += sub_masks
            split_at[i] = subs, sub_masks
        if not split_at:
            continue
        still_open, still_masks = [], []
        shift = 0
        for i, cmask in zip(open_cells, open_masks):
            at = i + shift
            if i not in split_at:
                still_open.append(at)
                still_masks.append(cmask)
                continue
            subs, sub_masks = split_at[i]
            cells[at:at + 1] = subs
            for j, sub in enumerate(subs):
                if len(sub) > 1:
                    still_open.append(at + j)
                    still_masks.append(sub_masks[j])
            shift += len(subs) - 1
        open_cells, open_masks = still_open, still_masks
    return cells


@lru_cache(maxsize=64)
def _lead_mask(size: int) -> np.ndarray:
    mask = body_mask(size)
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
    sizes = tuple(map(len, cells))
    lead = []
    for cell in cells:
        if len(cell) != 1:
            break
        lead.append(cell[0])
    if len(lead) < 2:
        return (sizes, b"")
    bits = matrix[lead][:, lead][_lead_mask(len(lead))]
    return (sizes, np.packbits(bits).tobytes())


def _orbit(start: int, gens) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for p in gens:
            y = p[x]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


class _Search:
    def __init__(self, g: Graph):
        self.rows = g.rows
        self.matrix = g.matrix
        self.n = g.n
        self.nodes = 0
        self.gens: list[tuple[int, ...]] = []
        self.gen_set: set[tuple[int, ...]] = set()
        self.first = None  # (value sequence, labeling position -> vertex)
        self.best = None
        self.first_path: list[tuple[tuple[int, ...], int]] = []

    def run(self):
        if self.n == 0:
            self.first = self.best = ((), ())
            return
        self._node([list(range(self.n))], [(1 << self.n) - 1], (), ())

    def _node(self, cells, work, prefix, values):
        self.nodes += 1
        if self.nodes > MAX_NODES:
            raise TooLarge(f"canonical labeling of {self.n} vertices needs "
                           f"more than {MAX_NODES} search nodes")
        cells = _refine(self.rows, cells, work)
        values = values + (_level_value(self.matrix, cells),)
        depth = len(values)
        if self.best is not None:
            if values > self.best[0][:depth] and values != self.first[0][:depth]:
                return

        target, size = -1, None
        for idx, cell in enumerate(cells):
            if len(cell) > 1 and (size is None or len(cell) < size):
                target, size = idx, len(cell)
        if target < 0:
            self._leaf(cells, values)
            return

        tried: list[int] = []
        for u in cells[target]:
            if tried:
                fixing = [p for p in self.gens
                          if all(p[x] == x for x in prefix)]
                if fixing and not _orbit(u, fixing).isdisjoint(tried):
                    continue
            if self.first is None:
                self.first_path.append((prefix, u))
            tried.append(u)
            child = list(cells)
            rest = [w for w in child[target] if w != u]
            child[target:target + 1] = [[u], rest]
            self._node(child, [1 << u], prefix + (u,), values)

    def _leaf(self, cells, values):
        lab = tuple(cell[0] for cell in cells)
        if self.first is None:
            self.first = (values, lab)
            self.best = (values, lab)
            return
        refs = [self.first]
        if self.best[1] != self.first[1]:
            refs.append(self.best)
        for ref_values, ref_lab in refs:
            if values == ref_values and lab != ref_lab:
                self._record_automorphism(ref_lab, lab)
        if values < self.best[0]:
            self.best = (values, lab)

    def _record_automorphism(self, lab1, lab2):
        perm = [0] * self.n
        for pos in range(self.n):
            perm[lab1[pos]] = lab2[pos]
        key = tuple(perm)
        if key not in self.gen_set and any(p != i for i, p in enumerate(key)):
            self.gen_set.add(key)
            self.gens.append(key)

    def aut_order(self) -> int:
        order = 1
        for prefix, chosen in self.first_path:
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


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical graph6 string plus automorphism statistics.

    Isomorphic graphs map to the same string; any relabeling of g leaves
    the result unchanged.
    """
    if g.n > MAX_VERTICES:
        raise TooLarge(f"{g.n} vertices exceeds the {MAX_VERTICES} limit")
    search = _Search(g)
    search.run()
    lab = search.best[1]
    perm = [0] * g.n
    for pos, vertex in enumerate(lab):
        perm[vertex] = pos
    return CanonicalForm(
        n=g.n,
        graph6=graph6_encode(g.relabel(perm)),
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
