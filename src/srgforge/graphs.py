"""Simple undirected graphs as bitset adjacency rows, plus graph6 I/O.

Adjacency rows are Python ints used as bitsets: bit v of rows[u] is set iff
uv is an edge, and `set_bits` lists the set bits of a row.  Common-neighbour
counting, the hot loop of every verifier here, is then a single AND plus
popcount per pair; `first_bad_pair` is that loop, shared by all of them.
`cliques` is the one clique search, behind both the Hoffman colorings (run
on complement rows) and the ratio-bound clique census.  Graphs are
immutable after construction and every constructor checks symmetry and
loop-freeness.

`bit_matrix` and `matrix_rows` convert between rows and a boolean n x n
matrix.  `Graph` checks symmetry on that matrix, and graph6 reads its body
order (the lower triangle row by row, i.e. the upper triangle column by
column) from one `np.tri` mask on it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import ParseError, TooLarge

# vertex limit of every graph this package builds or searches from a size
# parameter; it keeps (q, d) = (2, 6), (3, 4), (5, 3) and Sp(12, 2)
MAX_BUILD_VERTICES = 4096


def check_vertices(n: int, what: str) -> None:
    """Raise TooLarge, before any enumeration, when `what` would have more
    than MAX_BUILD_VERTICES vertices."""
    if n > MAX_BUILD_VERTICES:
        raise TooLarge(f"{what} would have {n} vertices, over the "
                       f"{MAX_BUILD_VERTICES}-vertex limit")


@dataclass(frozen=True)
class Graph:
    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.rows) != self.n:
            raise ValueError("row count does not match vertex count")
        full = (1 << self.n) - 1
        for u, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {u} has bits outside [0, n)")
            if row >> u & 1:
                raise ValueError(f"loop at vertex {u}")
        m = bit_matrix(self.n, self.rows)
        asym = m != m.T
        if asym.any():
            # asym is symmetric, so its first entry in row-major order is
            # the first asymmetric pair (u, v), u < v, in lexicographic order
            u, v = divmod(int(asym.argmax()), self.n)
            raise ValueError(f"asymmetric adjacency at ({u}, {v})")

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def neighbours(self, u: int):
        return set_bits(self.rows[u])

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self):
        for u in range(self.n):
            for v in set_bits(self.rows[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def induced(self, vertices) -> "Graph":
        """Induced subgraph; new labels follow the order of `vertices`."""
        vs = list(vertices)
        pos = {v: i for i, v in enumerate(vs)}
        rows = [0] * len(vs)
        for i, u in enumerate(vs):
            for v in set_bits(self.rows[u]):
                j = pos.get(v)
                if j is not None:
                    rows[i] |= 1 << j
        return Graph(len(vs), tuple(rows))

    def relabel(self, perm) -> "Graph":
        """Image under perm: old vertex u becomes perm[u]."""
        rows = [0] * self.n
        for u in range(self.n):
            for v in set_bits(self.rows[u]):
                rows[perm[u]] |= 1 << perm[v]
        return Graph(self.n, tuple(rows))

    def digest(self) -> str:
        return hashlib.sha256(graph6_encode(self).encode()).hexdigest()[:16]


def set_bits(x: int):
    """Indices of the set bits of x, in ascending order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def bit_matrix(n: int, rows) -> np.ndarray:
    """Boolean n x n matrix whose entry (u, v) is bit v of rows[u]; each row
    must lie in [0, 2^n)."""
    width = (n + 7) // 8
    packed = b"".join(r.to_bytes(width, "little") for r in rows)
    bits = np.frombuffer(packed, dtype=np.uint8).reshape(n, width)
    return np.unpackbits(bits, 1, n, "little").view(bool)


def matrix_rows(m: np.ndarray) -> tuple[int, ...]:
    """Inverse of bit_matrix: row u of the boolean matrix as a bitset int."""
    packed = np.packbits(m, axis=1, bitorder="little")
    return tuple(int.from_bytes(r.tobytes(), "little") for r in packed)


def first_bad_pair(rows, keys, values, start: int = 0):
    """First vertex pair whose common-neighbour count breaks its stratum.

    Scans the pairs (u, w), u < w and w >= start, in lexicographic order and
    counts (rows[u] & rows[w]).bit_count().  A pair is in stratum 0 when
    keys[u][w] is true, else in stratum 1; a key row is best a list or
    bytes, whose indexing costs least.  values[s] fixes the count of stratum
    s, or is None to take it from that stratum's first pair.

    Returns ((u, w, count) or None, (value0, value1)); a stratum first met
    after the returned pair keeps its given value.
    """
    a, b = values
    n = len(rows)
    for u in range(n):
        row_u = rows[u]
        key = keys[u]
        for w in range(max(u + 1, start), n):
            c = (row_u & rows[w]).bit_count()
            if key[w]:
                if a is None:
                    a = c
                elif c != a:
                    return (u, w, c), (a, b)
            elif b is None:
                b = c
            elif c != b:
                return (u, w, c), (a, b)
    return None, (a, b)


def regularity(g: Graph):
    """(degree of vertex 0, or 0 when g is empty; a "regular" witness for
    the first vertex of another degree, or None)."""
    k = g.degree(0) if g.n else 0
    for u in range(g.n):
        if g.degree(u) != k:
            return k, {"check": "regular", "vertices": [0, u],
                       "degrees": [k, g.degree(u)]}
    return k, None


def cliques(rows, size: int, allowed: int, block=()):
    """Cliques of `size` vertices that extend `block` by pairwise-adjacent
    vertices of the bitset `allowed`, in ascending lexicographic order.

    The caller picks `allowed` adjacent to all of `block`; cocliques are the
    cliques of the complement rows.  A branch stops once `block` plus the
    allowed vertices left cannot reach `size`.
    """
    if len(block) >= size:
        if len(block) == size:
            yield tuple(block)
        return
    rem = allowed
    while len(block) + rem.bit_count() >= size:
        low = rem & -rem
        w = low.bit_length() - 1
        rem ^= low
        # bits of rem are exactly the allowed vertices above w, so this
        # keeps the enumeration ascending and duplicate-free
        yield from cliques(rows, size, rem & rows[w], (*block, w))


def from_edges(n: int, edges) -> Graph:
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


@dataclass(frozen=True)
class VertexPartition:
    """Disjoint vertex classes covering [0, n)."""

    n: int
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = 0
        for cls in self.classes:
            for v in cls:
                if not 0 <= v < self.n:
                    raise ValueError(f"vertex {v} out of range")
                if seen >> v & 1:
                    raise ValueError(f"vertex {v} appears in two classes")
                seen |= 1 << v
        if seen != (1 << self.n) - 1:
            raise ValueError("classes do not cover the vertex set")

    @staticmethod
    def from_lists(n: int, classes) -> "VertexPartition":
        return VertexPartition(n, tuple(tuple(sorted(c)) for c in classes))

    def same_class(self) -> list[list[bool]]:
        """Row u tells, for each vertex w, whether w is in u's class; the
        vertices of one class share one row."""
        cls_of = self.class_of()
        rows = [[c == i for c in cls_of] for i in range(len(self.classes))]
        return [rows[c] for c in cls_of]

    def class_of(self) -> list[int]:
        out = [-1] * self.n
        for i, cls in enumerate(self.classes):
            for v in cls:
                out[v] = i
        return out


@dataclass(frozen=True)
class Certificate:
    """Machine-readable verification record.

    passed is true exactly when the witness list is empty; witnesses hold
    the first counterexample found per failed check.
    """

    kind: str
    passed: bool
    parameters: dict = field(default_factory=dict)
    witnesses: tuple = ()
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.passed != (len(self.witnesses) == 0):
            raise ValueError("passed flag inconsistent with witnesses")

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "passed": self.passed,
                "parameters": self.parameters,
                "witnesses": list(self.witnesses),
                "provenance": self.provenance,
            },
            sort_keys=True,
        )


def certificate(kind, parameters=None, witnesses=(), provenance=None) -> Certificate:
    return Certificate(
        kind=kind,
        passed=not witnesses,
        parameters=dict(parameters or {}),
        witnesses=tuple(witnesses),
        provenance=dict(provenance or {}),
    )


# ---------------------------------------------------------------------------
# elementary operations


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full & ~row) & ~(1 << u) for u, row in enumerate(g.rows)))


def line_graph(g: Graph) -> Graph:
    """Vertices are the edges of g in lexicographic endpoint order; adjacency
    is sharing an endpoint."""
    es = sorted(g.edges())
    return from_edges(len(es), (
        (i, j) for (i, (a, b)), (j, e) in combinations(enumerate(es), 2)
        if a in e or b in e))


def common_neighbours(g: Graph, u: int, v: int) -> int:
    if u == v:
        raise ValueError("common_neighbours needs two distinct vertices")
    return (g.rows[u] & g.rows[v]).bit_count()


# ---------------------------------------------------------------------------
# named small graphs used throughout the test corpus and constructions


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    return complement(empty_graph(n))


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_multipartite(*part_sizes: int) -> Graph:
    part = [i for i, s in enumerate(part_sizes) for _ in range(s)]
    return from_edges(len(part), (
        (u, v) for u, v in combinations(range(len(part)), 2)
        if part[u] != part[v]))


def octahedron() -> Graph:
    return complete_multipartite(2, 2, 2)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return from_edges(10, outer + inner + spokes)


# ---------------------------------------------------------------------------
# graph6: printable encoding by upper-triangle bits in column-major order


def _g6_size_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    raise ValueError("graph6 supports at most 258047 vertices here")


def _body_mask(n: int) -> np.ndarray:
    """Entries (j, i), i < j, in row-major order: x(i, j) for j = 1..n-1 and
    i < j, the graph6 body order."""
    return np.tri(n, k=-1, dtype=bool)


def graph6_encode(g: Graph) -> str:
    head = _g6_size_bytes(g.n)
    bits = bit_matrix(g.n, g.rows)[_body_mask(g.n)]
    bits = np.pad(bits, (0, -len(bits) % 6))
    body = (np.packbits(bits.reshape(-1, 6), axis=1)[:, 0] >> 2) + 63
    return (head + body.tobytes()).decode("ascii")


def graph6_decode(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise ParseError("empty graph6 string")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError:
        raise ParseError(f"graph6 byte out of range in {s!r}") from None
    codes = np.frombuffer(data, dtype=np.uint8)
    if ((codes < 63) | (codes > 126)).any():
        raise ParseError(f"graph6 byte out of range in {s!r}")

    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise ParseError("graph6 very long form (>258047 vertices) unsupported")
        if len(data) < 4:
            raise ParseError("truncated graph6 long-form size")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = codes[4:]
    else:
        n = data[0] - 63
        body = codes[1:]

    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ParseError(f"graph6 body length {len(body)} wrong for n={n}")

    # six data bits per byte, most significant first
    bits = np.unpackbits(body - 63).reshape(-1, 8)[:, 2:].ravel()
    if bits[nbits:].any():
        raise ParseError("graph6 padding bits are not zero")

    m = np.zeros((n, n), dtype=bool)
    m[_body_mask(n)] = bits[:nbits]
    return Graph(n, matrix_rows(m | m.T))
