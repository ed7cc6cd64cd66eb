"""Simple undirected graphs as a checked adjacency matrix, and graph6 I/O.

A graph is its validated, read-only boolean n x n matrix: `Graph(m)`
checks the shape, loops and symmetry once, and all else reads the matrix;
symmetry is compared one band of 256 x 256 blocks at a time, which stays
in cache.  Builders write block matrices for `Graph`; relabelling, induced
subgraphs and complements are matrix expressions.  graph6 moves its body
as whole streams, with no n x n mask: the encoder joins the rows of the
lower triangle into one byte-per-bit stream for one `np.packbits` and
regroups every three bytes into four six-bit ones; the decoder regroups
back for one `np.unpackbits`, gathers every row at once as a window of
the bit stream and mirrors the lower triangle in 256 x 256 blocks, so its
matrix is symmetric and loop-free by construction and skips Graph's scan.
Common-neighbour counting, the hot loop of every verifier, is a matrix
product too: `first_bad_pair` plans each call once and counts in exact
float32 tiles cast from the matrix, k rows packed per word, and checks
two strata, adjacency or a `SameClass` of class indices, in the packed
words themselves; the design verifiers run it on incidence matrices.
`common_edge_counts` gives, for every pair, the edges among its common
neighbours, as one Gram matrix of edge rows; canon colours pairs by it.
Both kernels, and exact_spectrum's products, multiply in `_blas_scope`:
on the calling thread alone for graphs below _SERIAL_BELOW vertices.
Bitset rows (Python ints, bit v of rows[u] set iff uv is an edge;
`set_bits` lists them, `bitset` builds one) are built only where bit
operations pay: canonical refinement and `cliques`, the one clique search,
behind the Hoffman colorings and the ratio-bound clique census.
"""

from __future__ import annotations

import ctypes
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import chain, combinations

import numpy as np

from .errors import ParseError, TooLarge

# vertex limit of every graph this package builds or searches from a size
# parameter; it keeps (q, d) = (2, 6), (3, 4), (5, 3) and Sp(12, 2)
MAX_BUILD_VERTICES = 4096

# edge rows per float32 block of common_edge_counts: the larger of
# _GRAM_ROWS and _GRAM_ENTRIES entries' worth
_GRAM_ROWS = 64
_GRAM_ENTRIES = 1 << 16
# rows and columns of the square blocks in which Graph checks symmetry and
# graph6_decode clears its diagonal blocks on and above the diagonal and
# mirrors its lower triangle
_SQUARE = 256


def check_vertices(n: int, what: str, limit: int = MAX_BUILD_VERTICES) -> None:
    """Raise TooLarge, before any enumeration, when `what` would have more
    than limit vertices."""
    if n > limit:
        raise TooLarge(f"{what} would have {n} vertices, over the "
                       f"{limit}-vertex limit")


def check_power(q: int, d: int, what: str) -> None:
    """Raise TooLarge when `what`, of at least q^d vertices for q >= 2, is
    over MAX_BUILD_VERTICES because 2^d alone is: before q^d is computed,
    which takes unbounded time at a huge d."""
    if d >= MAX_BUILD_VERTICES.bit_length():
        raise TooLarge(f"{what} would have at least {q}^{d} vertices, over "
                       f"the {MAX_BUILD_VERTICES}-vertex limit")


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph of a square boolean adjacency matrix.

    A boolean array that owns its data is taken over, not copied: it is
    made read-only, and views of it made earlier must not be written to.  A
    view or anything else is copied first.  The matrix is all a graph
    stores: equality and hashing read it, `rows` is built on first access.
    """

    matrix: np.ndarray = field(repr=False)
    n: int = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=bool)
        if m.base is not None:
            # freezing a view would leave its base writable
            m = m.copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"adjacency matrix of shape {m.shape} is not "
                             "square")
        loops = m.diagonal()
        if loops.any():
            raise ValueError(f"loop at vertex {int(loops.argmax())}")
        # rows a to a + _SQUARE - 1 against their columns, from column a on:
        # one band of square blocks at a time, which stays in cache where a
        # whole m != m.T reads m.T strided across the matrix
        for a in range(0, len(m), _SQUARE):
            bad = m[a:a + _SQUARE, a:] != m[a:, a:a + _SQUARE].T
            if bad.any():
                # earlier bands hold every pair (u, v) with u < a, and the
                # square block is symmetric: the first mismatch in row-major
                # order is the lexicographically first asymmetric (u, v), u < v
                u, v = divmod(int(bad.argmax()), bad.shape[1])
                raise ValueError(f"asymmetric adjacency at ({a + u}, {a + v})")
        self._freeze(m)

    def _freeze(self, m):
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "n", len(m))

    @classmethod
    def _symmetric(cls, m) -> "Graph":
        """The graph of m, a boolean matrix that owns its data and is
        symmetric with an empty diagonal by construction, taken over
        without the shape, loop and symmetry scan of a checked Graph:
        graph6_decode's matrix."""
        g = object.__new__(cls)
        g._freeze(m)
        return g

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph)
                and np.array_equal(self.matrix, other.matrix))

    def __hash__(self) -> int:
        return hash((self.n, np.packbits(self.matrix).tobytes()))

    @cached_property
    def rows(self) -> tuple[int, ...]:
        return bit_rows(self.matrix)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.matrix[u, v])

    def degree(self, u: int) -> int:
        return int(np.count_nonzero(self.matrix[u]))

    def neighbours(self, u: int):
        return np.flatnonzero(self.matrix[u]).tolist()

    def edge_count(self) -> int:
        return int(np.count_nonzero(self.matrix)) // 2

    def edges(self):
        return map(tuple, np.argwhere(np.triu(self.matrix)).tolist())

    def induced(self, vertices) -> "Graph":
        """Induced subgraph; new labels follow the order of `vertices`."""
        vs = np.fromiter(vertices, np.intp)
        return Graph(self.matrix[np.ix_(vs, vs)])

    def relabel(self, perm) -> "Graph":
        """Image under perm: old vertex u becomes perm[u]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"not a permutation of [0, {self.n})")
        inv = np.empty(self.n, dtype=np.intp)
        inv[list(perm)] = np.arange(self.n)
        return Graph(self.matrix[np.ix_(inv, inv)])


def bit_rows(m) -> tuple[int, ...]:
    """The rows of a boolean matrix as bitsets: bit v of rows[u] is m[u, v].
    A stack of matrices gives the rows of each in turn.  Rows of at most 64
    columns are packed into one zero-padded machine word each, whose
    little-endian uint64 view numpy turns into ints in one tolist; wider
    rows are sliced from one packed bytes object, one int.from_bytes
    each."""
    packed = np.packbits(m, axis=-1, bitorder="little")
    width = packed.shape[-1]
    count = int(np.prod(packed.shape[:-1]))
    if width <= 8:
        words = np.zeros((count, 8), np.uint8)
        words[:, :width] = packed.reshape(count, width)
        return tuple(words.view("<u8").ravel().tolist())
    data = packed.tobytes()
    return tuple([int.from_bytes(data[i * width:(i + 1) * width], "little")
                  for i in range(count)])


def set_bits(x: int):
    """Indices of the set bits of x, in ascending order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def bitset(vertices) -> int:
    """Inverse of set_bits: the int with bit v set for each v in vertices."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


# kernels on graphs below this many vertices multiply on the calling
# thread.  `_blas_scope`, the one setter of the BLAS thread count, reads
# it; no plan does: the pair kernel plans its scans alike at every size.
# On 2 cores one thread cost a gen-srg1's pair passes and `spectrum`'s
# products about 4 % at 392-400 vertices and 20 % at 576-585 when no
# product waited for OpenBLAS's worker thread; where products woke it
# after idle time (3 ms sleeps between calls), one thread took a
# 364-vertex pair pass from 32.9 ms to 1.6 ms
_SERIAL_BELOW = 512


@cache
def _openblas_threads():
    """(setter, getter) of the thread count of the OpenBLAS numpy calls,
    or None when numpy's extension module cannot be opened or reaches no
    OpenBLAS with both.

    numpy has no API for it, but dlsym on a library's handle searches the
    library and then its dependencies, breadth first: a handle on numpy's
    own extension module, already loaded (so CDLL runs no initialiser),
    finds exactly the OpenBLAS its products call.  The symbols are looked
    up with the prefixes and suffixes of numpy's builds, as
    scipy_openblas_set_num_threads64_ for a 64-bit-integer OpenBLAS, on
    the first call, not on import.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            try:
                setter, getter = (
                    getattr(lib, f"{prefix}openblas_{verb}_num_threads"
                                 f"{suffix}") for verb in ("set", "get"))
            except AttributeError:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


@contextmanager
def _blas_scope(n: int):
    """The scope of the BLAS products of a kernel on an n-vertex graph:
    below _SERIAL_BELOW vertices OpenBLAS multiplies on the calling thread
    alone in the body, and on as many threads as before after it, also
    when the body raises; else, or without an OpenBLAS (_openblas_threads),
    nothing changes.  The count is the process's, so scopes open in two
    threads at once can leave it at either's; the products are exact in
    any order of summation, so the thread count changes no result."""
    lib = _openblas_threads() if n < _SERIAL_BELOW else None
    if lib is None:
        yield
        return
    setter, getter = lib
    before = getter()
    setter(1)
    try:
        yield
    finally:
        setter(before)


# rows in the largest row block of first_bad_pair; a column tile holds the
# rows of two such blocks
_PAIR_ROWS = 128


def _packed(rows, k: int, s: int):
    """The float32 operand of a row block in first_bad_pair, the shift of
    each of its slabs (an int32 array of shape (slabs, 1, 1)) and the
    weight of each packed row, the sum of 2^(j s) over the slabs j that
    hold a row there.

    The rows, uint8, are cut into slabs of h = ceil(len(rows) / k) rows,
    the last one possibly short, and slab j is weighted by 2^(j s): the
    h x c sum is built in place from the top slab down, multiplied by 2^s
    before each slab is added, and returned transposed, C-contiguous.
    """
    h = -(-len(rows) // k)
    packed = np.zeros((h, rows.shape[1]), np.float32)
    weights = np.zeros(h, np.int32)
    starts = range(0, len(rows), h)
    for i in reversed(starts):
        packed *= np.float32(1 << s)
        weights <<= s
        slab = rows[i:i + h]
        packed[:len(slab)] += slab
        weights[:len(slab)] += 1
    shifts = np.arange(0, len(starts) * s, s, np.int32)
    return np.ascontiguousarray(packed.T), shifts[:, None, None], weights


def _digits(words, shifts, weights, low: int, s: int):
    """Digit j of packed row r against later row w, at row j h + r and
    column w of an int32 array: the tile's product words less low times
    the weights, cut by shift and mask, plus low."""
    ints = words.astype(np.int32).T
    if low:
        ints -= low * weights[:, None]
    return (((ints >> shifts) & ((1 << s) - 1)) + low).reshape(
        -1, len(words))


def degrees(m) -> np.ndarray:
    """The row sums of a boolean matrix, int32: the degrees of an
    adjacency matrix.  Summing its uint8 view takes about half the time of
    np.count_nonzero(m, axis=1)."""
    return m.view(np.uint8).sum(axis=1, dtype=np.int32)


def _row_blocks(n: int):
    """The row blocks (a, b) of first_bad_pair: 8 rows, where a bad pair
    near the start stops the scan early, then _PAIR_ROWS = 128, as a
    passing tile costs its cast and product, which smaller blocks repeat
    for fewer rows; one block when n <= _PAIR_ROWS, where smaller ones
    would cost more numpy calls than they save."""
    a, size = 0, n if n <= _PAIR_ROWS else min(8, _PAIR_ROWS)
    while a < n - 1:
        b = min(a + size, n)
        yield a, b
        a, size = b, _PAIR_ROWS


def first_bad_pair(m, strata, values):
    """First vertex pair whose common-neighbour count breaks its stratum.

    m is a boolean n x c matrix, and the count of a pair (u, w) is the
    number of columns set in both row u and row w: the common neighbours
    for g.matrix, those among the last c vertices for g.matrix[:, n - c:],
    the blocks through two points for a design's incidence matrix.  The
    stratum S(u, w), 0 or 1, is read only through 2-D slices of strata: m
    itself (adjacency strata; m symmetric) or a `SameClass`.  values =
    (v0, v1) fixes each stratum's count, in [0, c], or is None to take it
    from its first pair; a stratum no pair meets takes the other's value.

    Each call plans once: the first pair of each stratum valued None is
    found in row 0, or else in the row blocks of `_row_blocks`, and sets
    its value (a `SameClass` stratum with no pair is not looked for), and
    then the fold, the packing and the expected words are fixed.  The
    scan takes the pairs (u, w), u < w, in lexicographic order, block by
    block against tiles of 2 * _PAIR_ROWS = 256 later rows, with one
    float32 product per tile, the tile cast from m into one reused buffer,
    in _blas_scope(max(n, c)).

    The product counts k rows of the block per float32 word.  The block's
    operand (`_packed`) cuts its rows into k slabs of h rows and sums them,
    slab j scaled by 2^(j s), so entry (w, r) of the tile's product is the
    sum over j of 2^(j s) d_j, d_j the digit of w with block row u_j, row r
    of slab j, and k = floor(24 / s).  float32 computes the entry exactly,
    as every partial sum, in whatever order the product adds, is such a sum
    with every digit in a window of 2^s integers, so below 2^(k s) <= 2^24
    in absolute value; less the window's low end, digit j is bits j s to
    (j + 1) s - 1 of the entry's int32 cast (`_digits`).

    Both strata are checked in one fold: a pair passes when its count less
    delta S is v0, delta = v1 - v0.  For adjacency strata the operand holds
    -delta 2^(j s) in the column of u_j, so the digit is cnt - delta S, in a
    window from -max(delta, 0) up to c + max(-delta, 0), and s is the bit
    length of c + |delta|, at most 24 as the kernel refuses c >= 2^23; for a
    `SameClass` the digit stays the count, s is the bit length of max(c, 1),
    and the expected word of packed row r gains delta 2^(j s) for each u_j
    in the class of w, one row of words per class.  The words then determine
    the digits, so a tile passes exactly when each word equals its expected
    one, once the first tile's word of each block row u against itself is
    moved by deg(u) - v0 - delta S(u, u).  Only a tile holding a differing
    word is unpacked, from the same product, into counts for the check
    against the stratum values.

    Returns ((u, w, count) or None, the values); a stratum first met after
    the returned pair, or never, keeps its given value.
    """
    n, c = m.shape
    if c >= 1 << 23:
        raise ValueError(f"{c} columns: the fold's words are exact below 2^23")
    values = list(values)
    if any(v is not None and not 0 <= v <= c for v in values):
        raise ValueError(f"stratum values {values} outside [0, {c}]")
    # uint8 casts to float32 about twice as fast as bool
    m8 = m.view(np.uint8)
    # the first pair w > u of each stratum given no value, from the blocks
    # a to b - 1 of rows against the columns from a + 1 on (np.triu): row 0
    # alone first, where every verifier meets both of its strata, then the
    # row blocks for a stratum it does not meet
    first, never, classes = {}, [], None
    adjacent = strata is m
    if not adjacent:
        # cross-class pairs (0) need two classes, same-class (1) a class of 2
        classes = strata.cls
        sizes = np.bincount(classes)
        never = [t for t, most in enumerate(
            (np.count_nonzero(sizes), sizes.max(initial=0))) if most < 2]
    for a, b in chain([(0, 1)] if n > 1 else [], _row_blocks(n)):
        for t in [t for t, v in enumerate(values)
                  if v is None and t not in never]:
            hit = strata[a:b, a + 1:] == t
            if b - a > 1:
                hit = np.triu(hit)
            if hit.any():
                u, w = divmod(int(hit.argmax()), n - a - 1)
                first[t] = (a + u, a + 1 + w)
                values[t] = int(np.count_nonzero(m[a + u] & m[a + 1 + w]))
        if all(v is not None or t in never for t, v in enumerate(values)):
            break
    # a stratum no pair meets takes the other's value (delta = 0); with no
    # pair at all, nothing is compared
    v0, v1 = (v if v is not None else 0 if w is None else w
              for v, w in (values, values[::-1]))
    delta = v1 - v0
    expected = np.array([v0, v1], np.int32)
    # delta S comes off in the product for adjacency strata
    inner = delta if adjacent else 0
    low = min(0, -inner)
    s = (max(c, 1) + abs(inner)).bit_length()
    k = 24 // s
    tile = 2 * _PAIR_ROWS
    # one float32 buffer serves every column tile: a fresh array per tile
    # would pay its page faults each time
    buf = np.empty((min(tile, n), c), np.float32)
    with _blas_scope(max(n, c)):
        for a, b in _row_blocks(n):
            # rows a to a + rows - 1 can still hold a pair before the best
            # so far; the block is packed again when they shrink
            rows, best, block = b - a, None, None
            for w0 in range(a + 1, n, tile):
                if block is None:
                    block, shifts, weights = _packed(m8[a:a + rows], k, s)
                    # 2^(j s) for block row a + i, i = j h + r
                    h, i = len(weights), np.arange(rows)
                    scale = np.exp2(i // h * s)
                    # the expected word of packed row r, against any later
                    # row or against one of class t
                    want = (v0 * weights).astype(np.float32)
                    if adjacent:
                        block[a + i, i % h] -= delta * scale
                    else:
                        want = np.repeat(want[None], classes.max() + 1,
                                         axis=0)
                        np.add.at(want, (classes[a:a + rows], i % h),
                                  delta * scale)
                later = buf[:min(tile, n - w0)]
                np.copyto(later, m8[w0:w0 + len(later)])
                # with OpenBLAS, later @ block (128 x c by c x 32 at
                # c = 1365) runs about twice as fast as block.T @ later.T
                words = later @ block
                if w0 == a + 1:
                    # block row u = a + i, i >= 1, meets itself here with
                    # digit deg(u) - inner S(u, u), moved onto the
                    # expected v0 + (delta - inner) S(u, u)
                    u = slice(a + 1, a + rows)
                    words[i[1:] - 1, i[1:] % h] -= scale[1:] * (
                        degrees(m8[u]) - v0 - delta * (
                            m[u, u].diagonal() if adjacent else 1))
                if (words == (want if adjacent else want[
                        classes[w0:w0 + len(later)]])).all():
                    continue
                counts = _digits(words, shifts, weights, low, s)[:rows]
                cells = strata[a:a + rows, w0:w0 + len(later)]
                if inner:
                    counts += inner * cells
                bad = counts != expected.take(cells)
                if w0 == a + 1:
                    # pair (a + r, a + 1 + j) has w > u when j >= r
                    bad = np.triu(bad)
                if bad.any():
                    r, j = divmod(int(bad.argmax()), len(later))
                    best, rows = (a + r, w0 + j, int(counts[r, j])), r
                    if not r:
                        break
                    block = None
            if best:
                return best, tuple(None if first.get(t, best[:2]) > best[:2]
                                   else v for t, v in enumerate(values))
        return None, tuple(values)


class SameClass:
    """The pair strata of a vector of class indices in [0, m), cls[u] ==
    cls[w] at (u, w), with no n x n matrix behind them: first_bad_pair's
    tile slices and pair_witness's [u, w] lookups compare the classes they
    cover, and its fold keeps one row of expected words per class."""

    def __init__(self, cls):
        self.cls = np.asarray(cls, np.intp)  # int when empty too

    def __getitem__(self, key):
        rows, cols = key
        return np.equal.outer(self.cls[rows], self.cls[cols])


def pair_witness(m, strata, names, values=None):
    """first_bad_pair, with every value inferred unless `values` is given:
    the witness of the first bad pair, or None, and the values, 0 for a
    stratum never met.  Stratum s is reported as names[s]."""
    bad, values = first_bad_pair(m, strata, values or (None,) * len(names))
    witness = None
    if bad:
        u, w, c = bad
        s = int(strata[u, w])
        witness = {"check": names[s], "pair": [u, w], "count": c,
                   "expected": values[s]}
    return witness, tuple(v or 0 for v in values)


def regularity(g: Graph, deg=None):
    """(degree of vertex 0, or 0 when g is empty; a "regular" witness for
    the first vertex of another degree, or None), from the degrees `deg`
    of g when the caller has them."""
    deg = degrees(g.matrix) if deg is None else deg
    k = int(deg[0]) if g.n else 0
    other = deg != k
    if other.any():
        u = int(other.argmax())
        return k, {"check": "regular", "vertices": [0, u],
                   "degrees": [k, int(deg[u])]}
    return k, None


def cliques(rows, size: int, allowed: int, block=(), step=None):
    """Cliques of `size` vertices that extend `block` by pairwise-adjacent
    vertices of the bitset `allowed`, in ascending lexicographic order.

    The caller picks `allowed` adjacent to all of `block`; cocliques are the
    cliques of the complement rows.  A branch stops once `block` plus the
    allowed vertices left cannot reach `size`.  `step`, when given, is
    called once per call, the recursive ones included, so that a caller
    can bound the search in work.
    """
    if step is not None:
        step()
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
        yield from cliques(rows, size, rem & rows[w], (*block, w), step)


def from_edges(n: int, edges) -> Graph:
    """Graph on [0, n) with the edges uv of `edges`, which may repeat an
    edge or give both of its orientations.  The first edge that is a loop
    or has an endpoint outside [0, n) raises ValueError."""
    # unpacking rejects all but pairs
    e = np.fromiter(((u, v) for u, v in edges), (np.intp, 2))
    bad = (e[:, 0] == e[:, 1]) | ((e < 0) | (e >= n)).any(axis=1)
    if bad.any():
        u, v = e[bad.argmax()].tolist()
        raise ValueError(f"loop at vertex {u}" if u == v else f"edge "
                         f"({u}, {v}) has an endpoint outside [0, {n})")
    m = np.zeros((n, n), bool)
    m[e[:, 0], e[:, 1]] = m[e[:, 1], e[:, 0]] = True
    return Graph(m)


@dataclass(frozen=True)
class VertexPartition:
    """Disjoint vertex classes covering [0, n)."""

    n: int
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for v in chain.from_iterable(self.classes):
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range")
            if v in seen:
                raise ValueError(f"vertex {v} appears in two classes")
            seen.add(v)
        if len(seen) != self.n:
            raise ValueError("classes do not cover the vertex set")

    @staticmethod
    def from_lists(n: int, classes) -> "VertexPartition":
        return VertexPartition(n, tuple(tuple(sorted(c)) for c in classes))

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
    parameters: dict = field(default_factory=dict)
    witnesses: tuple = ()
    provenance: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "passed": self.passed,
            "parameters": self.parameters,
            "witnesses": list(self.witnesses),
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def certificate(kind, parameters=None, witnesses=(), provenance=None) -> Certificate:
    return Certificate(
        kind=kind,
        parameters=dict(parameters or {}),
        witnesses=tuple(witnesses),
        provenance=dict(provenance or {}),
    )


# ---------------------------------------------------------------------------
# elementary operations


def complement(g: Graph) -> Graph:
    m = ~g.matrix
    np.fill_diagonal(m, False)
    return Graph(m)


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
    return int(np.count_nonzero(g.matrix[u] & g.matrix[v]))


def common_edge_counts(m) -> np.ndarray:
    """t[u, w], the number of edges among the common neighbours of u and w,
    for a boolean adjacency matrix m: for an edge uw, the K4s through it.

    t = C^T C, C with the row m[x] & m[y] for each edge x < y, counts the
    edges inside N(u) & N(w).  C is cast to float32 in blocks of
    max(_GRAM_ROWS, _GRAM_ENTRIES // n) rows, so one product takes all
    edges of d(2,3) or s(2,3) (56 and 63 vertices), and the block products
    are summed in float32, which is exact: every partial sum is an integer
    of at most |E| < 2^24 for n <= 4096.  Blocks of a few hundred rows once
    woke OpenBLAS's worker threads and raised the peak RSS; inside
    _blas_scope, on one thread below _SERIAL_BELOW vertices, they wake
    none, and the entry budget keeps a block's float32 rows near 256 KB.
    """
    n = len(m)
    if n > 1 << 12:
        raise ValueError(f"{n} vertices: float32 counts are exact up to 4096")
    edges = np.flatnonzero(np.triu(m))  # x * n + y for each edge x < y
    t = np.zeros((n, n), np.float32)
    step = max(_GRAM_ROWS, _GRAM_ENTRIES // max(n, 1))
    with _blas_scope(n):
        for e in range(0, len(edges), step):
            x, y = np.divmod(edges[e:e + step], n)
            c = (m[x] & m[y]).astype(np.float32)
            t += c.T @ c
    return t.astype(np.int64)


# ---------------------------------------------------------------------------
# named small graphs used throughout the test corpus and constructions


def empty_graph(n: int) -> Graph:
    return Graph(np.zeros((n, n), bool))


def complete_graph(n: int) -> Graph:
    return complement(empty_graph(n))


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_multipartite(*part_sizes: int) -> Graph:
    part = np.repeat(np.arange(len(part_sizes)), part_sizes)
    return Graph(part[:, None] != part)


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


def graph6_encode(g: Graph) -> str:
    n = g.n
    # the body order, row j of the lower triangle for j = 1..n-1, one byte
    # per bit: slices of one flat memoryview, joined with the zero padding
    # to whole three-byte groups in one bytes object, which is freed once
    # packed
    flat = memoryview(np.ascontiguousarray(g.matrix).ravel())
    nbits = n * (n - 1) // 2
    full = np.packbits(np.frombuffer(b"".join(
        [flat[j * n:j * n + j] for j in range(1, n)] + [bytes(-nbits % 24)]),
        np.uint8)).reshape(-1, 3)
    # three full bytes give four six-bit ones, most significant first: the
    # decoder's regrouping run backwards
    a, b, c = full.T
    six = np.empty((len(full), 4), np.uint8)
    six[:, 0] = a >> 2
    six[:, 1] = a << 4 | b >> 4
    six[:, 2] = b << 2 | c >> 6
    six[:, 3] = c
    six &= 63
    six += 63
    body = six.ravel()[:-(-nbits // 6)]
    return (_g6_size_bytes(n) + body.tobytes()).decode("ascii")


def _g6_bytes(text: str) -> bytes:
    """The bytes of a graph6 line, stripped and without a >>graph6<<
    header."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise ParseError("empty graph6 string")
    try:
        return s.encode("ascii")
    except UnicodeEncodeError:
        raise ParseError(f"graph6 byte out of range in {s!r}") from None


def _g6_size(data: bytes) -> tuple[int, int]:
    """The vertex count in the size prefix of graph6 bytes, and the length
    of the prefix."""
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) >= 2 and data[1] == 126:
        raise ParseError("graph6 very long form (>258047 vertices) unsupported")
    if len(data) < 4:
        raise ParseError("truncated graph6 long-form size")
    return ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63), 4


def graph6_order(text: str) -> int:
    """The vertex count of a graph6 line, read from its size prefix alone."""
    data = _g6_bytes(text)
    n, start = _g6_size(data)
    if not all(63 <= b <= 126 for b in data[:start]):
        raise ParseError(f"graph6 byte out of range in {data.decode()!r}")
    return n


def _g6_bits(body, n: int) -> np.ndarray:
    """The bits of a graph6 body, bool, followed by at least n zero bits,
    so that every row window of graph6_decode ends inside the stream.

    Each byte less 63 holds six bits, most significant first: four bytes
    give the 24 bits of three full bytes (uint8 shifts drop the bits above
    8), which are written before the zero bytes for one np.unpackbits.
    The regrouped bytes are freed on return, before the decoder's matrix
    is allocated."""
    six = np.zeros((-(-len(body) // 4), 4), np.uint8)
    np.subtract(body, 63, out=six.reshape(-1)[:len(body)])
    packed = np.zeros(3 * len(six) + -(-n // 8), np.uint8)
    full = packed[:3 * len(six)].reshape(-1, 3)
    full[:, 0] = six[:, 0] << 2 | six[:, 1] >> 4
    full[:, 1] = six[:, 1] << 4 | six[:, 2] >> 2
    full[:, 2] = six[:, 2] << 6 | six[:, 3]
    return np.unpackbits(packed).view(bool)


def graph6_decode(text: str) -> Graph:
    data = _g6_bytes(text)
    codes = np.frombuffer(data, dtype=np.uint8)
    if ((codes < 63) | (codes > 126)).any():
        raise ParseError(f"graph6 byte out of range in {data.decode()!r}")
    n, start = _g6_size(data)
    body = codes[start:]

    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ParseError(f"graph6 body length {len(body)} wrong for n={n}")

    bits = _g6_bits(body, n)
    if bits[nbits:].any():
        raise ParseError("graph6 padding bits are not zero")

    # row j holds the n bits from j(j - 1)/2 on: row j of the lower
    # triangle, then bits of later rows on and above the diagonal.  One
    # gather from the length-n sliding windows of the stream copies them
    # into a matrix of its own; the windows come from as_strided, as
    # sliding_window_view's argument checks cost more than the whole
    # gather on graphs of a few dozen vertices
    windows = np.lib.stride_tricks.as_strided(
        bits, (len(bits) - n + 1, n), (1, 1), writeable=False)
    j = np.arange(n)
    m = windows[j * (j - 1) // 2]
    # clear the diagonal blocks on and above their diagonal, and mirror
    # the lower triangle over the rest, one square block at a time
    lower = np.tri(min(n, _SQUARE), k=-1, dtype=bool)
    for a in range(0, n, _SQUARE):
        b = a + _SQUARE
        block = m[a:b, a:b]
        block &= lower[:len(block), :len(block)]
        block |= block.T
        for c in range(b, n, _SQUARE):
            m[a:b, c:c + _SQUARE] = m[c:c + _SQUARE, a:b].T
    return Graph._symmetric(m)
