"""Graph container, graph6 codec, partitions, certificates."""

from __future__ import annotations

import json
import tracemalloc
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import graph_from_bits, graphs, rows_matrix
from srgforge import (certificate, Certificate, chang_graphs,
                      common_neighbours, complement, complete_graph,
                      complete_multipartite, cycle_graph, empty_graph,
                      exact_spectrum, from_edges, Graph, graph6_decode,
                      graph6_encode, line_graph, make_field, octahedron,
                      ParseError, path_graph, petersen_graph, srg_spectrum,
                      SrgParams, symplectic_graph, triangular_graph,
                      verify_ddg, verify_srg, verify_srg1_cases,
                      VertexPartition)
import srgforge.graphs as graphs_module
from srgforge.cli import main
from srgforge.graphs import (bitset, cliques, common_edge_counts, degrees,
                             regularity, set_bits)
from test_ddg import build
from test_srg import srg1


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(np.eye(2, dtype=bool))  # loop at vertex 0
    with pytest.raises(ValueError):
        Graph(np.tri(2, k=-1, dtype=bool))  # asymmetric
    with pytest.raises(ValueError):
        Graph(np.zeros((2, 3), bool))  # not square
    with pytest.raises(TypeError):
        Graph(2, (0, 0))  # a graph is built from its matrix only


def ref_validation_error(m):
    """The message of the ValueError Graph(m) raises for a square m, as the
    checks were first written: one entry at a time, so the first offender is
    plain."""
    n = len(m)
    for u in range(n):
        if m[u][u]:
            return f"loop at vertex {u}"
    for u in range(n):
        for v in range(u + 1, n):
            if m[u][v] != m[v][u]:
                return f"asymmetric adjacency at ({u}, {v})"
    return None


# entry (u, v) of the matrix is bit v of rows[u]
@pytest.mark.parametrize("n, rows, message", [
    (3, (0b001, 0, 0), "loop at vertex 0"),
    (4, (0b0100, 0, 0, 0), "asymmetric adjacency at (0, 2)"),
    (4, (0, 0, 0, 0b0010), "asymmetric adjacency at (1, 3)"),
    (1, (0b1,), "loop at vertex 0"),
    # a pair past the first 64 columns
    (66, (0,) * 65 + (1 << 64,), "asymmetric adjacency at (64, 65)"),
    # several faults: the first loop wins, and asymmetry is reported only
    # when no vertex has a loop, at the first pair (u, v), u < v, in
    # lexicographic order
    (5, (0, 0, 0, 0, 0b11000), "loop at vertex 4"),
    (4, (0b0100, 0, 0b0100, 0), "loop at vertex 2"),
    (4, (0, 0b1000, 0b0010, 0), "asymmetric adjacency at (1, 2)"),
    (5, (0b10000, 0b01000, 0, 0, 0), "asymmetric adjacency at (0, 4)"),
])
def test_graph_validation_messages(n, rows, message):
    m = rows_matrix(n, rows)
    assert ref_validation_error(m) == message
    with pytest.raises(ValueError) as exc:
        Graph(m)
    assert str(exc.value) == message


@given(graphs(max_n=20), st.lists(st.tuples(
    st.sampled_from(["one-way", "loop"]),
    st.integers(0, 100), st.integers(0, 100)), max_size=4))
def test_graph_validation_matches_reference(g, faults):
    m = g.matrix.copy()
    for kind, a, b in faults:
        if not g.n:
            break
        u, v = a % g.n, b % g.n
        if kind == "loop":
            v = u
        m[u, v] = not m[u, v]
    message = ref_validation_error(m)
    if message is None:
        want = m.tolist()
        assert Graph(m).matrix.tolist() == want
    else:
        with pytest.raises(ValueError) as exc:
            Graph(m)
        assert str(exc.value) == message


def ref_from_edges(n, edges):
    """from_edges as a plain loop over the edges."""
    m = [[False] * n for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside "
                             f"[0, {n})")
        m[u][v] = m[v][u] = True
    return m


@given(st.integers(1, 70), st.data())
def test_from_edges_matches_reference(n, data):
    """Repeated edges and both orientations; a loop or an endpoint outside
    [0, n), when one is drawn, is reported at the first bad edge in the
    list."""
    lo, hi = (-1, n) if data.draw(st.integers(0, 3)) == 0 else (0, n - 1)
    pair = st.tuples(st.integers(lo, hi), st.integers(lo, hi))
    edges = data.draw(st.lists(pair, max_size=3 * n))
    if data.draw(st.integers(0, 3)):
        edges = [(u, w) for u, w in edges if u != w]
    edges += [(w, u) for u, w in data.draw(st.lists(st.sampled_from(edges))
                                           if edges else st.just([]))]
    try:
        want, message = ref_from_edges(n, edges), None
    except ValueError as exc:
        message = str(exc)
    if message is None:
        assert from_edges(n, iter(edges)).matrix.tolist() == want
    else:
        with pytest.raises(ValueError) as exc:
            from_edges(n, iter(edges))
        assert str(exc.value) == message


@pytest.mark.parametrize("edges, error, match", [
    ([(0, 3)], ValueError, "outside"),
    ([(-1, 0)], ValueError, "outside"),
    ([(1, 0), (0, 5)], ValueError, "outside"),
    ([(0, 3), (1, 1)], ValueError, "outside"),
    # not re-read as the pairs (0, 1), (2, 3), (0, 1)
    ([(0, 1, 2), (3, 0, 1)], ValueError, "unpack"),
    ([(0, 1), (2,)], ValueError, "unpack"),
    ([2], TypeError, "unpack"),
])
def test_from_edges_rejects_outside_endpoints(edges, error, match):
    with pytest.raises(error, match=match):
        from_edges(3, edges)


@given(st.lists(st.integers(0, 200)))
def test_bitset_inverts_set_bits(vertices):
    assert list(set_bits(bitset(vertices))) == sorted(set(vertices))


def test_from_edges_and_accessors():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.edge_count() == 3
    assert g.has_edge(1, 2) and not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert list(g.neighbours(1)) == [0, 2]
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]


@given(graphs(max_n=20))
def test_accessors_read_the_matrix_as_the_rows_say(g):
    """Degrees, neighbours, edges and the regularity witness, read off the
    matrix, agree with the bitset rows; equal matrices make equal graphs
    of equal hashes."""
    rows = g.rows
    assert [g.degree(u) for u in range(g.n)] == [r.bit_count() for r in rows]
    assert [list(g.neighbours(u)) for u in range(g.n)] == \
        [list(set_bits(r)) for r in rows]
    assert all(g.has_edge(u, v) == bool(rows[u] >> v & 1)
               for u in range(g.n) for v in range(g.n))
    assert g.edge_count() == sum(r.bit_count() for r in rows) // 2
    k = rows[0].bit_count() if g.n else 0
    other = next((u for u, r in enumerate(rows) if r.bit_count() != k), None)
    assert regularity(g) == (k, None if other is None else {
        "check": "regular", "vertices": [0, other],
        "degrees": [k, rows[other].bit_count()]})
    deg = degrees(g.matrix)
    assert deg.tolist() == [r.bit_count() for r in rows]
    assert regularity(g, deg) == regularity(g)
    # a column slice, the view the pair kernel sums its block rows of
    assert degrees(g.matrix[:, 1:]).tolist() == [
        (r >> 1).bit_count() for r in rows]
    h = Graph(g.matrix.copy())
    assert h == g and hash(h) == hash(g) and h.rows == rows
    assert g != empty_graph(g.n + 1)
    # the accessors take vertices in [0, n): past n they raise IndexError,
    # and a negative vertex counts from the end, as numpy indexing does
    for bad in (lambda: g.has_edge(0, g.n), lambda: g.degree(g.n),
                lambda: g.neighbours(g.n)):
        with pytest.raises(IndexError):
            bad()
    if g.n:
        assert g.has_edge(0, -1) == g.has_edge(0, g.n - 1)
        assert g.degree(-1) == g.degree(g.n - 1)


class BitRowsBuilt(Exception):
    """Raised by the stand-in for graphs.bit_rows below."""


def test_only_the_bit_searches_build_bitset_rows(tmp_path, monkeypatch):
    """A graph stores its matrix alone: with graphs.bit_rows raising, the
    graph6 codec, the verifiers, exact_spectrum, the generators and verify
    all run, while canon and the clique census, the bit searches, still
    reach it through Graph.rows.  The generators run at (2, 4): at (2, 3)
    their outputs have at most 64 vertices, and the manifest then records a
    canonical form."""
    def refuse(m):
        raise BitRowsBuilt

    monkeypatch.setattr(graphs_module, "bit_rows", refuse)
    monkeypatch.chdir(tmp_path)
    ddg, partition = build(2, 3, seed=0)
    g, partition, design = srg1(2, 3)
    assert graph6_decode(graph6_encode(g)) == g
    assert verify_ddg(ddg, partition).passed
    cert = verify_srg(g)
    assert cert.passed and verify_srg1_cases(g, partition, design).passed
    spectrum = srg_spectrum(SrgParams.from_certificate(cert))
    assert exact_spectrum(g, [e for e, _ in spectrum.entries()]) == spectrum
    for cmd, kind, classes in (
            ("gen-ddg", "ddg", ["--classes", "ddg.classes"]),
            ("gen-srg1", "srg", [])):
        assert main([cmd, "--q", "2", "--d", "4", "--seed", "0",
                     "--out", kind]) == 0
        assert main(["verify", "--expect", kind, *classes, "--in",
                     kind + ".g6", "--cert", kind + ".json"]) == 0
    (tmp_path / "t6.g6").write_text(graph6_encode(triangular_graph(6)) + "\n")
    for command in ("canon", "clique-census"):
        with pytest.raises(BitRowsBuilt):
            main([command, "--in", "t6.g6"])


@given(st.integers(0, 3), st.integers(0, 5), st.integers(0, 70),
       st.randoms())
def test_bit_rows_of_a_stack(depth, n, cols, rnd):
    """bit_rows of a stack of boolean matrices gives the rows of each in
    turn, bit v of a row set iff its entry v is; an n x 0 matrix has n zero
    rows."""
    m = np.array([[[rnd.random() < 0.5 for _ in range(cols)]
                   for _ in range(n)] for _ in range(depth)],
                 dtype=bool).reshape(depth, n, cols)
    rows = [sum(1 << v for v in range(cols) if row[v])
            for mat in m for row in mat]
    assert graphs_module.bit_rows(m) == tuple(rows)
    if depth:
        assert graphs_module.bit_rows(m[0]) == tuple(rows[:n])
    assert graphs_module.bit_rows(np.zeros((n, 0), bool)) == (0,) * n


def test_named_graphs():
    assert petersen_graph().edge_count() == 15
    assert verify_srg(petersen_graph()).parameters == {
        "v": 10, "k": 3, "lambda": 0, "mu": 1}
    assert octahedron().edge_count() == 12
    assert all(octahedron().degree(u) == 4 for u in range(6))
    assert path_graph(5).edge_count() == 4
    assert cycle_graph(7).edge_count() == 7
    assert complete_graph(6).edge_count() == 15
    km = complete_multipartite(2, 3, 4)
    assert km.n == 9
    assert km.edge_count() == (2 * 3 + 2 * 4 + 3 * 4)


def test_line_graph_of_k6_is_triangular():
    t6 = line_graph(complete_graph(6))
    cert = verify_srg(t6)
    assert cert.passed
    assert cert.parameters == {"v": 15, "k": 8, "lambda": 4, "mu": 4}


def test_common_neighbours():
    g = cycle_graph(5)
    assert common_neighbours(g, 0, 2) == 1
    assert common_neighbours(g, 0, 1) == 0
    with pytest.raises(ValueError):
        common_neighbours(g, 3, 3)


@given(graphs())
def test_complement_involution(g):
    assert complement(complement(g)) == g


@given(graphs())
def test_complement_edge_counts(g):
    assert g.edge_count() + complement(g).edge_count() == \
        g.n * (g.n - 1) // 2


@given(graphs(min_n=1))
def test_induced_full_is_identity(g):
    assert g.induced(tuple(range(g.n))) == g


@given(graphs(min_n=1), st.randoms())
def test_relabel_preserves_degrees(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = g.relabel(tuple(perm))
    assert sorted(h.degree(u) for u in range(h.n)) == \
        sorted(g.degree(u) for u in range(g.n))
    assert h.edge_count() == g.edge_count()


def test_graph6_known_values():
    assert graph6_encode(complete_graph(3)) == "Bw"
    assert graph6_decode("Bw") == complete_graph(3)
    assert graph6_encode(empty_graph(0)) == "?"
    assert graph6_decode(">>graph6<<Bw") == complete_graph(3)


@given(graphs(max_n=30))
def test_graph6_round_trip(g):
    assert graph6_decode(graph6_encode(g)) == g


def test_graph6_long_form_round_trip():
    import random
    rnd = random.Random(7)
    for n in (63, 100):
        bits = rnd.getrandbits(n * (n - 1) // 2)
        g = graph_from_bits(n, bits)
        text = graph6_encode(g)
        assert text[0] == chr(126)
        assert graph6_decode(text) == g


@given(st.sampled_from([62, 63, 67, 255, 256, 257, 513]),
       st.sampled_from([0.02, 0.5, 0.98]), st.integers(0, 2**32 - 1))
def test_graph6_round_trip_across_blocks(n, density, seed):
    """Around the 63-vertex long form and the 256-row blocks of the
    decoder's mirror and of Graph's symmetry check; the body lengths mod 4
    (0, 2, 1, 2, 0, 3, 0) cover every tail of the four-byte regrouping."""
    rng = np.random.default_rng(seed)
    m = np.tril(rng.random((n, n)) < density, -1)
    g = Graph(m | m.T)
    text = graph6_encode(g)
    assert len(text) == (1 if n < 63 else 4) + -(-n * (n - 1) // 12)
    assert graph6_decode(text) == g


@pytest.mark.parametrize("upper, lower, first", [
    # both pairs in the first band of rows, in different column blocks: the
    # block of (20, 300) comes first, but (10, 530) is the first pair
    ((10, 530), (300, 20), (10, 530)),
    ((20, 300), (530, 10), (10, 530)),
    # the pairs in different bands, and both in the last, partial band
    ((270, 590), (520, 5), (5, 520)),
    ((550, 590), (599, 513), (513, 599)),
])
def test_asymmetry_names_first_pair_across_blocks(upper, lower, first):
    """A 600-vertex matrix whose only asymmetric entries are one above and
    one below the diagonal, in different off-diagonal 256 x 256 blocks."""
    m = np.zeros((600, 600), bool)
    m[upper] = m[lower] = True
    with pytest.raises(ValueError) as exc:
        Graph(m)
    assert str(exc.value) == f"asymmetric adjacency at {first}"


def test_graph6_smallest_orders():
    for n, text in ((0, "?"), (1, "@")):
        assert graph6_encode(empty_graph(n)) == text
        assert graph6_decode(text) == empty_graph(n)
    assert graph6_encode(complete_graph(63))[:4] == "~??~"


def test_graph6_long_form_errors():
    import random
    rnd = random.Random(3)
    g = graph_from_bits(63, rnd.getrandbits(63 * 62 // 2))
    text = graph6_encode(g)  # 1953 bits: 326 body bytes, 3 padding bits
    assert len(text) == 4 + 326
    cases = [
        (text[:-1], "graph6 body length 325 wrong for n=63"),
        (text + "?", "graph6 body length 327 wrong for n=63"),
        (text[:4], "graph6 body length 0 wrong for n=63"),
        (text[:-1] + chr(ord(text[-1]) + 1),  # lowest padding bit
         "graph6 padding bits are not zero"),
        (text[:-1] + "~", "graph6 padding bits are not zero"),
        (text[:100] + "!" + text[101:],
         f"graph6 byte out of range in {text[:100] + '!' + text[101:]!r}"),
        (text[:200] + chr(127) + text[201:],
         f"graph6 byte out of range in {text[:200] + chr(127) + text[201:]!r}"),
        ("~?", "truncated graph6 long-form size"),
        ("~~" + text[2:], "graph6 very long form (>258047 vertices) "
                          "unsupported"),
    ]
    for bad, message in cases:
        with pytest.raises(ParseError) as exc:
            graph6_decode(bad)
        assert str(exc.value) == message
    assert graph6_decode(text) == g


def ref_graph6_encode(rows) -> str:
    """graph6 of a square 0/1 matrix, given as lists, one bit at a time as
    the format defines it: the size prefix, then x(i, j) for i < j in the
    order j = 1..n-1 and i = 0..j-1 within, six bits to a byte, most
    significant first, zero-padded to a whole byte, each byte plus 63."""
    n = len(rows)
    if n <= 62:
        out = [n + 63]
    else:
        out = [126] + [(n >> shift & 63) + 63 for shift in (12, 6, 0)]
    bits = [int(rows[i][j]) for j in range(n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    for k in range(0, len(bits), 6):
        byte = 0
        for bit in bits[k:k + 6]:
            byte = byte << 1 | bit
        out.append(byte + 63)
    return bytes(out).decode("ascii")


def ref_graph6_decode(text: str) -> list[list[bool]]:
    """The matrix of a valid graph6 line, as lists, one bit at a time."""
    data = text.encode("ascii")
    if data[0] == 126:
        n = sum((data[k] - 63) << shift
                for k, shift in ((1, 12), (2, 6), (3, 0)))
        body = data[4:]
    else:
        n, body = data[0] - 63, data[1:]
    bits = iter([(byte - 63) >> (5 - k) & 1 for byte in body
                 for k in range(6)])
    rows = [[False] * n for _ in range(n)]
    for j in range(n):
        for i in range(j):
            rows[i][j] = rows[j][i] = bool(next(bits))
    return rows


@pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 255, 256, 257, 513])
def test_graph6_matches_bitwise_reference(n):
    """Both directions agree with the bit-by-bit reference on a random
    graph; the body lengths mod 4 (0, 0, 1, 0, 2, 0, 2, 0, 3, 0) cover
    every tail of the four-byte regrouping.  The decoded graph skips
    Graph's scan, so its matrix is checked here: bool, read-only,
    symmetric, loop-free, and owning its data, so that every array
    sharing its memory is a read-only view of it."""
    rng = np.random.default_rng(n)
    lower = np.tril(rng.random((n, n)) < 0.5, -1)
    g = Graph(lower | lower.T)
    text = ref_graph6_encode(g.matrix.tolist())
    assert graph6_encode(g) == text
    h = graph6_decode(text)
    m = h.matrix
    assert m.tolist() == ref_graph6_decode(text)
    assert m.dtype == bool and m.shape == (n, n) and h.n == n
    assert not m.flags.writeable and m.flags.owndata and m.base is None
    assert not m.diagonal().any() and np.array_equal(m, m.T)
    assert h == g and hash(h) == hash(g) and h.rows == g.rows


@pytest.mark.parametrize("n", [992, 1365])
def test_graph6_encode_memory_stays_below_n_squared(n):
    """At the sizes the verify-large benchmark decodes, graph6_encode's
    traced peak stays below n^2 bytes: its byte-per-bit body stream (about
    n^2 / 2), the packed and six-bit bytes and the text fit, but an n x n
    mask or copy of the matrix beside them does not."""
    rng = np.random.default_rng(n)
    lower = np.tril(rng.random((n, n)) < 0.5, -1)
    g = Graph(lower | lower.T)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph6_encode(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < n ** 2, (n, peak)


def test_graph6_size_prefix_stops_at_258047_vertices():
    """The long-form size prefix holds 18 bits, so 258047 vertices is the
    largest order written, and 258048 is refused by the prefix alone."""
    assert graphs_module._g6_size_bytes(258047) == b"~}~~"
    with pytest.raises(ValueError, match="at most 258047 vertices"):
        graphs_module._g6_size_bytes(258048)


def test_graph6_decode_errors():
    for bad in ("", " ", "B", "Bw!", "B" + chr(200), "Bz"):
        with pytest.raises(ParseError):
            graph6_decode(bad)


@given(st.sampled_from([0, 1, 2, 62, 63, 64, 300]))
def test_graph6_order_reads_the_size_prefix(n):
    """graph6_order gives the order of a graph6 line from its size prefix,
    whatever follows it, and rejects a prefix that decoding rejects."""
    text = graph6_encode(empty_graph(n))
    assert graphs_module.graph6_order(text) == n
    assert graphs_module.graph6_order(" >>graph6<<" + text[:4] + "!\n") == n
    for bad in ("", " ", "!", "~", "~?", "~~" + text[2:], "~?!?",
                "B" + chr(200)):
        with pytest.raises(ParseError):
            graphs_module.graph6_order(bad)


def test_vertex_partition():
    p = VertexPartition.from_lists(4, [[1, 0], [2, 3]])
    assert p.classes == ((0, 1), (2, 3))
    assert p.class_of() == [0, 0, 1, 1]
    with pytest.raises(ValueError):
        VertexPartition.from_lists(4, [[0, 1], [1, 2, 3]])
    with pytest.raises(ValueError):
        VertexPartition.from_lists(4, [[0, 1]])
    with pytest.raises(ValueError):
        VertexPartition.from_lists(4, [[0, 1], [2, 4]])


def test_certificate_invariant():
    good = certificate("srg", {"v": 5}, [], {"seed": 0})
    assert good.passed and good.witnesses == ()
    bad = certificate("srg", {"v": 5}, [{"kind": "regular"}], {})
    assert not bad.passed
    # the verdict is read from the witnesses, so it cannot disagree with them
    assert not Certificate(kind="srg", witnesses=({"kind": "regular"},)).passed
    with pytest.raises(TypeError):
        Certificate(kind="srg", passed=True, parameters={},
                    witnesses=({"kind": "regular"},), provenance={})


def test_certificate_json_stable():
    cert = certificate("design", {"b": 1, "a": 2}, [], {"z": 0, "c": 1})
    doc = json.loads(cert.to_json())
    assert doc["kind"] == "design"
    assert doc["passed"] is True
    assert cert.to_json() == cert.to_json()
    assert list(doc) == sorted(doc)
    assert doc == cert.to_dict()


def _brute_cliques(rows, size, allowed, block):
    """block + every pairwise-adjacent subset of allowed, lexicographic."""
    if len(block) > size:
        return []
    return [block + c
            for c in combinations(set_bits(allowed), size - len(block))
            if all(rows[a] >> b & 1 for a, b in combinations(c, 2))]


@given(graphs(max_n=12), st.integers(0, 5), st.data())
def test_cliques_match_brute_force(g, size, data):
    full = (1 << g.n) - 1
    for rows in (g.rows, complement(g).rows):  # cliques, then cocliques
        assert list(cliques(rows, size, full)) == \
            _brute_cliques(rows, size, full, ())
        block = tuple(data.draw(st.lists(st.integers(0, max(g.n - 1, 0)),
                                         max_size=min(g.n, 2), unique=True)))
        allowed = data.draw(st.integers(0, full))
        assert list(cliques(rows, size, allowed, block)) == \
            _brute_cliques(rows, size, allowed, block)


def ref_common_edge_counts(g: Graph) -> list[list[int]]:
    """t(u, w), the edges among the common neighbours of u and w (u = w
    included), recounted with Python sets and no numpy."""
    nbrs = [set(g.neighbours(u)) for u in range(g.n)]
    return [[sum(1 for x, y in combinations(sorted(nbrs[u] & nbrs[w]), 2)
                 if y in nbrs[x]) for w in range(g.n)] for u in range(g.n)]


@given(graphs(max_n=12))
def test_common_edge_counts_match_set_recount(g):
    assert common_edge_counts(g.matrix).tolist() == ref_common_edge_counts(g)


def test_common_edge_counts_on_named_graphs():
    named = [("t8", triangular_graph(8)), ("petersen", petersen_graph()),
             *((f"chang{i + 1}", c) for i, c in enumerate(chang_graphs())),
             ("s(3,2)", srg1(3, 2)[0])]
    for name, g in named:
        assert common_edge_counts(g.matrix).tolist() == \
            ref_common_edge_counts(g), name


def test_common_edge_counts_refuses_inexact_sizes():
    with pytest.raises(ValueError, match="4097 vertices"):
        common_edge_counts(np.broadcast_to(False, (4097, 4097)))


@given(graphs(max_n=12), st.sampled_from([1, 2, 3, 7]))
def test_common_edge_counts_across_edge_blocks(g, rows):
    """Edge blocks of 1, 2, 3 and 7 rows, with the entry budget patched
    below one row, put block boundaries all through the edge list; the
    block sums still add up to the set recount."""
    with patch.object(graphs_module, "_GRAM_ROWS", rows), \
            patch.object(graphs_module, "_GRAM_ENTRIES", 0):
        assert common_edge_counts(g.matrix).tolist() == \
            ref_common_edge_counts(g)


def test_common_edge_counts_memory():
    """At 255 vertices, common_edge_counts holds at most its int64 result,
    the edge list and one block: the block's edge rows (bool and float32),
    max(_GRAM_ROWS, _GRAM_ENTRIES // n) of them, and an n x n float32 Gram,
    the size of the float32 sum the result is cast from.  An |E| x n
    float32 edge matrix (16 MB here) would break this."""
    g = symplectic_graph(make_field(2), 4)
    n, edges = g.n, g.edge_count()
    rows = max(graphs_module._GRAM_ROWS, graphs_module._GRAM_ENTRIES // n)
    block = rows * n * (3 + 4) + 4 * n * n
    tracemalloc.start()
    try:
        t = common_edge_counts(g.matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 255 and t.dtype == np.int64
    assert peak <= t.nbytes + 8 * edges + block, (peak, t.nbytes)
