"""Matrix-built graphs against the per-bit row builders they replaced.

`ref_relabel`, `ref_induced`, `ref_complement` and `ref_seidel_switch` are
`Graph.relabel`, `Graph.induced`, `complement` and `seidel_switch` as they
were written on bitset rows, one `|= 1 << v` at a time, and serve as the
oracle of the matrix expressions.  Random graphs run from 0 and 1 vertex
to more than 64, so rows span several 64-bit words.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import graphs, permutations_of, rows_graph, rows_matrix
from srgforge import (complement, empty_graph, Graph, graph6_decode,
                      graph6_encode, seidel_switch)
from srgforge.graphs import set_bits


def ref_relabel(g, perm):
    rows = [0] * g.n
    for u in range(g.n):
        for v in set_bits(g.rows[u]):
            rows[perm[u]] |= 1 << perm[v]
    return rows_graph(g.n, rows)


def ref_induced(g, vertices):
    vs = list(vertices)
    pos = {v: i for i, v in enumerate(vs)}
    rows = [0] * len(vs)
    for i, u in enumerate(vs):
        for v in set_bits(g.rows[u]):
            j = pos.get(v)
            if j is not None:
                rows[i] |= 1 << j
    return rows_graph(len(vs), rows)


def ref_complement(g):
    full = (1 << g.n) - 1
    return rows_graph(g.n, [(full & ~row) & ~(1 << u)
                            for u, row in enumerate(g.rows)])


def ref_seidel_switch(g, vertices):
    s_mask = 0
    for u in vertices:
        s_mask |= 1 << u
    full = (1 << g.n) - 1
    rows = []
    for u in range(g.n):
        row = g.rows[u]
        if s_mask >> u & 1:
            row = (row & s_mask) | ((full & ~s_mask) & ~row)
        else:
            row = (row & ~s_mask) | (s_mask & ~row & full)
        rows.append(row & ~(1 << u))
    return rows_graph(g.n, rows)


# n = 0 and 1, small graphs, and graphs whose rows span two words
any_graphs = st.one_of(graphs(max_n=1), graphs(max_n=12),
                       graphs(min_n=65, max_n=72))


def subsets(n):
    """Distinct vertices of [0, n) in any order."""
    return st.lists(st.integers(0, n - 1), unique=True) if n else st.just([])


def assert_same(got, want):
    assert got == want and hash(got) == hash(want)
    assert np.array_equal(got.matrix, rows_matrix(want.n, want.rows))
    assert not got.matrix.flags.writeable


@given(any_graphs, st.data())
def test_relabel_matches_reference(g, data):
    perm = data.draw(permutations_of(g.n))
    assert_same(g.relabel(perm), ref_relabel(g, perm))


@given(any_graphs, st.data())
def test_induced_matches_reference(g, data):
    vertices = data.draw(subsets(g.n))
    assert_same(g.induced(vertices), ref_induced(g, vertices))


@given(any_graphs)
def test_complement_matches_reference(g):
    assert_same(complement(g), ref_complement(g))


@given(any_graphs, st.data())
def test_seidel_switch_matches_reference(g, data):
    vertices = data.draw(subsets(g.n))
    assert_same(seidel_switch(g, vertices), ref_seidel_switch(g, vertices))


@given(any_graphs)
def test_graph6_decode_keeps_the_matrix(g):
    assert_same(graph6_decode(graph6_encode(g)), g)


@given(any_graphs)
def test_from_matrix_equals_rows_constructor(g):
    """The rows Graph derives from its matrix read back to that matrix, and
    an owned array, a view and a nested list give the same graph."""
    m = rows_matrix(g.n, g.rows)
    assert np.array_equal(m, g.matrix)
    assert_same(Graph(m[:, :]), g)
    if g.n:  # an empty nested list has no second axis
        assert_same(Graph(m.tolist()), g)
    assert_same(Graph(m), rows_graph(g.n, g.rows))


@given(graphs(max_n=20), st.lists(st.tuples(
    st.sampled_from(["one-way", "loop"]),
    st.integers(0, 100), st.integers(0, 100)), max_size=4))
def test_from_matrix_messages_match_rows_constructor(g, faults):
    """Faults set in the bitset rows: an owned array, a view and a nested
    list of the same matrix give the same graph or the same message."""
    rows = list(g.rows)
    for kind, a, b in faults:
        if not g.n:
            break
        u, v = a % g.n, b % g.n
        rows[u] ^= 1 << (u if kind == "loop" else v)
    m = rows_matrix(g.n, rows)
    forms = [m[:, :], m.tolist()] if g.n else [m[:, :]]
    try:
        want, message = rows_graph(g.n, rows), None
    except ValueError as exc:
        message = str(exc)
    for form in forms:
        if message is None:
            assert_same(Graph(form), want)
        else:
            with pytest.raises(ValueError) as exc:
                Graph(form)
            assert str(exc.value) == message


def test_matrix_is_read_only_and_never_shared_writable():
    m = np.zeros((3, 3), bool)
    m[0, 1] = m[1, 0] = True
    g = Graph(m)  # kept, not copied, and frozen
    assert g.matrix is m
    with pytest.raises(ValueError):
        m[1, 2] = True
    with pytest.raises(ValueError):
        empty_graph(3).matrix[1, 2] = True
    base = np.zeros((4, 4), bool)
    h = Graph(base[:3, :3])  # a view is copied
    base[0, 1] = base[1, 0] = True
    assert h.edge_count() == 0 and not h.matrix.any()
    assert base.flags.writeable


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,), (2, 2, 2)])
def test_graph_needs_a_square_matrix(shape):
    with pytest.raises(ValueError) as exc:
        Graph(np.zeros(shape, bool))
    assert str(exc.value) == f"adjacency matrix of shape {shape} is not square"


@pytest.mark.parametrize("perm", [(0, 0, 1), (0, 1), (1, 2, 3), (0, 1, 2, 3)])
def test_relabel_rejects_non_permutations(perm):
    with pytest.raises(ValueError):
        empty_graph(3).relabel(perm)
