"""Shared test configuration: hypothesis profiles and graph strategies."""

from __future__ import annotations

import os

import numpy as np
from hypothesis import HealthCheck, settings, strategies as st

from srgforge import Graph

settings.register_profile(
    "ci", max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("quick", max_examples=20, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


def rows_matrix(n: int, rows) -> np.ndarray:
    """Boolean n x n matrix whose entry (u, v) is bit v of rows[u], read one
    bit at a time; bits at n and above are not read."""
    m = np.zeros((n, n), bool)
    for u in range(n):
        for v in range(n):
            m[u, v] = rows[u] >> v & 1
    return m


def rows_graph(n: int, rows) -> Graph:
    """Graph of n bitset rows: the plain-loop reference for building a
    graph from rows."""
    return Graph(rows_matrix(n, rows))


def graph_from_bits(n: int, bits: int) -> Graph:
    """Upper-triangle bit pattern -> Graph, column-major like graph6."""
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits >> pos & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return rows_graph(n, rows)


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 12):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = n * (n - 1) // 2
    bits = draw(st.integers(min_value=0, max_value=(1 << pairs) - 1))
    return graph_from_bits(n, bits)


@st.composite
def permutations_of(draw, n: int):
    return tuple(draw(st.permutations(range(n))))
