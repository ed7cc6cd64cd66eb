"""Symplectic graphs over finite fields, and exact clique censuses.

The symplectic graph is one FiniteField.gram of the projective points
against their duals, whose zeros off the diagonal are the edges.

The census enumerates every clique that meets the ratio bound, so two
graphs with the same parameters but different census counts are certified
non-isomorphic without running any isomorphism test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CensusTooLarge, NonIntegralBound, NotSrg
from .gf import FiniteField, projective_points
from .graphs import Graph, check_power, check_vertices, cliques
from .spectra import delsarte_clique_size
from .srg import srg_params, SrgParams, verify_srg

MAX_CENSUS_VERTICES = 120
MAX_CENSUS_SIZE = 16


def _expected_params(q: int, d: int) -> SrgParams:
    v = (q ** (2 * d) - 1) // (q - 1)
    k = q * (q ** (2 * d - 2) - 1) // (q - 1)
    lam = q * q * (q ** (2 * d - 4) - 1) // (q - 1) + q - 1
    mu = (q ** (2 * d - 2) - 1) // (q - 1)
    return SrgParams(v, k, lam, mu)


def check_census_vertices(n: int) -> None:
    """CensusTooLarge when a census graph has more than MAX_CENSUS_VERTICES
    vertices."""
    if n > MAX_CENSUS_VERTICES:
        raise CensusTooLarge(f"refusing exhaustive census at n={n}, over "
                             f"the {MAX_CENSUS_VERTICES}-vertex limit")


def check_symplectic(q: int, d: int) -> None:
    """TooLarge when Sp(2d, q)'s graph, q >= 2, is over the vertex limit."""
    check_power(q, d, "the symplectic graph")
    check_vertices((q ** (2 * d) - 1) // (q - 1), "the symplectic graph")


def symplectic_graph(field: FiniteField, d: int) -> Graph:
    """Graph on the projective points of F_q^{2d}, adjacent when the
    symplectic form vanishes.

    Vertices are the normalized projective representatives in lexicographic
    order, so vertex labels are reproducible across runs.  The result is
    checked to be strongly regular with the parameters forced by the form
    before it is returned.
    """
    if d < 2:
        raise ValueError("need d >= 2 for a strongly regular outcome")
    check_symplectic(field.q, d)
    points = np.array(projective_points(field, 2 * d), np.uint8)
    neg = np.array([field.neg(a) for a in field.elements()], np.uint8)
    # <x, (y1, -y0, y3, -y2, ...)> is the symplectic form of x and y
    dual = np.stack((points[:, 1::2], neg[points[:, ::2]]), axis=2)
    m = field.gram(points, dual.reshape(points.shape)) == 0
    np.fill_diagonal(m, False)
    g = Graph(m)

    cert = verify_srg(g)
    expected = _expected_params(field.q, d)
    if not cert.passed or SrgParams.from_certificate(cert) != expected:
        raise NotSrg(f"symplectic graph over GF({field.q}), dimension "
                     f"{2 * d}: expected {expected.as_tuple()}")
    return g


@dataclass(frozen=True)
class CliqueCensus:
    size: int
    count: int
    cliques: tuple[tuple[int, ...], ...]


def delsarte_clique_census(g: Graph) -> CliqueCensus:
    """Enumerate every clique meeting the ratio bound 1 - k/s.

    Raises NotSrg unless g is strongly regular, NonIntegralBound when the
    bound is not an integer (then no clique can meet it) and CensusTooLarge
    past 120 vertices, checked before g is verified, or past bound 16.
    """
    check_census_vertices(g.n)
    bound = delsarte_clique_size(srg_params(g))
    if bound.denominator != 1:
        raise NonIntegralBound(f"ratio bound {bound} is not an integer")
    size = int(bound)
    if size > MAX_CENSUS_SIZE:
        raise CensusTooLarge(f"refusing exhaustive census at n={g.n}, "
                             f"bound={size}")
    found = tuple(cliques(g.rows, size, (1 << g.n) - 1))
    return CliqueCensus(size=size, count=len(found), cliques=found)
