"""Exact spectra: annihilation, trace systems, closed forms, bounds."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import graphs
from srgforge import (certificate, certified_spectrum, chang_graphs,
                      coclique_deletion_spectrum, complement,
                      complete_graph, construct_ddg_hoffman, cycle_graph,
                      ddg_formula_spectrum, DdgParams, delsarte_clique_size,
                      empty_graph, exact_root, exact_spectrum, from_edges,
                      Graph, hoffman_coclique_size, hoffman_colorings,
                      InfeasibleParams, make_field, make_spectrum,
                      NotAnnihilated, petersen_graph, Radical,
                      srg1_target_params, srg_eigenvalues, srg_spectrum,
                      SrgParams, symplectic_graph, theorem1_params, TooLarge,
                      triangular_graph, verify_ddg, verify_srg,
                      VertexPartition)
from srgforge import spectra
from srgforge.spectra import (_factor, _factors, _number_type, _product,
                              _times, _traces, adjacency_matrix, P)
from srgforge.spectra import _annihilates
from srgforge.srg import srg_params
from test_ddg import build
from test_srg import srg1


def test_radical_basics():
    r = Radical(5)
    assert repr(r) == "sqrt(5)"
    assert repr(-r) == "-sqrt(5)"
    with pytest.raises(ValueError):
        Radical(4)
    with pytest.raises(ValueError):
        Radical(0)
    assert exact_root(16) == 4
    assert exact_root(5) == Radical(5)


def test_make_spectrum_normalizes():
    spec = make_spectrum([(2, 1), (0, 2), (2, 2), (-2, 1)])
    assert spec.entries() == [(2, 3), (0, 2), (-2, 1)]
    assert spec.order == 6
    assert spec.multiplicity_of(0) == 2
    assert spec.multiplicity_of(7) == 0
    with pytest.raises(ValueError):
        make_spectrum([(2, -1)])
    with pytest.raises(TypeError, match="eigenvalue 2.0 must be int"):
        make_spectrum([(2.0, 1)])


def test_spectrum_orders_radicals():
    spec = make_spectrum([(Radical(5), 1), (2, 1), (-Radical(5), 1),
                          (3, 1), (-3, 1)])
    expected = [3, Radical(5), 2, Radical(5, negative=True), -3]
    assert [e for e, _ in spec.entries()] == expected


def test_exact_spectrum_known_graphs():
    k4 = exact_spectrum(complete_graph(4), [3, -1])
    assert k4.entries() == [(3, 1), (-1, 3)]

    pet = exact_spectrum(petersen_graph(), [3, 1, -2])
    assert pet.entries() == [(3, 1), (1, 5), (-2, 4)]

    c4 = exact_spectrum(cycle_graph(4), [2, 0, -2])
    assert c4.entries() == [(2, 1), (0, 2), (-2, 1)]

    assert exact_spectrum(empty_graph(0), []).order == 0


def test_exact_spectrum_with_radicals():
    # star K_{1,2} has spectrum +-sqrt(2), 0
    star = from_edges(3, [(0, 1), (0, 2)])
    spec = exact_spectrum(star, [0, Radical(2)])
    assert spec.entries() == [(Radical(2), 1), (0, 1),
                              (Radical(2, negative=True), 1)]


def test_exact_spectrum_rejects_wrong_candidates():
    with pytest.raises(NotAnnihilated):
        exact_spectrum(complete_graph(4), [3, 1])
    with pytest.raises(NotAnnihilated):
        exact_spectrum(petersen_graph(), [])
    with pytest.raises(NotAnnihilated):
        exact_spectrum(petersen_graph(), [3, 1])
    with pytest.raises(TypeError, match="candidate 3.0 must be int"):
        exact_spectrum(complete_graph(4), [3.0, -1])


def test_exact_spectrum_absorbs_duplicate_candidates():
    spec = exact_spectrum(complete_graph(4), [3, 3, -1])
    assert spec.entries() == [(3, 1), (-1, 3)]
    # a candidate that is not an eigenvalue stays with multiplicity 0
    padded = exact_spectrum(complete_graph(4), [3, -1, 0])
    assert padded.multiplicity_of(0) == 0
    assert padded.nonzero() == spec


def test_ddg_formula_spectrum():
    formula = ddg_formula_spectrum(DdgParams(12, 6, 2, 3, 3, 4))
    assert formula.candidates() == [6, 2, -2, 0]
    assert formula.f_sum == 9
    assert formula.g_sum == 2

    formula3 = ddg_formula_spectrum(DdgParams(56, 28, 12, 14, 7, 8))
    assert formula3.candidates() == [28, 4, -4, 0]
    assert formula3.f_sum == 49
    assert formula3.g_sum == 6


def test_ddg_spectrum_zero_multiplicity_identity():
    for q, d in [(2, 2), (3, 2), (2, 3), (4, 2)]:
        g, partition = build(q, d, seed=2)
        cert = verify_ddg(g, partition)
        params = DdgParams.from_certificate(cert)
        spec = exact_spectrum(g, ddg_formula_spectrum(params).candidates())
        assert spec.multiplicity_of(params.k) == 1
        assert spec.multiplicity_of(0) == (q ** d - q) // (q - 1)
        assert spec.order == params.v


def test_srg_spectrum_closed_form():
    assert srg_spectrum(SrgParams(15, 8, 4, 4)).entries() == \
        [(8, 1), (2, 5), (-2, 9)]
    assert srg_spectrum(SrgParams(40, 27, 18, 18)).entries() == \
        [(27, 1), (3, 15), (-3, 24)]
    assert srg_spectrum(SrgParams(28, 12, 6, 4)).entries() == \
        [(12, 1), (4, 7), (-2, 20)]
    assert srg_spectrum(SrgParams(10, 3, 0, 1)).entries() == \
        [(3, 1), (1, 5), (-2, 4)]
    assert srg_eigenvalues(SrgParams(15, 8, 4, 4)) == (2, -2)


def test_srg_spectrum_infeasible():
    with pytest.raises(InfeasibleParams):
        # conference-style, irrational split
        srg_spectrum(SrgParams(5, 2, 0, 1))
    with pytest.raises(ValueError):
        SrgParams(10, 3, 1, 1)  # identity k(k-l-1) = (v-k-1)mu fails


def test_bounds():
    assert hoffman_coclique_size(SrgParams(28, 12, 6, 4)) == 4
    assert hoffman_coclique_size(SrgParams(40, 27, 18, 18)) == 4
    assert hoffman_coclique_size(SrgParams(10, 3, 0, 1)) == 4
    assert delsarte_clique_size(SrgParams(15, 8, 4, 4)) == 5
    assert delsarte_clique_size(SrgParams(40, 12, 2, 4)) == 4
    assert delsarte_clique_size(SrgParams(15, 6, 1, 3)) == 3
    assert delsarte_clique_size(SrgParams(10, 3, 0, 1)) == Fraction(5, 2)


def _clique_number(g) -> int:
    """Largest clique size of g by networkx's find_cliques."""
    nx = pytest.importorskip("networkx")
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    return max(len(c) for c in nx.find_cliques(nxg))


def test_ratio_bounds_on_graphs():
    """alpha <= Hoffman's v s/(s-k) and omega <= Delsarte's 1 - k/s on real
    strongly regular graphs, alpha and omega counted by networkx.  The
    pinned rows show where each bound is attained; the Chang graphs miss
    the Delsarte bound 7 with cliques of 6, 6 and 5."""
    f2, f3 = make_field(2, 1), make_field(3, 1)
    chang = chang_graphs()
    sp = {"Sp(4,2)": symplectic_graph(f2, 2),
          "Sp(4,3)": symplectic_graph(f3, 2),
          "Sp(6,2)": symplectic_graph(f2, 3)}
    # name: (graph, alpha, Hoffman bound, omega, Delsarte bound)
    cases = {
        "T(8)": (triangular_graph(8), 4, 4, 7, 7),
        "chang1": (chang[0], 4, 4, 6, 7),
        "chang2": (chang[1], 4, 4, 6, 7),
        "chang3": (chang[2], 4, 4, 5, 7),
        "petersen": (petersen_graph(), 4, 4, 2, Fraction(5, 2)),
        "Sp(4,2)": (sp["Sp(4,2)"], 5, 5, 3, 3),
        "coSp(4,2)": (complement(sp["Sp(4,2)"]), 3, 3, 5, 5),
        "Sp(4,3)": (sp["Sp(4,3)"], 7, 10, 4, 4),
        "coSp(4,3)": (complement(sp["Sp(4,3)"]), 4, 4, 7, 10),
        "Sp(6,2)": (sp["Sp(6,2)"], 7, 9, 7, 7),
        "coSp(6,2)": (complement(sp["Sp(6,2)"]), 7, 7, 7, 9),
    }
    for name, (g, *expected) in cases.items():
        params = srg_params(g)
        alpha, omega = _clique_number(complement(g)), _clique_number(g)
        hoffman = hoffman_coclique_size(params)
        delsarte = delsarte_clique_size(params)
        assert alpha <= hoffman and omega <= delsarte, name
        assert [alpha, hoffman, omega, delsarte] == expected, name


def test_coclique_deletion_spectrum():
    spec = coclique_deletion_spectrum(SrgParams(15, 8, 4, 4), 3)
    assert spec.entries() == [(6, 1), (2, 3), (0, 2), (-2, 6)]
    spec32 = coclique_deletion_spectrum(SrgParams(40, 27, 18, 18), 4)
    assert spec32.entries() == [(24, 1), (3, 12), (0, 3), (-3, 20)]
    with pytest.raises(InfeasibleParams):
        coclique_deletion_spectrum(SrgParams(15, 8, 4, 4), 20)


@given(graphs(max_n=9))
def test_trace_identities_when_annihilated(g):
    """Whenever some integer candidate set annihilates, the multiplicities
    satisfy the first three trace identities by construction; check them
    independently."""
    candidates = list(range(-g.n, g.n + 1))
    try:
        spec = exact_spectrum(g, candidates)
    except NotAnnihilated:
        return  # irrational spectrum; out of scope for integer candidates
    assert spec.order == g.n
    assert sum(m * e for e, m in spec.entries()) == 0
    assert sum(m * e * e for e, m in spec.entries()) == 2 * g.edge_count()


def test_ddg_spectrum_matches_deletion_formula():
    for q, d in [(2, 2), (3, 2)]:
        g, partition = build(q, d, seed=4)
        params = DdgParams.from_certificate(verify_ddg(g, partition))
        spec = exact_spectrum(g, ddg_formula_spectrum(params).candidates())
        target = srg1_target_params(q, d)
        assert spec == coclique_deletion_spectrum(target, params.m)


def _reference_product(g, shifts):
    """prod (A - s I) over the shifts, in Python ints only."""
    n = g.n
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for s in shifts:
        factor = [[int(g.has_edge(i, j)) - s * (i == j) for j in range(n)]
                  for i in range(n)]
        mat = [[sum(a * b for a, b in zip(row, col)) for col in zip(*factor)]
               for row in mat]
    return mat


def _zero_test_primes(n: int, count: int) -> list[int]:
    """The first count primes of exact_spectrum's zero test on n vertices:
    the largest l with n (l - 1)^2 < 2^53."""
    top = math.isqrt((2**53 - 1) // n) + 1
    assert n * (top - 1)**2 < 2**53 <= n * top**2
    return list(itertools.islice(
        (x for x in range(top, 1, -1)
         if all(x % d for d in range(2, math.isqrt(x) + 1))), count))


def _mod(rows, ell: int) -> list[list[int]]:
    return [[x % ell for x in row] for row in rows]


def test_exact_matrix_dtype_boundary():
    """float32 below 2^24, float64 from 2^24 to 2^53 - 1; a matrix moves
    between them without changing an entry.  Nothing reaches 2^53: a
    product whose bound does goes to the modular zero test."""
    assert [_number_type(b) for b in (0, 2**24 - 1, 2**24, 2**53 - 1)] == \
        [np.float32, np.float32, np.float64, np.float64]
    adj = adjacency_matrix(petersen_graph())
    assert adj.dtype == np.float32
    exact = adj.astype(int).astype(object)
    wide = adj.astype(np.float64) * (2**53 - 1)
    assert (wide.astype(np.int64).astype(object) == exact * (2**53 - 1)).all()


@pytest.mark.parametrize("shifts, first_modular", [
    ([2**60, 3, 1, -2], 0),         # A - 2^60 I has an entry past 2^53
    ([2**30, 2**31, 3, 1, -2], 1),  # A^2 - 3 * 2^30 A + 2^61 I too
    ([0] * 40, 35),                 # A^2 A^34: 9 * 1.7e15 >= 2^53
])
def test_exact_product_tier_boundaries(shifts, first_modular):
    """Every prefix of the shifts, as paired factors, equals the Python-int
    product: in float32 or float64 before first_modular, where every
    product's bound is below 2^53, and modulo each of the zero test's first
    three primes from it on, where a float product would round."""
    g = petersen_graph()  # maximum degree 3
    a = adjacency_matrix(g)
    primes = _zero_test_primes(g.n, 3)
    for i in range(len(shifts)):
        coeffs = _factors(shifts[:i + 1], [])
        expected = _reference_product(g, shifts[:i + 1])
        a2 = _times(a, a)  # the exact product consumes it
        if i < first_modular:
            product = _product(a, a2, coeffs)
            assert product.dtype in (np.float32, np.float64)
            assert product.tolist() == expected
        else:
            for ell in primes:
                assert _product(a, a2, coeffs, ell).tolist() == \
                    _mod(expected, ell)


@pytest.mark.parametrize("edge", [24, 53])
def test_product_number_type_edges(edge):
    """(A + (2^h - 3)I)(A - tI) on Petersen, h = edge // 2: the left
    operand's row sums are 2^h and the right's largest entry is t, so the
    bound 2^h t meets 2^edge at t = 2^(edge - h) and stays below it at
    t - 1.  Below 2^24 the product runs in float32, below 2^53 in float64,
    and at 2^53 modulo the zero test's primes; each equals the Python-int
    product, modulo each prime at 2^53."""
    g = petersen_graph()
    a = adjacency_matrix(g)
    h = edge // 2
    for t in (2**(edge - h) - 1, 2**(edge - h)):
        left, right = (_factor(a, None, 0, 1, c) for c in (2**h - 3, -t))
        bound = int(np.abs(left).sum(axis=1).max() * np.abs(right).max())
        assert bound == 2**h * t
        expected = _reference_product(g, [3 - 2**h, t])
        if bound < 2**53:
            product = _times(left, right)
            assert product.dtype == _number_type(bound)
            assert product.tolist() == expected
            continue
        for ell in _zero_test_primes(g.n, 3):
            assert _product(a, None, [(0, 1, 2**h - 3), (0, 1, -t)],
                            ell).tolist() == _mod(expected, ell)


def test_work_limit(monkeypatch):
    """K_12 with every integer in [-11, 11] as a candidate: its 23 traces
    take A^2 .. A^11, 10 products of 12 x 12 matrices, and a 23 x 23 trace
    solve, 12^3 * 10 + 2^8 * 23^3 = 3132032 units of work, checked before
    the first product.  The live candidates 11 and -1 then take one
    product, 12^3 units."""
    g = complete_graph(12)
    candidates = list(range(-11, 12))
    assert 12**3 * 10 + 2**8 * 23**3 == 3132032
    for limit, ok in ((3132032, True), (3132031, False)):
        monkeypatch.setattr(spectra, "MAX_WORK", limit)
        if ok:
            spec = exact_spectrum(g, candidates)
            assert spec.nonzero() == make_spectrum([(11, 1), (-1, 11)])
        else:
            with pytest.raises(TooLarge, match="^10 products of 12 x 12 "
                               "matrices and a 23 x 23 trace solve exceed "
                               "the spectrum work limit$"):
                exact_spectrum(g, candidates)


def test_work_limit_counts_the_trace_solve(monkeypatch):
    """K_6 with every integer in [-5, 5] and sqrt(2), ..., sqrt(8): 23
    traces, 10 products of 6 x 6 matrices, 2160 units, but the trace solve
    has 23 rows and 17 unknowns, 2^8 * 23 * 17^2 = 1701632 units: the limit
    counts both."""
    g = complete_graph(6)
    ints, rads = list(range(-5, 6)), [2, 3, 5, 6, 7, 8]
    candidates = ints + [Radical(t) for t in rads]
    for limit, ok in ((1703792, True), (1703791, False), (2160, False)):
        monkeypatch.setattr(spectra, "MAX_WORK", limit)
        if ok:
            spec = exact_spectrum(g, candidates)
            assert spec.nonzero() == make_spectrum([(5, 1), (-1, 5)])
        else:
            with pytest.raises(TooLarge, match="^10 products of 6 x 6 "
                               "matrices and a 23 x 17 trace solve"):
                exact_spectrum(g, candidates)


class NonIntegralMultiplicity(Exception):
    """The reference trace solve's error for a non-integral, negative or
    undetermined multiplicity."""


def _as_count(x: Fraction, eig) -> int:
    if x.denominator != 1 or x < 0:
        raise NonIntegralMultiplicity(f"multiplicity {x} of {eig}")
    return int(x)


def _solve_exact(m: list[list[Fraction]], n_unknowns: int) -> list[Fraction]:
    """Gaussian elimination over the rationals on the augmented rows m of a
    consistent system with full column rank (possibly more rows than
    unknowns)."""
    for c in range(n_unknowns):
        pivot = next((i for i in range(c, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            raise NonIntegralMultiplicity("trace system is rank deficient")
        m[c], m[pivot] = m[pivot], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i, row in enumerate(m):
            if i != c and row[c] != 0:
                m[i] = [x - row[c] * y for x, y in zip(row, m[c])]
    if any(row[n_unknowns] for row in m[n_unknowns:]):
        raise NotAnnihilated("trace system inconsistent with candidates")
    return [row[n_unknowns] for row in m[:n_unknowns]]


def old_exact_spectrum(g, candidates):
    """exact_spectrum as it was before paired factors: one product per
    factor A - aI or A^2 - tI, and A^p = A^(p-1) A for the traces, all in
    float64 when one bound on the whole schedule is below 2^53, else all
    in Python ints, and the multiplicities from the trace system solved in
    rationals.  The reference of the oracle test below."""
    ints, rads = spectra._candidate_sets(candidates)
    n = g.n
    if n == 0:
        return spectra.Spectrum((), ())
    if not ints and not rads:
        raise NotAnnihilated("empty candidate list")
    delta = int(np.count_nonzero(g.matrix, axis=1).max())
    counts = dict.fromkeys(ints + [Radical(t) for t in rads], 0)
    missing = NotAnnihilated(f"candidates {list(counts)} do not annihilate "
                             f"the adjacency matrix")
    ints = [a for a in ints if abs(a) <= delta]
    rads = [t for t in rads if t <= delta * delta]
    eigs = ints + [Radical(t) for t in rads]
    if not eigs:
        raise missing
    rows = len(ints) + 2 * len(rads)
    top = max(rows // 2, 2 if rads else 1)
    bound = max(math.prod(delta + abs(a) for a in ints) *
                math.prod(delta * delta + t for t in rads),
                delta ** top, n * delta ** (rows - 1))
    adj = g.matrix.astype(np.float64 if bound < 1 << 53 else object)
    powers = [adj if bound < 1 << 53 else adj.astype(int).astype(object)]
    while len(powers) < top:
        powers.append(powers[-1] @ powers[0])
    product = None
    for p, shift in [(1, a) for a in ints] + [(2, t) for t in rads]:
        factor = powers[p - 1].copy()
        factor[np.diag_indices_from(factor)] -= shift
        product = factor if product is None else product @ factor
    if np.any(product):
        raise missing
    traces = [n, 0][:rows] + [int(np.vdot(powers[s // 2 - 1],
                                          powers[s - s // 2 - 1]))
                              for s in range(2, rows)]
    system = [[Fraction(a**s) for a in ints] +
              [Fraction(0 if s % 2 else 2 * t ** (s // 2)) for t in rads] +
              [Fraction(trace)]
              for s, trace in enumerate(traces)]
    for x, e in zip(_solve_exact(system, len(eigs)), eigs):
        counts[e] = _as_count(x, e)
    return make_spectrum((x, m) for e, m in counts.items() for x in (
        (e, -e) if isinstance(e, Radical) else (e,)))


@st.composite
def _regular_graphs(draw):
    """A circulant graph on n vertices, regular of degree |S| for its
    offsets S, or two disjoint copies of one (regular but disconnected)."""
    n = draw(st.integers(2, 10))
    offsets = draw(st.sets(st.integers(1, n // 2), max_size=n // 2))
    m = np.zeros((n, n), bool)
    for i in range(n):
        for s in offsets:
            m[i, (i + s) % n] = m[(i + s) % n, i] = True
    if draw(st.booleans()):
        m = np.kron(np.eye(2, dtype=bool), m)
    return Graph(m)


_SMALL_RADICALS = st.builds(Radical, st.sampled_from([2, 3, 5, 6, 7, 8, 12]),
                            st.booleans())


@given(st.one_of(graphs(max_n=9), _regular_graphs()),
       st.one_of(st.lists(st.one_of(st.integers(-6, 6), _SMALL_RADICALS),
                          max_size=8),
                 st.just("all")))
def test_exact_spectrum_matches_the_old_chain(g, candidates):
    """On regular and irregular graphs, with integer and radical
    candidates, exact_spectrum returns what the old chain returns, or
    raises the same error.  "all" stands for every integer within the
    degree bound and a few radicals, which annihilates every graph whose
    eigenvalues are integers or +-sqrt(t) for t among them."""
    if candidates == "all":
        delta = max(g.degree(v) for v in range(g.n)) if g.n else 0
        candidates = [*range(-delta, delta + 1), Radical(2), Radical(3),
                      Radical(5)]

    def outcome(spectrum):
        try:
            return spectrum(g, candidates)
        except (NotAnnihilated, NonIntegralMultiplicity) as e:
            return type(e), str(e)
    assert outcome(exact_spectrum) == outcome(old_exact_spectrum)


def _two_petersens():
    m = np.zeros((20, 20), bool)
    m[:10, :10] = m[10:, 10:] = petersen_graph().matrix
    return Graph(m)


def test_degree_factor_fallback_on_a_disconnected_graph():
    """Two disjoint Petersen graphs: regular of degree 3, but the product
    of the other factors, (A - I)(A + 2I), is J on each component and 0
    between them, not constant, so the degree factor is multiplied in."""
    g = _two_petersens()
    assert exact_spectrum(g, [3, 1, -2]).entries() == [(3, 2), (1, 10),
                                                        (-2, 8)]
    with pytest.raises(NotAnnihilated):
        exact_spectrum(g, [3, 1])


def test_traces_exact_past_float32():
    """K_300: n Delta^3 = 300 * 299^3 >= 2^24, so float32 sums could not
    hold tr A^3 or tr A^4; they are 299^s + 299 (-1)^s, tr A^4 past P, so
    it comes out mod P."""
    g = complete_graph(300)
    assert 300 * 299**3 >= 2**24 and 299**4 > P
    a = adjacency_matrix(g)
    traces = _traces(a, _times(a, a), 5)
    assert traces == [(299**s + 299 * (-1)**s) % P for s in range(5)]
    spec = exact_spectrum(g, [299, -1, 0, 1, 2])
    assert spec.nonzero() == make_spectrum([(299, 1), (-1, 299)])


def test_exact_spectrum_with_huge_candidates():
    pet = petersen_graph()
    expected = exact_spectrum(pet, [3, 1, -2])
    for extra in ([2**60], [2**30, 2**31], [Radical(2**61 + 1)],
                  list(range(-20, 21))):
        spec = exact_spectrum(pet, extra + [3, 1, -2])
        assert spec.nonzero() == expected
        with pytest.raises(NotAnnihilated):
            exact_spectrum(pet, [e for e in extra if e != -2] + [3, 1])


def _oracle_graphs():
    """Graphs of at most 40 vertices with candidate eigenvalue lists."""
    def srg(params):
        return [e for e, _ in srg_spectrum(params).entries()]

    yield from_edges(4, [(0, 1), (0, 2), (0, 3)]), [0, Radical(3)]
    yield petersen_graph(), srg(SrgParams(10, 3, 0, 1))
    for g in (triangular_graph(8), *chang_graphs()):
        yield g, srg(SrgParams(28, 12, 6, 4))
    for q, d in [(2, 2), (3, 2)]:
        g, partition = build(q, d, seed=1)
        params = DdgParams.from_certificate(verify_ddg(g, partition))
        yield g, ddg_formula_spectrum(params).candidates()
        yield srg1(q, d, seed=1)[0], srg(srg1_target_params(q, d))


def test_exact_spectrum_matches_sympy_charpoly():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for g, candidates in _oracle_graphs():
        spec = exact_spectrum(g, candidates)
        charpoly = sympy.Matrix(g.n, g.n,
                                lambda i, j: int(g.has_edge(i, j))).charpoly(x)
        expected = sympy.prod(
            (x - (e if isinstance(e, int) else
                  (-1 if e.negative else 1) * sympy.sqrt(e.radicand))) ** m
            for e, m in spec.entries())
        assert charpoly.all_coeffs() == sympy.Poly(expected, x).all_coeffs()


_RADICALS = st.builds(Radical, st.integers(2, 400).filter(
    lambda t: math.isqrt(t) ** 2 != t), st.booleans())


@given(st.lists(st.one_of(st.integers(-40, 40), _RADICALS), max_size=12))
def test_make_spectrum_order_matches_sympy(values):
    sympy = pytest.importorskip("sympy")

    def exact(e):
        if isinstance(e, int):
            return sympy.Integer(e)
        root = sympy.sqrt(e.radicand)
        return -root if e.negative else root

    spec = make_spectrum([(e, 1) for e in values])
    assert set(spec.eigenvalues) == set(values)
    for a, b in zip(spec.eigenvalues, spec.eigenvalues[1:]):
        assert bool(exact(a) > exact(b)), (a, b)


class _CountedMatrix(np.ndarray):
    """An array that counts the matrix products it, or any array computed
    from it, takes part in."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountedMatrix.products += 1

        def plain(xs):
            return tuple(x.view(np.ndarray) if isinstance(x, _CountedMatrix)
                         else x for x in xs)

        if "out" in kwargs:
            kwargs["out"] = plain(kwargs["out"])
        result = getattr(ufunc, method)(*plain(inputs), **kwargs)
        return result.view(_CountedMatrix) if type(result) is np.ndarray \
            else result


def test_spectrum_product_count(monkeypatch):
    """An SRG spectrum {k, r, s} takes 1 n x n product: A^2, from which
    A^2 - (r + s)A + rs I = mu J is built, constant, so the degree factor
    A - kI is never multiplied in; tr A^2 is the number of nonzero entries.
    The (2,2) glued DDG's formula spectrum {k, theta, -theta, 0} takes 2:
    A^2, then A (A^2 - theta^2 I); tr A^3 is read off A and A^2.  The
    disconnected two Petersen graphs take the degree factor too: 2."""
    monkeypatch.setattr(spectra, "adjacency_matrix",
                        lambda g: adjacency_matrix(g).view(_CountedMatrix))
    ddg, partition = build(2, 2, seed=0)
    params = DdgParams.from_certificate(verify_ddg(ddg, partition))
    srg_candidates = [e for e, _ in
                      srg_spectrum(SrgParams(28, 12, 6, 4)).entries()]
    for g, candidates, products in (
            (triangular_graph(8), srg_candidates, 1),
            (ddg, ddg_formula_spectrum(params).candidates(), 2),
            (_two_petersens(), [3, 1, -2], 2)):
        _CountedMatrix.products = 0
        spec = exact_spectrum(g, candidates)
        assert _CountedMatrix.products == products
        assert spec.order == g.n


def _times_ref(x, y):
    """Product of two matrices given as lists of Python-int rows."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)]
            for row in x]


def test_exact_product_first_factor_tiers():
    """A first factor with an entry of 2^53 or more, which float64 would
    round, is built from its coefficients modulo each prime of the zero
    test: A - (2^60 + 1) I, paired with the next shift into A^2 -
    (2^60 + 4)A + 3 (2^60 + 1) I, and A^2 - (2^61 + 1) I as the only
    radical factor.  Each product equals the Python-int one mod each
    prime."""
    g = petersen_graph()
    a = [[int(g.has_edge(i, j)) for j in range(g.n)] for i in range(g.n)]

    def minus(mat, t):
        return [[x - t * (i == j) for j, x in enumerate(row)]
                for i, row in enumerate(mat)]

    a_sq = _times_ref(a, a)
    adj = adjacency_matrix(g)
    adj2 = _times(adj, adj)
    for ints, rads in (([2**60 + 1], []), ([], [2**61 + 1])):
        for step in range(4):
            live = ints + [3, 1, -2][:step]
            factors = [minus(a, s) for s in live] + \
                [minus(a_sq, t) for t in rads]
            assert max(abs(x) for f in factors for row in f for x in row) \
                >= 2**53
            expected = factors[0]
            for factor in factors[1:]:
                expected = _times_ref(expected, factor)
            for ell in _zero_test_primes(g.n, 3):
                assert _product(adj, adj2, _factors(live, rads),
                                ell).tolist() == _mod(expected, ell), step

    pet = exact_spectrum(g, [3, 1, -2])
    assert exact_spectrum(g, [2**60 + 1, 3, 1, -2]).nonzero() == pet
    with pytest.raises(NotAnnihilated):
        exact_spectrum(g, [Radical(2**61 + 1)])


def test_traces_match_python_ints(monkeypatch):
    """tr(A^s) of the Petersen graph for s <= 40 mod P against a Python-int
    reference: 10 * 3^s passes P from s = 17 and 2^53 from s = 32, so the
    residues of the powers and the sums mod P both matter.  The 41 traces
    take A^2 .. A^20, 19 products: A^2 from the caller, 18 in _traces."""
    assert 10 * 3**16 < P < 10 * 3**17 and 10 * 3**31 < 2**53 <= 10 * 3**32
    g = petersen_graph()
    a = [[int(g.has_edge(i, j)) for j in range(g.n)] for i in range(g.n)]
    power = [[int(i == j) for j in range(g.n)] for i in range(g.n)]
    expected = []
    for _ in range(41):
        expected.append(sum(power[i][i] for i in range(g.n)) % P)
        power = _times_ref(power, a)
    products = []

    def times(left, right):
        products.append(right)
        return _times(left, right)

    adj = adjacency_matrix(g)
    adj2 = _times(adj, adj)
    monkeypatch.setattr(spectra, "_times", times)
    assert _traces(adj, adj2, 41) == expected
    assert len(products) == 18


def test_spectrum_holds_two_or_three_arrays():
    """The module's memory claim, traced on the second call in a process:
    s(3,3)'s SRG spectrum peaks at about two n x n float32 arrays, A and
    A^2, whose buffer takes the factor A^2 - (r + s)A + rs I; d(3,3)'s
    formula spectrum at about three, with the product A (A^2 - theta1^2 I).
    Without the in-place factor each would hold one array more."""
    ddg, partition = build(3, 3, seed=0)
    params = DdgParams.from_certificate(verify_ddg(ddg, partition))
    srg = srg1(3, 3, seed=0)[0]
    for g, candidates, arrays in (
            (srg, [e for e, _ in srg_spectrum(srg1_target_params(3, 3))
                   .entries()], 2.1),
            (ddg, ddg_formula_spectrum(params).candidates(), 3.1)):
        exact_spectrum(g, candidates)
        tracemalloc.start()
        try:
            exact_spectrum(g, candidates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * 4 * g.n ** 2, peak / (4 * g.n ** 2)


@pytest.mark.parametrize("q, d", [(2, 3), (3, 2), (4, 2), (2, 4), (3, 3),
                                  (2, 5), (4, 3)])
def test_benchmark_ladder_runs_in_float32(q, d, monkeypatch):
    """`spectrum --ddg` and `--srg` on the gen-ddg and gen-srg1 outputs of
    every rung of the ladder: the DDG's takes 2 products, the SRG's 1, all
    in float32.  The DDG's last trace, tr A^3 <= n k^3, is summed in
    float64; the SRG's traces need no sum."""
    dtypes = []

    def times(left, right):
        product = _times(left, right)
        dtypes.append(product.dtype)
        return product

    ddg, partition = build(q, d, seed=0)
    params = DdgParams.from_certificate(verify_ddg(ddg, partition))
    assert params.v * params.k ** 3 < 2**53
    srg = srg1(q, d, seed=0)[0]
    monkeypatch.setattr(spectra, "_times", times)
    for g, candidates, count in (
            (ddg, ddg_formula_spectrum(params).candidates(), 2),
            (srg, [e for e, _ in srg_spectrum(srg1_target_params(q, d))
                   .entries()], 1)):
        dtypes.clear()
        assert exact_spectrum(g, candidates).order == g.n
        assert dtypes == [np.float32] * count


def _complete_product(*orders):
    """The Cartesian product K_a x K_b x ... and its spectrum: the sums of
    one eigenvalue of each factor, k - 1 once or -1 k - 1 times."""
    m = np.zeros((1, 1), bool)
    for k in orders:
        m = np.kron(m, np.eye(k, dtype=bool)) | \
            np.kron(np.eye(len(m), dtype=bool), ~np.eye(k, dtype=bool))
    spectrum = make_spectrum(
        (sum(e for e, _ in choice), math.prod(m for _, m in choice))
        for choice in itertools.product(*[((k - 1, 1), (-1, k - 1))
                                          for k in orders]))
    return Graph(m), spectrum


def test_modular_zero_test_on_a_product_of_complete_graphs(monkeypatch):
    """K3 x K4 x K5 x K7, 420 vertices of degree 15, with its 14 distinct
    eigenvalues: the product of its 7 paired factors and A - 15 I is
    bounded by 2^61 or more, so it is zero-tested modulo primes below
    2^22.2, three of them, 24 products of 420 x 420 matrices.  Dropping a
    live eigenvalue raises NotAnnihilated; so does a work limit that
    admits the traces and the solve but not the zero test."""
    g, spectrum = _complete_product(3, 4, 5, 7)
    eigs = list(spectrum.eigenvalues)
    primes = []

    def product(a, a2, coeffs, ell=0):
        primes.append(ell)
        return _product(a, a2, coeffs, ell)

    monkeypatch.setattr(spectra, "_product", product)
    assert exact_spectrum(g, eigs) == spectrum
    assert primes == _zero_test_primes(g.n, 3)
    assert math.prod(primes) > 2**61
    for dropped in (12, -4):
        with pytest.raises(NotAnnihilated, match="do not annihilate"):
            exact_spectrum(g, [e for e in eigs if e != dropped])
        # the trace solve refuses them: no modular product, the only kind
        # past their bounds of 2^57 and 2^58
        assert primes == _zero_test_primes(g.n, 3)
    monkeypatch.setattr(spectra, "MAX_WORK", 10**9)
    assert 420**3 * 6 + 2**8 * 14**3 < 10**9 < 420**3 * 24
    with pytest.raises(TooLarge, match="^24 products of 420 x 420 matrices "
                       "exceed the spectrum work limit$"):
        exact_spectrum(g, eigs)


def test_modular_zero_test_refuses_a_missing_eigenvalue(monkeypatch):
    """The factors of the integer eigenvalues of K3 x K4 x K5 x K7 but 12,
    padded with the non-eigenvalues 2 and 9, do not annihilate A: their
    bound passes 2^53, and the product modulo the first prime of the zero
    test is already nonzero."""
    g, spectrum = _complete_product(3, 4, 5, 7)
    ints = [e for e in spectrum.eigenvalues if e != 12] + [2, 9]
    coeffs = _factors(ints, [])
    assert math.prod(c2 * 15**2 + abs(c1) * 15 + abs(c0)
                     for c2, c1, c0 in coeffs) >= 2**53
    primes = []

    def product(a, a2, coeffs, ell=0):
        primes.append(ell)
        return _product(a, a2, coeffs, ell)

    monkeypatch.setattr(spectra, "_product", product)
    a = adjacency_matrix(g)
    assert not _annihilates(a, _times(a, a), 15, coeffs, False)
    assert primes == _zero_test_primes(g.n, 1)


def test_exact_spectrum_vertex_limit():
    """P is prime, and P > n and P > Delta^2 hold up to 4096 vertices, the
    limit of every graph this package builds, with the float64 bounds
    Delta P and n^2 P below 2^53; a larger graph is refused before any
    product."""
    assert all(P % d for d in range(2, math.isqrt(P) + 1))
    assert 4096 < 4095**2 < P and 4096**2 * P < 2**53
    assert exact_spectrum(empty_graph(4096), [0]).entries() == [(0, 4096)]
    with pytest.raises(TooLarge, match="4097 vertices, over the 4096-vertex"):
        exact_spectrum(empty_graph(4097), [0])


def test_failed_solve_raises_before_any_product(monkeypatch):
    """On Petersen, 3 and 1 solve to -5 and 15, and -5 comes out as P - 5,
    above n; 3, 1 and +-sqrt(2) leave the system inconsistent mod P.  Both
    raise NotAnnihilated before the annihilating product is formed."""
    def no_product(*args):
        raise AssertionError("annihilating product formed")

    monkeypatch.setattr(spectra, "_annihilates", no_product)
    for candidates in ([3, 1], [3, 1, Radical(2)]):
        with pytest.raises(NotAnnihilated, match="do not annihilate"):
            exact_spectrum(petersen_graph(), candidates)


# ---------------------------------------------------------------------------
# spectra read from passing certificates


def _formula_candidates(cert):
    """The candidates the gen commands gave exact_spectrum before they read
    the spectrum from the certificate."""
    if cert.kind == "srg":
        return [e for e, _ in
                srg_spectrum(SrgParams.from_certificate(cert)).entries()]
    return ddg_formula_spectrum(DdgParams.from_certificate(cert)).candidates()


def _assert_certified_equals_exact(g, cert, partition=None):
    """The spectrum a passing certificate fixes, as gen-srg1 (SRG) and
    gen-ddg (DDG) read it, against exact_spectrum's."""
    assert cert.passed
    spec = (srg_spectrum(SrgParams.from_certificate(cert))
            if cert.kind == "srg" else certified_spectrum(cert, g, partition))
    assert spec.serialize() == \
        exact_spectrum(g, _formula_candidates(cert)).serialize()
    return spec


@pytest.mark.parametrize("q, d", [(2, 2), (2, 3), (3, 2), (4, 2), (2, 4),
                                  (3, 3), (2, 5), (4, 3), (2, 6)])
def test_certified_spectrum_equals_exact_spectrum(q, d):
    """On every ladder rung, the spectra that the certificates of d(q, d)
    (gen-ddg --seed 0: cyclic quasigroup, family seed 1) and s(q, d)
    (gen-srg1 --seed 0) fix serialize as exact_spectrum's, zero
    multiplicities included; at (2, 6), 4095 vertices, s(2, 6) alone.  On
    the ladder k^2 = lambda2 v, so theta2 = 0 and tr A splits +-theta1."""
    if d < 6:
        ddg, partition = build(q, d, seed=1)
        _assert_certified_equals_exact(ddg, verify_ddg(ddg, partition),
                                       partition)
    srg = srg1(q, d, seed=0)[0]
    _assert_certified_equals_exact(srg, verify_srg(srg))


def _hoffman_ddg(index: int = 0):
    """The DDG construct_ddg_hoffman fills in on T(8) from its Hoffman
    coloring number index, with the coloring."""
    base = triangular_graph(8)
    colorings = hoffman_colorings(base)
    coloring = next(itertools.islice(colorings, index, None))
    return construct_ddg_hoffman(base, coloring, colorings.params)


@pytest.mark.parametrize("index", [0, 1, 2500, 6239])
def test_certified_spectrum_splits_hoffman_ddgs_by_tr_a3(index):
    """The T(8) Hoffman DDGs, (28, 15, 6, 8, 7, 4), have theta1 = 3 and
    theta2 = 1 (k^2 - lambda2 v = 1, k - lambda1 = 9), two nonzero integer
    magnitudes: tr A = 0 and tr A^3 = 2(6 e_in + 8 e_out) = 3192 split
    them into {15, 3^7, 1^6, -3^14}, -1 kept at multiplicity 0, as
    exact_spectrum finds."""
    g, partition = _hoffman_ddg(index)
    cert = verify_ddg(g, partition)
    assert DdgParams.from_certificate(cert).as_tuple() == (28, 15, 6, 8, 7, 4)
    spec = _assert_certified_equals_exact(g, cert, partition)
    assert spec.entries() == [(15, 1), (3, 7), (1, 6), (-1, 0), (-3, 14)]


def _cayley_ddgs(v: int):
    """(graph, partition, certificate) of every Cayley graph on Z_v, with
    the cosets of a proper nontrivial subgroup as classes, that
    verify_ddg passes."""
    inverse_pairs = [sorted({s, v - s}) for s in range(1, v // 2 + 1)]
    for size in range(1, len(inverse_pairs) + 1):
        for chosen in itertools.combinations(inverse_pairs, size):
            jumps = [s for pair in chosen for s in pair]
            g = from_edges(v, [(x, (x + s) % v) for x in range(v)
                               for s in jumps])
            for n in (n for n in range(2, v) if v % n == 0):
                partition = VertexPartition.from_lists(
                    v, [range(c, v, v // n) for c in range(v // n)])
                cert = verify_ddg(g, partition)
                if cert.passed:
                    yield g, partition, cert


def test_certified_spectrum_on_cayley_ddgs():
    """Every DDG among the Cayley graphs on Z_v, v <= 12, with coset
    classes: pooled magnitudes (lambda1 = lambda2), a zero magnitude, two
    nonzero integer ones split by tr A^3, and an irrational pair, each
    against exact_spectrum."""
    shapes = set()
    for v in range(4, 13):
        for g, partition, cert in _cayley_ddgs(v):
            _assert_certified_equals_exact(g, cert, partition)
            formula = ddg_formula_spectrum(DdgParams.from_certificate(cert))
            thetas = (formula.theta1, formula.theta2)
            shapes.add("pooled" if thetas[0] == thetas[1] else
                       "zero" if 0 in thetas else
                       "radical" if Radical in map(type, thetas) else "two")
    assert shapes == {"pooled", "zero", "two", "radical"}


@pytest.mark.parametrize("tamper, message", [
    ({"lambda1": 5}, "tr A = 0 split the 9 eigenvalues +-1 with excess -6"),
    ({"m": 12, "n": 1}, "tr A = 0 split the 0 eigenvalues +-2 with "
                        "excess -3"),
    ({"lambda1": 6}, "tr A = 0, but no integer pair offsets k"),
])
def test_certified_spectrum_refuses_a_tampered_certificate(tamper, message):
    """A certificate of d(2, 2), (12, 6, 2, 3, 3, 4), with theta1 = 2 and
    theta2 = 0, tampered so that tr A = 0 gives +-theta1 an odd split, a
    split past its total, or no integer pair at all: InfeasibleParams
    naming the trace."""
    ddg, partition = build(2, 2, seed=1)
    cert = verify_ddg(ddg, partition)
    bad = certificate("ddg", {**cert.parameters, **tamper})
    with pytest.raises(InfeasibleParams) as info:
        certified_spectrum(bad, ddg, partition)
    assert str(info.value) == message


def test_certified_spectrum_refuses_a_tampered_e_in():
    """On a T(8) Hoffman DDG, classes with one vertex swapped between the
    first two change e_in, and with it tr A^3 from 3192: the split of
    +-3 is no longer an integer of the parity of 21, InfeasibleParams
    naming both traces."""
    g, partition = _hoffman_ddg()
    cert = verify_ddg(g, partition)
    classes = [list(c) for c in partition.classes]
    classes[0][0], classes[1][0] = classes[1][0], classes[0][0]
    swapped = VertexPartition.from_lists(g.n, classes)
    with pytest.raises(InfeasibleParams,
                       match=r"^tr A = 0 and tr A\^3 = \d+ split the 21 "
                             r"eigenvalues \+-3 with excess"):
        certified_spectrum(cert, g, swapped)
