"""SRG verification, coclique attachment, switching, Hoffman chains."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import rows_graph
from srgforge import graphs, srg
from srgforge.cli import main
from srgforge.graphs import first_bad_pair
from srgforge import (as_prime_power, canonical_form, chang_graphs,
                      ClassBlockMap, complement, complete_multipartite,
                      construct_ddg_hoffman, construct_srg1, construct_srg2,
                      count_classes, cyclic_quasigroup, ddg_formula_spectrum,
                      DdgParams, empty_graph, exact_spectrum, fano_plane,
                      Graph, find_hoffman_coloring, hoffman_colorings,
                      make_field, make_spectrum, NotSrg, path_graph,
                      petersen_graph, PreconditionFailed,
                      projective_complement_design, random_left_quasigroup,
                      seidel_switch, ShapeMismatch, Srg2Config,
                      srg1_target_params, srg2_condition, SrgParams,
                      theorem1_params, triangular_graph, verify_ddg,
                      verify_srg, verify_srg1_cases, verify_symmetric,
                      VertexPartition)
from test_ddg import build
from test_pair_kernel import _two_switched


def srg1(q, d, seed=0, phi=None):
    g, partition = build(q, d, seed=seed)
    field = make_field(*as_prime_power(q))
    design = projective_complement_design(field, d)
    m = len(partition.classes)
    return construct_srg1(g, partition, design,
                          phi or ClassBlockMap.identity(m)), partition, design


def test_verify_srg_named():
    for g, params in [(triangular_graph(6), (15, 8, 4, 4)),
                      (triangular_graph(8), (28, 12, 6, 4)),
                      (petersen_graph(), (10, 3, 0, 1)),
                      (complement(petersen_graph()), (10, 6, 3, 4))]:
        cert = verify_srg(g)
        assert cert.passed
        assert SrgParams.from_certificate(cert).as_tuple() == params


def test_verify_srg_rejects_path():
    assert not verify_srg(path_graph(4)).passed


def test_triangular_graph():
    assert canonical_form(triangular_graph(5)).graph6 == \
        canonical_form(complement(petersen_graph())).graph6
    with pytest.raises(ValueError):
        triangular_graph(3)


def test_seidel_switch_involution():
    t8 = triangular_graph(8)
    assert seidel_switch(seidel_switch(t8, (0, 3, 7)), (0, 3, 7)) == t8
    assert seidel_switch(t8, ()) == t8


@given(st.sets(st.integers(min_value=0, max_value=27), max_size=10))
def test_seidel_switch_involution_random(vertices):
    t8 = triangular_graph(8)
    vs = tuple(sorted(vertices))
    assert seidel_switch(seidel_switch(t8, vs), vs) == t8


def test_chang_graphs_distinct():
    t8 = triangular_graph(8)
    all_four = [t8] + list(chang_graphs())
    for g in all_four:
        cert = verify_srg(g)
        assert cert.passed
        assert SrgParams.from_certificate(cert).as_tuple() == (28, 12, 6, 4)
    assert len(count_classes(all_four)) == 4


def test_srg1_target_params():
    assert srg1_target_params(2, 2).as_tuple() == (15, 8, 4, 4)
    assert srg1_target_params(3, 2).as_tuple() == (40, 27, 18, 18)
    assert srg1_target_params(2, 3).as_tuple() == (63, 32, 16, 16)


@pytest.mark.parametrize("q,d", [(2, 2), (3, 2), (2, 3)])
def test_construct_srg1_verifies(q, d):
    g, partition, design = srg1(q, d, seed=3)
    cert = verify_srg(g)
    assert cert.passed
    assert SrgParams.from_certificate(cert) == srg1_target_params(q, d)
    cases = verify_srg1_cases(g, partition, design)
    assert cases.passed, cases.witnesses
    target = q ** (2 * d - 2) * (q - 1)
    for key in ("same_class", "cross_class", "attached", "mixed"):
        assert cases.parameters[key] == target


def test_srg1_nonidentity_phi():
    phi = ClassBlockMap((2, 3, 0, 1))
    g, partition, design = srg1(3, 2, seed=6, phi=phi)
    assert verify_srg(g).passed
    assert verify_srg1_cases(g, partition, design).passed


@pytest.mark.parametrize("q,d", [(2, 2), (3, 2), (2, 3), (4, 2)])
def test_passing_srg1_verifiers_imply_the_ddg_precondition(q, d):
    """gen-srg1 skips construct_srg1's preconditions when verify_srg and
    the coclique audit pass (cli.cmd_gen_srg1 has the proof): on every
    attachment they pass, verify_ddg passes on its DDG with Theorem 1's
    parameters, over seeds, both quasigroup sources and a non-identity
    phi; one degree-keeping 2-switch of the DDG fails the DDG and one of
    the two."""
    design = projective_complement_design(make_field(*as_prime_power(q)), d)
    m = design.n_points
    phis = (ClassBlockMap.identity(m), ClassBlockMap((*range(1, m), 0)))
    for seed in range(3):
        for qg in (cyclic_quasigroup(m), random_left_quasigroup(m, seed)):
            g, partition = build(q, d, seed, qg)
            switched = _two_switched(g, seed, 1)
            assert not verify_ddg(switched, partition).passed
            for phi in phis:
                for ddg_g in (g, switched):
                    s = srg.attach_coclique(ddg_g, partition, design, phi)
                    cert = verify_srg(s)
                    if cert.passed and verify_srg1_cases(
                            s, partition, design, cert).passed:
                        assert ddg_g is g
                        ddg_cert = verify_ddg(g, partition)
                        assert ddg_cert.passed
                        assert DdgParams.from_certificate(ddg_cert) == \
                            theorem1_params(q, d)
                    else:
                        assert ddg_g is switched


def test_srg1_attachment_structure():
    g, partition, design = srg1(2, 2)
    n_base = 12
    attached = range(n_base, g.n)
    for y in attached:
        for z in attached:
            if y != z:
                assert not g.has_edge(y, z)  # attached points: coclique
    for i, cls in enumerate(partition.classes):
        block = design.blocks[i]  # identity map: class i gets block i
        for x in cls:
            hits = {y - n_base for y in attached if g.has_edge(x, y)}
            assert hits == set(block)


def test_class_block_map_validation():
    with pytest.raises(ValueError):
        ClassBlockMap((0, 0, 1))
    assert ClassBlockMap.identity(3).mapping == (0, 1, 2)


def test_construct_srg1_rejects_bad_input():
    g, partition = build(2, 2)
    with pytest.raises(ShapeMismatch):
        construct_srg1(g, partition, fano_plane(), ClassBlockMap.identity(3))
    # shapes agree (5 classes, 5 design points) but Petersen is not a DDG
    pet = petersen_graph()
    part = VertexPartition.from_lists(10, [[0, 1], [2, 3], [4, 5], [6, 7],
                                           [8, 9]])
    design5 = projective_complement_design(make_field(2, 2), 2)
    assert design5.n_points == 5
    with pytest.raises(PreconditionFailed):
        construct_srg1(pet, part, design5, ClassBlockMap.identity(5))
    design3 = projective_complement_design(make_field(2, 1), 2)
    with pytest.raises(ShapeMismatch, match="block map covers 4 classes, "
                       "need 3"):
        construct_srg1(g, partition, design3, ClassBlockMap.identity(4))


def test_construct_srg1_refuses_a_ddg_outside_the_glued_family():
    """K_{7x2}, with its 7 pairs as classes, is a DDG with 7 classes, as
    many as the Fano plane has points, but (14, 12, 12, 10, 7, 2) is no
    glued-design parameter set; the audit of the attached graph finds no
    (q, d) for 7 classes of 2 vertices."""
    g = complete_multipartite(*[2] * 7)
    partition = VertexPartition.from_lists(
        14, [[2 * i, 2 * i + 1] for i in range(7)])
    assert verify_ddg(g, partition).passed
    with pytest.raises(PreconditionFailed, match=r"parameters \(14, 12, "
                       r"12, 10, 7, 2\) are not of the glued-design form"):
        construct_srg1(g, partition, fano_plane(), ClassBlockMap.identity(7))
    cert = verify_srg1_cases(empty_graph(21), partition, fano_plane())
    assert cert.witnesses == ({"check": "shape", "m": 7, "n": 2},)
    # 7 classes of 36 = 6^2 read as q = 6, d = 2, which is no prime power
    g = complete_multipartite(*[36] * 7)
    partition = VertexPartition.from_lists(
        252, [range(36 * i, 36 * i + 36) for i in range(7)])
    with pytest.raises(PreconditionFailed, match=r"parameters \(252, 216, "
                       r"216, 180, 7, 36\) are not of the glued-design form"):
        construct_srg1(g, partition, fano_plane(), ClassBlockMap.identity(7))


def test_construct_srg1_checks_its_design():
    g, partition = build(2, 3)
    design = projective_complement_design(make_field(2, 1), 3)
    phi = ClassBlockMap.identity(design.n_points)
    # a block point past the 7 design points, and a repeated block: both
    # keep the shapes, so only the design axioms catch them
    for block0 in ((0, 1, 2, 9), design.blocks[1]):
        bad = dataclasses.replace(design,
                                  blocks=(block0,) + design.blocks[1:])
        assert not verify_symmetric(bad).passed
        with pytest.raises(PreconditionFailed, match="design axioms"):
            construct_srg1(g, partition, bad, phi)


def test_verify_srg1_cases_detects_tampering():
    g, partition, design = srg1(2, 2)
    rows = list(g.rows)
    # remove one cross-class edge
    u = 0
    w = next(x for x in g.neighbours(u) if x >= 4 and x < 12)
    rows[u] &= ~(1 << w)
    rows[w] &= ~(1 << u)
    broken = rows_graph(g.n, rows)
    assert not verify_srg1_cases(broken, partition, design).passed


def _count_whole_matrix_passes(monkeypatch, n: int) -> list:
    """Record every first_bad_pair pass over an n x n matrix, whether
    verify_srg (through pair_witness) or verify_srg1_cases runs it."""
    passes = []

    def counted(m, strata, values):
        if m.shape == (n, n):
            passes.append(m.shape)
        return first_bad_pair(m, strata, values)
    monkeypatch.setattr(graphs, "first_bad_pair", counted)
    monkeypatch.setattr(srg, "first_bad_pair", counted)
    return passes


def test_gen_srg1_counts_each_pair_once(tmp_path, monkeypatch):
    """A passing gen-srg1 makes one whole-matrix pass: verify_srg's
    lambda = mu = q^{2d-2}(q-1) settles verify_srg1_cases's totals.  Where
    verify_srg fails, the total pass still runs and names the same
    witness as it does without the certificate."""
    monkeypatch.chdir(tmp_path)
    passes = _count_whole_matrix_passes(monkeypatch, 63)
    assert main(["gen-srg1", "--q", "2", "--d", "3", "--seed", "0",
                 "--out", "s23"]) == 0
    assert len(passes) == 1

    g, partition, design = srg1(2, 2)
    m = g.matrix.copy()
    w = int(np.flatnonzero(m[0, 4:12])[0]) + 4  # a cross-class edge
    m[0, w] = m[w, 0] = False
    broken = Graph(m)
    cert = verify_srg(broken)
    assert cert.witnesses[0]["check"] == "regular"
    passes = _count_whole_matrix_passes(monkeypatch, g.n)
    cases = verify_srg1_cases(broken, partition, design, cert)
    assert len(passes) == 1
    assert cases == verify_srg1_cases(broken, partition, design)
    assert not cases.passed


def test_verify_srg1_cases_empty_partition_is_a_shape_witness():
    cert = verify_srg1_cases(empty_graph(7), VertexPartition(0, ()),
                             fano_plane())
    assert not cert.passed
    assert cert.witnesses == ({"check": "shape", "graph_n": 7, "classes": 0,
                               "design_points": 7},)


def test_hoffman_colorings_t8():
    t8 = triangular_graph(8)
    first = find_hoffman_coloring(t8)
    assert first is not None
    assert len(first.classes) == 7
    assert all(len(c) == 4 for c in first.classes)
    for cls in first.classes:
        for a, b in itertools.combinations(cls, 2):
            assert not t8.has_edge(a, b)
    # deterministic: repeated enumeration starts at the same coloring
    assert next(iter(hoffman_colorings(t8))).classes == first.classes
    # matchings of K8 resolve into 6240 one-factorizations
    colorings = hoffman_colorings(t8)
    assert colorings.params == SrgParams(28, 12, 6, 4)
    assert sum(1 for _ in colorings) == 6240
    assert sum(1 for _ in colorings) == 6240  # each iteration searches anew


def test_hoffman_coloring_absent_or_small():
    assert find_hoffman_coloring(petersen_graph()) is None
    # parts of K_{2,2,2} are its only independent pairs
    octa = complete_multipartite(2, 2, 2)
    col = find_hoffman_coloring(octa)
    assert col is not None
    assert sorted(map(tuple, col.classes)) == [(0, 1), (2, 3), (4, 5)]
    with pytest.raises(NotSrg):
        find_hoffman_coloring(path_graph(5))
    with pytest.raises(NotSrg):
        hoffman_colorings(path_graph(5))  # verified before any iteration


def test_construct_ddg_hoffman_chain():
    t8 = triangular_graph(8)
    col = find_hoffman_coloring(t8)
    g, partition = construct_ddg_hoffman(t8, col)
    cert = verify_ddg(g, partition)
    assert cert.passed
    assert DdgParams.from_certificate(cert).as_tuple() == \
        (28, 15, 6, 8, 7, 4)
    spec = exact_spectrum(
        g, ddg_formula_spectrum(DdgParams.from_certificate(cert)).candidates())
    # -1 is a formula candidate but not an eigenvalue here
    assert spec.multiplicity_of(-1) == 0
    assert spec.nonzero() == make_spectrum([(15, 1), (3, 7), (1, 6), (-3, 14)])


def test_construct_ddg_hoffman_rejects_wrong_base():
    pet = petersen_graph()
    fake = VertexPartition.from_lists(10, [[0, 1], [2, 3], [4, 5], [6, 7],
                                           [8, 9]])
    with pytest.raises(PreconditionFailed):
        construct_ddg_hoffman(pet, fake)


def test_construct_ddg_hoffman_names_the_first_adjacent_pair():
    """Classes are checked in order, and within a class the pairs in the
    order of its tuple, as itertools.combinations gives them: the third
    and fourth class here each hold two adjacent pairs, the third written
    out of order, and the message names its pair (24, 21)."""
    t8 = triangular_graph(8)
    classes = [list(c) for c in find_hoffman_coloring(t8).classes]
    classes[2][1], classes[3][3] = classes[3][3], classes[2][1]
    classes[2].reverse()
    assert classes[2:4] == [[25, 24, 21, 2], [3, 10, 16, 7]]
    coloring = VertexPartition(28, tuple(map(tuple, classes)))
    first = next((a, b) for cls in coloring.classes
                 for a, b in itertools.combinations(cls, 2)
                 if t8.has_edge(a, b))
    assert first == (24, 21)
    with pytest.raises(PreconditionFailed, match=r"class member pair "
                       r"\(24, 21\) is adjacent: not a coclique"):
        construct_ddg_hoffman(t8, coloring)


def test_construct_ddg_hoffman_checks_coloring_and_outcome():
    """A coloring of another vertex count or with classes of the wrong
    size, parameters whose ratio bound is no integer, and a base that is
    not the graph its parameters describe: a 2-switch of T(8) that keeps
    the coloring's classes cocliques fills in to no DDG of the expected
    parameters."""
    t8 = triangular_graph(8)
    colorings = hoffman_colorings(t8)
    coloring = next(iter(colorings))
    with pytest.raises(ShapeMismatch, match="coloring covers 29 vertices, "
                       "graph has 28"):
        construct_ddg_hoffman(t8, VertexPartition.from_lists(
            29, [range(29)]))
    with pytest.raises(PreconditionFailed, match="class of size 7 is not a "
                       r"maximum coclique \(need 4\)"):
        construct_ddg_hoffman(t8, VertexPartition.from_lists(
            28, [range(7 * i, 7 * i + 7) for i in range(4)]))
    with pytest.raises(PreconditionFailed, match="ratio bound 14/5 is not "
                       "an integer"):
        construct_ddg_hoffman(t8, coloring, SrgParams(28, 18, 12, 10))
    cls = coloring.class_of()
    a, b, c, d = next((a, b, c, d) for (a, b), (c, d) in
                      itertools.combinations(t8.edges(), 2)
                      if len({a, b, c, d}) == 4 and cls[a] != cls[d]
                      and cls[c] != cls[b] and not t8.has_edge(a, d)
                      and not t8.has_edge(c, b))
    m = t8.matrix.copy()
    m[[a, b, c, d], [b, a, d, c]] = False
    m[[a, d, c, b], [d, a, b, c]] = True
    with pytest.raises(PreconditionFailed, match="filled-in coloring is "
                       "not a divisible design graph"):
        construct_ddg_hoffman(Graph(m), coloring, colorings.params)


def test_non_srg_base_raises_not_srg():
    """A base that is not strongly regular raises NotSrg, both where
    construct_ddg_hoffman verifies it and where construct_srg2 does."""
    p4 = path_graph(4)
    halves = VertexPartition.from_lists(4, [[0, 2], [1, 3]])
    with pytest.raises(NotSrg):
        construct_ddg_hoffman(p4, halves)
    with pytest.raises(NotSrg):
        construct_srg2(Srg2Config(p4, halves, fano_plane(),
                                  ClassBlockMap.identity(2)))


def test_srg2_condition():
    report = srg2_condition(12, 4, 7, 4, 1)
    assert report.holds
    assert tuple(report.values) == (9, 9, 9)
    report2 = srg2_condition(12, 4, 7, 4, 2)
    assert not report2.holds
    report3 = srg2_condition(11, 4, 7, 4, 1)  # k - mu + 1 = 8, not a square
    assert not report3.holds


def test_construct_srg2_full_chain():
    t8 = triangular_graph(8)
    col = find_hoffman_coloring(t8)
    cfg = Srg2Config(base=t8, coloring=col, design=fano_plane(),
                     block_map=ClassBlockMap.identity(7))
    g = construct_srg2(cfg)
    cert = verify_srg(g)
    assert cert.passed
    assert SrgParams.from_certificate(cert).as_tuple() == (35, 18, 9, 9)
    # attached design points form a clique
    for y in range(28, 35):
        for z in range(y + 1, 35):
            assert g.has_edge(y, z)


def test_construct_srg2_rejects_wrong_design():
    t8 = triangular_graph(8)
    col = find_hoffman_coloring(t8)
    field = make_field(2, 1)
    pg = projective_complement_design(field, 3)  # (7,4,2): condition fails
    cfg = Srg2Config(base=t8, coloring=col, design=pg,
                     block_map=ClassBlockMap.identity(7))
    with pytest.raises(PreconditionFailed):
        construct_srg2(cfg)

    small = projective_complement_design(field, 2)  # 3 points, wrong shape
    with pytest.raises(ShapeMismatch):
        construct_srg2(Srg2Config(base=t8, coloring=col, design=small,
                                  block_map=ClassBlockMap.identity(3)))


def test_chang_bases_complete_the_chain():
    fano = fano_plane()
    for base in chang_graphs():
        col = find_hoffman_coloring(base)
        assert col is not None
        g = construct_srg2(Srg2Config(base=base, coloring=col, design=fano,
                                      block_map=ClassBlockMap.identity(7)))
        cert = verify_srg(g)
        assert cert.passed
        assert SrgParams.from_certificate(cert).as_tuple() == (35, 18, 9, 9)
