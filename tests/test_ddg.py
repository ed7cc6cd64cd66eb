"""Divisible design graph construction, verification, extraction, files."""

from __future__ import annotations

from fractions import Fraction
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from srgforge import (affine_geometry_design, as_prime_power,
                      BijectionFamily, canonical_form, complement,
                      complete_graph, complete_multipartite, construct_ddg,
                      counting_lower_bound, cyclic_quasigroup, DdgParams,
                      extract_ddg_from_srg, identity_family, LeftQuasigroup,
                      load_family, load_quasigroup, make_field, NotAClique,
                      NotPrime, NotRegularClique, ParseError, petersen_graph,
                      random_bijection_family, random_left_quasigroup,
                      ResolvableDesign, save_family, save_quasigroup,
                      ShapeError, ShapeMismatch, theorem1_params, TooLarge,
                      triangular_graph, verify_ddg, VertexPartition)


def build(q, d, seed=None, quasigroup=None):
    field = make_field(*as_prime_power(q))
    design = affine_geometry_design(field, d)
    m = design.n_classes
    qg = quasigroup or cyclic_quasigroup(m)
    if seed is None:
        family = identity_family(m, q)
    else:
        family = random_bijection_family(m, q, qg, seed)
    return construct_ddg([design] * m, qg, family)


def test_theorem1_params_table():
    assert theorem1_params(2, 2).as_tuple() == (12, 6, 2, 3, 3, 4)
    assert theorem1_params(3, 2).as_tuple() == (36, 24, 15, 16, 4, 9)
    assert theorem1_params(2, 3).as_tuple() == (56, 28, 12, 14, 7, 8)
    assert theorem1_params(4, 2).as_tuple() == (80, 60, 44, 45, 5, 16)


def test_theorem1_params_errors():
    with pytest.raises(ValueError):
        theorem1_params(2, 1)
    with pytest.raises(NotPrime):
        theorem1_params(6, 2)


def test_ddg_params_validation():
    with pytest.raises(ValueError):
        DdgParams(v=13, k=6, lambda1=2, lambda2=3, m=3, n=4)


def test_cyclic_quasigroup():
    qg = cyclic_quasigroup(4)
    assert qg.op(1, 3) == 0
    for i in range(4):
        assert sorted(qg.table[i]) == list(range(4))
    for make in (cyclic_quasigroup, lambda m: random_left_quasigroup(m, 0)):
        with pytest.raises(ValueError, match="order must be >= 1"):
            make(0)


def test_left_quasigroup_validation():
    with pytest.raises(ValueError, match=r"row 0 is not a permutation of \[0, 2\)"):
        LeftQuasigroup(((0, 0), (0, 1)))
    assert LeftQuasigroup(((1, 0), (0, 1))).m == 2


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0,
                                                          max_value=500))
def test_random_left_quasigroup_rows(m, seed):
    qg = random_left_quasigroup(m, seed)
    assert qg == random_left_quasigroup(m, seed)
    for row in qg.table:
        assert sorted(row) == list(range(m))


def test_bijection_family_validation():
    with pytest.raises(ValueError, match="order 3 needs 3 pairs, got 1"):
        BijectionFamily(3, 2, ((0, 1),))
    with pytest.raises(ValueError, match=r"sigma\[0\]\[2\] is not a perm"):
        BijectionFamily(3, 2, ((0, 1), (0, 0), (1, 0)))
    fam = BijectionFamily(3, 3, ((1, 2, 0), (0, 1, 2), (0, 2, 1)))
    assert fam.sigma[0][1] == (1, 2, 0)
    assert fam.sigma[1][0] == (2, 0, 1)
    assert fam.sigma[2][2] == (0, 1, 2)
    assert fam.sigma[2][1] == (0, 2, 1)


@given(st.integers(min_value=0, max_value=200))
def test_random_family_is_consistent(seed):
    qg = cyclic_quasigroup(4)
    fam = random_bijection_family(4, 3, qg, seed)
    assert fam == random_bijection_family(4, 3, qg, seed)
    for i in range(4):
        assert fam.sigma[i][i] == (0, 1, 2)
        for j in range(4):
            perm = fam.sigma[i][j]
            for x in range(3):
                assert fam.sigma[j][i][perm[x]] == x


def test_random_family_needs_matching_quasigroup():
    with pytest.raises(ShapeMismatch):
        random_bijection_family(4, 2, cyclic_quasigroup(3), 0)


@pytest.mark.parametrize("q,d", [(2, 2), (3, 2), (2, 3), (4, 2)])
def test_construct_matches_formula(q, d):
    g, partition = build(q, d, seed=1)
    cert = verify_ddg(g, partition)
    assert cert.passed, cert.witnesses
    assert DdgParams.from_certificate(cert) == theorem1_params(q, d)


@given(st.integers(min_value=0, max_value=300),
       st.sampled_from([(2, 2), (3, 2), (2, 3)]))
def test_construct_verifies_for_any_seed(seed, qd):
    q, d = qd
    m = theorem1_params(q, d).m
    qg = random_left_quasigroup(m, seed)
    g, partition = build(q, d, seed=seed, quasigroup=qg)
    cert = verify_ddg(g, partition)
    assert cert.passed
    assert DdgParams.from_certificate(cert) == theorem1_params(q, d)


def test_intra_class_subgraph_is_multipartite():
    q, d = 3, 2
    g, partition = build(q, d, seed=5)
    target = complete_multipartite(*([q ** (d - 1)] * q))
    want = canonical_form(target).graph6
    for cls in partition.classes:
        sub = g.induced(cls)
        assert canonical_form(sub).graph6 == want


def test_intra_class_subgraph_ignores_family():
    q, d = 2, 3
    g1, partition = build(q, d, seed=10)
    g2, _ = build(q, d, seed=11)
    for cls in partition.classes:
        assert g1.induced(cls) == g2.induced(cls)


def test_construct_rejects_shape_mismatch():
    field = make_field(2, 1)
    design = affine_geometry_design(field, 2)
    m = design.n_classes
    with pytest.raises(ShapeMismatch):
        construct_ddg([design] * (m - 1), cyclic_quasigroup(m),
                      identity_family(m, 2))
    with pytest.raises(ShapeMismatch):
        construct_ddg([design] * m, cyclic_quasigroup(m + 1),
                      identity_family(m + 1, 2))
    with pytest.raises(ShapeMismatch, match="need at least one design"):
        construct_ddg([], cyclic_quasigroup(1), identity_family(1, 2))
    other = affine_geometry_design(make_field(3, 1), 2)  # 9 points
    with pytest.raises(ShapeMismatch, match=r"^design 1 has shape \(9 "):
        construct_ddg([design, other, design], cyclic_quasigroup(m),
                      identity_family(m, 2))
    with pytest.raises(ShapeMismatch, match="family block count 3 != 2"):
        construct_ddg([design] * m, cyclic_quasigroup(m),
                      identity_family(m, 3))


def test_verify_ddg_rejects_wrong_graphs():
    p = petersen_graph()
    part = VertexPartition.from_lists(10, [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]])
    assert not verify_ddg(p, part).passed

    k6 = complete_graph(6)
    part6 = VertexPartition.from_lists(6, [[0, 1, 2], [3, 4, 5]])
    cert = verify_ddg(k6, part6)
    assert not cert.passed
    assert any(w.get("check") == "excluded" for w in cert.witnesses)

    g, partition = build(2, 2)
    bad = VertexPartition.from_lists(12, [tuple(range(6)),
                                          tuple(range(6, 12))])
    assert not verify_ddg(g, bad).passed


def test_verify_ddg_partition_shape_witness():
    g, _ = build(2, 2)
    small = VertexPartition.from_lists(4, [[0, 1], [2, 3]])
    cert = verify_ddg(g, small)
    assert not cert.passed
    assert any(w.get("check") == "partition-shape" for w in cert.witnesses)


def glued_reference(designs, quasigroup, family):
    """The gluing rule one vertex pair at a time: point x of design i and
    point y of design j are adjacent iff sigma_ij maps x's block in class
    i*j of design i to a block other than y's in class j*i of design j."""
    P = designs[0].n_points

    def block(design, c, x):
        return next(b for b, blk in enumerate(design.classes[c]) if x in blk)

    adj = np.zeros((len(designs) * P,) * 2, bool)
    for i, di in enumerate(designs):
        for j, dj in enumerate(designs):
            ci, cj = quasigroup.op(i, j), quasigroup.op(j, i)
            for x in range(P):
                image = family.sigma[i][j][block(di, ci, x)]
                for y in range(P):
                    adj[i * P + x, j * P + y] = image != block(dj, cj, y)
    return adj


@given(st.sampled_from([(2, 2), (3, 2), (2, 3)]), st.integers(0, 2**32),
       st.integers(0, 2**32))
def test_construct_ddg_matches_the_gluing_rule(qd, qseed, fseed):
    q, d = qd
    design = affine_geometry_design(make_field(*as_prime_power(q)), d)
    m = design.n_classes
    qg = random_left_quasigroup(m, qseed)
    family = random_bijection_family(m, q, qg, fseed)
    g, _ = construct_ddg([design] * m, qg, family)
    assert np.array_equal(g.matrix, glued_reference([design] * m, qg, family))


@pytest.mark.parametrize("seed", range(4))
def test_construct_ddg_matches_the_gluing_rule_on_mixed_designs(seed):
    """AG(2, 3) beside a copy with its points permuted: each part reads
    its own design's block table."""
    design = affine_geometry_design(make_field(3), 2)
    perm = list(range(design.n_points))
    random.Random(seed).shuffle(perm)
    moved = ResolvableDesign(design.n_points, tuple(
        tuple(tuple(sorted(perm[x] for x in blk)) for blk in cls)
        for cls in design.classes))
    designs = [design, moved, moved, design]
    qg = random_left_quasigroup(4, seed)
    family = random_bijection_family(4, 3, qg, seed + 1)
    g, _ = construct_ddg(designs, qg, family)
    assert np.array_equal(g.matrix, glued_reference(designs, qg, family))
    assert g != construct_ddg([design] * 4, qg, family)[0]


@pytest.mark.parametrize("graph, clique, error, message", [
    # (0, 26), (1, 26), (2, 26), ... are all non-adjacent
    (triangular_graph(8), (27, 3, 2, 1, 0, 26), NotAClique,
     "vertices 0 and 26 are not adjacent"),
    (complement(petersen_graph()), (7, 2, 0), NotAClique,
     "vertices 2 and 7 are not adjacent"),
    # outside vertices see 0, 1 or 2 of the clique, each count many times
    (triangular_graph(8), (0, 1), NotRegularClique,
     "vertex 18 sees 0 clique vertices but vertex 2 sees 2"),
    (triangular_graph(8), (0,), NotRegularClique,
     "vertex 13 sees 0 clique vertices but vertex 1 sees 1"),
    (petersen_graph(), (0,), NotRegularClique,
     "vertex 2 sees 0 clique vertices but vertex 1 sees 1"),
    (petersen_graph(), (0, -1), ValueError,
     r"clique vertices must lie in \[0, 10\)"),
    (petersen_graph(), (10,), ValueError,
     r"clique vertices must lie in \[0, 10\)"),
])
def test_extraction_names_the_first_offence(graph, clique, error, message):
    """The first non-adjacent clique pair in lexicographic order, or the
    first outside vertex of the fewest and of the most clique neighbours;
    a vertex outside the graph is refused before either check."""
    with pytest.raises(error, match=f"^{message}$"):
        extract_ddg_from_srg(graph, clique)


def test_extraction_errors():
    p = petersen_graph()
    with pytest.raises(NotAClique):
        extract_ddg_from_srg(p, (0, 2))
    with pytest.raises(NotRegularClique):
        extract_ddg_from_srg(p, (0,))


def test_counting_lower_bound():
    assert counting_lower_bound(2, 2) == Fraction(8, 36 ** 12 * 576)
    assert 0 < counting_lower_bound(3, 2) < 1
    with pytest.raises(ValueError):
        counting_lower_bound(1, 2)
    with pytest.raises(ValueError):
        counting_lower_bound(2, 1)


def test_counting_lower_bound_needs_a_prime_power():
    """q is factored after the vertex limit, so a huge prime q stops at the
    limit before any trial division."""
    with pytest.raises(NotPrime, match="6 is not a prime power"):
        counting_lower_bound(6, 2)
    with pytest.raises(TooLarge, match="vertex limit"):
        counting_lower_bound(2305843009213693951, 2)


def test_quasigroup_file_round_trip(tmp_path):
    qg = random_left_quasigroup(5, 3)
    path = tmp_path / "qg.txt"
    save_quasigroup(qg, path)
    assert load_quasigroup(path) == qg

    path.write_text("0 1\n1 x\n")
    with pytest.raises(ParseError):
        load_quasigroup(path)
    path.write_text("0 1\n1\n")
    with pytest.raises(ShapeError):
        load_quasigroup(path)
    path.write_text("# no rows\n")
    with pytest.raises(ParseError, match="empty quasigroup file"):
        load_quasigroup(path)


def test_family_file_round_trip(tmp_path):
    qg = cyclic_quasigroup(4)
    fam = random_bijection_family(4, 3, qg, 9)
    path = tmp_path / "fam.txt"
    save_family(fam, path)
    assert load_family(path, 4, 3) == fam


def test_family_file_defaults_and_errors(tmp_path):
    path = tmp_path / "fam.txt"
    path.write_text("0 1 : 1 2 0\n")
    fam = load_family(path, 3, 3)
    assert fam.sigma[0][1] == (1, 2, 0)
    assert fam.sigma[1][0] == (2, 0, 1)  # inverse filled in
    assert fam.sigma[0][2] == (0, 1, 2)  # omitted pairs default to identity

    path.write_text("0 1 1 2 0\n")
    with pytest.raises(ParseError):
        load_family(path, 3, 3)
    path.write_text("0 1 : 1 2\n")
    with pytest.raises(ShapeError):
        load_family(path, 3, 3)
    path.write_text("0 1 : 1 1 0\n")
    with pytest.raises(ShapeError):
        load_family(path, 3, 3)
    path.write_text("0 5 : 1 2 0\n")
    with pytest.raises(ShapeError):
        load_family(path, 3, 3)
    path.write_text("0 1 : 1 2 0\n1 0 : 1 2 0\n")
    with pytest.raises(ParseError):
        load_family(path, 3, 3)


def test_family_file_diagonal_is_checked_after_parsing(tmp_path):
    """A non-identity `i i` line is refused once the whole file parses,
    naming the smallest such i."""
    path = tmp_path / "fam.txt"
    path.write_text("2 2 : 1 2 0\n1 1 : 1 0 2\n")
    with pytest.raises(ValueError, match=r"sigma\[1\]\[1\] must be the "
                       "identity"):
        load_family(path, 3, 3)
    path.write_text("1 1 : 1 0 2\n0 1 : 1 2 x\n")
    with pytest.raises(ParseError, match="non-integer token"):
        load_family(path, 3, 3)


def test_family_file_pair_given_as_j_i(tmp_path):
    """A line `j i : perm`, j > i, gives sigma[j][i] = perm and sigma[i][j]
    its inverse; a line `i i : perm` is taken only for the identity."""
    path = tmp_path / "fam.txt"
    path.write_text("2 0 : 1 2 0\n1 1 : 0 1 2\n")
    fam = load_family(path, 3, 3)
    assert fam.sigma[2][0] == (1, 2, 0)
    assert fam.sigma[0][2] == (2, 0, 1)
    path.write_text("0 2 : 2 0 1\n")
    assert load_family(path, 3, 3) == fam
    path.write_text("1 1 : 1 2 0\n")
    with pytest.raises(ValueError, match=r"sigma\[1\]\[1\] must be the "
                       "identity"):
        load_family(path, 3, 3)
