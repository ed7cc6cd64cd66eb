"""Resolvable and symmetric design generators, verifiers, file format.

`ref_verify_resolvable` and `ref_verify_symmetric` are the two design
verifiers as they were written before they ran on the pair kernel, each
with its own Python pair loops, and serve as the oracle of the
incidence-matrix verifiers: the same verdict and first failed check on
every input, and the same certificate JSON on every passing one.
"""

from __future__ import annotations

import dataclasses
import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from srgforge import (affine_geometry_design, certificate, fano_plane,
                      load_design, make_field, ParseError,
                      projective_complement_design, ResolvableDesign,
                      save_design, ShapeError, SymmetricDesign, TooLarge,
                      verify_resolvable, verify_symmetric)
from srgforge.designs import incidence
from srgforge.gf import as_prime_power

CASES = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2), (5, 1, 2)]


@pytest.mark.parametrize("p,e,d", CASES)
def test_affine_geometry_design(p, e, d):
    field = make_field(p, e)
    q = field.q
    design = affine_geometry_design(field, d)
    assert design.n_points == q ** d
    assert design.n_classes == (q ** d - 1) // (q - 1)
    assert design.blocks_per_class == q
    cert = verify_resolvable(design)
    assert cert.passed, cert.witnesses
    assert cert.parameters["block_size"] == q ** (d - 1)
    assert cert.parameters["cross_intersection"] == q ** (d - 2)


def test_affine_design_rejects_dim_one():
    with pytest.raises(ValueError):
        affine_geometry_design(make_field(2, 1), 1)


def test_projective_design_rejects_dim_one():
    with pytest.raises(ValueError, match="dimension must be >= 2, got 1"):
        projective_complement_design(make_field(2, 1), 1)


@pytest.mark.parametrize("d", [12, 10**9])
def test_projective_design_refuses_an_oversized_glued_graph(d):
    """Refused before the points are enumerated: at d = 12 the design has
    4095 points, and at d = 10**9 enumerating them would never end."""
    with pytest.raises(TooLarge, match="the glued graph"):
        projective_complement_design(make_field(2, 1), d)


@pytest.mark.parametrize("p,e,d", CASES)
def test_projective_complement_design(p, e, d):
    field = make_field(p, e)
    q = field.q
    design = projective_complement_design(field, d)
    v = (q ** d - 1) // (q - 1)
    assert design.params == (v, q ** (d - 1), q ** (d - 2) * (q - 1))
    assert len(design.blocks) == v
    cert = verify_symmetric(design)
    assert cert.passed, cert.witnesses


def test_fano_plane():
    design = fano_plane()
    assert design.params == (7, 3, 1)
    assert verify_symmetric(design).passed


def test_verify_resolvable_catches_mutation():
    field = make_field(2, 1)
    design = affine_geometry_design(field, 3)
    classes = [list(map(list, cls)) for cls in design.classes]
    # swap one point across the two blocks of the first class
    classes[0][0][0], classes[0][1][0] = classes[0][1][0], classes[0][0][0]
    broken = ResolvableDesign(
        n_points=design.n_points,
        classes=tuple(tuple(tuple(sorted(b)) for b in cls)
                      for cls in classes),
        source=design.source)
    cert = verify_resolvable(broken)
    assert not cert.passed
    assert cert.witnesses


def test_verify_symmetric_catches_mutation():
    design = fano_plane()
    blocks = list(design.blocks)
    blocks[0] = blocks[1]
    dup = SymmetricDesign(n_points=7, blocks=tuple(blocks), params=(7, 3, 1))
    assert not verify_symmetric(dup).passed

    wrong_params = dataclasses.replace(fano_plane(), params=(7, 3, 2))
    cert = verify_symmetric(wrong_params)
    assert not cert.passed
    assert any(w.get("check") == "declared-params" for w in cert.witnesses)


def test_design_file_round_trip(tmp_path):
    field = make_field(3, 1)
    design = affine_geometry_design(field, 2)
    path = tmp_path / "ag32.blocks"
    save_design(design, path)
    loaded = load_design(path, "resolvable")
    assert loaded.n_points == design.n_points
    assert loaded.classes == design.classes
    assert verify_resolvable(loaded).passed

    sym = projective_complement_design(field, 2)
    spath = tmp_path / "pg32.blocks"
    save_design(sym, spath)
    sloaded = load_design(spath, "symmetric")
    assert sloaded.blocks == sym.blocks
    assert sloaded.params == sym.params


def test_design_file_comments_and_errors(tmp_path):
    path = tmp_path / "d.blocks"
    path.write_text("# a comment\nresolvable 4 3 2\n\n0 1\n2 3\n"
                    "0 2\n1 3\n0 3\n1 2\n")
    design = load_design(path, "resolvable")
    assert design.n_points == 4
    assert design.n_classes == 3
    assert verify_resolvable(design).passed

    with pytest.raises(ValueError):
        load_design(path, "latin")

    path.write_text("")
    with pytest.raises(ParseError):
        load_design(path, "resolvable")

    path.write_text("symmetric 7 3\n")
    with pytest.raises(ParseError):
        load_design(path, "resolvable")

    path.write_text("resolvable 4 x 2\n0 1\n")
    with pytest.raises(ParseError):
        load_design(path, "resolvable")

    path.write_text("resolvable 4 3\n0 1\n")
    with pytest.raises(ParseError, match="exactly 3 integers"):
        load_design(path, "resolvable")

    path.write_text("symmetric 3 2 1\n0 1\n")
    with pytest.raises(ShapeError, match="expected 3 block lines, got 1"):
        load_design(path, "symmetric")

    path.write_text("resolvable 4 3 2\n0 1\n2 3\n")
    with pytest.raises(ShapeError):
        load_design(path, "resolvable")

    path.write_text("resolvable 4 1 2\n0 1\n2 9\n")
    with pytest.raises(ShapeError):
        load_design(path, "resolvable")

    path.write_text("resolvable 4 1 2\n0 0\n2 3\n")
    with pytest.raises(ShapeError):
        load_design(path, "resolvable")


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.blocks"
    path.write_text("resolvable 4 1 2\n0 1\n2 oops\n")
    with pytest.raises(ParseError) as exc:
        load_design(path, "resolvable")
    assert "line 3" in str(exc.value)


def test_block_index_table():
    design = affine_geometry_design(make_field(2, 1), 2)
    table = design.block_index_table()
    for c, cls in enumerate(design.classes):
        for b, block in enumerate(cls):
            for point in block:
                assert table[c][point] == b


def test_provenance_source():
    design = affine_geometry_design(make_field(2, 1), 2)
    assert design.source == "affine-geometry"
    cert = verify_resolvable(design)
    assert cert.provenance == {"source": "affine-geometry"}
    assert ResolvableDesign(1, (((0,),),)).source == "unknown"


def test_file_design_provenance(tmp_path):
    path = tmp_path / "ag22.blocks"
    save_design(affine_geometry_design(make_field(2, 1), 2), path)
    cert = verify_resolvable(load_design(str(path), "resolvable"))
    assert cert.provenance == {"source": f"file:{path}"}


def test_incidence():
    m = incidence(4, ((0, 1), (1, 2, 3), ()))
    assert m.tolist() == [[True, False, False], [True, True, False],
                          [False, True, False], [False, True, False]]


# ---------------------------------------------------------------------------
# the verifiers against their pair-loop oracles


def ref_verify_resolvable(design):
    witnesses = []
    n = design.n_points

    for c, cls in enumerate(design.classes):
        seen = set()
        ok = True
        for block in cls:
            for p in block:
                if not 0 <= p < n or p in seen:
                    witnesses.append({"check": "partition", "class": c,
                                      "point": p})
                    ok = False
                    break
                seen.add(p)
            if not ok:
                break
        if ok and len(seen) != n:
            witnesses.append({"check": "partition", "class": c,
                              "covered": len(seen)})

    sizes = {len(b) for cls in design.classes for b in cls}
    block_size = min(sizes) if sizes else 0
    if len(sizes) > 1:
        witnesses.append({"check": "block-size", "sizes": sorted(sizes)})

    pair_count = 0
    counts = _ref_pair_counts(b for cls in design.classes for b in cls)
    values = set(counts.values())
    if len(counts) == n * (n - 1) // 2 and len(values) == 1:
        pair_count = values.pop()
    elif n > 1:
        witnesses.append({"check": "pair-balance",
                          "values": sorted(values)[:4],
                          "pairs_seen": len(counts)})

    cross = -1
    done = False
    for c1, c2 in combinations(range(design.n_classes), 2):
        for b1 in design.classes[c1]:
            for b2 in design.classes[c2]:
                size = len(set(b1) & set(b2))
                if cross == -1:
                    cross = size
                elif size != cross:
                    witnesses.append({"check": "cross-intersection",
                                      "classes": [c1, c2],
                                      "sizes": [cross, size]})
                    done = True
                    break
            if done:
                break
        if done:
            break

    return certificate(
        "design",
        parameters={
            "n_points": n,
            "n_classes": design.n_classes,
            "blocks_per_class": design.blocks_per_class,
            "block_size": block_size,
            "pair_count": pair_count,
            "cross_intersection": max(cross, 0),
        },
        witnesses=witnesses,
        provenance={"source": design.source},
    )


def ref_verify_symmetric(design):
    witnesses = []
    v = design.n_points

    if len(design.blocks) != v:
        witnesses.append({"check": "block-count",
                          "blocks": len(design.blocks), "points": v})

    sizes = {len(set(b)) for b in design.blocks}
    k = min(sizes) if sizes else 0
    if len(sizes) > 1 or any(len(b) != len(set(b)) for b in design.blocks):
        witnesses.append({"check": "block-size", "sizes": sorted(sizes)})

    degrees = [0] * v
    for block in design.blocks:
        for p in block:
            if 0 <= p < v:
                degrees[p] += 1
            else:
                witnesses.append({"check": "point-range", "point": p})
    if len(set(degrees)) > 1 or (degrees and degrees[0] != k):
        witnesses.append({"check": "point-degree",
                          "degrees": sorted(set(degrees))})

    lam = 0
    counts = _ref_pair_counts(design.blocks)
    values = set(counts.values())
    if counts and (len(counts) != v * (v - 1) // 2 or len(values) != 1):
        witnesses.append({"check": "pair-balance",
                          "values": sorted(values)[:4],
                          "pairs_seen": len(counts)})
    elif counts:
        lam = values.pop()

    for (i, b1), (j, b2) in combinations(enumerate(design.blocks), 2):
        size = len(set(b1) & set(b2))
        if size != lam:
            witnesses.append({"check": "block-intersection",
                              "blocks": [i, j], "size": size,
                              "expected": lam})
            break

    expected = (v, k, lam)
    if not witnesses and expected != design.params:
        witnesses.append({"check": "declared-params",
                          "declared": list(design.params),
                          "observed": list(expected)})

    return certificate("design", parameters={"v": v, "k": k, "lambda": lam},
                       witnesses=witnesses)


def _ref_pair_counts(blocks):
    counts = {}
    for block in blocks:
        for a, b in combinations(sorted(block), 2):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def _agree(cert, ref):
    """Same verdict and first failed check; on a pass, the same JSON.  One
    witness per failed check, pair witnesses in the kernel's shape."""
    assert cert.passed == ref.passed, (cert.witnesses, ref.witnesses)
    if cert.passed:
        assert cert.to_json() == ref.to_json()
    else:
        assert cert.witnesses[0]["check"] == ref.witnesses[0]["check"], (
            cert.witnesses, ref.witnesses)
    checks = [w["check"] for w in cert.witnesses]
    assert len(checks) == len(set(checks)), checks
    for w in cert.witnesses:
        if w["check"] in ("pair-balance", "block-intersection",
                          "cross-intersection"):
            assert set(w) == {"check", "pair", "count", "expected"}, w


_points = st.integers(-1, 6)


@st.composite
def _resolvable_designs(draw):
    """Small resolvable designs: classes that partition the points (some
    repeated) mixed with classes of arbitrary, possibly out-of-range or
    repeated points, blocks of size 0 or 1 included."""
    n = draw(st.integers(0, 6))
    pool = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            perm = draw(st.permutations(range(n)))
            cut = draw(st.sampled_from([d for d in range(1, n + 1)
                                        if n % d == 0] or [1]))
            pool.append(tuple(tuple(sorted(perm[i:i + cut]))
                              for i in range(0, n, cut)))
        else:
            pool.append(tuple(
                tuple(draw(st.lists(_points, max_size=4)))
                for _ in range(draw(st.integers(0, 3)))))
    classes = tuple(draw(st.lists(st.sampled_from(pool), max_size=5))
                    if pool else [])
    return ResolvableDesign(n, classes)


@st.composite
def _symmetric_designs(draw):
    """Small symmetric designs: the cyclic shifts of one base block (point
    degree = block size, so the pair checks decide), or blocks drawn from
    subsets of the points and from arbitrary point lists; with the observed
    or a random parameter triple declared."""
    v = draw(st.integers(0, 7))
    subsets = st.frozensets(st.integers(0, max(v - 1, 0)), max_size=v).map(
        lambda s: tuple(sorted(s)))
    if v and draw(st.booleans()):
        base = draw(subsets)
        blocks = tuple(tuple(sorted((p + i) % v for p in base))
                       for i in range(v))
    else:
        count = draw(st.sampled_from([v, v, v, max(v - 1, 0), v + 1]))
        blocks = tuple(draw(st.lists(
            st.one_of(subsets, st.lists(_points, max_size=4).map(tuple)),
            min_size=count, max_size=count)))
    design = SymmetricDesign(v, blocks, (0, 0, 0))
    if draw(st.booleans()):
        p = ref_verify_symmetric(design).parameters
        params = (p["v"], p["k"], p["lambda"])
    else:
        params = draw(st.tuples(*[st.integers(0, 3)] * 3))
    return dataclasses.replace(design, params=params)


@given(_resolvable_designs())
def test_verify_resolvable_matches_reference(design):
    cert = verify_resolvable(design)
    _agree(cert, ref_verify_resolvable(design))


@given(_symmetric_designs())
def test_verify_symmetric_matches_reference(design):
    cert = verify_symmetric(design)
    _agree(cert, ref_verify_symmetric(design))


LADDER = [(2, 3), (3, 2), (4, 2), (2, 4), (3, 3), (2, 5), (4, 3)]


def _ladder_designs():
    for q, d in LADDER:
        field = make_field(*as_prime_power(q))
        yield affine_geometry_design(field, d)
        yield projective_complement_design(field, d)
    yield fano_plane()


def _mutations(design, rng, count):
    """One-point mutations: one point of one block replaced by another
    point, a point of the same block, or a point out of range."""
    if isinstance(design, ResolvableDesign):
        blocks = [b for cls in design.classes for b in cls]
    else:
        blocks = list(design.blocks)
    n = design.n_points
    for _ in range(count):
        b = rng.randrange(len(blocks))
        i = rng.randrange(len(blocks[b]))
        new = rng.choice([rng.randrange(n), blocks[b][i - 1], n, -1])
        mutated = list(blocks)
        mutated[b] = blocks[b][:i] + (new,) + blocks[b][i + 1:]
        if isinstance(design, ResolvableDesign):
            per = design.blocks_per_class
            yield dataclasses.replace(design, classes=tuple(
                tuple(mutated[c * per:(c + 1) * per])
                for c in range(design.n_classes)))
        else:
            yield dataclasses.replace(design, blocks=tuple(mutated))


@pytest.mark.parametrize("design", list(_ladder_designs()),
                         ids=lambda d: f"{type(d).__name__}-{d.n_points}")
def test_ladder_designs_match_reference(design):
    """Every ladder design passes with the reference's certificate JSON;
    one-point mutations of it keep the verdict and first failed check."""
    verify, ref = ((verify_resolvable, ref_verify_resolvable)
                   if isinstance(design, ResolvableDesign)
                   else (verify_symmetric, ref_verify_symmetric))
    cert = verify(design)
    assert cert.passed
    assert cert.to_json() == ref(design).to_json()
    for mutated in _mutations(design, random.Random(design.n_points), 40):
        _agree(verify(mutated), ref(mutated))


def test_fano_point_mutations_match_reference():
    fano = fano_plane()
    for b, block in enumerate(fano.blocks):
        for i in range(3):
            for new in range(-1, 9):
                blocks = list(fano.blocks)
                blocks[b] = block[:i] + (new,) + block[i + 1:]
                mutated = dataclasses.replace(fano, blocks=tuple(blocks))
                _agree(verify_symmetric(mutated),
                       ref_verify_symmetric(mutated))


def test_one_witness_per_failed_check():
    blocks = list(fano_plane().blocks)
    blocks[0], blocks[1] = (0, 1, 9), (1, 2, 8)
    cert = verify_symmetric(dataclasses.replace(fano_plane(),
                                                blocks=tuple(blocks)))
    checks = [w["check"] for w in cert.witnesses]
    assert checks.count("point-range") == 1
    assert len(checks) == len(set(checks))

    cert = verify_resolvable(
        ResolvableDesign(4, (((0, 1), (0, 3)), ((0, 2), (0, 3)))))
    checks = [w["check"] for w in cert.witnesses]
    assert checks.count("partition") == 1
    assert len(checks) == len(set(checks))


def test_pair_witnesses_take_kernel_shape():
    """Pair witnesses name the first bad pair of points or blocks, its
    count and the count its stratum expects."""
    blocks = ((0, 1), (0, 1), (2, 3), (2, 3))
    cert = verify_symmetric(SymmetricDesign(4, blocks, (4, 2, 2)))
    assert cert.witnesses == (
        {"check": "pair-balance", "pair": [0, 2], "count": 0, "expected": 2},
        {"check": "block-intersection", "pair": [0, 2], "count": 0,
         "expected": 2})

    cert = verify_resolvable(ResolvableDesign(4, (((0, 1), (2, 3)),) * 2))
    assert cert.witnesses == (
        {"check": "pair-balance", "pair": [0, 2], "count": 0, "expected": 2},
        {"check": "cross-intersection", "pair": [0, 3], "count": 0,
         "expected": 2})


def test_resolvable_cross_intersection_first():
    """A one-factorization of K6 is a resolvable 2-(6,2,1) design whose
    blocks from different classes meet in 0 or 1 points."""
    design = ResolvableDesign(6, tuple(
        tuple(tuple(sorted(b)) for b in ((i, 5), ((i + 1) % 5, (i - 1) % 5),
                                          ((i + 2) % 5, (i - 2) % 5)))
        for i in range(5)))
    cert = verify_resolvable(design)
    _agree(cert, ref_verify_resolvable(design))
    assert cert.witnesses == ({"check": "cross-intersection", "pair": [0, 5],
                               "count": 0, "expected": 1},)
    assert cert.parameters["pair_count"] == 1


@pytest.mark.parametrize("design", [
    ResolvableDesign(2, ()),
    ResolvableDesign(2, (((0,), (1,)),)),
    ResolvableDesign(3, (((0,), (1,), (2,)),) * 2),
])
def test_resolvable_pair_count_zero_fails(design):
    cert = verify_resolvable(design)
    assert not cert.passed
    assert cert.witnesses[0]["check"] == "pair-balance"
    assert not ref_verify_resolvable(design).passed
