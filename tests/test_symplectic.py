"""Symplectic graphs and the exhaustive Delsarte clique census."""

from __future__ import annotations

from itertools import combinations

import pytest

from srgforge import (as_prime_power, canonical_form, CensusTooLarge,
                      certificate, complement, complete_multipartite,
                      delsarte_clique_census, from_edges, make_field,
                      NonIntegralBound, NotSrg, path_graph, petersen_graph,
                      projective_points, symplectic_graph, TooLarge,
                      triangular_graph, verify_srg, srg1_target_params,
                      SrgParams)
from srgforge.cli import main


def symplectic_form(field, x, y):
    """Alternating form sum(x[2i]*y[2i+1] - x[2i+1]*y[2i]), one pair of
    coordinates at a time through the field tables."""
    total = 0
    for i in range(0, len(x), 2):
        term = field.add(field.mul(x[i], y[i + 1]),
                         field.neg(field.mul(x[i + 1], y[i])))
        total = field.add(total, term)
    return total


@pytest.mark.parametrize("q,d", [(2, 2), (3, 2), (4, 2), (2, 3), (5, 2)])
def test_symplectic_graph_matches_scalar_form(q, d):
    field = make_field(*as_prime_power(q))
    pts = projective_points(field, 2 * d)
    want = from_edges(len(pts), (
        (a, b) for a, b in combinations(range(len(pts)), 2)
        if symplectic_form(field, pts[a], pts[b]) == 0))
    assert symplectic_graph(field, d) == want


def test_sp42_parameters_and_complement():
    field = make_field(2, 1)
    g = symplectic_graph(field, 2)
    cert = verify_srg(g)
    assert SrgParams.from_certificate(cert).as_tuple() == (15, 6, 1, 3)
    assert canonical_form(complement(g)).graph6 == \
        canonical_form(triangular_graph(6)).graph6


def test_sp43_parameters():
    g = symplectic_graph(make_field(3, 1), 2)
    assert verify_srg(g).parameters["v"] == 40
    assert SrgParams.from_certificate(verify_srg(g)).as_tuple() == \
        (40, 12, 2, 4)


@pytest.mark.parametrize("q,d", [(2, 3), (3, 2), (4, 2), (2, 4), (3, 3),
                                 (2, 5), (4, 3)])
def test_sp62_matches_attachment_target(q, d):
    g = symplectic_graph(make_field(*as_prime_power(q)), d)
    cert = verify_srg(complement(g))
    assert SrgParams.from_certificate(cert) == srg1_target_params(q, d)


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (3, 2)])
def test_form_is_alternating(p, e):
    field = make_field(p, e)
    pts = projective_points(field, 4)
    for x in pts:
        assert symplectic_form(field, x, x) == 0
    for x in pts[:10]:
        for y in pts[:10]:
            lhs = symplectic_form(field, x, y)
            rhs = symplectic_form(field, y, x)
            assert field.add(lhs, rhs) == 0


def test_symplectic_rejects_low_dim():
    with pytest.raises(ValueError):
        symplectic_graph(make_field(2, 1), 1)


def test_census_triangular():
    census = delsarte_clique_census(triangular_graph(6))
    assert census.size == 5
    assert census.count == 6
    for clique in census.cliques:
        assert len(clique) == 5
        g = triangular_graph(6)
        for i, u in enumerate(clique):
            for w in clique[i + 1:]:
                assert g.has_edge(u, w)


def test_census_symplectic_lines():
    g = symplectic_graph(make_field(2, 1), 2)
    census = delsarte_clique_census(g)
    assert census.size == 3
    assert census.count == 15


def test_symplectic_graph_refuses_a_failed_self_check(monkeypatch,
                                                      capsys):
    """symplectic_graph returns no graph whose own verify_srg fails; the
    CLI reports the NotSrg with exit 2."""
    failed = certificate("srg", witnesses=[{"check": "lambda"}])
    monkeypatch.setattr("srgforge.symplectic.verify_srg", lambda g: failed)
    with pytest.raises(NotSrg, match=r"expected \(15, 6, 1, 3\)"):
        symplectic_graph(make_field(2), 2)
    assert main(["sp-graph", "--q", "2", "--d", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("srgforge: symplectic graph over GF(2), "
                            "dimension 4: expected (15, 6, 1, 3)\n")


def test_census_no_ovoids_for_odd_q():
    g = complement(symplectic_graph(make_field(3, 1), 2))
    census = delsarte_clique_census(g)
    assert census.size == 10
    assert census.count == 0


def test_census_errors():
    with pytest.raises(NonIntegralBound):
        delsarte_clique_census(petersen_graph())
    with pytest.raises(NotSrg):
        delsarte_clique_census(path_graph(4))
    with pytest.raises(CensusTooLarge):
        delsarte_clique_census(complete_multipartite(*[2] * 62))
    with pytest.raises(CensusTooLarge):
        delsarte_clique_census(complete_multipartite(*[2] * 18))


def test_census_refuses_by_size_before_verifying(monkeypatch):
    """A graph over the census vertex limit is refused before verify_srg
    runs; the refusal is a TooLarge, as every resource refusal is."""
    calls = []

    def counting(g):
        calls.append(g.n)
        return verify_srg(g)
    monkeypatch.setattr("srgforge.srg.verify_srg", counting)
    with pytest.raises(CensusTooLarge, match="over the 120-vertex limit"):
        delsarte_clique_census(complete_multipartite(*[2] * 62))
    assert calls == []
    with pytest.raises(TooLarge):
        delsarte_clique_census(complete_multipartite(*[2] * 18))
    assert calls == [36]
