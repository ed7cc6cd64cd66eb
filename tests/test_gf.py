"""Finite field tables: axioms, determinism, point enumerations."""

from __future__ import annotations

import hashlib
import random
from itertools import product

import numpy as np
import pytest

from srgforge import (affine_points, as_prime_power, enumerate_hyperplanes,
                      make_field, NotPrime, projective_points, TooLarge)
from srgforge.gf import is_prime

PRIME_POWERS = [(p, e) for p in range(2, 257)
                if all(p % d for d in range(2, p))
                for e in range(1, 9) if p ** e <= 256]
PRIME_POWERS.sort(key=lambda pe: pe[0] ** pe[1])

FIELD_SIZES = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
               (11, 1), (13, 1), (2, 4)]


@pytest.mark.parametrize("p,e", FIELD_SIZES)
def test_field_axioms_exhaustive(p, e):
    f = make_field(p, e)
    q = f.q
    elems = range(q)
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b),
                                                      f.mul(a, c))


def scalar_dot(f, u, v):
    """Inner product as a plain loop over the add and mul tables."""
    acc = 0
    for a, b in zip(u, v):
        acc = f.add(acc, f.mul(a, b))
    return acc


@pytest.mark.parametrize("p,e", FIELD_SIZES)
def test_gram_matches_scalar_loop(p, e):
    """Every field of order <= 16, 4, 8, 9 and 16 among them."""
    f = make_field(p, e)
    for dim in (1, 2, 3):
        pts = affine_points(f, dim)
        xs, ys = pts[::max(1, len(pts) // 64)], pts[::-max(1, len(pts) // 48)]
        assert f.gram(xs, ys).tolist() == \
            [[scalar_dot(f, x, y) for y in ys] for x in xs]
        assert f.gram([], ys).shape == (0, len(ys))
        assert f.gram(xs, np.empty((0, dim))).shape == (len(xs), 0)


@pytest.mark.parametrize("p,e", FIELD_SIZES)
def test_characteristic(p, e):
    f = make_field(p, e)
    for a in range(f.q):
        total = 0
        for _ in range(p):
            total = f.add(total, a)
        assert total == 0


def test_modulus_deterministic_and_known():
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert make_field(2, 3).modulus == (1, 0, 1, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(2, 4).modulus == (1, 0, 0, 1, 1)
    a, b = make_field(5, 2), make_field(5, 2)
    assert a.modulus == b.modulus
    assert a.mul_table == b.mul_table


def test_tables_of_every_field_are_pinned():
    """sha256 of (modulus, add_table, mul_table) over every prime power
    q <= 256 in increasing order, as the tables were before make_field
    moved from per-entry polynomial loops to one numpy product."""
    assert len(PRIME_POWERS) == 70
    digest = hashlib.sha256()
    for p, e in PRIME_POWERS:
        f = make_field(p, e)
        digest.update(repr((f.modulus, f.add_table, f.mul_table)).encode())
    assert digest.hexdigest() == \
        "730285ac72bea9b853898e5d30b9a02968902cbc11a9dda6f604e8c139562dcc"


def _sympy_poly(sympy, coeffs, p):
    """The polynomial over GF(p) with coeffs, constant term first."""
    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"), modulus=p)


def test_modulus_is_first_irreducible_per_sympy():
    """Each modulus is irreducible, and every monic candidate before it in
    the enumeration order (low coefficients as product(range(p), repeat=e),
    constant term first) is reducible."""
    sympy = pytest.importorskip("sympy")
    for p, e in PRIME_POWERS:
        modulus = make_field(p, e).modulus
        assert modulus[-1] == 1 and len(modulus) == e + 1
        assert _sympy_poly(sympy, modulus, p).is_irreducible
        for low in product(range(p), repeat=e):
            if low == modulus[:-1]:
                break
            assert not _sympy_poly(sympy, (*low, 1), p).is_irreducible


@pytest.mark.parametrize("p,e", [(2, 3), (3, 2), (2, 4), (5, 2)])
def test_mul_table_matches_sympy_remainder(p, e):
    """Sampled products equal rem(a*b, f) over GF(p), f the modulus."""
    sympy = pytest.importorskip("sympy")
    f = make_field(p, e)
    modulus = _sympy_poly(sympy, f.modulus, p)

    def poly(i):
        return _sympy_poly(sympy, [i // p ** k % p for k in range(e)], p)

    rng = random.Random(p ** e)
    for a, b in rng.sample(list(product(range(f.q), repeat=2)), 60):
        coeffs = [c % p for c in reversed(
            sympy.rem(poly(a) * poly(b), modulus).all_coeffs())]
        assert f.mul(a, b) == sum(c * p ** k for k, c in enumerate(coeffs))


def test_make_field_rejects_bad_input():
    with pytest.raises(NotPrime):
        make_field(4, 1)
    with pytest.raises(NotPrime):
        make_field(6, 2)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(TooLarge):
        make_field(2, 17)


def test_make_field_order_limit():
    """gram's uint8 arrays hold every element up to GF(2^8), the largest
    field."""
    assert make_field(2, 8).q == 256
    with pytest.raises(TooLarge, match="field order 512 exceeds 256"):
        make_field(2, 9)


def test_is_prime_and_inverse():
    """is_prime refuses n < 2, and 0 alone has no inverse."""
    assert [n for n in range(-1, 14) if is_prime(n)] == [2, 3, 5, 7, 11, 13]
    f = make_field(5, 1)
    assert [f.inv(a) for a in range(1, 5)] == [1, 3, 2, 4]
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_as_prime_power():
    assert as_prime_power(2) == (2, 1)
    assert as_prime_power(8) == (2, 3)
    assert as_prime_power(9) == (3, 2)
    assert as_prime_power(49) == (7, 2)
    for q in (1, 6, 10, 12, 100):
        with pytest.raises(NotPrime):
            as_prime_power(q)


@pytest.mark.parametrize("p,e,d", [(2, 1, 2), (2, 1, 3), (3, 1, 2),
                                   (2, 2, 2), (5, 1, 2)])
def test_affine_points(p, e, d):
    f = make_field(p, e)
    pts = affine_points(f, d)
    assert len(pts) == f.q ** d
    assert len(set(pts)) == len(pts)
    assert pts == sorted(pts)


@pytest.mark.parametrize("p,e,d", [(2, 1, 2), (2, 1, 3), (3, 1, 2),
                                   (2, 2, 2), (5, 1, 2)])
def test_projective_points(p, e, d):
    f = make_field(p, e)
    q = f.q
    pts = projective_points(f, d)
    assert len(pts) == (q ** d - 1) // (q - 1)
    assert len(set(pts)) == len(pts)
    assert pts == sorted(pts)
    for x in pts:
        lead = next(c for c in x if c)
        assert lead == 1


@pytest.mark.parametrize("p,e,d", [(2, 1, 2), (2, 1, 3), (3, 1, 2),
                                   (2, 2, 2)])
def test_hyperplane_classes_partition(p, e, d):
    f = make_field(p, e)
    q = f.q
    classes = enumerate_hyperplanes(f, d)
    assert len(classes) == (q ** d - 1) // (q - 1)
    points = affine_points(f, d)
    for normal, levels in classes:
        assert len(levels) == q
        seen: set = set()
        for level in levels:
            assert len(level) == q ** (d - 1)
            seen.update(level)
        assert seen == set(range(q ** d))
        # each translate is a constant-value set of the normal functional
        values = f.gram([normal], points)[0]
        for c, level in enumerate(levels):
            assert set(values[list(level)].tolist()) == {c}


def test_hyperplanes_reject_dim_one():
    with pytest.raises(ValueError):
        enumerate_hyperplanes(make_field(2, 1), 1)
