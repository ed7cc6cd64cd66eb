"""Exact arithmetic for finite fields GF(q), q = p^e, as integer index tables.

Elements are integers in [0, q).  Element i stands for the polynomial whose
GF(p) coefficients are the base-p digits of i, constant term first, so 0 is
the additive and 1 the multiplicative identity.  The reduction modulus is the
lexicographically first monic irreducible polynomial of degree e over GF(p)
(coefficients read constant term upward), which makes every field object a
pure function of (p, e).

Vectors over the field are plain tuples of element indices.  Points of the
affine space of dimension d are the q^d coordinate tuples in lexicographic
order; the point index of a tuple is its rank in that order.  Inner products
are computed in one place, FiniteField.gram, which sums over whole arrays of
vectors at once: the hyperplane classes here, the projective design and the
symplectic graph all take their values from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import NotPrime, TooLarge

MAX_ORDER = 1 << 8  # make_field builds q x q tables in Python; gram uses uint8


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# Polynomials over GF(p) are tuples of coefficients, constant term first.

def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m."""
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        r = [x % p for x in r]
        lead = r[-1]
        if lead == 0:
            r.pop()
            continue
        shift = len(r) - 1 - dm
        for i, mi in enumerate(m):
            r[shift + i] = (r[shift + i] - lead * mi) % p
        r.pop()
    return _poly_trim([x % p for x in r])


def _is_irreducible(f, p):
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            g = _poly_trim(tail + (1,))
            if not _poly_mod(f, g, p):
                return False
    return True


def _first_irreducible(p: int, e: int):
    """Lexicographically first monic irreducible of degree e over GF(p)."""
    if e == 1:
        return (0, 1)
    for low in product(range(p), repeat=e):
        f = low + (1,)
        if _is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _digits(i: int, p: int, e: int):
    out = []
    for _ in range(e):
        out.append(i % p)
        i //= p
    return tuple(out)


def _undigits(ds, p: int) -> int:
    v = 0
    for d in reversed(ds):
        v = v * p + d
    return v


@dataclass(frozen=True)
class FiniteField:
    """GF(p^e) with full addition and multiplication index tables.

    Immutable after construction; safe to share across threads.
    """

    p: int
    e: int
    q: int
    modulus: tuple[int, ...]
    add_table: tuple[tuple[int, ...], ...]
    mul_table: tuple[tuple[int, ...], ...]

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.add_table[a].index(0)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.mul_table[a].index(1)

    def gram(self, xs, ys) -> np.ndarray:
        """The len(xs) x len(ys) array of inner products sum_i x[i] y[i].

        xs and ys hold vectors of one length, as sequences or 2-d arrays of
        element indices.  The sum runs one coordinate at a time through the
        add and mul tables as numpy lookups; uint8 holds every element,
        since q <= MAX_ORDER.
        """
        x, y = np.array(xs, np.uint8), np.array(ys, np.uint8)
        out = np.zeros((len(x), len(y)), np.uint8)
        if out.size:
            add = np.array(self.add_table, np.uint8)
            mul = np.array(self.mul_table, np.uint8)
            for xc, yc in zip(x.T, y.T, strict=True):
                out = add[out, mul[xc[:, None], yc]]
        return out

    def elements(self) -> range:
        return range(self.q)


def as_prime_power(q: int) -> tuple[int, int]:
    """Factor q as p^e with p prime, or raise NotPrime."""
    if q < 2:
        raise NotPrime(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            e, t = 0, q
            while t % p == 0:
                t //= p
                e += 1
            if t != 1:
                raise NotPrime(f"{q} is not a prime power")
            return p, e
        p += 1
    return q, 1


def make_field(p: int, e: int = 1) -> FiniteField:
    """Build GF(p^e) with deterministic modulus and element order."""
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if e < 1:
        raise ValueError(f"extension degree must be >= 1, got {e}")
    q = p**e
    if q > MAX_ORDER:
        raise TooLarge(f"field order {q} exceeds {MAX_ORDER}")

    modulus = _first_irreducible(p, e)
    digit = [_digits(i, p, e) for i in range(q)]

    add_rows = []
    for a in range(q):
        da = digit[a]
        add_rows.append(tuple(
            _undigits(tuple((x + y) % p for x, y in zip(da, digit[b])), p)
            for b in range(q)
        ))

    mul_rows = []
    for a in range(q):
        pa = _poly_trim(digit[a])
        row = []
        for b in range(q):
            prod_poly = _poly_mod(_poly_mul(pa, _poly_trim(digit[b]), p), modulus, p)
            row.append(_undigits(prod_poly + (0,) * (e - len(prod_poly)), p))
        mul_rows.append(tuple(row))

    return FiniteField(p=p, e=e, q=q, modulus=modulus,
                       add_table=tuple(add_rows), mul_table=tuple(mul_rows))


def affine_points(field: FiniteField, dim: int):
    """All q^dim coordinate tuples in lexicographic order."""
    return list(product(field.elements(), repeat=dim))


def projective_points(field: FiniteField, dim: int) -> list[tuple[int, ...]]:
    """Normalized representatives of the 1-dimensional subspaces of F_q^dim.

    One vector per subspace, first nonzero coordinate equal to 1, in
    lexicographic order.  There are (q^dim - 1)/(q - 1) of them.
    """
    out = []
    for v in product(field.elements(), repeat=dim):
        lead = next((c for c in v if c != 0), 0)
        if lead == 1:
            out.append(v)
    return out


def enumerate_hyperplanes(field: FiniteField, dim: int):
    """Hyperplane parallel classes of the affine space of dimension dim.

    Returns one entry per projective equivalence class of normal functionals:
    (normal, translates) with the normal scaled so its first nonzero
    coordinate is 1, normals in lexicographic order, and the q translates
    {x : <normal, x> = c} listed for c = 0, 1, ..., q-1.  Translates are
    sorted tuples of point indices.
    """
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    normals = projective_points(field, dim)
    values = field.gram(normals, affine_points(field, dim))
    return [(normal, [tuple(np.flatnonzero(row == c).tolist())
                      for c in field.elements()])
            for normal, row in zip(normals, values)]
