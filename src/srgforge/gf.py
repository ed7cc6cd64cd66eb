"""Exact arithmetic for finite fields GF(q), q = p^e, as integer index tables.

Elements are integers in [0, q).  Element i stands for the polynomial whose
GF(p) coefficients are the base-p digits of i, constant term first, so 0 is
the additive and 1 the multiplicative identity.  The reduction modulus is the
lexicographically first monic irreducible polynomial of degree e over GF(p)
(coefficients read constant term upward), which makes every field object a
pure function of (p, e).  Orders go up to MAX_ORDER = 2^8; the vertex limit
keeps the builders at q <= 15.

Both the modulus search and the multiplication table come from one numpy
product of digit rows modulo a monic x^e + low(x), by shift and reduce.  A
candidate modulus is irreducible when that product has no zero divisors
among the elements of degree <= e/2; the add table is the digit sum mod p.

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

MAX_ORDER = 1 << 8  # the q x q tables are tuples of ints; gram uses uint8


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _mul_digits(low: tuple[int, ...], a: np.ndarray, b: np.ndarray,
                p: int) -> np.ndarray:
    """Digit rows of a(x) b(x) modulo x^e + low(x) over GF(p), for every row
    of a against every row of b: a (len(a), len(b), e) array.

    Shift and reduce: b x^(k+1) is b x^k shifted up one digit, the digit
    that leaves the top carried back as x^e = -low(x), which is one product
    with the companion matrix of x^e + low(x); then a b is the sum of
    a_k (b x^k) over k.
    """
    e = len(low)
    shift = np.eye(e, k=1, dtype=np.int64)
    shift[-1] -= low
    out = np.zeros((len(a), *b.shape), np.int64)
    for k in range(e):
        out += a[:, k, None, None] * b
        b = b @ shift % p
    return out % p


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
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if e < 1:
        raise ValueError(f"extension degree must be >= 1, got {e}")
    q = p**e
    if q > MAX_ORDER:
        raise TooLarge(f"field order {q} exceeds {MAX_ORDER}")

    # element i's base-p digits, constant term first
    digits = (np.arange(q)[:, None] // p ** np.arange(e)) % p
    # x^e + low(x) is irreducible exactly when no nonzero element of degree
    # <= e // 2 times a nonzero element is 0, since any factorisation has
    # a factor of that degree
    low = next(low for low in product(range(p), repeat=e)
               if _mul_digits(low, digits[1:], digits[1:p ** (e // 2 + 1)],
                              p).any(2).all())
    weights = p ** np.arange(e)
    add = ((digits[:, None] + digits) % p) @ weights
    mul = _mul_digits(low, digits, digits, p) @ weights
    return FiniteField(p=p, e=e, q=q, modulus=(*low, 1),
                       add_table=tuple(map(tuple, add.tolist())),
                       mul_table=tuple(map(tuple, mul.tolist())))


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
