"""Exact spectra for graphs whose eigenvalues are known in advance.

No eigensolver and no rounding.  A spectrum claim {theta_i with
multiplicity m_i} is verified in two exact steps: the multiplicities solve
the trace system tr(A^s) = sum_i m_i theta_i^s modulo the prime
P = 2^29 - 3, one unknown per integer and per conjugate pair +-sqrt(t);
then the candidates with a nonzero multiplicity must annihilate A,
prod_i (A - theta_i I) = 0, a pair +-sqrt(t) as the integer factor
A^2 - tI.  Candidates past Gershgorin's bound |theta| <= Delta, the
maximum degree (radicands t > Delta^2), get multiplicity 0 and enter
neither step.  At most 4096 vertices keep P > n and P > Delta^2, so the
candidates stay distinct mod P, the system has full column rank mod P,
and when they annihilate A the residues are the multiplicities; any other
outcome (an inconsistent system, a value above n, a nonzero product)
proves that an eigenvalue is missing.

The traces come from A and A^2, higher ones from powers A^b = A A^(b-1)
mod P, one per two candidates.  The annihilating product shares A^2: the
integer candidates pair in order into quadratics A^2 - (a + b)A + ab I,
built elementwise like the radical factors A^2 - tI, and only products
between factors use BLAS.  While their closed-form bound is below 2^53,
each product runs in float32 below 2^24, else in float64, exact in any
summation order; on a graph regular of degree Delta, a candidate,
A - Delta I is left out while the product Q of the others is constant
(Q = cJ gives (A - Delta I)Q = 0, as AJ = Delta J).  Past 2^53 the product
is zero-tested modulo word-size primes whose product passes the bound
(Dumas, Giorgi & Pernet, "Dense linear algebra over word-size prime
fields: the FFLAS and FFPACK packages", ACM TOMS 2008); one loop,
_product, multiplies the factors in either tier.  In the spectrum
command, an SRG's {k, r, s} takes one n x n product, A^2, and a glued
DDG's formula spectrum {k, +-theta1, 0} two.  TooLarge stops a stage, the
traces with their solve or the product, whose work passes MAX_WORK before
it runs.  Both stages multiply in one graphs._blas_scope.

The n x n arrays a spectrum holds are A (float32), A^2, built once for
the traces or a factor, and the running product: the last factor with an
A^2 term is built in A^2's place once no trace or factor reads A^2 again,
A itself is the factor A, the traces tr A^3 and tr A^4 are float64 sums
that copy neither matrix, and the number-type bounds and the constancy
test are reductions, over _BAND rows at a time where an absolute value
is needed.  On the ladder an SRG spectrum holds two such arrays and a
glued DDG's three.

Eigenvalues are Python ints or Radical objects (+-sqrt(t) for non-square
t > 0); perfect squares collapse to ints on construction.

The closed forms at the end (the DDG formula spectrum, the SRG spectrum
{k, r^f, s^g} that gen-srg1 reports, gen-ddg's spectrum from a passing DDG
certificate, the Hoffman and Delsarte ratio bounds and the coclique-deletion
spectrum) follow Brouwer & Van Maldeghem, "Strongly Regular Graphs" (2022).
The SRG ones take an SrgParams record, never a bare tuple, whose
constructor raises ValueError unless k(k-lambda-1) = (v-k-1)mu, and read
r, s, f and g from one helper, InfeasibleParams when they are not integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ddg import DdgParams
from .errors import InfeasibleParams, NotAnnihilated, TooLarge
from .gf import is_prime
from .graphs import (_blas_scope, Certificate, check_vertices, degrees,
                     Graph, VertexPartition)


@dataclass(frozen=True)
class Radical:
    """+-sqrt(radicand) for a positive non-square integer radicand."""

    radicand: int
    negative: bool = False

    def __post_init__(self):
        if self.radicand <= 0 or math.isqrt(self.radicand) ** 2 == self.radicand:
            raise ValueError(f"radicand {self.radicand} must be a non-square "
                             f"positive integer")

    def __neg__(self) -> "Radical":
        return Radical(self.radicand, not self.negative)

    def __repr__(self) -> str:
        return f"-sqrt({self.radicand})" if self.negative else f"sqrt({self.radicand})"


Eigenvalue = int | Radical


def exact_root(t: int) -> Eigenvalue:
    """sqrt(t) as an int when t is a perfect square, else a Radical."""
    if t < 0:
        raise ValueError(f"negative radicand {t}")
    r = math.isqrt(t)
    return r if r * r == t else Radical(t)


def _order_key(e: Eigenvalue) -> int:
    """e * |e|, strictly increasing in the value of e and exact."""
    if isinstance(e, int):
        return e * abs(e)
    return -e.radicand if e.negative else e.radicand


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues in decreasing order with their multiplicities."""

    eigenvalues: tuple[Eigenvalue, ...]
    multiplicities: tuple[int, ...]

    @property
    def order(self) -> int:
        return sum(self.multiplicities)

    def entries(self) -> list[tuple[Eigenvalue, int]]:
        return list(zip(self.eigenvalues, self.multiplicities))

    def multiplicity_of(self, eig: Eigenvalue) -> int:
        return dict(self.entries()).get(eig, 0)

    def nonzero(self) -> "Spectrum":
        """Drop eigenvalues of multiplicity 0 (unused candidates)."""
        return make_spectrum((e, m) for e, m in self.entries() if m)

    def serialize(self) -> list[list]:
        return [[e if isinstance(e, int) else repr(e), m] for e, m in self.entries()]

    def __repr__(self) -> str:
        return f"Spectrum({', '.join(f'{e}^{m}' for e, m in self.entries())})"


def make_spectrum(pairs) -> Spectrum:
    """Normalize (eigenvalue, multiplicity) pairs: merge equal eigenvalues,
    sort in decreasing order, reject negative multiplicities."""
    merged: dict[Eigenvalue, int] = {}
    for e, m in pairs:
        if m < 0:
            raise ValueError(f"negative multiplicity {m} for {e}")
        if not isinstance(e, (int, Radical)):
            raise TypeError(f"eigenvalue {e!r} must be int or Radical")
        merged[e] = merged.get(e, 0) + m
    order = sorted(merged, key=_order_key, reverse=True)
    return Spectrum(tuple(order), tuple(merged[e] for e in order))


# ---------------------------------------------------------------------------
# exact matrix arithmetic: floats below 2^53, residues modulo primes


def adjacency_matrix(g: Graph):
    """0/1 adjacency matrix as float32."""
    return g.matrix.astype(np.float32)


# the prime of the trace solve.  check_vertices keeps n <= 4096, so the
# maximum degree is Delta <= 4095 and P > Delta^2: the candidates that pass
# Gershgorin, |a| <= Delta and radicands t <= Delta^2, stay distinct mod P,
# and so do every a^2 and t.  P > n too, so a multiplicity in [0, n] is its
# own residue.  Delta P < 2^41 and n^2 P < 2^53.
P = (1 << 29) - 3

# limit on the work of each of the two stages of exact_spectrum, checked
# before the stage's first product: n^3 per n x n product, plus 2^8 per
# rows x unknowns^2 of the trace solve, whose int64 row updates each take
# about as long as 2^8 multiply-adds of a BLAS product
MAX_WORK = 1 << 37

# rows at a time in which _times sums |left| and _factor adds c1 A: for
# c1 A, 16 to 256 rows take about the same time at 364-4095 vertices and
# a whole scaled copy up to 3.5 times as long; 64 rows hold 256 n bytes
_BAND = 64


def check_spectrum_vertices(n: int) -> None:
    """TooLarge for a graph past MAX_BUILD_VERTICES, the limit under which
    P > n and P > Delta^2."""
    check_vertices(n, "the graph of a spectrum")


def _check_work(n: int, products: int, rows: int = 0,
                unknowns: int = 0) -> None:
    """TooLarge when n^3 products + 2^8 rows unknowns^2 exceeds MAX_WORK."""
    if n ** 3 * products + (rows * unknowns ** 2 << 8) > MAX_WORK:
        solve = f" and a {rows} x {unknowns} trace solve" if rows else ""
        raise TooLarge(f"{products} products of {n} x {n} matrices{solve} "
                       f"exceed the spectrum work limit")


def _number_type(bound: int):
    """float32 below 2^24, else float64: exact up to a bound below 2^53."""
    return np.float32 if bound < 1 << 24 else np.float64


def _max_abs(m) -> int:
    """The largest absolute entry of an integer matrix, from two reductions
    that copy nothing."""
    return max(int(m.max()), -int(m.min()))


def _times(left, right):
    """left @ right of integer matrices in the number type of max(1, largest
    absolute row sum of left) * max(1, largest absolute entry of right),
    which bounds every entry and partial sum and must stay below 2^53.
    The row sums are taken _BAND rows at a time, so no absolute-value copy
    of left is held whole."""
    rows = np.concatenate([np.abs(left[i:i + _BAND]).sum(axis=1,
                                                         dtype=np.float64)
                           for i in range(0, len(left), _BAND)])
    dtype = _number_type(max(1, int(rows.max())) * max(1, _max_abs(right)))
    return left.astype(dtype, copy=False) @ right.astype(dtype, copy=False)


def _factors(ints: list[int], rads: list[int]) -> list[tuple[int, int, int]]:
    """prod (A - aI) over ints times prod (A^2 - tI) over rads as factors
    (c2, c1, c0) = c2 A^2 + c1 A + c0 I: the ints paired in order,
    (A - aI)(A - bI) = A^2 - (a + b)A + ab I, then A^2 - tI per radicand,
    then A - aI for a last unpaired int."""
    factors = [(1, -a - b, a * b) for a, b in zip(ints[::2], ints[1::2])]
    factors += [(1, 0, -t) for t in rads]
    if len(ints) % 2:
        factors.append((0, 1, -ints[-1]))
    return factors


def _factor(a, a2, c2: int, c1: int, c0: int, out=None):
    """c2 A^2 + c1 A + c0 I, monic (c2 = 1, or c2 = 0 and c1 = 1), built
    elementwise from A = a and A^2 = a2 (None when c2 = 0) in the number
    type of its entry bound.  A itself is the factor (0, 1, 0), not a copy,
    so callers must not write to it.  With out = a2, a factor with an A^2
    term is built in A^2's place when the number types agree.  c1 A is
    added _BAND rows at a time, so no scaled copy of A is held whole."""
    if (c2, c1, c0) == (0, 1, 0):
        return a
    terms = [(c, m) for c, m in ((c2, a2), (c1, a)) if c]
    dtype = _number_type(abs(c0) + sum(abs(c) * _max_abs(m)
                                       for c, m in terms))
    (_, first), *rest = terms
    factor = out if first is out and out.dtype == dtype else \
        first.astype(dtype)
    for c, m in rest:
        for i in range(0, len(m), _BAND):
            factor[i:i + _BAND] += c * m[i:i + _BAND].astype(dtype,
                                                             copy=False)
    factor[np.diag_indices_from(factor)] += c0
    return factor


def _product(a, a2, coeffs, ell: int = 0):
    """The product of the factors `coeffs` (_factors), each factor times
    the product so far: only products between factors use BLAS.  Exact
    (ell = 0), by _times: the last factor with an A^2 term is built in
    A^2's place (_factor's out), so a2 is consumed and the product holds
    A, A^2 and the running product as n x n arrays.  Modulo ell: each
    factor is built from its coefficients mod ell (entries below
    ell (Delta + 2) < 2^53), in float64 with partial sums below
    n (ell - 1)^2, kept below 2^53; a2 is only read."""
    last = max((i for i, c in enumerate(coeffs) if c[0]), default=None)
    product = None
    for i, c in enumerate(coeffs):
        if ell:
            factor = _factor(a, a2, *(x % ell for x in c)) \
                .astype(np.float64) % ell
            product = factor if product is None else factor @ product % ell
        else:
            factor = _factor(a, a2, *c, out=a2 if i == last else None)
            product = factor if product is None else _times(factor, product)
    return product


def _annihilates(a, a2, delta: int, coeffs, deflate: bool) -> bool:
    """Whether the product of the factors `coeffs` (_factors) of A = a and
    A^2 = a2, times A - delta I when deflate, is zero.  For a 0/1 A with
    row sums at most delta, factor c2 A^2 + c1 A + c0 I has entries and
    row sums at most c2 delta^2 + |c1| delta + |c0|; these multiplied
    bound the product.  Below 2^53 it runs in floats, without A - delta I
    while the rest is constant (AJ = delta J); past it, modulo the largest
    primes l with n (l - 1)^2 < 2^53 until their product passes the bound."""
    n = len(a)
    degree = (0, 1, -delta)  # A - delta I
    factors = coeffs + [degree] * deflate
    bound = math.prod(c2 * delta * delta + abs(c1) * delta + abs(c0)
                      for c2, c1, c0 in factors)
    if bound >= 1 << 53:
        top = math.isqrt(((1 << 53) - 1) // n) + 1
        # primes past 2^(b-1), b the bit length of top, add b - 1 bits each
        count = -(-bound.bit_length() // (top.bit_length() - 1))
        _check_work(n, count * len(factors))
        modulus, primes = 1, filter(is_prime, range(top, 1, -1))
        while modulus <= bound:  # the work check leaves enough primes
            ell = next(primes)
            if _product(a, a2, factors, ell).any():
                return False
            modulus *= ell
        return True
    _check_work(n, len(factors) - 1)
    product = _product(a, a2, coeffs)
    if deflate:
        if product.min() == product.max():
            return True
        product = _times(_factor(a, a2, *degree), product)
    return not product.any()


def _traces(a, a2, count: int) -> list[int]:
    """tr(A^s) mod P, s < count, for a symmetric n x n 0/1 matrix A = a
    with zero diagonal and row sums at most Delta, and A^2 = a2 (read from
    count 4 on): n, 0, the number of nonzero entries, then sum_ij
    (A^a)_ij (A^b)_ij, a = s // 2, b = s - a.  From A and A^2 every term
    and partial sum is at most n Delta^3 < 2^53 (2^48 at 4096 vertices),
    accumulated in float64 by einsum, which copies neither matrix.  Past
    them the powers A^b = A A^(b-1) mod P have partial sums below
    Delta P < 2^53 in float64, and the terms, below P^2 < 2^63, are
    reduced mod P and summed below n^2 P < 2^63 in int64."""
    traces = [len(a), 0, int(np.count_nonzero(a))]
    low = high = a
    for s in range(3, count):
        if s % 2:  # from A^a, A^a to A^a, A^(a+1)
            low, high = high, a2 if s == 3 else \
                _times(a, high).astype(np.int64) % P
        x, y = (low if s % 2 else high), high
        trace = np.einsum("ij,ij->", x, y, dtype=np.float64) if s < 5 \
            else (x.astype(np.int64) * y.astype(np.int64) % P).sum()
        traces.append(int(trace) % P)
    return traces[:count]


def _solve_mod(m):
    """x with m[:, :-1] x = m[:, -1] mod P, by Gauss-Jordan elimination in
    int64 on the augmented matrix m of residues, whose columns must be
    independent mod P; None when the system is inconsistent.  A product of
    two residues stays below P^2 < 2^63."""
    unknowns = m.shape[1] - 1
    for c in range(unknowns):
        pivot = c + int(np.flatnonzero(m[c:, c])[0])
        m[[c, pivot], c:] = m[[pivot, c], c:]
        m[c, c:] = m[c, c:] * pow(int(m[c, c]), -1, P) % P
        rest = np.arange(len(m)) != c
        m[rest, c:] = (m[rest, c:] - np.outer(m[rest, c], m[c, c:]) % P) % P
    return None if m[unknowns:, -1].any() else m[:unknowns, -1]


def _candidate_sets(candidates) -> tuple[list[int], list[int]]:
    """Split candidates into integer eigenvalues and radicands of +-sqrt(t)
    pairs.  A Radical of either sign enrolls the whole pair."""
    ints: list[int] = []
    rads: list[int] = []
    for c in candidates:
        if isinstance(c, bool) or not isinstance(c, (int, Radical)):
            raise TypeError(f"candidate {c!r} must be int or Radical")
        if isinstance(c, int):
            if c not in ints:
                ints.append(c)
        elif c.radicand not in rads:
            rads.append(c.radicand)
    return ints, rads


def exact_spectrum(g: Graph, candidates) -> Spectrum:
    """Verified spectrum of g, given a superset of its eigenvalues.

    Solves the trace system for the multiplicities mod P, then proves that
    the candidates with a nonzero multiplicity annihilate the adjacency
    matrix.  Conjugate +-sqrt(t) eigenvalues share one unknown, so their
    multiplicities come out equal.  Candidates that are not eigenvalues get
    multiplicity 0 and stay in the result; a missing eigenvalue raises
    NotAnnihilated.
    """
    ints, rads = _candidate_sets(candidates)
    n = g.n
    if n == 0:
        return Spectrum((), ())
    if not ints and not rads:
        raise NotAnnihilated("empty candidate list")
    check_spectrum_vertices(n)

    # Gershgorin: every eigenvalue has |theta| <= delta, so A - aI for
    # |a| > delta and A^2 - tI for t > delta^2 are invertible and take no
    # part in annihilation; those candidates keep multiplicity 0
    deg = degrees(g.matrix)
    delta = int(deg.max())
    counts = dict.fromkeys(ints + [Radical(t) for t in rads], 0)
    missing = NotAnnihilated(f"candidates {list(counts)} do not annihilate "
                             f"the adjacency matrix")
    ints = [a for a in ints if abs(a) <= delta]
    rads = [t for t in rads if t <= delta * delta]
    eigs = ints + [Radical(t) for t in rads]
    if not eigs:
        raise missing

    # tr(A^s) = sum_i m_i theta_i^s, where (sqrt(t))^s + (-sqrt(t))^s is
    # 2 t^(s/2) for even s and 0 for odd s: sums of the columns of the
    # square Vandermonde matrix of the nodes a and +-sqrt(t), which are
    # distinct mod P (P > Delta^2, P odd), so of full rank mod P.  If the
    # candidates annihilate A, the true multiplicities, in [0, n] with
    # P > n, are the only solution
    rows = len(ints) + 2 * len(rads)
    _check_work(n, max(1, rows // 2 - 1), rows, len(eigs))
    a = adjacency_matrix(g)
    with _blas_scope(n):
        a2 = _times(a, a) if rows > 3 else None
        traces = _traces(a, a2, rows)
        values = _solve_mod(np.array(
            [[pow(a, s, P) for a in ints] +
             [0 if s % 2 else 2 * pow(t, s // 2, P) % P for t in rads] +
             [trace] for s, trace in enumerate(traces)], dtype=np.int64))
        if values is None or values.max() > n:
            raise missing

        # the candidates with a nonzero value annihilate A exactly when
        # they hold every eigenvalue, and then the values are the
        # multiplicities
        counts.update(zip(eigs, values.tolist()))
        live = [a for a in ints if counts[a]]
        rads = [t for t in rads if counts[Radical(t)]]
        deflate = delta in live and len(live) + len(rads) > 1 and \
            int(deg.min()) == delta
        coeffs = _factors([a for a in live if not (deflate and a == delta)],
                          rads)
        if a2 is None and any(c2 for c2, _, _ in coeffs):
            a2 = _times(a, a)
        if not _annihilates(a, a2, delta, coeffs, deflate):
            raise missing
    spec = make_spectrum((x, m) for e, m in counts.items() for x in (
        (e, -e) if isinstance(e, Radical) else (e,)))
    assert spec.order == n
    return spec


# ---------------------------------------------------------------------------
# closed-form spectra


@dataclass(frozen=True)
class DdgSpectrumFormula:
    """Eigenvalue candidates of a divisible design graph from its parameters.

    theta1 = sqrt(k - lambda1) comes in a +- pair totalling m(n-1)
    eigenvalues; theta2 = sqrt(k^2 - lambda2 v) in a +- pair totalling m-1.
    When a radicand is 0 the pair collapses onto the eigenvalue 0.
    """

    k: int
    theta1: Eigenvalue
    theta2: Eigenvalue
    f_sum: int  # multiplicities of +-theta1 add to this
    g_sum: int  # multiplicities of +-theta2 add to this

    def candidates(self) -> list[Eigenvalue]:
        return list(dict.fromkeys([self.k, self.theta1, -self.theta1,
                                   self.theta2, -self.theta2]))


def ddg_formula_spectrum(params: DdgParams) -> DdgSpectrumFormula:
    t1 = params.k - params.lambda1
    t2 = params.k * params.k - params.lambda2 * params.v
    if t1 < 0 or t2 < 0:
        raise ValueError(f"invalid parameters: k-lambda1 = {t1}, "
                         f"k^2 - lambda2 v = {t2}")
    return DdgSpectrumFormula(k=params.k, theta1=exact_root(t1),
                              theta2=exact_root(t2),
                              f_sum=params.m * (params.n - 1),
                              g_sum=params.m - 1)


@dataclass(frozen=True)
class SrgParams:
    """(v, k, lambda, mu) satisfying k(k-lambda-1) = (v-k-1)mu."""

    v: int
    k: int
    lam: int
    mu: int

    def __post_init__(self):
        lhs = self.k * (self.k - self.lam - 1)
        rhs = (self.v - self.k - 1) * self.mu
        if lhs != rhs:
            raise ValueError(f"infeasible parameters: k(k-lambda-1) = {lhs} "
                             f"!= (v-k-1)mu = {rhs}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.mu)

    @classmethod
    def from_certificate(cls, cert: Certificate) -> "SrgParams":
        p = cert.parameters
        return cls(p["v"], p["k"], p["lambda"], p["mu"])


def _srg_eigen(params: SrgParams) -> tuple[int, int, int, int]:
    """(r, s, f, g): the restricted eigenvalues r > s of an SRG with these
    parameters and their multiplicities; InfeasibleParams unless the
    discriminant is a perfect square and f, g are integers >= 0."""
    v, k, lam, mu = params.as_tuple()
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    root = math.isqrt(disc) if disc >= 0 else -1
    if disc < 0 or root * root != disc:
        raise InfeasibleParams(f"discriminant {disc} is not a perfect square")
    r, s = (lam - mu + root) // 2, (lam - mu - root) // 2
    if r == s:
        raise InfeasibleParams("eigenvalues r and s coincide")
    f, rest = divmod(-k - s * (v - 1), r - s)
    if rest:
        raise InfeasibleParams("multiplicities are not integers")
    if f < 0 or f > v - 1:
        raise InfeasibleParams("negative multiplicity")
    return r, s, f, v - 1 - f


def srg_spectrum(params: SrgParams) -> Spectrum:
    """{k^1, r^f, s^g} for strongly regular parameters; InfeasibleParams
    without an integer eigenvalue pair (perfect-square discriminant) and
    integer nonnegative multiplicities."""
    r, s, f, g = _srg_eigen(params)
    return make_spectrum([(params.k, 1), (r, f), (s, g)])


def certified_spectrum(cert: Certificate, g: Graph,
                       partition: VertexPartition) -> Spectrum:
    """The spectrum that g's passing DDG certificate over partition fixes:
    k and pairs +-theta1, +-theta2 of f_sum, g_sum eigenvalues, pooled when
    equal (Haemers, Kharaghani & Meulenberg, "Divisible design graphs",
    JCTA 2011).  An irrational pair splits evenly; the other excesses x of
    +theta over -theta solve sum x theta^s = tr A^s - k^s from tr A = 0
    and, for two, tr A^3 = 2(lambda1 e_in + lambda2 e_out), e_in the edges
    of g inside partition's classes.  Zero multiplicities stay, as in
    exact_spectrum; a negative or fractional split, impossible for a
    passing certificate, raises InfeasibleParams naming the traces."""
    p = DdgParams.from_certificate(cert)
    formula = ddg_formula_spectrum(p)
    totals = {formula.theta1: formula.f_sum}
    totals[formula.theta2] = totals.get(formula.theta2, 0) + formula.g_sum
    excess = dict.fromkeys(totals, Fraction(0))
    free = [t for t in totals if isinstance(t, int) and t]
    traces = "tr A = 0"
    if len(free) == 2:  # x_a a (a^2 - b^2) = tr A^3 - k^3 + b^2 k
        inside = sum(int(g.matrix[np.ix_(c, c)].sum())  # 2 e_in
                     for c in partition.classes)
        cube = p.lambda1 * inside + p.lambda2 * (p.v * p.k - inside)
        traces += f" and tr A^3 = {cube}"
        a, b = free
        excess[a] = Fraction(cube - p.k**3 + b*b*p.k, a * (a*a - b*b))
    if free:  # tr A = k + sum x theta; x_b, or x_a alone, is still 0
        excess[free[-1]] = -(p.k + excess[free[0]] * free[0]) / free[-1]
    elif p.k:
        raise InfeasibleParams(f"{traces}, but no integer pair offsets k")
    pairs = [(p.k, 1)]  # make_spectrum merges the two halves of 0
    for (theta, total), x in zip(totals.items(), excess.values()):
        if x.denominator != 1 or theta and (total + x) % 2 or abs(x) > total:
            raise InfeasibleParams(f"{traces} split the {total} eigenvalues "
                                   f"+-{theta} with excess {x}")
        plus = int(total + x) // 2
        pairs += [(theta, plus), (-theta, total - plus)]
    return make_spectrum(pairs)


def srg_eigenvalues(params: SrgParams) -> tuple[int, int]:
    """(r, s) with r > s."""
    return _srg_eigen(params)[:2]


def hoffman_coclique_size(params: SrgParams) -> Fraction:
    """v s / (s - k): the ratio bound on independent sets."""
    s = _srg_eigen(params)[1]
    return Fraction(params.v * s, s - params.k)


def delsarte_clique_size(params: SrgParams) -> Fraction:
    """1 - k/s: the clique-side ratio bound."""
    return 1 - Fraction(params.k, _srg_eigen(params)[1])


def coclique_deletion_spectrum(params: SrgParams, c: int) -> Spectrum:
    """Spectrum left after deleting a coclique of maximum size c from a
    strongly regular graph when every outside vertex sees the coclique the
    same number of times: {(k+s)^1, r^{f-c+1}, (r+s)^{c-1}, s^{g-c}}."""
    r, s, f, g = _srg_eigen(params)
    if not 1 <= c <= min(f + 1, g):
        raise InfeasibleParams(f"coclique size {c} incompatible with "
                               f"multiplicities ({f}, {g})")
    return make_spectrum([(params.k + s, 1), (r, f - c + 1), (r + s, c - 1),
                          (s, g - c)])
