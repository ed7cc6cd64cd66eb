"""Exact spectra for graphs whose eigenvalues are known in advance.

No eigensolver and no rounding.  A spectrum claim {theta_i with
multiplicity m_i} is verified in two exact steps: the annihilating product
prod_i (A - theta_i I) must vanish (irrational conjugate pairs +-sqrt(t)
combine into the integer factor A^2 - tI), and the multiplicities are the
unique solution of the trace system tr(A^s) = sum_i m_i theta_i^s over the
rationals.  Candidates past Gershgorin's bound |theta| <= Delta, the
maximum degree (radicands t > Delta^2), give invertible factors: they get
multiplicity 0 and enter no product.

The product shares one power: A^2 is built once, and the integer
candidates pair in order into quadratics A^2 - (a + b)A + ab I, built
elementwise from A and A^2 like the radical factors A^2 - tI; only
products between factors, at most one of them linear, use BLAS.  When A
is regular of degree Delta and Delta is a candidate, A - Delta I is left
out while the product P of the others is constant, since P = cJ gives
(A - Delta I)P = 0 (AJ = Delta J); otherwise, as on a disconnected
regular graph, it is multiplied in.  The traces come from A and A^2
(tr A^2 is the number of edge ends, tr A^3 and tr A^4 sums of products of
their entries); higher ones from further powers A^p = A A^(p-1).  So an
SRG spectrum {k, r, s} takes one n x n product, A^2, and a glued DDG's
formula spectrum {k, +-theta1, 0} two.

Each product picks its own number type from its own bound, the largest
absolute row sum of the left operand times the largest absolute entry of
the right: float32 (BLAS) below 2^24, float64 below 2^53, exact in any
summation order, and Python-int object arrays otherwise.  Traces are sums
of nonnegative terms at most n Delta^s, added in float64 below 2^53, else
in Python ints, never in float32.  Closed-form bounds on the whole
schedule count the products that can reach 2^53, and TooLarge stops a call
whose object-tier products or rational trace solve MAX_OBJECT_WORK
estimates too slow before any product runs.

Eigenvalues are Python ints or Radical objects (+-sqrt(t) for non-square
t > 0); perfect squares collapse to ints on construction.

The closed forms at the end (the DDG formula spectrum, the SRG spectrum
{k, r^f, s^g}, the Hoffman and Delsarte ratio bounds and the
coclique-deletion spectrum) follow Brouwer & Van Maldeghem, "Strongly
Regular Graphs" (2022).  The SRG ones take an SrgParams record, whose
constructor checks k(k-lambda-1) = (v-k-1)mu, and read r, s, f and g from
one helper.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ddg import DdgParams
from .errors import (InfeasibleParams, NonIntegralMultiplicity, NotAnnihilated,
                     TooLarge)
from .graphs import Certificate, Graph


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
# exact matrix arithmetic: each product in the narrowest number type that
# its own bound proves exact


def adjacency_matrix(g: Graph):
    """0/1 adjacency matrix as float32."""
    return g.matrix.astype(np.float32)


# limit on max(n^3 * products past 2^53, rows * unknowns^2 of the trace
# solve) * (bit length of the largest bound) for a call whose schedule
# reaches 2^53; past it exact_spectrum raises TooLarge instead of running
# Python-int matrix products for minutes
MAX_OBJECT_WORK = 1 << 32


def _number_type(bound: int):
    """float32 below 2^24, float64 below 2^53, else object (Python ints):
    the narrowest type that holds every integer up to bound exactly."""
    if bound < 1 << 24:
        return np.float32
    return np.float64 if bound < 1 << 53 else object


def _as_type(m, dtype):
    """The integer matrix m in dtype, which must hold its entries."""
    if m.dtype == dtype:
        return m
    return m.astype(np.int64).astype(object) if dtype is object \
        else m.astype(dtype)


def _max_abs(m) -> int:
    """The largest absolute entry of m, exact in any number type."""
    return int(np.abs(m).max())


def _times(left, right):
    """left @ right of integer matrices, exact: no entry of either operand
    and no partial sum passes max(1, largest absolute row sum of left) *
    max(1, largest absolute entry of right), and the product runs in that
    bound's number type.  Row sums add nonnegative integers in float64 (in
    Python ints for object arrays): exact below 2^53 and, since rounding is
    monotone, at least 2^53 when the true sum is, so the type is right."""
    rows = np.abs(left).sum(axis=1, dtype=None if left.dtype == object
                            else np.float64)
    dtype = _number_type(max(1, int(rows.max())) * max(1, _max_abs(right)))
    return _as_type(left, dtype) @ _as_type(right, dtype)


def _matrix_powers(adj):
    """p -> A^p for A = adj, each power built once, on first use, as A
    times the power below it."""
    powers = [adj]

    def power(p: int):
        while len(powers) < p:
            powers.append(_times(adj, powers[-1]))
        return powers[p - 1]
    return power


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


def _factor(power, c2: int, c1: int, c0: int):
    """c2 A^2 + c1 A + c0 I, c2 or c1 nonzero, built elementwise from the
    powers A^p = power(p) it needs, in the number type of its entry
    bound."""
    terms = [(c, power(p)) for p, c in ((2, c2), (1, c1)) if c]
    dtype = _number_type(abs(c0) + sum(abs(c) * _max_abs(m) for c, m in terms))
    (c, m), *rest = terms
    factor = c * _as_type(m, dtype)
    for c, m in rest:
        factor += c * _as_type(m, dtype)
    factor[np.diag_indices_from(factor)] += c0
    return factor


def _annihilator(power, coeffs):
    """The product of the factors `coeffs` (_factors), each factor times
    the product so far: only products between factors use BLAS."""
    product = _factor(power, *coeffs[0])
    for c in coeffs[1:]:
        product = _times(_factor(power, *c), product)
    return product


def _traces(power, n: int, delta: int, count: int) -> list[int]:
    """tr(A^s), s < count, for a symmetric n x n 0/1 matrix A with zero
    diagonal and row sums at most delta: n, 0, the number of nonzero
    entries, then sum_ij (A^a)_ij (A^b)_ij, a = s // 2, b = s - a.  Its
    terms are nonnegative and add up to at most n delta^s: in float64 below
    2^53, else in Python ints."""
    traces = [n, 0, int(np.count_nonzero(power(1)))][:count]
    for s in range(3, count):
        dtype = np.float64 if n * delta ** s < 1 << 53 else object
        traces.append(int(np.vdot(_as_type(power(s // 2), dtype),
                                  _as_type(power(s - s // 2), dtype))))
    return traces


def _schedule_bound(n: int, delta: int, coeffs, rows: int) -> tuple[int, int]:
    """(bound, products) of exact_spectrum on the factors `coeffs` and
    `rows` traces, from closed forms for a 0/1 A with row sums at most
    delta: the largest bound of any step, and the number of n x n products
    whose bound reaches 2^53.  Factor c2 A^2 + c1 A + c0 I has entries and
    row sums at most c2 delta^2 + |c1| delta + |c0|, so the product of the
    first j factors is bounded by the first j of these multiplied; the
    power A^p, p >= 3, by delta^(p-1); the trace tr(A^s) by n delta^s."""
    chain = list(itertools.accumulate(
        (c2 * delta * delta + abs(c1) * delta + abs(c0)
         for c2, c1, c0 in coeffs), operator.mul))
    steps = chain[1:] + [delta ** (p - 1) for p in range(3, rows // 2 + 1)]
    bound = max(chain[:1] + steps + [n * delta ** (rows - 1)])
    return bound, sum(b >= 1 << 53 for b in steps)


def _check_object_work(n: int, bound: int, products: int,
                       solve: int) -> None:
    """TooLarge when a schedule whose bound reaches 2^53 takes more than
    MAX_OBJECT_WORK for its products past 2^53, or for the `solve` rational
    operations of the trace system.  Below 2^53 the solve is small:
    n delta^(rows-1) < 2^53 keeps rows <= 53 once delta >= 2."""
    bits = bound.bit_length()
    if bound < 1 << 53 or max(n ** 3 * products, solve) * bits <= \
            MAX_OBJECT_WORK:
        return
    work = (f"{products} exact products of {n} x {n} matrices"
            if n ** 3 * products >= solve else
            f"{solve} rational operations of the trace solve")
    raise TooLarge(f"{work} past a {bits}-bit bound exceed the object-tier "
                   f"limit")


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

    Verifies the annihilating product exactly, then solves the trace system
    for the multiplicities in rational arithmetic.  Conjugate +-sqrt(t)
    eigenvalues share one unknown, so their multiplicities come out equal.
    Candidates that are not eigenvalues get multiplicity 0 and stay in the
    result; a missing eigenvalue raises NotAnnihilated.
    """
    ints, rads = _candidate_sets(candidates)
    n = g.n
    if n == 0:
        return Spectrum((), ())
    if not ints and not rads:
        raise NotAnnihilated("empty candidate list")

    # Gershgorin: every eigenvalue has |theta| <= delta, so A - aI for
    # |a| > delta and A^2 - tI for t > delta^2 are invertible and take no
    # part in annihilation; those candidates keep multiplicity 0
    degrees = np.count_nonzero(g.matrix, axis=1)
    delta = int(degrees.max())
    counts = dict.fromkeys(ints + [Radical(t) for t in rads], 0)
    missing = NotAnnihilated(f"candidates {list(counts)} do not annihilate "
                             f"the adjacency matrix")
    ints = [a for a in ints if abs(a) <= delta]
    rads = [t for t in rads if t <= delta * delta]
    eigs = ints + [Radical(t) for t in rads]
    if not eigs:
        raise missing

    # AJ = delta J when A is regular, so when delta is one of several
    # candidates a constant product P = cJ of the other factors proves
    # (A - delta I)P = 0 without forming it; the work guard counts that
    # product all the same
    deflate = delta in ints and len(eigs) > 1 and int(degrees.min()) == delta
    coeffs = _factors([a for a in ints if not (deflate and a == delta)], rads)
    degree_factor = (0, 1, -delta)
    rows = len(ints) + 2 * len(rads)
    _check_object_work(n, *_schedule_bound(
        n, delta, coeffs + [degree_factor] * deflate, rows),
        rows * len(eigs) ** 2)
    power = _matrix_powers(adjacency_matrix(g))
    product = _annihilator(power, coeffs)
    if not deflate or (product != product.flat[0]).any():
        if deflate:
            product = _times(_factor(power, *degree_factor), product)
        if product.any():
            raise missing

    # tr(A^s) = sum_i m_i theta_i^s, where (sqrt(t))^s + (-sqrt(t))^s is
    # 2 t^(s/2) for even s and 0 for odd s
    traces = _traces(power, n, delta, rows)
    system = [[Fraction(a**s) for a in ints] +
              [Fraction(0 if s % 2 else 2 * t ** (s // 2)) for t in rads] +
              [Fraction(trace)]
              for s, trace in enumerate(traces)]
    for x, e in zip(_solve_exact(system, len(eigs)), eigs):
        counts[e] = _as_count(x, e)
    spec = make_spectrum((x, m) for e, m in counts.items() for x in (
        (e, -e) if isinstance(e, Radical) else (e,)))
    assert spec.order == n
    return spec


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
        out: list[Eigenvalue] = [self.k]
        for theta in (self.theta1, self.theta2):
            branch = [theta, -theta] if theta != 0 else [0]
            for e in branch:
                if e not in out:
                    out.append(e)
        return out


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
