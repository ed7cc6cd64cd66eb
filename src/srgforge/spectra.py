"""Exact spectra for graphs whose eigenvalues are known in advance.

No eigensolver and no rounding.  A spectrum claim {theta_i with
multiplicity m_i} is verified in two exact steps: the annihilating product
prod_i (A - theta_i I) must vanish (irrational conjugate pairs +-sqrt(t)
combine into the integer factor A^2 - tI), and the multiplicities are the
unique solution of the trace system tr(A^s) = sum_i m_i theta_i^s over the
rationals.  Products run in float64 (BLAS) only while a bound proved from
the input keeps every partial sum an integer below 2^53, exact in any
summation order; past it they continue in Python-int object arrays, or
raise TooLarge when MAX_OBJECT_WORK estimates that tier too slow.

Eigenvalues are Python ints or Radical objects (+-sqrt(t) for non-square
t > 0); perfect squares collapse to ints on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ddg import DdgParams
from .errors import (InfeasibleParams, NonIntegralMultiplicity, NotAnnihilated,
                     TooLarge)
from .graphs import Graph


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
        pairs = [(e, m) for e, m in self.entries() if m]
        return make_spectrum(pairs)

    def serialize(self) -> list[list]:
        return [[e if isinstance(e, int) else repr(e), m] for e, m in self.entries()]

    def __repr__(self) -> str:
        body = ", ".join(f"{e}^{m}" for e, m in self.entries())
        return f"Spectrum({body})"


def make_spectrum(pairs) -> Spectrum:
    """Normalize (eigenvalue, multiplicity) pairs: merge equal eigenvalues,
    sort in decreasing order, reject negative multiplicities."""
    merged: list[tuple[Eigenvalue, int]] = []
    for e, m in pairs:
        if m < 0:
            raise ValueError(f"negative multiplicity {m} for {e}")
        if not isinstance(e, (int, Radical)):
            raise TypeError(f"eigenvalue {e!r} must be int or Radical")
        for idx, (e2, m2) in enumerate(merged):
            if e2 == e:
                merged[idx] = (e2, m2 + m)
                break
        else:
            merged.append((e, m))
    merged.sort(key=lambda pair: _order_key(pair[0]), reverse=True)
    return Spectrum(tuple(e for e, _ in merged), tuple(m for _, m in merged))


# ---------------------------------------------------------------------------
# exact matrix arithmetic: float64 below a proved 2^53 bound, then Python ints


def adjacency_matrix(g: Graph):
    """0/1 adjacency matrix as float64."""
    return g.matrix.astype(np.float64)


def _as_ints(mat):
    return mat.astype(np.int64).astype(object)  # Python ints, not floats


# limit on n^3 * (products left) * (bit length of the row-sum bound) when a
# product would enter the Python-int object tier; past it exact_spectrum
# raises TooLarge instead of running for minutes
MAX_OBJECT_WORK = 1 << 32


class _ExactProduct:
    """Running product of `products` factors whose rows have absolute sums
    <= `rowsum`.  Partial sums of mat @ F are then <= rowsum * max|F|;
    float64 is exact while that stays below 2^53, and mat moves to
    Python-int objects once it cannot, if MAX_OBJECT_WORK allows."""

    def __init__(self, n: int, products: int):
        self.mat = np.eye(n)
        self.rowsum = 1
        self.left = products

    def multiply(self, base, shift: int, base_rowsum: int, base_max: int):
        """mat @ (base - shift I) for an integer matrix base >= 0 with
        entries <= base_max and row sums <= base_rowsum."""
        bound = max(self.rowsum, 1) * (base_max + abs(shift))
        if self.mat.dtype != object and bound >= 1 << 53:
            n, bits = len(self.mat), bound.bit_length()
            if n ** 3 * self.left * bits > MAX_OBJECT_WORK:
                raise TooLarge(
                    f"{self.left} exact products of {n} x {n} matrices past "
                    f"a {bits}-bit bound exceed the object-tier limit")
            self.mat = _as_ints(self.mat)
        factor = _as_ints(base) if self.mat.dtype == object else base.copy()
        factor[np.diag_indices_from(factor)] -= shift
        self.mat = self.mat @ factor
        self.rowsum *= base_rowsum + abs(shift)
        self.left -= 1


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

    adj = adjacency_matrix(g)
    adj_sq = adj @ adj  # partial sums <= max degree, exact in float64
    delta = max(r.bit_count() for r in g.rows)

    product = _ExactProduct(n, len(ints) + len(rads))
    for a in ints:
        product.multiply(adj, a, delta, 1)
    for t in rads:
        product.multiply(adj_sq, t, delta * delta, delta)
    if np.any(product.mat):
        raise NotAnnihilated(
            f"candidates {ints + [exact_root(t) for t in rads]} do not "
            f"annihilate the adjacency matrix")

    # trace system: unknowns are one multiplicity per integer candidate and
    # one shared multiplicity per radical pair
    n_unknowns = len(ints) + len(rads)
    n_rows = len(ints) + 2 * len(rads)
    traces = [n]
    power = _ExactProduct(n, n_rows - 1)
    for _ in range(1, n_rows):
        power.multiply(adj, 0, delta, 1)
        traces.append(sum(map(int, power.mat.diagonal())))

    rows = []
    rhs = []
    for s in range(n_rows):
        row = [Fraction(a**s) for a in ints]
        # (sqrt(t))^s + (-sqrt(t))^s: 2 t^{s/2} for even s, 0 for odd
        row += [Fraction(2 * t ** (s // 2)) if s % 2 == 0 else Fraction(0)
                for t in rads]
        rows.append(row)
        rhs.append(Fraction(traces[s]))

    solution = _solve_exact(rows, rhs, n_unknowns)

    pairs: list[tuple[Eigenvalue, int]] = []
    for a, mult in zip(ints, solution[:len(ints)]):
        pairs.append((a, _as_count(mult, a)))
    for t, mult in zip(rads, solution[len(ints):]):
        f = _as_count(mult, exact_root(t))
        pairs.append((Radical(t), f))
        pairs.append((Radical(t, negative=True), f))

    spec = make_spectrum(pairs)
    assert spec.order == n
    return spec


def _as_count(x: Fraction, eig) -> int:
    if x.denominator != 1 or x < 0:
        raise NonIntegralMultiplicity(f"multiplicity {x} of {eig}")
    return int(x)


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction],
                 n_unknowns: int) -> list[Fraction]:
    """Gaussian elimination over the rationals for a consistent system with
    full column rank (possibly more rows than unknowns)."""
    m = [row[:] + [b] for row, b in zip(rows, rhs)]
    n_rows = len(m)
    r = 0
    for c in range(n_unknowns):
        pivot = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot is None:
            raise NonIntegralMultiplicity("trace system is rank deficient")
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        r += 1
    for i in range(r, n_rows):
        if m[i][n_unknowns] != 0:
            raise NotAnnihilated("trace system inconsistent with candidates")
    return [m[i][n_unknowns] for i in range(n_unknowns)]


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
    return DdgSpectrumFormula(
        k=params.k,
        theta1=exact_root(t1),
        theta2=exact_root(t2),
        f_sum=params.m * (params.n - 1),
        g_sum=params.m - 1,
    )


def _srg_tuple(params) -> tuple[int, int, int, int]:
    if hasattr(params, "v"):
        return params.v, params.k, params.lam, params.mu
    v, k, lam, mu = params
    return v, k, lam, mu


def srg_spectrum(params) -> Spectrum:
    """{k^1, r^f, s^g} for strongly regular parameters (v, k, lambda, mu).

    Requires the feasibility identity k(k-lambda-1) = (v-k-1)mu, an integer
    eigenvalue pair (perfect-square discriminant), and integer nonnegative
    multiplicities; InfeasibleParams otherwise.
    """
    v, k, lam, mu = _srg_tuple(params)
    if k * (k - lam - 1) != (v - k - 1) * mu:
        raise InfeasibleParams(
            f"k(k-lambda-1) = {k * (k - lam - 1)} != (v-k-1)mu = "
            f"{(v - k - 1) * mu}")
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    root = math.isqrt(disc) if disc >= 0 else -1
    if disc < 0 or root * root != disc:
        raise InfeasibleParams(f"discriminant {disc} is not a perfect square")
    r = (lam - mu + root) // 2
    s = (lam - mu - root) // 2
    if r == s:
        raise InfeasibleParams("eigenvalues r and s coincide")
    f_num = -k - s * (v - 1)
    if f_num % (r - s):
        raise InfeasibleParams("multiplicities are not integers")
    f = f_num // (r - s)
    grm = v - 1 - f
    if f < 0 or grm < 0:
        raise InfeasibleParams("negative multiplicity")
    return make_spectrum([(k, 1), (r, f), (s, grm)])


def srg_eigenvalues(params) -> tuple[int, int]:
    """(r, s) with r > s; feasibility checked via srg_spectrum."""
    v, k, lam, mu = _srg_tuple(params)
    srg_spectrum(params)
    root = math.isqrt((lam - mu) ** 2 + 4 * (k - mu))
    return (lam - mu + root) // 2, (lam - mu - root) // 2


def hoffman_coclique_size(params) -> Fraction:
    """v s / (s - k): the ratio bound on independent sets."""
    v, k, lam, mu = _srg_tuple(params)
    _, s = srg_eigenvalues(params)
    return Fraction(v * s, s - k)


def delsarte_clique_size(params) -> Fraction:
    """1 - k/s: the clique-side ratio bound."""
    v, k, lam, mu = _srg_tuple(params)
    _, s = srg_eigenvalues(params)
    return 1 - Fraction(k, s)


def coclique_deletion_spectrum(params, c: int) -> Spectrum:
    """Spectrum left after deleting a coclique of maximum size c from a
    strongly regular graph when every outside vertex sees the coclique the
    same number of times: {(k+s)^1, r^{f-c+1}, (r+s)^{c-1}, s^{g-c}}."""
    v, k, lam, mu = _srg_tuple(params)
    spec = srg_spectrum(params)
    r, s = srg_eigenvalues(params)
    f = spec.multiplicity_of(r)
    grm = spec.multiplicity_of(s)
    if not 1 <= c <= min(f + 1, grm):
        raise InfeasibleParams(f"coclique size {c} incompatible with "
                               f"multiplicities ({f}, {grm})")
    return make_spectrum([(k + s, 1), (r, f - c + 1), (r + s, c - 1),
                          (s, grm - c)])
