"""Resonant neighbourhoods of rational hyperplanes and their exact measures.

Two set shapes have descriptors here, both subsets of [0,1]^{nm} attached
to a nonzero integer vector q (coordinates x are read as m blocks
x_1..x_m of length n):

  weighted  ||q.x_j|| < delta_j for every block j
  mult      prod_j ||q.x_j|| < delta

The measure of a weighted factor is min(2 delta, 1): pushing forward by
y = q.x mod 1 is measure preserving.  The multiplicative star has measure
P(prod U_j < 2^m delta) for iid uniform U_j, i.e. V_m(2^m delta) with
V_m(t) = t * sum_{k<m} log^k(1/t)/k!.

The dyadic sandwich reads the coprime distances c_j = |q.x_j - p_j|, the
distance from q.x_j to the nearest integer p_j coprime with d = gcd(q).
The coprime star M'(q, delta) is {prod_j c_j < delta}, and the coprime
rectangle R'(q, r) is {c_j < r_j for every j}.  The dyadic decomposition
splits the star into the rectangles indexed by k in Z^m_{>=0} with
sum k_i = N - m, where 2^{-N-1} < delta <= 2^{-N}; the sandwich

  M'(q, delta)  subset  union_k R'(q, 2^{-k})  subset  M'(q, 2^{m+1} delta)

is checked pointwise by `sandwich_check`, from one table of the c_j per
batch of points.  The second inclusion holds for every q.  The first
holds only when every coprime distance c_j is below 1, as it is off a null
set when q is a prime power (integers coprime to a prime power are at most
2 apart).  At q with two distinct prime factors the nearest coprime
integer can lie 1 or more away (q = 6: the coprime residues 1 and 5 leave
a gap of 4); no dyadic factor 2^{-k} <= 1 contains such a point, and
`sandwich_check` rightly reports it as an inner violation.

Monte-Carlo membership is one kernel: `_block_dots` adds the per-coordinate
products q_i x_{j,i} left to right (IEEE bits on every CPU, whatever BLAS
kernel is loaded), and the weighted test and the star read the distance
table one column at a time.  q and -q give the same set, bit for bit, since
negation commutes with rounding and `np.round` is symmetric, so callers
test one of each pair; `quasi_independence_report` builds one pair table
per chunk of its shared stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product as iter_product

import numpy as np

from ._rng import map_uniform_chunks, monte_carlo_fraction
from .funcspace import WeightSystem
from .intervals import Box, box_union_intersection_measure, box_union_measure, resonant_interval_set


@dataclass(frozen=True)
class LatticePoint:
    """A nonzero integer vector with its norms and gcd precomputed."""

    coords: tuple[int, ...]

    def __post_init__(self):
        coords = tuple(int(c) for c in self.coords)
        if not coords or all(c == 0 for c in coords):
            raise ValueError("lattice point must be a nonzero integer vector")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "sup_norm", max(abs(c) for c in coords))
        object.__setattr__(self, "gcd", math.gcd(*[abs(c) for c in coords]))

    sup_norm: int = 0
    gcd: int = 0

    @property
    def n(self) -> int:
        return len(self.coords)

    def __neg__(self) -> "LatticePoint":
        return LatticePoint(tuple(-c for c in self.coords))


def shell_count(n: int, q: int) -> int:
    """Number of integer vectors with sup norm exactly q."""
    if q < 1:
        raise ValueError("shell radius must be a positive integer")
    return (2 * q + 1) ** n - (2 * q - 1) ** n


def enumerate_shell(n: int, q: int, budget: int = 20_000_000) -> list[LatticePoint]:
    """All lattice points with sup norm exactly q, in lexicographic order.

    Generated directly, not filtered from the cube [-q, q]^n: walking the
    first coordinate in order, a value +-q leaves the rest of the vector
    free, and any other value needs the rest to lie on the (n-1)-shell.
    The budget bounds the shell_count(n, q) points it makes.
    """
    if shell_count(n, q) > budget:
        raise ValueError(f"shell (n={n}, q={q}) has {shell_count(n, q)} points, over the budget")
    values = range(-q, q + 1)
    tails: list[tuple[int, ...]] = []  # the k-shell, built up from k = 0
    for k in range(1, n + 1):
        free = list(iter_product(values, repeat=k - 1))
        tails = [
            (c,) + rest for c in values for rest in (free if abs(c) == q else tails)
        ]
    return [LatticePoint(coords) for coords in tails]


def shell_weight_sum(weights: WeightSystem, n: int, q: int) -> float:
    """Sum of prod_j psi_j(v) over the shell |v| = q."""
    return shell_count(n, q) * float(np.prod(weights.values_at_norm(q)))


# ---------------------------------------------------------------------------
# totients
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def totient_sieve(limit: int) -> np.ndarray:
    """phi(0..limit) by a linear sieve."""
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if phi[p] == p:  # p is prime
            phi[p::p] -= phi[p::p] // p
    return phi


# ---------------------------------------------------------------------------
# descriptors and exact measures
# ---------------------------------------------------------------------------

VARIANTS = ("weighted", "mult")


@dataclass(frozen=True)
class ResonantDescriptor:
    """One resonant neighbourhood (see the module docstring for the sets).

    weighted:  deltas has length m (one radius per block)
    mult:      delta is the product budget, m says how many blocks

    The star's measure needs delta <= 2^-m, which `measure_exact` enforces;
    membership is well defined for any positive radii.
    """

    variant: str
    q: LatticePoint
    m: int
    deltas: tuple[float, ...] = ()
    delta: float = float("nan")

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.m < 1:
            raise ValueError("m must be positive")
        if self.variant == "weighted":
            if len(self.deltas) != self.m:
                raise ValueError("weighted sets need one delta per block")
            if any(d < 0 for d in self.deltas):
                raise ValueError("deltas must be non-negative")
        else:
            if not self.delta > 0:
                raise ValueError("mult stars need a positive delta")

    @property
    def n(self) -> int:
        return self.q.n

    @property
    def ambient_dim(self) -> int:
        return self.n * self.m

    @cached_property
    def boxes(self) -> list[Box]:
        """n = 1 only: the set (or its dyadic surrogate) as boxes, built once."""
        if self.n != 1:
            raise ValueError("exact boxes are available for n = 1 only")
        q = self.q.coords[0]
        if self.variant == "weighted":
            return [tuple(resonant_interval_set(q, dd) for dd in self.deltas)]
        return [
            tuple(resonant_interval_set(q, 2.0**-k) for k in idx)
            for idx in dyadic_decompose(self.m, self.delta).indices
        ]


def weighted_rect(q: LatticePoint, deltas) -> ResonantDescriptor:
    deltas = tuple(float(d) for d in deltas)
    return ResonantDescriptor(variant="weighted", q=q, m=len(deltas), deltas=deltas)


def mult_star(q: LatticePoint, m: int, delta: float) -> ResonantDescriptor:
    return ResonantDescriptor(variant="mult", q=q, m=m, delta=float(delta))


def v_star(m: int, t: float) -> float:
    """V_m(t) = P(U_1 ... U_m < t) for iid uniforms: t * sum_{k<m} log^k(1/t)/k!."""
    if not 0 < t <= 1:
        raise ValueError(f"t must lie in (0, 1], got {t}")
    L = math.log(1.0 / t)
    term = 1.0
    acc = 1.0
    for k in range(1, m):
        term *= L / k
        acc += term
    return t * acc


def measure_exact(desc: ResonantDescriptor) -> float:
    """Lebesgue measure of the descriptor's set, in closed form.

    prod_j min(2 delta_j, 1) for a weighted rectangle and V_m(2^m delta)
    for a star, which needs delta <= 2^-m.
    """
    if desc.variant == "weighted":
        return float(np.prod([min(2 * dd, 1.0) for dd in desc.deltas]))
    if desc.delta > 2.0**-desc.m:
        raise ValueError("star measure needs delta <= 2^-m")
    return v_star(desc.m, 2.0**desc.m * desc.delta)


def measure_monte_carlo(
    desc: ResonantDescriptor, n_samples: int = 1_000_000, seed: int = 0
) -> float:
    """Monte-Carlo measure via the gcd reduction (samples live in [0,1]^m)."""
    d = desc.q.gcd
    # y_j = d u_j with u uniform reproduces q.x_j mod the lattice
    frac, _ = monte_carlo_fraction(
        lambda pts: _in_set(desc.variant, pts * d, desc.deltas, desc.delta),
        dim=desc.m,
        n_samples=n_samples,
        seed=seed,
    )
    return frac


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def _dist_to_integers(v: np.ndarray) -> np.ndarray:
    out = np.round(v)
    np.subtract(v, out, out=out)
    return np.abs(out, out=out)


@lru_cache(maxsize=256)
def _coprime_residue_grid(d: int) -> np.ndarray:
    """Sorted integers r in [-d, 2d] with gcd(r mod d, d) = 1 (d >= 1)."""
    rs = [r for r in range(-d, 2 * d + 1) if math.gcd(r % d if d else r, d) == 1]
    return np.asarray(rs, dtype=float)


def coprime_dist(v: np.ndarray, d: int) -> np.ndarray:
    """Distance from v to the nearest integer coprime with d (vectorised)."""
    v = np.asarray(v, dtype=float)
    if d == 1:
        return _dist_to_integers(v)
    # in place where the arithmetic allows: this runs once per sample chunk,
    # on several threads at once, so temporaries set peak memory
    rel = np.divide(v, d)
    np.floor(rel, out=rel)
    rel *= d
    np.subtract(v, rel, out=rel)  # v - floor(v/d) d, in [0, d)
    grid = _coprime_residue_grid(d)
    idx = np.searchsorted(grid, rel)
    np.clip(idx, 1, len(grid) - 1, out=idx)
    right = grid[idx]
    np.subtract(right, rel, out=right)
    idx -= 1
    left = grid[idx]
    np.subtract(rel, left, out=left)
    np.abs(left, out=left)
    return np.minimum(left, np.abs(right, out=right), out=left)


def _block_dots(q: LatticePoint, m: int, points: np.ndarray) -> np.ndarray:
    """q.x_j for each block: (N, nm) points -> (N, m) dot values.

    The terms x_{j,i} q_i of the nonzero coordinates i are added left to
    right, in place: one rounding per product and one per addition, so the
    bits are IEEE's on every CPU.  (A BLAS matmul picks its kernel at run
    time, and a fused multiply-add kernel rounds differently.)
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = q.n
    if pts.shape[1] != n * m:
        raise ValueError(f"points must have {n * m} coordinates")
    blocks = pts.reshape(pts.shape[0], m, n)
    (i0, c0), *rest = [(i, float(c)) for i, c in enumerate(q.coords) if c]
    dots = np.multiply(blocks[:, :, i0], c0)
    if rest:
        term = np.empty_like(dots)
        for i, c in rest:
            np.multiply(blocks[:, :, i], c, out=term)
            dots += term
    return dots


def _star(dist: np.ndarray) -> np.ndarray:
    """prod_j dist[:, j], multiplied left to right, one column at a time.

    Bit-equal to np.prod(dist, axis=1) for m <= 8; reading columns avoids
    numpy's strided reduction along the short axis.
    """
    star = dist[:, 0].copy()
    for j in range(1, dist.shape[1]):
        star *= dist[:, j]
    return star


def _below(dist: np.ndarray, radii) -> np.ndarray:
    """Rows with dist[:, j] < radii[j] for every column j, an AND of columns."""
    inside = dist[:, 0] < radii[0]
    for j in range(1, dist.shape[1]):
        inside &= dist[:, j] < radii[j]
    return inside


def _in_set(variant: str, v: np.ndarray, deltas, delta) -> np.ndarray:
    """Membership in a `variant` set from its block values v (N, m).

    v holds q.x_j for points of [0,1]^{nm}, or d u_j for points u of [0,1]^m
    after the gcd reduction; either way only the distances ||v_j|| count.
    The weighted test is an AND of per-column tests, the star a left-to-right
    product of columns.
    """
    if variant == "weighted":
        return _below(_dist_to_integers(v), deltas)
    return _star(_dist_to_integers(v)) < delta


def membership(desc: ResonantDescriptor, points: np.ndarray) -> np.ndarray:
    """Vectorised membership of points (N, nm) in the descriptor's set.

    The dots q.x_j are computed here, once per call; `sandwich_check` reads
    its coprime sets from its own distance table instead.
    """
    dots = _block_dots(desc.q, desc.m, points)
    return _in_set(desc.variant, dots, desc.deltas, desc.delta)


# ---------------------------------------------------------------------------
# dyadic decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyadicDecomposition:
    m: int
    delta: float
    N: int
    indices: tuple[tuple[int, ...], ...]

    @property
    def cardinality(self) -> int:
        return len(self.indices)


def dyadic_scale(delta: float) -> int:
    """The unique N with 2^{-N-1} < delta <= 2^{-N}."""
    if not 0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    N = -math.floor(math.log2(delta))
    while 2.0 ** (-N) < delta:
        N -= 1
    while 2.0 ** (-N - 1) >= delta:
        N += 1
    return N


def _compositions(total: int, parts: int):
    """Non-negative integer tuples of length `parts` summing to `total`, lex order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def dyadic_decompose(m: int, delta: float) -> DyadicDecomposition:
    """All k in Z^m_{>=0} with sum k_i = N - m for the scale N of delta.

    Cardinality is C(N-1, m-1); requires delta <= 2^-m so that N >= m.
    """
    if m < 1:
        raise ValueError("m must be positive")
    N = dyadic_scale(delta)
    if N < m:
        raise ValueError(f"delta {delta} too large for m={m}: need delta <= 2^-m")
    indices = tuple(_compositions(N - m, m))
    assert len(indices) == math.comb(N - 1, m - 1)
    return DyadicDecomposition(m=m, delta=delta, N=N, indices=indices)


@dataclass(frozen=True)
class SandwichReport:
    points: int
    inner_hits: int
    union_hits: int
    outer_hits: int
    inner_violations: int
    outer_violations: int

    @property
    def ok(self) -> bool:
        return self.inner_violations == 0 and self.outer_violations == 0


def sandwich_check(
    q: LatticePoint,
    m: int,
    delta: float,
    n_points: int = 100_000,
    seed: int = 0,
) -> SandwichReport:
    """Pointwise check of star subset dyadic union subset inflated star.

    Random points in [0,1]^{nm} (the chunked stream of `seed`) plus one
    deterministic point on a resonant hyperplane.  Each batch of points
    gets one table of coprime distances c_j (module docstring); the star
    M'(q, delta), every rectangle R'(q, 2^{-k}) of the dyadic decomposition
    and the inflated star M'(q, 2^{m+1} delta) are read from it.  Points
    where an inclusion fails are counted as violations.
    """
    decomposition = dyadic_decompose(m, delta)
    rect_radii = [[2.0**-k for k in idx] for idx in decomposition.indices]
    inner_delta = float(delta)
    outer_delta = float(2.0 ** (m + 1) * delta)

    def counts(pts: np.ndarray) -> np.ndarray:
        dist = coprime_dist(_block_dots(q, m, pts), q.gcd)
        star = _star(dist)
        in_inner = star < inner_delta
        in_outer = star < outer_delta
        in_union = np.zeros(len(pts), dtype=bool)
        for radii in rect_radii:
            in_union |= _below(dist, radii)
        return np.array([
            len(pts),
            np.count_nonzero(in_inner),
            np.count_nonzero(in_union),
            np.count_nonzero(in_outer),
            np.count_nonzero(in_inner & ~in_union),
            np.count_nonzero(in_union & ~in_outer),
        ])

    # deterministic witness: x_j has 1/|q_i| at a nonzero coordinate of q
    i0 = max(range(q.n), key=lambda i: abs(q.coords[i]))
    unit = np.zeros(q.n)
    unit[i0] = 1.0 / abs(q.coords[i0])
    total = counts(np.tile(unit, m)[None, :])
    for chunk_counts in map_uniform_chunks(counts, q.n * m, n_points, seed):
        total += chunk_counts
    return SandwichReport(*(int(c) for c in total))


# ---------------------------------------------------------------------------
# pairwise intersections and quasi-independence
# ---------------------------------------------------------------------------


def pairwise_intersection_1d(
    d1: ResonantDescriptor, d2: ResonantDescriptor
) -> float:
    """Exact measure of the intersection of two n=1 descriptors.

    Weighted variants intersect factor-wise; multiplicative variants are
    replaced by their dyadic-union surrogates (the only exact object at this
    scale), and the two box unions intersect by recursive sweep.
    """
    if d1.m != d2.m:
        raise ValueError("descriptors must share m")
    b1, b2 = d1.boxes, d2.boxes
    if len(b1) == 1 and len(b2) == 1:
        return float(
            np.prod([s1.intersect(s2).measure() for s1, s2 in zip(b1[0], b2[0])])
        )
    return box_union_intersection_measure(b1, b2)


def set_measure_1d(desc: ResonantDescriptor) -> float:
    """Exact measure of an n=1 descriptor (dyadic surrogate for mult variants)."""
    return box_union_measure(desc.boxes)


@dataclass(frozen=True)
class QuasiIndependenceReport:
    C: float
    lamperti_lower: float
    pairs: int
    skipped_null: int
    method: str
    worst_pair: tuple[int, int] | None


def quasi_independence_report(
    descs: list[ResonantDescriptor],
    mc_samples: int = 200_000,
    seed: int = 0,
) -> QuasiIndependenceReport:
    """Worst pairwise ratio mu(Ei & Ej) / (mu(Ei) mu(Ej)) across the family.

    Exact for n = 1 (sweeps); Monte-Carlo otherwise, from one pair table per
    chunk of one shared stream (`_mc_pair_fractions`).  Pairs with a null
    factor are skipped and counted; the reported constant is floored at 1 (a
    disjoint family is as independent as it gets), and 1/C is the
    Lamperti-style lower bound on the measure of the limsup carried by the
    family.
    """
    exact = all(d.n == 1 for d in descs)
    measures = [
        set_measure_1d(d) if exact else measure_monte_carlo(d, mc_samples, seed)
        for d in descs
    ]
    all_pairs = [(i, j) for i in range(len(descs)) for j in range(i + 1, len(descs))]
    pairs = [(i, j) for i, j in all_pairs if measures[i] != 0 and measures[j] != 0]
    if exact:
        inters = [pairwise_intersection_1d(descs[i], descs[j]) for i, j in pairs]
    else:
        inters = _mc_pair_fractions(descs, pairs, mc_samples, seed)
    C = 1.0
    worst = None
    for (i, j), inter in zip(pairs, inters):
        ratio = inter / (measures[i] * measures[j])
        if ratio > C:
            C = ratio
            worst = (i, j)
    return QuasiIndependenceReport(
        C=float(C),
        lamperti_lower=1.0 / float(C),
        pairs=len(pairs),
        skipped_null=len(all_pairs) - len(pairs),
        method="exact-sweep" if exact else "monte-carlo",
        worst_pair=worst,
    )


def _mc_pair_fractions(
    descs: list[ResonantDescriptor],
    pairs: list[tuple[int, int]],
    n_samples: int,
    seed: int,
) -> list[float]:
    """Fraction of the stream of `seed` in Ei & Ej, for each pair (i, j).

    Each chunk computes the membership row of every descriptor in a pair
    once and counts each pair's hits from those boolean rows; the integer
    tables are summed in chunk order, so the fractions equal those of one
    `monte_carlo_fraction` run per pair, bit for bit.
    """
    used = sorted({i for pair in pairs for i in pair})
    if len({descs[i].ambient_dim for i in used}) > 1:
        raise ValueError("descriptors must share the ambient dimension")
    if not pairs:
        return []

    def table(pts: np.ndarray) -> np.ndarray:
        rows = {i: membership(descs[i], pts) for i in used}
        both = np.empty(len(pts), dtype=bool)
        return np.array(
            [np.count_nonzero(np.logical_and(rows[i], rows[j], out=both)) for i, j in pairs],
            dtype=np.int64,
        )

    hits = sum(map_uniform_chunks(table, descs[used[0]].ambient_dim, n_samples, seed))
    return [h / n_samples for h in hits.tolist()]
