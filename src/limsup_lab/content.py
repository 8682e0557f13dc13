"""Hausdorff f-content of axis rectangles, with two independent oracles.

For a rectangle with sides a_1 >= ... >= a_d and a dimension function f
bracketed between consecutive integer powers k and k+1, the infinity
f-content is comparable to

    a_1 * ... * a_k * a_{k+1}^{-k} * f(a_{k+1}),

and this expression is simultaneously the minimum over i of

    P(i) = a_1 * ... * a_i * a_{i+1}^{-i} * f(a_{i+1}),   i = 0..d-1.

Everything here uses the sup metric: "balls" are axis cubes and |B| is the
side length, so a cover by side-t cubes costs (number of cubes) * f(t).
Two oracles sandwich the formula:

  * greedy_cover_oracle tiles the rectangle by cubes at each candidate
    scale a_i with ceil rounding; its best cost lies in
    [formula, 2^d * formula] by the chain inequalities.
  * mdp_check spreads unit mass over a lattice grid of atoms and bounds the
    content from below by 1/c where c = max mu(B)/f(|B|) over sampled
    cubes, the mass distribution principle.  The grid is kept as its
    per-axis coordinates (an AtomGrid), never as a list of atoms, and all
    candidate cubes of one call are counted in one batched pass: one pair
    of searchsorted calls per axis over every cube at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .funcspace import DimensionFunction, compare


@dataclass(frozen=True)
class Rect:
    """An axis-parallel rectangle, stored as sides sorted in descending order."""

    sides: tuple[float, ...]

    def __post_init__(self):
        if not self.sides:
            raise ValueError("a rectangle needs at least one side")
        if any(not 0 < s <= 1 for s in self.sides):
            raise ValueError(f"sides must lie in (0, 1], got {self.sides}")
        object.__setattr__(self, "sides", tuple(sorted(self.sides, reverse=True)))

    @property
    def d(self) -> int:
        return len(self.sides)


@dataclass(frozen=True)
class ContentEstimate:
    formula_value: float
    bracket_k: int
    min_index: int
    products: tuple[float, ...]


def content_bracket(f: DimensionFunction, d: int) -> int | None:
    """Smallest k in [0, d-1] with k preceding f and f preceding k+1.

    k = 0 is allowed (f precedes r^1); r^0 always precedes a dimension
    function since f itself is non-decreasing with limit 0.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    for k in range(0, d):
        below_ok = True if k == 0 else compare(f, k).s_le_f
        if below_ok and compare(f, k + 1).f_le_s:
            return k
    return None


def rect_content_formula(rect: Rect, f: DimensionFunction) -> ContentEstimate:
    """Closed-form content of a rectangle, plus the argmin diagnostics.

    Raises if f has no integer bracket in [0, d] or if a side exceeds the
    domain of f.
    """
    d = rect.d
    k = content_bracket(f, d)
    if k is None:
        raise ValueError(
            f"no integer bracket for {f.describe()} in dimension {d}; "
            "the content formula needs k <= f <= k+1 for some 0 <= k < d"
        )
    a = rect.sides
    if a[0] > f.domain_cap * (1 + 1e-12):
        raise ValueError(
            f"side {a[0]} exceeds the dimension function domain cap {f.domain_cap}"
        )
    products = tuple(
        float(np.prod(a[:i])) * a[i] ** (-i) * f(a[i]) for i in range(d)
    )
    min_index = int(np.argmin(products))  # first occurrence wins ties
    value = float(np.prod(a[:k])) * a[k] ** (-k) * f(a[k])
    return ContentEstimate(
        formula_value=value, bracket_k=k, min_index=min_index, products=products
    )


@dataclass(frozen=True)
class CoverEstimate:
    value: float
    scale_index: int
    scale: float
    count: int


def greedy_cover_oracle(rect: Rect, f: DimensionFunction) -> CoverEstimate:
    """Cheapest one-scale cube cover among the side-length scales.

    At scale a_i the rectangle tiles with prod_j ceil(a_j / a_i) cubes of
    side a_i, costing count * f(a_i).  The best candidate upper-bounds the
    content and stays within 2^d of the closed formula.
    """
    a = rect.sides
    best = None
    for i, t in enumerate(a):
        count = 1
        for s in a:
            if s > t:
                count *= math.ceil(s / t)
        cost = count * f(t)
        if best is None or cost < best.value:
            best = CoverEstimate(value=cost, scale_index=i, scale=t, count=count)
    return best


@dataclass(frozen=True, eq=False)
class AtomGrid:
    """Atoms on a product grid, kept as the sorted coordinates of each axis.

    The atoms are every point of axes[0] x ... x axes[d-1]; atom i is the
    i-th of them in C (`ij`) order.  len() is the number of atoms.
    """

    axes: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return math.prod(len(u) for u in self.axes)


def lattice_atoms(rect: Rect, total: int = 200_000) -> AtomGrid:
    """Deterministic lattice sample of a rectangle, roughly `total` atoms.

    Cell spacing is (volume/total)^(1/d) in every dimension, so boxes whose
    side is a multiple of the spacing capture at least their share of atoms.
    Axis j holds the cell midpoints (k + 1/2) a_j / c_j, k = 0..c_j - 1.
    """
    a = np.asarray(rect.sides)
    d = rect.d
    h = (np.prod(a) / total) ** (1.0 / d)
    counts = np.maximum(1, np.round(a / h).astype(int))
    return AtomGrid(tuple((np.arange(c) + 0.5) * (s / c) for c, s in zip(counts, a)))


@dataclass(frozen=True)
class MdpResult:
    lower_bound: float
    c: float
    balls_used: int
    balls_skipped: int
    resolution_floor: float


def mdp_check(
    atoms: AtomGrid,
    f: DimensionFunction,
    rect: Rect,
    n_balls: int = 256,
    seed: int = 0,
    resolution_floor: float | None = None,
) -> MdpResult:
    """Mass-distribution lower bound 1/c with c = max mu(B)/f(|B|).

    mu is the uniform atomic measure on the grid `atoms` (unit total mass),
    read through its per-axis coordinates only.  Balls are axis cubes.  The
    sampled cubes are corner-aligned cubes at every side scale of the
    rectangle (these witness the extremal ratio) plus randomly centred cubes
    at geometric scales.  Cubes below the resolution floor (10 / N^{1/d} by
    default) or above the domain cap of f are skipped and counted.

    Each cube's per-axis count is rounded outward to the atom cells, so
    mu(B) upper-bounds the share of the rectangle the cube actually covers
    and the returned bound never exceeds the continuum content.  All cubes
    are counted in one batched pass (a (K, d) array of lower corners, one
    searchsorted pair per axis); the mass is the product of the per-axis
    shares taken in axis order, and f is evaluated once per cube that
    captured mass.  A random centre is the atom at a uniform index in
    [0, len(atoms)), looked up per axis by unravelling that index over the
    axis lengths in C order.
    """
    axes = atoms.axes
    n, d = len(atoms), len(axes)
    if d != rect.d:
        raise ValueError("atom dimension does not match the rectangle")
    if resolution_floor is None:
        resolution_floor = 10.0 / n ** (1.0 / d)
    rng = np.random.default_rng(seed)
    a = np.asarray(rect.sides)

    extra = np.geomspace(
        max(resolution_floor, min(rect.sides) / 4), min(f.domain_cap, a[0]), n_balls
    )
    picks = np.unravel_index(rng.integers(0, n, size=len(extra)), [len(u) for u in axes])
    centers = np.stack([u[i] for u, i in zip(axes, picks)], axis=1)
    # the d corner-aligned critical cubes, then the randomly centred ones
    scales = list(rect.sides) + list(extra)
    t = np.asarray(scales)
    lo = np.concatenate([
        np.zeros((d, d)),
        np.clip(centers - extra[:, None] / 2.0, 0.0, np.maximum(a - extra[:, None], 0.0)),
    ])
    keep = ~((t < resolution_floor) | (t > f.domain_cap))
    lo = lo[keep]
    hi = lo + t[keep, None]

    mass = np.ones(len(lo))
    for j, u in enumerate(axes):
        half = rect.sides[j] / len(u) / 2.0
        cnt = np.searchsorted(u, hi[:, j] + half, side="right") - np.searchsorted(
            u, lo[:, j] - half, side="left"
        )
        mass = mass * (cnt / len(u))

    c_max = 0.0
    for m, k in zip(mass, np.flatnonzero(keep)):
        if m != 0.0:
            c_max = max(c_max, m / f(scales[k]))
    if c_max == 0.0:
        raise ValueError("no sampled cube captured any mass; increase n_balls or atoms")
    return MdpResult(
        lower_bound=1.0 / c_max,
        c=c_max,
        balls_used=len(lo),
        balls_skipped=len(t) - len(lo),
        resolution_floor=resolution_floor,
    )
