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
  * mdp_check spreads unit mass over sample atoms and bounds the content
    from below by 1/c where c = max mu(B)/f(|B|) over sampled cubes, the
    mass distribution principle.
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


def lattice_atoms(rect: Rect, per_side: int | None = None, total: int = 200_000) -> np.ndarray:
    """Deterministic lattice sample of a rectangle, roughly `total` atoms.

    Cell spacing is (volume/total)^(1/d) in every dimension, so boxes whose
    side is a multiple of the spacing capture at least their share of atoms.
    """
    a = np.asarray(rect.sides)
    d = rect.d
    if per_side is None:
        h = (np.prod(a) / total) ** (1.0 / d)
        counts = np.maximum(1, np.round(a / h).astype(int))
    else:
        counts = np.full(d, per_side, dtype=int)
    grids = [(np.arange(c) + 0.5) * (s / c) for c, s in zip(counts, a)]
    mesh = np.meshgrid(*grids, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


@dataclass(frozen=True)
class MdpResult:
    lower_bound: float
    c: float
    balls_used: int
    balls_skipped: int
    resolution_floor: float


def _grid_axes(atoms: np.ndarray) -> list[np.ndarray] | None:
    """Per-axis sorted coordinates when the atoms form a full product grid."""
    n = atoms.shape[0]
    axes = []
    total = 1
    for j in range(atoms.shape[1]):
        u = np.unique(atoms[:, j])
        total *= len(u)
        if total > n:
            return None
        axes.append(u)
    return axes if total == n else None


def mdp_check(
    atoms: np.ndarray,
    f: DimensionFunction,
    rect: Rect,
    n_balls: int = 256,
    seed: int = 0,
    resolution_floor: float | None = None,
) -> MdpResult:
    """Mass-distribution lower bound 1/c with c = max mu(B)/f(|B|).

    mu is the uniform atomic measure on `atoms` (unit total mass); balls are
    axis cubes.  The sampled cubes are corner-aligned cubes at every side
    scale of the rectangle (these witness the extremal ratio) plus randomly
    centred cubes at geometric scales.  Cubes below the resolution floor
    (10 / N^{1/d} by default) are skipped and counted.

    When the atoms form a full product grid (lattice_atoms output), each
    cube's per-axis count is rounded outward to the atom cells, so mu(B)
    upper-bounds the share of the rectangle the cube actually covers and
    the returned bound never exceeds the continuum content.  Scattered
    atom sets fall back to plain in-cube counting.
    """
    n, d = atoms.shape
    if d != rect.d:
        raise ValueError("atom dimension does not match the rectangle")
    if resolution_floor is None:
        resolution_floor = 10.0 / n ** (1.0 / d)
    rng = np.random.default_rng(seed)
    a = np.asarray(rect.sides)
    axes = _grid_axes(atoms)
    cells = None if axes is None else [rect.sides[j] / len(u) for j, u in enumerate(axes)]

    scales = [s for s in rect.sides]
    extra = np.geomspace(
        max(resolution_floor, min(rect.sides) / 4), min(f.domain_cap, a[0]), n_balls
    )
    candidates: list[tuple[np.ndarray, float]] = []
    for t in scales:
        candidates.append((np.zeros(d), t))  # corner-aligned critical cube
    centers = atoms[rng.integers(0, n, size=len(extra))]
    for c, t in zip(centers, extra):
        lo = np.clip(c - t / 2.0, 0.0, np.maximum(a - t, 0.0))
        candidates.append((lo, t))

    c_max = 0.0
    used = skipped = 0
    for lo, t in candidates:
        if t < resolution_floor or t > f.domain_cap:
            skipped += 1
            continue
        hi = lo + t
        if axes is not None:
            mass = 1.0
            for j, u in enumerate(axes):
                half = cells[j] / 2.0
                cnt = np.searchsorted(u, hi[j] + half, side="right") - np.searchsorted(
                    u, lo[j] - half, side="left"
                )
                mass *= cnt / len(u)
        else:
            inside = np.all((atoms >= lo) & (atoms <= hi), axis=1)
            mass = float(np.count_nonzero(inside)) / n
        if mass == 0.0:
            used += 1
            continue
        c_max = max(c_max, mass / f(t))
        used += 1
    if c_max == 0.0:
        raise ValueError("no sampled cube captured any mass; increase n_balls or atoms")
    return MdpResult(
        lower_bound=1.0 / c_max,
        c=c_max,
        balls_used=used,
        balls_skipped=skipped,
        resolution_floor=resolution_floor,
    )

