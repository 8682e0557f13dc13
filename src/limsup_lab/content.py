"""Hausdorff f-content of axis rectangles, with two independent oracles.

For a rectangle with sides a_1 >= ... >= a_d and a dimension function f
bracketed between consecutive integer powers k and k+1, the infinity
f-content is comparable to

    a_1 * ... * a_k * a_{k+1}^{-k} * f(a_{k+1}),

and this expression is simultaneously the minimum over i of

    P(i) = a_1 * ... * a_i * a_{i+1}^{-i} * f(a_{i+1}),   i = 0..d-1.

k is `funcspace.bracket(f, d)`, the largest such k: where f is
order-equal to r^k both k - 1 and k bracket it, and P(k-1) = P(k) there.

The package computes P in one place, `candidate_products`, which takes the
sides in any order: it prices covering at each side's scale by the ratios
of the longer sides to it.  `rect_content_formula` reads it for a corpus
of rectangles, and the weighted Hausdorff series (`criteria`) for the
resonant rectangle at every norm, where the m small sides psi_i(Q)/Q come
in component order beside (n-1)m unit sides.

Everything here uses the sup metric: "balls" are axis cubes and |B| is the
side length, so a cover by side-t cubes costs (number of cubes) * f(t).
Two oracles sandwich the formula:

  * greedy_cover_oracle tiles the rectangle by cubes at each candidate
    scale a_i with ceil rounding; its best cost lies in
    [formula, 2^d * formula] by the chain inequalities.
  * mdp_check spreads unit mass over a lattice grid of atoms and bounds the
    content from below by 1/c where c = max mu(B)/f(|B|) over sampled
    cubes, the mass distribution principle.

`rect_content_formula` and the oracles take a corpus of one dimension: a
RectCorpus holding R rectangles as an (R, d) array of sides, and one
dimension function per rectangle.  Each evaluates the whole corpus as arrays, and each rectangle's
f once over all of its cube scales; a corpus of one rectangle is the
single-rectangle case.  An AtomGrid keeps each rectangle's grid as its
per-axis atom counts and cell widths, never as a list of atoms, and
mdp_check counts every cube of the corpus against it by exact compares with
the grid's coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .funcspace import DimensionFunction, bracket


@dataclass(frozen=True, eq=False)
class RectCorpus:
    """Axis-parallel rectangles of one dimension, as an (R, d) array of sides.

    Each row is stored sorted in descending order; len() is R.
    """

    sides: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.sides, dtype=float)
        if a.ndim != 2 or a.size == 0:
            raise ValueError(f"a corpus needs an (R, d) array of sides, R, d >= 1; got {a.shape}")
        bad = a[~((a > 0) & (a <= 1))]
        if bad.size:
            raise ValueError(f"sides must lie in (0, 1], got {bad[0]}")
        a = np.ascontiguousarray(np.sort(a, axis=1)[:, ::-1])
        a.flags.writeable = False
        object.__setattr__(self, "sides", a)

    @property
    def d(self) -> int:
        return self.sides.shape[1]

    def __len__(self) -> int:
        return self.sides.shape[0]


def _caps(rects: RectCorpus, fs: Sequence[DimensionFunction]) -> np.ndarray:
    """The domain cap of each rectangle's dimension function."""
    if len(fs) != len(rects):
        raise ValueError(f"{len(rects)} rectangles need as many dimension functions, not {len(fs)}")
    return np.array([f.domain_cap for f in fs])


def _f_at(fs: Sequence[DimensionFunction], t: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Row r of the (R, K) scales t under fs[r], one evaluation per rectangle.

    Scales above a function's domain cap are read at the cap, as
    DimensionFunction.__call__ reads them.
    """
    return np.stack([f.eval_array(row) for f, row in zip(fs, np.minimum(t, caps[:, None]))])


@dataclass(frozen=True, eq=False)
class ContentEstimate:
    """Per-rectangle arrays: the formula value, k, the argmin of P and P itself (R, d)."""

    formula_value: np.ndarray
    bracket_k: np.ndarray
    min_index: np.ndarray
    products: np.ndarray


def candidate_products(
    budgets: np.ndarray, denominators, f_values: np.ndarray, unit_sides: int
) -> np.ndarray:
    """The (m, N) products P of N rectangles, one row per candidate scale.

    Column c is a rectangle with the m sides r_i = budgets[i, c] /
    denominators[c], in component order (not sorted by size), and
    `unit_sides` = u more sides of length 1; f_values[i, c] is f(r_i)
    under column c's dimension function.  The products are formed in
    place in the float array f_values, which is returned: every caller
    hands over an array it made for the purpose, and a span of the weighted
    Hausdorff series then allocates no (m, N) array of its own.  Row i holds

        f(r_i) * r_i^-u * prod_{j != i, in index order} max(psi_j/psi_i, 1),

    with psi the budgets: the sides longer than r_i contribute their ratio
    to it and the others 1, so row i is P at r_i's position in the sorted
    sides.  Unit sides enter only as r_i^-u and are never candidate scales.
    The minimum over the rows is therefore the content formula's minimum
    over all u + m sides exactly when the argmin sits among the m small
    sides: when f's content bracket k is at least u, as the nonweighted
    Hausdorff bracket (n-1)m < f < nm that `formulas.hausdorff_verdict`
    checks makes it.  (Its weighted bracket admits f below (n-1)m at n >= 2;
    the rows then price the m candidate scales alone.)

    Two steps are left out where their result is known exactly: r^0 is not
    formed (r^0 is 1.0, and x * 1.0 = x), and the factor max(psi_j/psi_i, 1)
    is not formed when psi_j <= psi_i in every column (division is
    correctly rounded and monotone, so the ratio rounds to at most 1 there
    and the factor is exactly 1.0).
    """
    products = f_values
    for i in range(len(budgets)):
        if unit_sides:
            products[i] *= (budgets[i] / denominators) ** -unit_sides
        for j in range(len(budgets)):
            if j != i and not (budgets[j] <= budgets[i]).all():
                ratio = np.divide(budgets[j], budgets[i])
                products[i] *= np.maximum(ratio, 1.0, out=ratio)
    return products


def rect_content_formula(
    rects: RectCorpus, fs: Sequence[DimensionFunction]
) -> ContentEstimate:
    """Closed-form content of each rectangle, plus the argmin diagnostics.

    Raises if some f has no integer bracket in [0, d] or if a rectangle's
    longest side exceeds the domain of its f.
    """
    d, a = rects.d, rects.sides
    caps = _caps(rects, fs)
    ks = [bracket(f, d) for f in fs]
    if None in ks:
        f = fs[ks.index(None)]
        raise ValueError(
            f"no integer bracket for {f.describe()} in dimension {d}; "
            "the content formula needs k <= f <= k+1 for some 0 <= k < d"
        )
    over = np.flatnonzero(a[:, 0] > caps * (1 + 1e-12))
    if over.size:
        r = over[0]
        raise ValueError(
            f"side {a[r, 0]} exceeds the dimension function domain cap {caps[r]}"
        )
    # the sides are their own radii (x / 1.0 is x), with no unit sides
    products = candidate_products(a.T, 1.0, _f_at(fs, a, caps).T, 0).T
    k = np.array(ks)
    return ContentEstimate(
        formula_value=products[np.arange(len(a)), k],
        bracket_k=k,
        min_index=np.argmin(products, axis=1),  # first occurrence wins ties
        products=products,
    )


@dataclass(frozen=True, eq=False)
class CoverEstimate:
    """Per-rectangle arrays: the best cover's cost, scale position and cube count."""

    value: np.ndarray
    scale_index: np.ndarray
    count: np.ndarray


def greedy_cover_oracle(
    rects: RectCorpus, fs: Sequence[DimensionFunction]
) -> CoverEstimate:
    """Cheapest one-scale cube cover of each rectangle among its side lengths.

    At scale a_i the rectangle tiles with prod_j ceil(a_j / a_i) cubes of
    side a_i, costing count * f(a_i).  The best candidate (the first of
    equal ones) upper-bounds the content and stays within 2^d of the closed
    formula.
    """
    a = rects.sides
    t, s = a[:, :, None], a[:, None, :]  # scale a_i, side a_j
    tiles = np.where(s > t, np.ceil(s / t), 1.0)
    count = np.prod(tiles, axis=2)  # small integers, exact in floats
    cost = count * _f_at(fs, a, _caps(rects, fs))
    best = np.argmin(cost, axis=1)
    rows = np.arange(len(a))
    return CoverEstimate(
        value=cost[rows, best],
        scale_index=best,
        count=count[rows, best].astype(np.int64),
    )


@dataclass(frozen=True, eq=False)
class AtomGrid:
    """Atoms of each rectangle of a corpus on a product grid, kept per axis.

    Axis j of rectangle r holds the cell midpoints (k + 1/2) * cells[r, j],
    k = 0..counts[r, j] - 1; the rectangle's atoms are every point of the
    product of its axes, atom i the i-th of them in C (`ij`) order.  len()
    is the number of atoms over the whole corpus.
    """

    counts: np.ndarray
    cells: np.ndarray

    def __len__(self) -> int:
        return int(self.counts.prod(axis=1).sum())


def lattice_atoms(rects: RectCorpus, total: int = 200_000) -> AtomGrid:
    """Deterministic lattice sample of each rectangle, roughly `total` atoms each.

    Cell spacing is (volume/total)^(1/d) in every dimension, so boxes whose
    side is a multiple of the spacing capture at least their share of atoms.
    Side a_j is cut into c_j = max(1, round(a_j / spacing)) cells of width
    a_j / c_j.
    """
    a = rects.sides
    h = (np.prod(a, axis=1) / total) ** (1.0 / rects.d)
    counts = np.maximum(1, np.round(a / h[:, None]).astype(np.int64))
    return AtomGrid(counts=counts, cells=a / counts)


def _grid_count(
    cell: np.ndarray,
    count: np.ndarray,
    x: np.ndarray,
    inside: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """#{k < count : inside((k + 1/2) * cell, x)} for inside = <= or <.

    The number of axis coordinates at or below x (or below it): what
    searchsorted with side "right" (or "left") returns on the axis.  The
    guess from x / cell moves one step at a time until the coordinates on
    both sides of it, computed as the grid computes them, confirm it.
    """
    k = np.clip(np.floor(x / cell + 0.5), 0, count)
    while True:
        down = (k > 0) & ~inside((k - 0.5) * cell, x)
        up = (k < count) & inside((k + 0.5) * cell, x)
        if not (down.any() or up.any()):
            return k
        k = k - down + up


@dataclass(frozen=True, eq=False)
class MdpResult:
    """Per-rectangle arrays: 1/c, c, the cubes counted and skipped, and the floor."""

    lower_bound: np.ndarray
    c: np.ndarray
    balls_used: np.ndarray
    balls_skipped: np.ndarray
    resolution_floor: np.ndarray


def mdp_check(
    atoms: AtomGrid,
    fs: Sequence[DimensionFunction],
    rects: RectCorpus,
    n_balls: int = 256,
    seed: int = 0,
    resolution_floor: float | np.ndarray | None = None,
) -> MdpResult:
    """Mass-distribution lower bound 1/c with c = max mu(B)/f(|B|), per rectangle.

    mu is the uniform atomic measure on rectangle r's grid in `atoms` (unit
    total mass).  Balls are axis cubes.  The sampled cubes are
    corner-aligned cubes at every side scale of the rectangle (these witness
    the extremal ratio) plus randomly centred cubes at n_balls geometric
    scales.  Cubes below the resolution floor (10 / N^{1/d} by default, or
    one floor per rectangle or for all) or above the domain cap of f are
    skipped and counted.

    Each cube's per-axis count is rounded outward to the atom cells, so
    mu(B) upper-bounds the share of the rectangle the cube actually covers
    and the returned bound never exceeds the continuum content.  The mass is
    the product of the per-axis shares taken in axis order, and each
    rectangle's f is evaluated once over all its cube scales.  Rectangle r
    draws its random centres from default_rng(seed + r): atoms at uniform
    indices in [0, N_r), unravelled over the axis lengths in C order.
    Raises if some rectangle's cubes captured no mass.
    """
    a = rects.sides
    R, d = a.shape
    if atoms.counts.shape != a.shape:
        raise ValueError("the atom grids do not match the rectangle corpus")
    counts, cells = atoms.counts, atoms.cells
    n = counts.prod(axis=1)
    if resolution_floor is None:
        floor = 10.0 / n ** (1.0 / d)
    else:
        floor = np.broadcast_to(np.asarray(resolution_floor, dtype=float), (R,))
    caps = _caps(rects, fs)

    extra = np.geomspace(
        np.maximum(floor, a[:, -1] / 4), np.minimum(caps, a[:, 0]), n_balls, axis=1
    )
    rest = np.stack([
        np.random.default_rng(seed + r).integers(0, n[r], size=n_balls) for r in range(R)
    ])
    centers = np.empty((R, n_balls, d))
    for j in reversed(range(d)):
        rest, k = np.divmod(rest, counts[:, j, None])
        centers[:, :, j] = (k + 0.5) * cells[:, j, None]
    # the d corner-aligned critical cubes, then the randomly centred ones
    t = np.concatenate([a, extra], axis=1)
    lo = np.concatenate([
        np.zeros((R, d, d)),
        np.clip(
            centers - extra[:, :, None] / 2.0,
            0.0,
            np.maximum(a[:, None, :] - extra[:, :, None], 0.0),
        ),
    ], axis=1)
    keep = ~((t < floor[:, None]) | (t > caps[:, None]))
    hi = lo + t[:, :, None]

    mass = np.ones(t.shape)
    for j in range(d):
        cell, count = cells[:, j, None], counts[:, j, None]
        half = cell / 2.0
        cnt = _grid_count(cell, count, hi[:, :, j] + half, np.less_equal) - _grid_count(
            cell, count, lo[:, :, j] - half, np.less
        )
        mass = mass * (cnt / count)

    c_max = np.where(keep & (mass != 0.0), mass / _f_at(fs, t, caps), 0.0).max(axis=1)
    if np.any(c_max == 0.0):
        raise ValueError("no sampled cube captured any mass; increase n_balls or atoms")
    used = np.count_nonzero(keep, axis=1)
    return MdpResult(
        lower_bound=1.0 / c_max,
        c=c_max,
        balls_used=used,
        balls_skipped=t.shape[1] - used,
        resolution_floor=floor,
    )
