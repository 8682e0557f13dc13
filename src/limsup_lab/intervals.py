"""Exact interval-set arithmetic on [0, 1] and unions of boxes built from it.

IntervalSet keeps a merged, sorted list of closed-open intervals; endpoints
within 1e-12 are merged so measure-zero float dust cannot accumulate.  Box
unions (products of interval sets, one per coordinate) are measured exactly
by a recursive sweep over the first coordinate's elementary segments; this
is the workhorse for the low-dimensional multiplicative surrogates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

MERGE_TOL = 1e-12


@dataclass(frozen=True)
class IntervalSet:
    """A finite union of intervals in [0, 1], stored merged and sorted."""

    endpoints: tuple[tuple[float, float], ...]

    @staticmethod
    def from_intervals(pairs, tol: float = MERGE_TOL) -> "IntervalSet":
        clipped = []
        for a, b in pairs:
            a, b = max(0.0, float(a)), min(1.0, float(b))
            if b - a > 0:
                clipped.append((a, b))
        clipped.sort()
        merged: list[list[float]] = []
        for a, b in clipped:
            if merged and a <= merged[-1][1] + tol:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return IntervalSet(tuple((a, b) for a, b in merged))

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(())

    def measure(self) -> float:
        return math.fsum(b - a for a, b in self.endpoints)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        i = j = 0
        a, b = self.endpoints, other.endpoints
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if hi > lo:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(tuple(out))

    def contains(self, x: float) -> bool:
        for a, b in self.endpoints:
            if a <= x < b or (b == 1.0 and x == 1.0):
                return True
        return False


def resonant_interval_set(
    q: int, delta: float, coprime: bool = False, tol: float = MERGE_TOL
) -> IntervalSet:
    """The scalar resonant neighbourhood {x in [0,1] : |q x - p| < delta}.

    Centres are p/|q| for p = 0..|q| (coprime variant keeps gcd(p, q) = 1),
    radius delta/|q|.
    """
    q = abs(int(q))
    if q == 0:
        raise ValueError("q must be nonzero")
    if delta <= 0:
        return IntervalSet.empty()
    r = delta / q
    pairs = []
    for p in range(0, q + 1):
        if coprime and math.gcd(p, q) != 1:
            continue
        c = p / q
        pairs.append((c - r, c + r))
    return IntervalSet.from_intervals(pairs, tol)


def resonant_measure_rational(q: int, delta: Fraction, coprime: bool = False) -> Fraction:
    """Exact measure of the scalar resonant neighbourhood for rational delta.

    Same set as resonant_interval_set, but every endpoint is a Fraction, so
    merging, clipping, and the final length sum are exact.  Float endpoint
    arithmetic loses ulp(p/q)-scale mass per interval, which matters once
    interval lengths drop below ~1e-8; this is the reference the float path
    is judged against.
    """
    q = abs(int(q))
    if q == 0:
        raise ValueError("q must be nonzero")
    if delta <= 0:
        return Fraction(0)
    r = Fraction(delta) / q
    pairs = []
    for p in range(0, q + 1):
        if coprime and math.gcd(p, q) != 1:
            continue
        c = Fraction(p, q)
        a, b = max(Fraction(0), c - r), min(Fraction(1), c + r)
        if b > a:
            pairs.append((a, b))
    pairs.sort()
    total = Fraction(0)
    cursor = Fraction(0)
    for a, b in pairs:
        lo = max(a, cursor)
        if b > lo:
            total += b - lo
            cursor = b
    return total


# ---------------------------------------------------------------------------
# box unions
# ---------------------------------------------------------------------------

Box = tuple[IntervalSet, ...]  # one IntervalSet per coordinate


def box_union_measure(boxes: list[Box]) -> float:
    """Exact Lebesgue measure of a union of interval-set products."""
    boxes = [b for b in boxes if all(s.endpoints for s in b)]
    if not boxes:
        return 0.0
    d = len(boxes[0])
    if d == 1:
        merged = IntervalSet.from_intervals(
            [seg for box in boxes for seg in box[0].endpoints]
        )
        return merged.measure()
    cuts = sorted({e for box in boxes for seg in box[0].endpoints for e in seg})
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo <= 0:
            continue
        mid = 0.5 * (lo + hi)
        active = [box[1:] for box in boxes if box[0].contains(mid)]
        if active:
            total += (hi - lo) * box_union_measure(active)
    return total


def box_intersect(b1: Box, b2: Box) -> Box:
    return tuple(s1.intersect(s2) for s1, s2 in zip(b1, b2))


def box_union_intersection_measure(u1: list[Box], u2: list[Box]) -> float:
    """Measure of (union u1) intersected with (union u2)."""
    pieces = [box_intersect(a, b) for a in u1 for b in u2]
    return box_union_measure(pieces)


# ---------------------------------------------------------------------------
# windowed sweep for large interval families (vectorised)
# ---------------------------------------------------------------------------


def union_length_sorted(starts: np.ndarray, ends: np.ndarray) -> float:
    """Total length of a union of intervals given as parallel arrays."""
    if starts.size == 0:
        return 0.0
    order = np.argsort(starts, kind="stable")
    s = starts[order]
    e = ends[order]
    run = np.maximum.accumulate(e)
    prev_run = np.concatenate(([-np.inf], run[:-1]))
    visible = np.maximum(e - np.maximum(s, prev_run), 0.0)
    return float(np.sum(visible))


def swept_union_measure(
    interval_generator, windows: int = 64, lo: float = 0.0, hi: float = 1.0
) -> float:
    """Union measure of a huge interval family, one window at a time.

    `interval_generator(w0, w1)` must yield (starts, ends) numpy arrays
    containing every interval that meets [w0, w1); intervals are clipped to
    the window here, so duplicates across windows are harmless.
    """
    edges = np.linspace(lo, hi, windows + 1)
    total = 0.0
    for w0, w1 in zip(edges[:-1], edges[1:]):
        starts, ends = interval_generator(w0, w1)
        if starts.size == 0:
            continue
        s = np.clip(starts, w0, w1)
        e = np.clip(ends, w0, w1)
        keep = e > s
        total += union_length_sorted(s[keep], e[keep])
    return total
