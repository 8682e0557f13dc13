"""Exact interval-set arithmetic on [0, 1] and unions of boxes built from it.

IntervalSet keeps a merged, sorted list of closed-open intervals; endpoints
within 1e-12 are merged so measure-zero float dust cannot accumulate.  Box
unions (products of interval sets, one per coordinate) are measured exactly
by a recursive sweep over the first coordinate's elementary segments; this
is the workhorse for the low-dimensional multiplicative surrogates.  Within
one call the sub-union measure is memoised on (coordinate, active boxes):
neighbouring segments usually share their active boxes, and a repeated
sub-union is the same arithmetic on the same inputs, so the result is
unchanged.

Huge 1-d families (every p/Q +- psi(Q)/Q up to Q ~ 10^4) are measured in
windows by a paired sort: the starts and the ends are sorted separately,
which keeps the cover count at every point and hence the union (see
`swept_union_measure`).  The sweep clips, sorts and reduces the arrays a
generator hands it in place, so a generator can keep one pair of buffers
per thread and refill them for each window (the stage sweep in
`estimators` does, with one slot layout shared by every window).  The
windows run on the worker threads and their totals are added in window
order, so the measure does not depend on the worker count.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from ._rng import thread_map

MERGE_TOL = 1e-12


@dataclass(frozen=True)
class IntervalSet:
    """A finite union of intervals in [0, 1], stored merged and sorted."""

    endpoints: tuple[tuple[float, float], ...]

    @staticmethod
    def from_intervals(pairs) -> "IntervalSet":
        clipped = []
        for a, b in pairs:
            a, b = max(0.0, float(a)), min(1.0, float(b))
            if b - a > 0:
                clipped.append((a, b))
        clipped.sort()
        merged: list[list[float]] = []
        for a, b in clipped:
            if merged and a <= merged[-1][1] + MERGE_TOL:
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

    @cached_property
    def _starts(self) -> tuple[float, ...]:
        return tuple(a for a, _ in self.endpoints)

    def contains(self, x: float) -> bool:
        # Intervals are sorted and disjoint, so only the last one starting
        # at or before x can hold it; [a, 1.0] is closed at 1.
        i = bisect_right(self._starts, x) - 1
        if i < 0:
            return False
        b = self.endpoints[i][1]
        return x < b or (b == 1.0 and x == 1.0)


def resonant_interval_set(q: int, delta: float) -> IntervalSet:
    """The scalar resonant neighbourhood {x in [0,1] : |q x - p| < delta}.

    Centres are p/|q| for p = 0..|q|, radius delta/|q|.
    """
    q = abs(int(q))
    if q == 0:
        raise ValueError("q must be nonzero")
    if delta <= 0:
        return IntervalSet.empty()
    r = delta / q
    pairs = []
    for p in range(0, q + 1):
        c = p / q
        pairs.append((c - r, c + r))
    return IntervalSet.from_intervals(pairs)


def resonant_measure_rational(q: int, delta: Fraction, coprime: bool = False) -> Fraction:
    """Exact measure of the scalar resonant neighbourhood for rational delta.

    Same set as resonant_interval_set, but measured exactly; `coprime`
    keeps only the centres p/|q| with gcd(p, q) = 1.  With
    r = delta/|q| every endpoint is an integer over L = |q| den(r): the
    centre p/|q| is p den(r)/L and the radius is |q| num(r)/L.  The
    intervals are merged on those integer numerators and the length is
    returned as Fraction(total, L), so merging, clipping and the sum stay
    exact.  Centres increase with p and all radii are equal, so the clipped
    intervals arrive sorted and one cursor merges them.  Float endpoint
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
    L = q * r.denominator
    step, radius = r.denominator, q * r.numerator
    total = cursor = 0
    for p in range(0, q + 1):
        if coprime and math.gcd(p, q) != 1:
            continue
        lo = max(p * step - radius, cursor)
        hi = min(p * step + radius, L)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return Fraction(total, L)


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
    memo: dict[tuple[int, tuple[int, ...]], float] = {}

    def sub_union(k: int, active: tuple[int, ...]) -> float:
        """Measure of the union of boxes[i][k:] over i in `active`."""
        key = (k, active)
        if key in memo:
            return memo[key]
        if k == d - 1:
            value = IntervalSet.from_intervals(
                [seg for i in active for seg in boxes[i][k].endpoints]
            ).measure()
        else:
            cuts = sorted({e for i in active for seg in boxes[i][k].endpoints for e in seg})
            value = 0.0
            for lo, hi in zip(cuts, cuts[1:]):
                mid = 0.5 * (lo + hi)
                inside = tuple(i for i in active if boxes[i][k].contains(mid))
                if inside:
                    value += (hi - lo) * sub_union(k + 1, inside)
        memo[key] = value
        return value

    return sub_union(0, tuple(range(len(boxes))))


def box_intersect(b1: Box, b2: Box) -> Box:
    return tuple(s1.intersect(s2) for s1, s2 in zip(b1, b2))


def box_union_intersection_measure(u1: list[Box], u2: list[Box]) -> float:
    """Measure of (union u1) intersected with (union u2)."""
    pieces = [box_intersect(a, b) for a in u1 for b in u2]
    return box_union_measure(pieces)


# ---------------------------------------------------------------------------
# windowed sweep for large interval families (vectorised)
# ---------------------------------------------------------------------------


def window_edges(windows: int) -> np.ndarray:
    """The edges of the windows [edges[i], edges[i + 1]) that split [0, 1]."""
    return np.linspace(0.0, 1.0, windows + 1)


def swept_union_measure(interval_generator, windows: int = 64) -> float:
    """Union measure of a huge interval family on [0, 1], one window at a time.

    `interval_generator(w0, w1)` returns (starts, ends) numpy arrays holding
    every interval that meets [w0, w1), and may hold more.  They are arrays
    the sweep may overwrite: it clips them to the window and sorts them in
    place, so duplicates across windows are harmless, and a generator may
    reuse them for its thread's next window.  Above one worker it is called
    from several threads at once, so it must not share those arrays or
    other mutable state between threads.

    Paired sort: the cover count at x is #(starts <= x) - #(ends <= x), which
    depends only on the two multisets.  Pairing the i-th smallest start S_i
    with the i-th smallest end E_i (S_i <= E_i, as no x has more ends than
    starts at or below it) therefore keeps the union, and sorted ends are
    their own running maximum, so the union length is
    sum max(E_i - max(S_i, E_{i-1}), 0).
    A zero-length clipped interval adds to both counts at once and changes
    nothing.  The reduction runs in place in the starts array.

    The windows are independent, so they run on `_rng.thread_map`'s pool
    (the sorts and ufuncs release the GIL), and each worker holds the
    arrays of one window at a time.  The per-window totals are added in
    window order, so the result is bit-identical at any worker count.
    """
    edges = window_edges(windows)

    def window_total(window: tuple[float, float]) -> float:
        w0, w1 = window
        starts, ends = interval_generator(w0, w1)
        np.clip(starts, w0, w1, out=starts)
        np.clip(ends, w0, w1, out=ends)
        starts.sort()
        ends.sort()
        # starts[i] becomes max(S_i, E_{i-1}); starts[0] is its own floor
        np.maximum(starts[1:], ends[:-1], out=starts[1:])
        np.subtract(ends, starts, out=starts)
        return float(np.sum(np.maximum(starts, 0.0, out=starts)))

    total = 0.0
    for t in thread_map(window_total, list(zip(edges[:-1], edges[1:]))):
        total += t
    return total
