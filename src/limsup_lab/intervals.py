"""Exact interval-set arithmetic on [0, 1] and unions of boxes built from it.

IntervalSet keeps its merged closed-open intervals as two sorted arrays;
endpoints within 1e-12 are merged so measure-zero float dust cannot
accumulate.  The merge is a running maximum of the sorted ends, and an
intersection finds its overlap ranges by searchsorted, one set against many
in one batch.  Box unions (products of interval sets, one per coordinate)
are measured exactly by a recursive sweep over the first coordinate's
elementary segments, with one searchsorted per active box; this is the
workhorse for the low-dimensional multiplicative surrogates.  Within one
call the sub-union measure is memoised on (coordinate, active boxes): a
repeated sub-union is the same arithmetic on the same inputs, so the
result is unchanged.

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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._rng import thread_map

MERGE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class IntervalSet:
    """Disjoint intervals of positive length in [0, 1], more than MERGE_TOL apart."""

    starts: np.ndarray
    ends: np.ndarray

    @staticmethod
    def from_intervals(starts, ends) -> "IntervalSet":
        """The union of [starts[i], ends[i]), clipped to [0, 1] and merged.

        Sorted by (start, end), an interval starts a new group unless it
        begins within MERGE_TOL of the running maximum of the ends before it;
        a group ends at its largest end, so both endpoints are input values.
        """
        a = np.maximum(np.asarray(starts, dtype=float), 0.0)
        b = np.minimum(np.asarray(ends, dtype=float), 1.0)
        keep = b - a > 0
        a, b = a[keep], b[keep]
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        first = np.ones(a.size, dtype=bool)
        np.greater(a[1:], np.maximum.accumulate(b)[:-1] + MERGE_TOL, out=first[1:])
        return IntervalSet(a[first], np.maximum.reduceat(b, np.flatnonzero(first)))

    def measure(self) -> float:
        return math.fsum((self.ends - self.starts).tolist())

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect_each([other])[0]

    def intersect_each(self, others: list["IntervalSet"]) -> list["IntervalSet"]:
        """[self & t for t in others], from one pair of searchsorted calls.

        The intervals of self that overlap [s, e) run from the first ending
        after s to the last starting before e; taken interval by interval of
        each t, the overlaps (max of starts, min of ends) come out sorted.
        """
        starts = np.concatenate([t.starts for t in others])
        ends = np.concatenate([t.ends for t in others])
        first = np.searchsorted(self.ends, starts, side="right")
        counts = np.searchsorted(self.starts, ends, side="left") - first
        done = np.cumsum(counts)  # overlaps up to and including each interval of the t's
        which = np.repeat(np.arange(starts.size), counts)
        mine = np.arange(which.size) + np.repeat(first - done + counts, counts)
        lo = np.maximum(self.starts[mine], starts[which])
        hi = np.minimum(self.ends[mine], ends[which])
        bounds = np.concatenate(([0], done))[np.cumsum([0] + [t.starts.size for t in others])]
        return [IntervalSet(lo[i:j], hi[i:j]) for i, j in zip(bounds[:-1], bounds[1:])]


def resonant_interval_set(q: int, delta: float) -> IntervalSet:
    """The scalar resonant neighbourhood {x in [0,1] : |q x - p| < delta}.

    Centres are p/|q| for p = 0..|q|, radius delta/|q|; empty for delta <= 0.
    """
    q = abs(int(q))
    if q == 0:
        raise ValueError("q must be nonzero")
    r = delta / q
    centres = np.arange(q + 1) / q
    return IntervalSet.from_intervals(centres - r, centres + r)


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
    """Exact Lebesgue measure of a union of interval-set products.

    Each level cuts its coordinate at every endpoint of the active boxes; the
    boxes holding a segment's midpoint are active below it, and segments
    with the same ones share a sub-union.  (hi - lo) * sub adds up in order.
    """
    boxes = [b for b in boxes if all(s.starts.size for s in b)]
    if not boxes:
        return 0.0
    d = len(boxes[0])
    memo: dict[tuple[int, tuple[int, ...]], float] = {}

    def sub_union(k: int, active: tuple[int, ...]) -> float:
        """Measure of the union of boxes[i][k:] over i in `active`."""
        key = (k, active)
        if key in memo:
            return memo[key]
        sets = [boxes[i][k] for i in active]
        if k == d - 1:
            value = IntervalSet.from_intervals(
                np.concatenate([s.starts for s in sets]), np.concatenate([s.ends for s in sets])
            ).measure()
        else:
            cuts = np.unique(np.concatenate([s.starts for s in sets] + [s.ends for s in sets]))
            lo, hi = cuts[:-1], cuts[1:]
            mids = 0.5 * (lo + hi)
            inside = np.empty((len(sets), mids.size), dtype=bool)
            for row, s in zip(inside, sets):
                # the last interval starting at or before mid; [a, 1.0] is closed at 1
                i = np.searchsorted(s.starts, mids, side="right") - 1
                end = s.ends[i]
                row[:] = (i >= 0) & ((mids < end) | ((end == 1.0) & (mids == 1.0)))
            # one key per segment: its column of `inside`, packed to bytes
            packed = np.ascontiguousarray(np.packbits(inside, axis=0).T)
            keys = packed.view(f"V{packed.shape[1]}").ravel()
            _, firsts, which = np.unique(keys, return_index=True, return_inverse=True)
            ids = np.asarray(active)
            subs = np.array([
                sub_union(k + 1, tuple(ids[inside[:, j]].tolist())) if inside[:, j].any() else 0.0
                for j in firsts
            ])
            value = float(np.cumsum((hi - lo) * subs[which])[-1])  # left to right, not pairwise
        memo[key] = value
        return value

    return sub_union(0, tuple(range(len(boxes))))


def box_union_intersection_measure(u1: list[Box], u2: list[Box]) -> float:
    """Measure of (union u1) & (union u2): the union of the pieces a & b, each
    box a of u1 meeting every box of u2 in one intersection per coordinate."""
    pieces: list[Box] = []
    for a in u1:
        pieces.extend(zip(*(s.intersect_each([b[k] for b in u2]) for k, s in enumerate(a))))
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
