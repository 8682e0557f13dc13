"""Exact interval-set arithmetic on [0, 1] and unions of boxes built from it.

IntervalSet keeps its merged closed-open intervals as two sorted arrays;
endpoints within 1e-12 are merged so measure-zero float dust cannot
accumulate.  Every 1-d union has one merge rule, `_components`: starts and
ends sorted separately, which keeps the cover count and hence the union.
An intersection finds its overlap ranges by searchsorted.  A box is a
product of interval sets, one per coordinate.  `box_union_measure` measures
a union of boxes, or the intersection of several unions, exactly by one
recursive sweep over each coordinate's elementary segments, with one
searchsorted per active box; the last coordinate merges each union's sets
and intersects them.  This is the workhorse for the low-dimensional
multiplicative surrogates.  Within one call the sub-measures are memoised
on (coordinate, active boxes of each union): a repeated one is the same
arithmetic on the same inputs, so the result is unchanged.

Huge 1-d families (every p/Q +- psi(Q)/Q up to Q ~ 10^4) are measured in
windows by the same paired sort (`swept_union_measure`), between the first
and the last of the window edges the caller hands over; the stage sweep in
`estimators` lays its windows over [0, 1/2] and doubles the total, as its
union is symmetric under x -> 1 - x.  A window's total depends only on the
union handed over in it, so the stage sweep hands a window that its widest
intervals cover over as the one interval [w0, w1), and leaves out the
intervals inside a wider one with the same centre (at an even norm Q, the
even p, inside p/2 over Q/2).  The sweep clips, sorts and reduces the
arrays in place, so a generator can refill one pair of buffers per thread
for each window.  The windows run on the worker threads and their totals
are added in window order, so the measure does not depend on the worker
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce

import numpy as np

from ._rng import thread_map

MERGE_TOL = 1e-12


def _components(starts: np.ndarray, ends: np.ndarray, tol: float):
    """The groups of intervals (start <= end) from their separately sorted starts S and ends E.

    A group starts at S_0 and at each S_i > E_{i-1} + tol (tol >= 0) and
    ends at the E before the next start.  This is the merge by a (start, end)
    sort and a running maximum M of the ends, bit for bit.  In start order
    M_{i-1} >= E_{i-1} (i ends lie at or below M_{i-1}), so as rounding is
    monotone a break S_i > fl(M_{i-1} + tol) is one here; if
    S_i > fl(E_{i-1} + tol), the i smallest ends and their starts lie below
    S_i, so M_{i-1} = E_{i-1}.  Both rules break at the same i, with the same
    floats.  The groups overwrite the front of both arrays; views are returned.
    """
    new = np.ones(starts.size, dtype=bool)
    np.greater(starts[1:], ends[:-1] + tol, out=new[1:])
    k = np.count_nonzero(new)
    starts[:k] = starts[new]
    new[:-1] = new[1:]  # now the last interval of each group
    new[-1:] = True
    ends[:k] = ends[new]
    return starts[:k], ends[:k]


@dataclass(frozen=True, eq=False)
class IntervalSet:
    """Disjoint intervals of positive length in [0, 1], more than the merge tolerance apart."""

    starts: np.ndarray
    ends: np.ndarray

    @staticmethod
    def from_intervals(starts, ends, tol: float = MERGE_TOL) -> "IntervalSet":
        """The union of [starts[i], ends[i]), clipped to [0, 1] and merged.

        Zero-length intervals are dropped, the starts and the ends are
        sorted separately, and `_components` merges them: a gap of at most
        `tol` closes, and both endpoints of a group are input values.  At
        tol = 0 a group is a connected component of the union.
        """
        a = np.maximum(np.asarray(starts, dtype=float), 0.0)
        b = np.minimum(np.asarray(ends, dtype=float), 1.0)
        keep = b - a > 0
        first, last = _components(np.sort(a[keep]), np.sort(b[keep]), tol)
        return IntervalSet(first.copy(), last.copy())

    def measure(self) -> float:
        return math.fsum((self.ends - self.starts).tolist())

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """self & other, from one pair of searchsorted calls.

        The intervals of self that overlap [s, e) run from the first ending
        after s to the last starting before e; taken interval by interval of
        other, the overlaps (max of starts, min of ends) come out sorted.
        """
        first = self.ends.searchsorted(other.starts, side="right")
        counts = self.starts.searchsorted(other.ends, side="left") - first
        done = counts.cumsum()  # overlaps up to and including each interval of other
        which = np.arange(counts.size).repeat(counts)
        mine = np.arange(which.size) + (first - done + counts).repeat(counts)
        return IntervalSet(
            np.maximum(self.starts[mine], other.starts[which]),
            np.minimum(self.ends[mine], other.ends[which]),
        )


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


def box_union_measure(*unions: list[Box]) -> float:
    """Exact Lebesgue measure of a union of boxes, or of the intersection of several unions.

    Each level cuts its coordinate at every endpoint of every union's active
    boxes; the boxes holding a segment's midpoint are active below it, one
    set per union, and segments with the same sets share a sub-measure,
    which is 0 unless every union has an active box.  (hi - lo) * sub adds
    up in order.  At the last coordinate each union's active sets merge
    into one interval set, once per (union, set), and the merged sets are
    intersected.
    """
    unions = [[b for b in u if all(s.starts.size for s in b)] for u in unions]
    if not all(unions):
        return 0.0
    d = len(unions[0][0])

    @cache
    def last(u: int, active: tuple[int, ...]) -> IntervalSet:
        """The union of unions[u][i][d - 1] over i in `active`."""
        sets = [unions[u][i][-1] for i in active]
        return IntervalSet.from_intervals(
            np.concatenate([s.starts for s in sets]), np.concatenate([s.ends for s in sets])
        )

    @cache
    def sub_measure(k: int, actives: tuple[tuple[int, ...], ...]) -> float:
        """Measure of the intersection over u of the unions of unions[u][i][k:], i in actives[u]."""
        if k == d - 1:
            return reduce(IntervalSet.intersect, map(last, range(len(actives)), actives)).measure()
        sets = [unions[u][i][k] for u, active in enumerate(actives) for i in active]
        cuts = np.unique(np.concatenate([s.starts for s in sets] + [s.ends for s in sets]))
        lo, hi = cuts[:-1], cuts[1:]
        mids = 0.5 * (lo + hi)
        inside = np.empty((len(sets), mids.size), dtype=bool)
        for row, s in zip(inside, sets):
            # the last interval starting at or before mid; [a, 1.0] is closed at 1
            i = s.starts.searchsorted(mids, side="right") - 1
            end = s.ends[i]
            row[:] = (i >= 0) & ((mids < end) | ((end == 1.0) & (mids == 1.0)))
        # one key per segment: its column of `inside`, packed to bytes
        packed = np.ascontiguousarray(np.packbits(inside, axis=0).T)
        keys = packed.view(f"V{packed.shape[1]}").ravel()
        _, firsts, which = np.unique(keys, return_index=True, return_inverse=True)
        # each distinct column, cut into one active set per union; the live
        # ones have an active box in every union
        rows = np.cumsum([0] + [len(a) for a in actives[:-1]])
        counts = np.add.reduceat(inside[:, firsts].astype(np.intp), rows, axis=0)
        live = (counts > 0).all(axis=0)
        members = np.concatenate(actives)[np.nonzero(inside[:, firsts[live]].T)[1]].tolist()
        bounds = counts[:, live].T.cumsum().tolist()
        groups = [tuple(members[a:b]) for a, b in zip([0] + bounds, bounds)]
        subs = np.zeros(firsts.size)
        n = len(actives)
        subs[live] = [sub_measure(k + 1, tuple(groups[i : i + n])) for i in range(0, len(groups), n)]
        return float(np.cumsum((hi - lo) * subs[which])[-1])  # left to right, not pairwise

    return sub_measure(0, tuple(tuple(range(len(u))) for u in unions))


# ---------------------------------------------------------------------------
# windowed sweep for large interval families (vectorised)
# ---------------------------------------------------------------------------


def swept_union_measure(interval_generator, edges: np.ndarray) -> float:
    """Union measure of a huge interval family, one window [edges[i], edges[i + 1]) at a time.

    Only the part of the union inside [edges[0], edges[-1]] is measured.
    `interval_generator(w0, w1)` returns (starts, ends) numpy arrays whose
    union within [w0, w1) is the family's there: every interval of the
    family that meets the window, say, or the single interval [w0, w1) when
    the family covers the window.  They are arrays the sweep may overwrite:
    it clips them to the window and sorts them in place, so duplicates
    across windows are harmless, and a generator may reuse them for its
    thread's next window.  Above one worker it is called from several
    threads at once, so it must not share those arrays or other mutable
    state between threads.

    Paired sort: the cover count at x is #(starts <= x) - #(ends <= x), which
    depends only on the two multisets.  Pairing the i-th smallest start S_i
    with the i-th smallest end E_i (S_i <= E_i, as no x has more ends than
    starts at or below it) therefore keeps the union, and sorted ends are
    their own running maximum, so the union length is
    sum max(E_i - max(S_i, E_{i-1}), 0).

    A window's total depends only on the union handed over in it, so a
    family that covers the window gives w1 - w0, as [w0, w1) does.  On a
    window with 0 < w0 and w1 <= 2 w0 every clipped endpoint is a multiple of
    ulp(w0) and the total is at most w1 - w0 <= w0 < 2^53 ulp(w0), so no
    piece and no partial sum rounds, in any order: the pieces are summed in
    place, and the total is the exact measure of the union.  Any other window
    (window 0) has no such grid, and a pairwise sum of the pieces would
    follow the layout, pads and nested intervals included; there the total
    is `np.sum` of the union's positive component lengths (`_components` at
    tol 0), which drops zero-length components such as pads at [w1, w1].

    The windows are independent, so they run on `_rng.thread_map`'s pool
    (the sorts and ufuncs release the GIL), and each worker holds the
    arrays of one window at a time.  The per-window totals are added in
    window order, so the result is bit-identical at any worker count.
    """

    def window_total(window: tuple[float, float]) -> float:
        w0, w1 = window
        starts, ends = interval_generator(w0, w1)
        np.clip(starts, w0, w1, out=starts)
        np.clip(ends, w0, w1, out=ends)
        starts.sort()
        ends.sort()
        if not (0.0 < w0 and w1 <= 2.0 * w0):
            first, last = _components(starts, ends, 0.0)
            lengths = np.subtract(last, first, out=first)
            return float(np.sum(lengths[lengths > 0.0]))
        # starts[i] becomes max(S_i, E_{i-1}); starts[0] is its own floor
        np.maximum(starts[1:], ends[:-1], out=starts[1:])
        np.subtract(ends, starts, out=starts)
        return float(np.sum(np.maximum(starts, 0.0, out=starts)))

    total = 0.0
    for t in thread_map(window_total, list(zip(edges[:-1], edges[1:]))):
        total += t
    return total
