"""Exact unions against Fraction oracles: the windowed sweep, interval sets, boxes.

`swept_union_measure` measures a union by a paired sort (starts and ends
sorted separately); `IntervalSet` merges and intersects on arrays;
`box_union_measure` by a memoised recursive sweep;
`resonant_measure_rational` by a cursor over integer numerators.  Each is
held here to an independent definition: an exact `Fraction` union, the
per-element merge and two-pointer intersection the arrays replaced (bit for
bit), and a grid of cells cut by every box endpoint, which also referees
the exact quasi-independence constant.
"""

import functools
import itertools
import math
import operator
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limsup_lab import estimators
from limsup_lab._rng import WORKERS_ENV
from limsup_lab.estimators import StageUnion, _interval_sweep_measure, coverage_fraction
from limsup_lab.formulas import ProblemInstance
from limsup_lab.funcspace import ApproximatingFunction
from limsup_lab.intervals import (
    MERGE_TOL,
    IntervalSet,
    box_union_measure,
    resonant_measure_rational,
    swept_union_measure,
    window_edges,
)
from limsup_lab.resonant import LatticePoint, dyadic_decompose, mult_star, quasi_independence_report

AF = ApproximatingFunction
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _fraction_union(pairs) -> Fraction:
    """Length of the union of closed intervals, clipped to [0, 1], exactly."""
    clipped = sorted(
        (max(Fraction(0), a), min(Fraction(1), b)) for a, b in pairs
    )
    total = Fraction(0)
    cursor = Fraction(0)
    for a, b in clipped:
        lo = max(a, cursor)
        if b > lo:
            total += b - lo
            cursor = b
    return total


# ---------------------------------------------------------------------------
# the stage-union sweep
# ---------------------------------------------------------------------------

# zeros drop a norm; values above Q/2 give radii above 1/2 (intervals that
# cover [0, 1] from one centre)
table_values = st.one_of(st.just(0.0), st.floats(1e-3, 30.0))
budgets = st.one_of(
    st.builds(AF.power, st.floats(0.0, 3.0), st.floats(0.1, 2.0)),
    st.builds(AF.table, st.lists(table_values, min_size=1, max_size=40)),
)


def _sweep_oracle(psi, Qlo: int, Qhi: int) -> Fraction:
    pairs = []
    for Q in range(Qlo, Qhi + 1):
        r = Fraction(float(psi.eval_norm_array(np.array([Q]))[0])) / Q
        if r > 0:
            pairs.extend((Fraction(p, Q) - r, Fraction(p, Q) + r) for p in range(Q + 1))
    return _fraction_union(pairs)


@SETTINGS
@given(
    psi=budgets,
    Qs=st.tuples(st.integers(1, 40), st.integers(1, 40)).map(sorted),
    windows=st.sampled_from([1, 3, 64]),
)
def test_sweep_matches_fraction_union(psi, Qs, windows):
    Qlo, Qhi = Qs
    got = _interval_sweep_measure(psi, Qlo, Qhi, windows=windows)
    assert abs(got - float(_sweep_oracle(psi, Qlo, Qhi))) <= 1e-12


def _layouts(psi, Qlo: int, Qhi: int, windows: int | None) -> list:
    """(w0, w1, starts, ends) of every window, as the stage sweep generates them."""
    seen = []

    def capture(gen, windows):
        edges = window_edges(windows)
        for w0, w1 in zip(edges[:-1], edges[1:]):
            starts, ends = gen(w0, w1)
            seen.append((w0, w1, starts.copy(), ends.copy()))
        return 0.0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "swept_union_measure", capture)
        _interval_sweep_measure(psi, Qlo, Qhi, windows=windows)
    return seen


def _clipped_length(w0, w1, a, b) -> float:
    return min(max(b, w0), w1) - min(max(a, w0), w1)


@SETTINGS
@given(
    psi=budgets,
    Qs=st.tuples(st.integers(1, 60), st.integers(1, 60)).map(sorted),
    windows=st.integers(1, 40),
)
def test_window_layout_holds_every_interval_that_meets_the_window(psi, Qs, windows):
    # the layout is built once per call: every window has as many slots, each
    # (p, Q) whose interval meets [w0, w1) has one, and every other slot is an
    # interval of the family that clips to zero length
    Qlo, Qhi = Qs
    family = []
    for Q in range(Qlo, Qhi + 1):
        r = float(psi.eval_norm_array(np.array([Q]))[0]) / Q
        if r > 0:
            family.extend((p / Q - r, p / Q + r) for p in range(Q + 1))
    layouts = _layouts(psi, Qlo, Qhi, windows)
    assert len({starts.size for _, _, starts, _ in layouts}) <= 1
    for w0, w1, starts, ends in layouts:
        slots = Counter(zip(starts.tolist(), ends.tolist()))
        meets = Counter(iv for iv in family if _clipped_length(w0, w1, *iv) > 0)
        assert not meets - slots
        assert not (slots - meets) - Counter(family)
        assert all(_clipped_length(w0, w1, *iv) == 0 for iv in slots - meets)


# endpoints on a dyadic grid are exact floats, and so is every clip and
# difference in a one-window sweep: the paired sort must then be exact
grid = st.integers(-16, 80).map(lambda k: Fraction(k, 64))
interval = st.tuples(grid, grid).map(sorted)


# nested, duplicate and zero-length intervals are drawn on purpose
families = st.lists(interval, min_size=1, max_size=30).flatmap(
    lambda base: st.tuples(
        st.just(base),
        st.lists(st.sampled_from(base), max_size=10),
        st.lists(grid.map(lambda c: (c, c)), max_size=5),
    ).map(lambda parts: parts[0] + parts[1] + parts[2])
)


@SETTINGS
@given(family=families, seed=st.integers(0, 2**16))
def test_paired_sort_is_the_union(family, seed):
    order = np.random.default_rng(seed).permutation(len(family))
    pairs = [family[i] for i in order]

    def gen(w0, w1):
        return (np.array([float(a) for a, _ in pairs]),
                np.array([float(b) for _, b in pairs]))

    assert swept_union_measure(gen, windows=1) == float(_fraction_union(pairs))


def test_sweep_clips_zero_length_and_out_of_window_intervals():
    # [0.5, 0.5] and everything outside [0, 1] add nothing
    def gen(w0, w1):
        return np.array([-1.0, 0.5, 0.25, 1.5]), np.array([-0.5, 0.5, 0.75, 2.0])

    assert swept_union_measure(gen, windows=4) == 0.5


# ---------------------------------------------------------------------------
# the windows on threads
# ---------------------------------------------------------------------------


def _sequential_sweep(interval_generator, windows: int = 64) -> float:
    """The window loop run one window after another on the calling thread."""
    edges = np.linspace(0.0, 1.0, windows + 1)
    total = 0.0
    for w0, w1 in zip(edges[:-1], edges[1:]):
        starts, ends = interval_generator(w0, w1)
        if starts.size == 0:
            continue
        np.clip(starts, w0, w1, out=starts)
        np.clip(ends, w0, w1, out=ends)
        starts.sort()
        ends.sort()
        floor = np.empty_like(ends)
        floor[0] = -np.inf
        floor[1:] = ends[:-1]
        total += float(np.sum(np.maximum(ends - np.maximum(floor, starts), 0.0)))
    return total


def _at_workers(workers: int, fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(WORKERS_ENV, str(workers))
        return fn(*args)


def _sweeps_by_worker_count(psi, Qlo: int, Qhi: int) -> list[float]:
    """The sequential reference, then the sweep at 1, 2 and 4 workers."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "swept_union_measure", _sequential_sweep)
        ref = _interval_sweep_measure(psi, Qlo, Qhi)
    return [ref] + [_at_workers(w, _interval_sweep_measure, psi, Qlo, Qhi) for w in (1, 2, 4)]


def test_window_totals_are_added_in_window_order():
    # one interval per window, of a random share of it: the 64 totals add to
    # a different float in reverse or sorted order, so only the window-order
    # sum fits
    shares = np.random.default_rng(0).uniform(0.1, 1.0, 64)

    def gen(w0, w1):
        return np.array([w0]), np.array([w0 + shares[round(w0 * 64)] * (w1 - w0)])

    edges = np.linspace(0.0, 1.0, 65)
    totals = [float(e[0] - s[0]) for s, e in map(gen, edges[:-1], edges[1:])]
    for other in (reversed(totals), sorted(totals), sorted(totals, reverse=True)):
        assert sum(other) != sum(totals)
    ref = _sequential_sweep(gen)
    assert ref == sum(totals)
    assert [_at_workers(w, swept_union_measure, gen) for w in (1, 2, 4)] == [ref] * 3


@pytest.mark.parametrize(
    "psi, Qlo",
    [(AF.power(1.0, coeff=0.5), 1), (AF.power(2.0), 201)],
    ids=["half_over_q", "q_to_minus_2_tail"],
)
def test_threaded_sweep_is_bit_identical_on_the_coverage_dichotomy_budgets(psi, Qlo):
    # the two sweeps of the coverage-dichotomy criterion, Qhi cut from 10^4
    ref, *threaded = _sweeps_by_worker_count(psi, Qlo, 2000)
    assert ref > 0
    assert threaded == [ref, ref, ref]


def test_threaded_sweep_is_bit_identical_above_the_64_window_floor():
    # Q <= 4200 makes about 8.8 * 10^6 intervals, so 68 windows of 2^17
    psi = AF.power(1.0, coeff=0.5)
    assert len(_layouts(psi, 1, 4200, None)) == 68
    ref, *threaded = _sweeps_by_worker_count(psi, 1, 4200)
    assert ref > 0
    assert threaded == [ref, ref, ref]


def test_per_thread_buffers_hold_with_more_threads_than_cores():
    # each thread refills its own pair of buffers; with eight threads and a
    # short switch interval, buffers shared between threads would be
    # overwritten mid-window and move the total
    psi = AF.power(1.0, coeff=0.5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "swept_union_measure", _sequential_sweep)
        ref = _interval_sweep_measure(psi, 1, 1500)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = [_at_workers(8, _interval_sweep_measure, psi, 1, 1500) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [ref] * 3


@SETTINGS
@given(
    values=st.lists(table_values, min_size=1, max_size=60),
    Qs=st.tuples(st.integers(1, 300), st.integers(1, 300)).map(sorted),
)
def test_threaded_sweep_is_bit_identical_on_table_budgets(values, Qs):
    ref, *threaded = _sweeps_by_worker_count(AF.table(values), *Qs)
    assert threaded == [ref, ref, ref]


@SETTINGS
@given(
    psi=budgets,
    Qlo=st.integers(1, 300),
    steps=st.lists(st.integers(0, 100), min_size=1, max_size=4),
)
def test_coverage_is_monotone_in_Qhi(psi, Qlo, steps):
    # adding norms only adds intervals to the union
    inst = ProblemInstance(n=1, m=1, mode="nonweighted", psi=psi)
    Qhi, previous = Qlo, 0.0
    for step in steps:
        Qhi = min(Qhi + step, 300)
        value = coverage_fraction(StageUnion(inst, Qlo, Qhi)).value
        assert value >= previous - 1e-12, (Qhi, value, previous)
        previous = value


# ---------------------------------------------------------------------------
# the rational resonant measure
# ---------------------------------------------------------------------------


def _rational_oracle(q: int, delta: Fraction, coprime: bool) -> Fraction:
    """Every p/|q| +- delta/|q| with Fraction endpoints, sorted and merged."""
    q = abs(q)
    r = delta / q
    centres = [Fraction(p, q) for p in range(q + 1) if not coprime or math.gcd(p, q) == 1]
    return _fraction_union((c - r, c + r) for c in centres)


# small radii (disjoint intervals), radii of about half the spacing (touching
# and overlapping neighbours), and delta >= |q| (everything clips to [0, 1])
deltas = st.one_of(
    st.fractions(Fraction(1, 10**9), Fraction(1, 2), max_denominator=10**9),
    st.fractions(Fraction(1, 3), Fraction(3, 2), max_denominator=1000),
    st.fractions(Fraction(1), Fraction(400), max_denominator=50),
)


@SETTINGS
@given(
    q=st.integers(1, 300).flatmap(lambda q: st.sampled_from([q, -q])),
    delta=deltas,
    coprime=st.booleans(),
)
def test_rational_measure_matches_fraction_merge(q, delta, coprime):
    got = resonant_measure_rational(q, delta, coprime=coprime)
    assert isinstance(got, Fraction)
    assert got == _rational_oracle(q, delta, coprime)


def test_rational_measure_when_every_interval_clips_to_the_unit_interval():
    for q in (1, -1, 7, -12, 300):
        for coprime in (False, True):
            assert resonant_measure_rational(q, Fraction(abs(q)), coprime=coprime) == 1


# ---------------------------------------------------------------------------
# interval sets against the per-element loops they replaced
# ---------------------------------------------------------------------------


def _merge_referee(pairs) -> list[tuple[float, float]]:
    """Clip to [0, 1], drop empty intervals, sort, merge within MERGE_TOL."""
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
    return [(a, b) for a, b in merged]


def _intersect_referee(first, second) -> list[tuple[float, float]]:
    """Two-pointer intersection of two merged, sorted interval lists."""
    out = []
    i = j = 0
    while i < len(first) and j < len(second):
        lo = max(first[i][0], second[j][0])
        hi = min(first[i][1], second[j][1])
        if hi > lo:
            out.append((lo, hi))
        if first[i][1] < second[j][1]:
            i += 1
        else:
            j += 1
    return out


def _set(pairs) -> IntervalSet:
    bounds = np.array(pairs, dtype=float).reshape(-1, 2)
    return IntervalSet.from_intervals(bounds[:, 0], bounds[:, 1])


def _hex(pairs) -> list[tuple[str, str]]:
    return [(float(a).hex(), float(b).hex()) for a, b in pairs]


def _pairs(s: IntervalSet) -> list[tuple[float, float]]:
    return list(zip(s.starts.tolist(), s.ends.tolist()))


# endpoints near tenths of [-0.3, 1.3], moved by less than, exactly, or more
# than MERGE_TOL; some intervals start exactly MERGE_TOL, or one ulp more,
# after an earlier end
near = st.tuples(
    st.integers(-3, 13),
    st.sampled_from([0.0, 1e-13, 0.5 * MERGE_TOL, MERGE_TOL, -MERGE_TOL, 2 * MERGE_TOL]),
).map(lambda t: t[0] / 10 + t[1])
widths = st.sampled_from([1e-13, 0.05, 0.3])


@st.composite
def interval_lists(draw):
    pairs = draw(st.lists(st.tuples(near, near), max_size=12))
    for _ in range(draw(st.integers(0, 4)) if pairs else 0):
        a = draw(st.sampled_from(pairs))[1] + MERGE_TOL
        if draw(st.booleans()):
            a = math.nextafter(a, 2.0)
        pairs.append((a, a + draw(widths)))
    return pairs


@settings(SETTINGS, max_examples=200)
@given(pairs=interval_lists())
def test_from_intervals_is_the_per_element_merge(pairs):
    s = _set(pairs)
    assert _hex(_pairs(s)) == _hex(_merge_referee(pairs))
    assert s.measure() == math.fsum(b - a for a, b in _merge_referee(pairs))


def _touching(pairs):
    """Lists of interval lists, some intervals ending exactly where an
    interval of the merged `pairs` starts, or starting where one ends."""
    merged = _merge_referee(pairs)
    interval = st.tuples(near, near)
    if merged:
        interval = st.one_of(
            interval,
            st.tuples(st.sampled_from([a for a, _ in merged]), widths).map(lambda t: (t[0] - t[1], t[0])),
            st.tuples(st.sampled_from([b for _, b in merged]), widths).map(lambda t: (t[0], t[0] + t[1])),
        )
    return st.lists(st.lists(interval, max_size=8), min_size=1, max_size=4)


@settings(SETTINGS, max_examples=200)
@given(data=interval_lists().flatmap(lambda first: st.tuples(st.just(first), _touching(first))))
def test_intersections_are_the_two_pointer_sweep(data):
    first, others = data
    s = _set(first)
    expected = [_hex(_intersect_referee(_merge_referee(first), _merge_referee(o))) for o in others]
    assert [_hex(_pairs(p)) for p in s.intersect_each([_set(o) for o in others])] == expected
    assert _hex(_pairs(s.intersect(_set(others[0])))) == expected[0]


# ---------------------------------------------------------------------------
# box unions

# ---------------------------------------------------------------------------

# tenths give shared endpoints between boxes and non-dyadic floats
tenths = st.integers(0, 10).map(lambda k: k / 10)
factor = st.lists(st.tuples(tenths, tenths).map(sorted), max_size=3)


def _cell_oracle(*unions) -> Fraction:
    """Measure of the intersection of box unions, over the cells of [0, 1]^d
    cut by every box endpoint; a cell is inside a union when some box holds
    its midpoint in every coordinate.  The cells of the last axis are walked
    as bitmasks, one per cell of the other axes."""
    d = len(unions[0][0])
    cuts = [
        sorted({min(max(Fraction(e), Fraction(0)), Fraction(1))
                for u in unions for box in u for ab in box[k] for e in ab}
               | {Fraction(0), Fraction(1)})
        for k in range(d)
    ]
    widths = [[hi - lo for lo, hi in zip(c, c[1:])] for c in cuts]

    def holds(factor, k):
        mids = [(lo + hi) / 2 for lo, hi in zip(cuts[k], cuts[k][1:])]
        return [any(Fraction(a) < x < Fraction(b) for a, b in factor) for x in mids]

    # each box: its cover of the first d - 1 axes, and a bitmask of the last
    covers = [
        [([holds(box[k], k) for k in range(d - 1)],
          sum(1 << i for i, h in enumerate(holds(box[-1], d - 1)) if h))
         for box in u]
        for u in unions
    ]
    lengths: dict[int, Fraction] = {}
    total = Fraction(0)
    for cell in itertools.product(*(range(len(w)) for w in widths[:-1])):
        mask = -1
        for u in covers:
            mask &= functools.reduce(
                operator.or_, (last for head, last in u if all(h[i] for h, i in zip(head, cell))), 0
            )
        if mask:
            if mask not in lengths:
                lengths[mask] = sum(w for i, w in enumerate(widths[-1]) if mask >> i & 1)
            volume = lengths[mask]
            for k, i in enumerate(cell):
                volume *= widths[k][i]
            total += volume
    return total


box_families = st.integers(1, 3).flatmap(
    lambda d: st.lists(
        st.lists(factor, min_size=d, max_size=d), min_size=1, max_size=5
    ).flatmap(
        lambda base: st.lists(st.sampled_from(base), max_size=3).map(
            lambda dup: base + dup
        )
    )
)


@SETTINGS
@given(family=box_families)
def test_box_union_matches_cell_oracle(family):
    boxes = [tuple(_set(f) for f in box) for box in family]
    assert abs(box_union_measure(boxes) - float(_cell_oracle(family))) <= 1e-12


def test_box_union_memo_tells_coordinates_apart():
    # boxes {0, 1} are active at coordinate 1 on x0 < 0.5 and again at
    # coordinate 2 on x0 > 0.5, x1 < 0.5; the two sub-unions differ
    family = [
        [[(0.0, 1.0)], [(0.0, 0.5)], [(0.0, 0.25)]],
        [[(0.0, 1.0)], [(0.0, 0.5)], [(0.0, 0.25)]],
        [[(0.5, 1.0)], [(0.5, 1.0)], [(0.0, 1.0)]],
    ]
    boxes = [tuple(_set(f) for f in box) for box in family]
    assert _cell_oracle(family) == Fraction(3, 8)
    assert box_union_measure(boxes) == 0.375


def test_box_union_of_empty_factors_is_zero():
    full = _set([(0.0, 1.0)])
    assert box_union_measure([]) == 0.0
    assert box_union_measure([(full, _set([]))]) == 0.0


# ---------------------------------------------------------------------------
# the exact quasi-independence constant
# ---------------------------------------------------------------------------


def _star_boxes(q: int, m: int, delta: float) -> list:
    """The dyadic boxes of the star, every p/q +- 2^-k/q unmerged and unclipped."""
    return [
        [[(p / q - 2.0**-k / q, p / q + 2.0**-k / q) for p in range(q + 1)] for k in idx]
        for idx in dyadic_decompose(m, delta).indices
    ]


@pytest.mark.parametrize(
    "m, qs, delta",
    [(2, (1, 5, 7), 0.75 * 2.0**-5), (2, (2, 3, 4), 0.75 * 2.0**-6), (3, (1, 5), 0.75 * 2.0**-7)],
)
def test_exact_mult_quasi_constant_matches_cell_oracle(m, qs, delta):
    # C is the worst mu(Ei & Ej) / (mu(Ei) mu(Ej)), floored at 1, each
    # measure a Fraction over the cells cut by every endpoint
    unions = [_star_boxes(q, m, delta) for q in qs]
    mu = [_cell_oracle(u) for u in unions]
    ratios = [
        _cell_oracle(unions[i], unions[j]) / (mu[i] * mu[j])
        for i, j in itertools.combinations(range(len(qs)), 2)
    ]
    expected = max([Fraction(1)] + ratios)
    assert expected > 1
    rep = quasi_independence_report([mult_star(LatticePoint((q,)), m, delta) for q in qs])
    assert rep.method == "exact-sweep"
    assert abs(rep.C - float(expected)) <= 1e-12 * float(expected)
