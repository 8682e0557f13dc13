"""Desk-scale empirical verification of limsup-set statements.

Everything here measures a *finite* stage of a limsup set or a concrete
measure against the quantity a theorem predicts:

  - exact coverage of union stages (interval sweep at ambient dimension 1,
    Monte Carlo with Wilson intervals otherwise),
  - first-moment tail bounds (one summand per *distinct* resonant set: q and
    -q define the same set, so a shell of lattice points contributes
    shell_count/2 sets),
  - the natural-cover cost exponent (the s where fitted block growth of the
    weighted Hausdorff series crosses zero).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from ._rng import BLOCK, monte_carlo_fraction, wilson_interval
from .config import ConfigError
from .criteria import _fit_growth, _norm_spans, norm_values
from .formulas import ProblemInstance
from .funcspace import shell_count
from .intervals import IntervalSet, swept_union_measure
from .resonant import _block_dots, _in_set, enumerate_shell, set_measures

# ---------------------------------------------------------------------------
# stage unions and coverage
# ---------------------------------------------------------------------------


# intervals per sweep window above the 32-window floor on [0, 1/2]
SWEEP_WINDOW_INTERVALS = 1 << 17


@dataclass(frozen=True)
class StageUnion:
    """The union of resonant sets over a shell range Qlo <= |q| <= Qhi."""

    instance: ProblemInstance
    Qlo: int
    Qhi: int

    def __post_init__(self):
        if self.Qlo < 1:
            raise ValueError("Qlo must be a positive integer")

    @property
    def representation(self) -> str:
        return "intervals" if self.instance.ambient_dim == 1 else "monte_carlo"


@dataclass(frozen=True)
class CoverageReport:
    value: float
    half_width: float | None  # None for the exact interval sweep
    method: str
    samples: int


def _interval_sweep_measure(psi, Qlo: int, Qhi: int, windows: int | None = None) -> float:
    """Exact measure of the union of scalar resonant sets, one window at a time.

    For each norm Q the set is Q+1 intervals of radius psi(Q)/Q centred at
    p/Q, clipped to [0, 1].  The radius depends on Q alone: the sweep is
    taken only at ambient dimension 1, where every budget (power, power_log,
    constant, table) is a function of the norm |q|.  So x -> 1 - x maps the
    interval at p/Q onto the one at (Q - p)/Q, and the clip at 0 onto the
    clip at 1: the union U satisfies 1 - U = U, and |U| = 2 |U & [0, 1/2]|.
    The windows cover [0, 1/2] only and the total is doubled, which is exact
    in floats.  (A sweep of [0, 1] is not bit-equal to this: its endpoints
    above 1/2 round on a coarser grid.  Both are within the float sweep's
    own error of the exact union.)

    A window [w0, w1) only needs the p-range plo..phi meeting it, with
    plo = max(floor((w0 - r) Q), 0) and phi = min(ceil((w1 + r) Q), Q).
    Norms with psi(Q) = 0 are dropped first.  Unless given, the window count
    on [0, 1/2] is max(32, ceil(sum(Q + 1) / 2^18)): about half the
    intervals meet [0, 1/2], so that is about 2^17 intervals per window.

    A window's total depends only on the union handed over in it (see
    `swept_union_measure`).  So a window inside one component of C, the
    exact union of the widest intervals (`_cover_set`), is handed over as
    the one interval [w0, w1); and at a norm Q with numerator step 2
    (`_numerator_steps`) the interval at an even p, inside the one at p/2
    over Q/2 (itself laid out, or inside the one at p/4 over Q/4, and so
    on), is left out.  The other windows share one slot layout, built once
    per call.  With per_Q the largest phi - plo + 1 over them, a step-1 norm
    gets per_Q slots and a step-2 norm min(ceil(per_Q/2), Q/2), as many odd
    p as any window's range holds.  A window's block for Q starts at
    p = min(plo, Q + 1 - per_Q) at step 1 and at the odd
    p = min(plo | 1, Q + 1 - 2 slots) at step 2, so its slots cover plo..phi
    (the odd p at step 2) and stay in 0..Q; any other slot clips to zero
    length, which leaves the union as it is.  Each window gathers its block
    starts, adds the slot offsets (the step times the slot's rank) and
    divides by Q, into two buffers its thread keeps, so past a thread's
    first window the sweep allocates nothing of window size.
    """
    if Qhi < Qlo:
        return 0.0
    Qs = np.arange(Qlo, Qhi + 1)
    deltas = psi.eval_norm_array(Qs)
    keep = deltas > 0
    Qs, deltas = Qs[keep], deltas[keep]
    if Qs.size == 0:
        return 0.0
    radii = deltas / Qs
    if windows is None:
        windows = max(32, -(-int((Qs + 1).sum()) // (2 * SWEEP_WINDOW_INTERVALS)))
    edges = np.linspace(0.0, 0.5, windows + 1)
    lo, hi = edges[:-1], edges[1:]
    cover = _cover_set(Qs, radii, 0.5 / windows)
    # the end of the component of C that holds w0, -inf where none does
    reach = np.append(-np.inf, cover.ends)[cover.starts.searchsorted(lo, side="right")]
    covered = reach >= hi
    covered_w0 = set(lo[covered].tolist())

    def lowest_p(w0: float) -> np.ndarray:
        return np.maximum(np.floor((w0 - radii) * Qs), 0).astype(np.int64)

    per_Q = np.zeros(Qs.size, dtype=np.int64)
    for w0, w1 in zip(lo[~covered], hi[~covered]):
        phi = np.minimum(np.ceil((w1 + radii) * Qs), Qs).astype(np.int64)
        np.maximum(per_Q, phi - lowest_p(w0) + 1, out=per_Q)
    step = _numerator_steps(Qs, radii)
    # a window's odd numerators of a step-2 norm: at most ceil(per_Q / 2), and Q is even
    count = np.where(step == 2, np.minimum((per_Q + 1) // 2, Qs // 2), per_Q)
    top_start = Qs + 1 - step * count
    odd = step - 1
    norm = np.repeat(np.arange(Qs.size), count)
    slot = np.arange(norm.size) - np.repeat(np.cumsum(count) - count, count)  # rank in block
    slot = (slot * step[norm]).astype(float)
    Q_rep = Qs[norm].astype(float)
    r_rep = radii[norm]
    buffers = threading.local()

    def gen(w0: float, w1: float):
        if w0 in covered_w0:
            return np.array([w0]), np.array([w1])
        if not hasattr(buffers, "starts"):
            buffers.starts, buffers.ends = np.empty(norm.size), np.empty(norm.size)
        starts, ends = buffers.starts, buffers.ends
        first = np.minimum(lowest_p(w0) | odd, top_start).astype(float)
        np.take(first, norm, out=starts, mode="clip")
        starts += slot
        starts /= Q_rep
        np.add(starts, r_rep, out=ends)
        starts -= r_rep
        return starts, ends

    return 2.0 * swept_union_measure(gen, edges)


def _numerator_steps(Qs: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """The numerator step of each norm in the stage sweep's slot layout.

    2 at an even norm Q whose half Q/2 is one of the sweep's norms (so
    Qlo <= Q/2 and psi(Q/2) > 0) with r_{Q/2} >= r_Q, else 1.  At such a
    norm the interval at an even p lies inside the one at p/2 over Q/2:
    fl(p/Q) = fl((p/2)/(Q/2)), as both are the one real p/Q rounded, and
    rounding is monotone, so fl(c - r_{Q/2}) <= fl(c - r_Q) and
    fl(c + r_Q) <= fl(c + r_{Q/2}).
    """
    half = Qs // 2
    j = np.minimum(Qs.searchsorted(half), Qs.size - 1)
    return np.where((Qs % 2 == 0) & (Qs[j] == half) & (radii[j] >= radii), 2, 1)


def _cover_set(Qs: np.ndarray, radii: np.ndarray, width: float) -> IntervalSet:
    """C, the exact union of the stage family's widest intervals.

    The norms with 2 r_Q >= width, widest first, as many whole norms as fit
    in SWEEP_WINDOW_INTERVALS intervals, the intervals the window count aims
    a window at.  Their intervals are the floats the sweep's generator
    forms, fl(p/Q) -+ r_Q for p = 0..Q, merged without tolerance: two
    intervals join only if they overlap or touch.  C is a subset of the
    family's union, which is all the covered-window test needs.
    """
    wide = np.flatnonzero(2.0 * radii >= width)
    wide = wide[np.argsort(-radii[wide], kind="stable")]
    counts = Qs[wide] + 1
    fits = np.cumsum(counts) <= SWEEP_WINDOW_INTERVALS
    wide, counts = wide[fits], counts[fits]
    norm = np.repeat(wide, counts)
    p = np.arange(norm.size) - np.repeat(np.cumsum(counts) - counts, counts)
    centres = p / Qs[norm]
    return IntervalSet.from_intervals(centres - radii[norm], centres + radii[norm], tol=0.0)


# the most unit steps a stage measure takes: intervals swept, or lattice
# points times samples tested
WORK_LIMIT = 5e9
# the most norms a command walks one at a time (Monte-Carlo shells, measure rows)
NORM_LIMIT = 1 << 18


def coverage_fraction(
    stage: StageUnion, samples: int = 1_000_000, seed: int = 0
) -> CoverageReport:
    """Measure of the stage union: exact at ambient dimension 1, else MC.

    The Monte-Carlo path holds each shell as its integer rows and tests the
    upper half, the q whose first nonzero coordinate is positive (q and -q
    give the same set, bit for bit).  Every budget depends on |q| alone, so
    the deltas of every shell are read at once, from `eval_norm_array`; a
    zero delta makes a set with no point.  Each sample block of
    `_rng.monte_carlo_fraction` (at most BLOCK points) meets groups of
    max(1, BLOCK // block length) rows in one `_block_dots` call, so a call
    holds no more values than a full sample block, and the walk stops
    between groups once every point of the sample block is covered.  It
    reports a 99% Wilson half-width.  Exact sweeps report half_width None.

    The range and the samples are inputs the caller chose, so a range too
    large to measure is a ConfigError, raised before anything is allocated:
    a sweep of more than WORK_LIMIT intervals (sum_Q (Q + 1) bounds them),
    or a Monte-Carlo run of more than NORM_LIMIT shells or more than
    WORK_LIMIT membership tests (every lattice point of the range,
    sum_Q shell_count(n, Q) = (2 Qhi + 1)^n - (2 Qlo - 1)^n, per sample).
    """
    inst = stage.instance
    Qlo, Qhi = stage.Qlo, stage.Qhi
    if Qhi < Qlo:
        return CoverageReport(0.0, None, "empty", 0)
    if stage.representation == "intervals":
        intervals = (Qhi - Qlo + 1) * (Qlo + Qhi + 2) // 2
        if intervals > WORK_LIMIT:
            raise ConfigError(
                f"interval sweep too large: norms {Qlo}..{Qhi} make {intervals} intervals, "
                f"over {WORK_LIMIT:g}; shrink the range"
            )
        value = _interval_sweep_measure(inst.weights.components[0], Qlo, Qhi)
        return CoverageReport(value, None, "interval_sweep", 0)

    points = (2 * Qhi + 1) ** inst.n - (2 * Qlo - 1) ** inst.n
    if Qhi - Qlo + 1 > NORM_LIMIT or points * samples > WORK_LIMIT:
        raise ConfigError(
            f"Monte-Carlo budget exceeded: {samples} samples x {points} lattice points "
            f"of norm {Qlo}..{Qhi} is over {WORK_LIMIT:g}, or the range holds over "
            f"{NORM_LIMIT} shells; shrink the range or samples"
        )
    variant = "mult" if inst.mode == "multiplicative" else "weighted"
    # a star reads psi(Q) as deltas[0]
    norms = np.arange(Qlo, Qhi + 1)
    deltas = np.array([c.eval_norm_array(norms) for c in inst.weights.components]).T
    stage_sets = [(enumerate_shell(inst.n, Q), d) for Q, d in zip(norms.tolist(), deltas)]

    def in_union(pts: np.ndarray) -> np.ndarray:
        inside = np.zeros(len(pts), dtype=bool)
        size = max(1, BLOCK // len(pts))
        for rows, deltas in stage_sets:
            for b in range(len(rows) // 2, len(rows), size):
                hit = _in_set(variant, _block_dots(rows[b:b + size], inst.m, pts), deltas, deltas[0])
                inside |= hit.reshape(-1, len(pts)).any(axis=0)
                if inside.all():
                    return inside
        return inside

    frac, hits = monte_carlo_fraction(in_union, inst.ambient_dim, samples, seed)
    lo, hi = wilson_interval(hits, samples)
    return CoverageReport(frac, (hi - lo) / 2, "monte_carlo", samples)


# ---------------------------------------------------------------------------
# first-moment tail bounds
# ---------------------------------------------------------------------------


def tail_first_moment(inst: ProblemInstance, Qlo: int, Qhi: float) -> float:
    """Sum of the exact measures of all distinct resonant sets in the range.

    An upper bound for the tail union's measure (Borel-Cantelli first
    moment).  Qhi = inf is supported for norm-dependent power-decay budgets
    in the rectangle modes: the finite part is summed exactly up to a cutoff
    and the remainder is bounded by the comparison integral (the result is
    still an upper bound).
    """
    if Qhi != math.inf and Qhi < Qlo:
        return 0.0
    n, m = inst.n, inst.m
    symbolic_tail = 0.0
    if Qhi == math.inf:
        if inst.mode == "multiplicative":
            raise ValueError("infinite ranges need a rectangle mode (weighted/nonweighted)")
        taus = []
        coeff = 1.0
        for c in inst.weights.components:
            if c.kind != "power":
                raise ValueError("infinite ranges need pure power budgets")
            taus.append(c.tau)
            coeff *= 2.0 * c.coeff
        exponent = (n - 1) - sum(taus)
        if exponent >= -1:
            return math.inf
        cutoff = max(100_000, 10 * Qlo)
        # distinct sets per shell <= n (2Q+1)^{n-1} <= n 3^{n-1} Q^{n-1}
        shell_bound = n * 3.0 ** (n - 1)
        symbolic_tail = (
            shell_bound * coeff * (cutoff + 0.5) ** (exponent + 1) / -(exponent + 1)
        )
        Qhi = cutoff
    Qs = np.arange(Qlo, int(Qhi) + 1)
    if Qs.size == 0:
        return symbolic_tail
    if inst.mode == "multiplicative":
        per_set = set_measures("mult", m, inst.psi.eval_norm_array(Qs))
    else:
        per_set = set_measures("weighted", m, [c.eval_norm_array(Qs) for c in inst.weights.components])
    return float(np.sum(shell_count(n, Qs) / 2.0 * per_set)) + symbolic_tail


# ---------------------------------------------------------------------------
# natural-cover cost exponent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostExponent:
    value: float | None
    window: tuple[int, int] | None
    slope_lo: float
    slope_hi: float
    status: str  # "ok" or "no_crossing"


def _sort_rows(a: np.ndarray) -> np.ndarray:
    """Sort each column of the (m, N) array `a` ascending, in place.

    Odd-even transposition network over whole rows: round r compare-exchanges
    the adjacent row pairs (j, j + 1) with j = r mod 2, r mod 2 + 2, ..., all
    at once, by np.minimum and np.maximum; m rounds sort any m rows.  Min and
    max only move values, so without NaN or signed zeros the result equals
    np.sort(a, axis=0) bit for bit.
    """
    m = len(a)
    for r in range(m):
        lo, hi = a[r % 2 : m - 1 : 2], a[r % 2 + 1 : m : 2]
        low = np.minimum(lo, hi)
        np.maximum(lo, hi, out=hi)
        lo[...] = low
    return a


def _log_shell_count(n: int, norms: np.ndarray):
    """log of the shell count at each norm; at n = 1 the count is 2 at every norm, so log 2."""
    return math.log(2.0) if n == 1 else np.log(shell_count(n, norms))


def _cost_table(values: np.ndarray, n: int) -> np.ndarray:
    """The s-independent part of the natural-cover cost, made in place.

    `values` is a `criteria.norm_values` array of the m weights (m + 1 rows,
    2^Kmax - 1 columns; column |q| - 1 stands for the norm |q|).  Span by
    span (`criteria._norm_spans`, at most 2^14 norms), rows 0..m-1 become
    the radii psi_i/|q| and then log(psi_i/|q|), sorted ascending down the
    column by `_sort_rows`' m-round network of row-wise min/max (log never
    yields NaN or -0.0 here, so this is np.sort's result); the work row m
    becomes log(|q|^m) plus the log of the shell count at |q| (the scalar
    log 2 at n = 1, added by broadcast: the same floats), since every
    weight depends on the norm alone and a column stands for its whole
    shell.  Columns with a zero weight or a radius above 1 (the `ok` mask,
    taken before the division) are skipped exactly as series_sum skips
    them: log radii 0, row m -inf.  A span where every column is valid
    takes the logs of its radii and weights directly, without `np.where`
    and the boolean gather and scatter: `np.where(True, x, c)` is x, and
    gathering every column gives the span itself.  These are the float
    operations a separately allocated table would take, so the bits are
    the same.  Every temporary is span-sized.
    """
    m = len(values) - 1
    for lo, hi in _norm_spans(values.shape[1].bit_length()):
        norms = np.arange(lo, hi)
        q = norms.astype(float)
        span = values[:, lo - 1 : hi - 1]
        r, logw = span[:m], span[m]
        ok = np.all(r > 0, axis=0)
        np.divide(r, q, out=r)
        ok &= np.all(r <= 1.0 + 1e-12, axis=0)
        if ok.all():
            logw[...] = m * np.log(q) + _log_shell_count(n, norms)
        else:
            r[:, ~ok] = 1.0
            logw[...] = -np.inf
            logw[ok] = m * np.log(q[ok]) + _log_shell_count(n, norms[ok])
        _sort_rows(np.log(r, out=r))
    return values


def _scale_position(s: float, nm: int, m: int) -> int:
    """1-based sorted position of the cheapest cover scale for f = r^s."""
    return max(1, min(nm - math.floor(s), m))


def _summands(coef: float, A: np.ndarray, C: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(coef A + C), written into `out`; overflow gives inf."""
    np.multiply(coef, A, out=out)
    out += C
    with np.errstate(over="ignore"):
        return np.exp(out, out=out)


def _growth(block_sums) -> float:
    """Fitted growth of the block sums; non-finite sums saturate at 1e308."""
    sums = [s if math.isfinite(s) else 1e308 for s in block_sums.tolist()]
    return _fit_growth(list(enumerate(sums)))[0]


def _cost_slope(table: np.ndarray, nm: int):
    """The growth exponent of the natural-cover series as a function of s.

    `table` is a `_cost_table` over 2^Kmax - 1 norms.  At scale position
    i = `_scale_position(s, nm, m)` the log of a norm's cost times its
    weight is (s - nm + i) A + C, with A = log r_(i) (row i - 1) and
    C = sum_{l > i} log r_(l) + log(|q|^m shell count).  Row m holds C for
    the current position: it starts at m, where C is the weight row, and
    each time the position drops the freed log-radius row is added into
    row m in place.  The position never rises, so the trial exponents must
    come in windows of non-decreasing j, as the scan tries them; each slope
    is cached by s.  A trial writes its summands span by span
    (`criteria._norm_spans`) into one span-sized buffer and adds each dyadic
    block's slice of the span, with `.sum()`, into that block's sum, spans
    in order.
    """
    m = len(table) - 1
    logr, C = table[:m], table[m]
    Kmax = table.shape[1].bit_length()
    spans = _norm_spans(Kmax)
    buf = np.empty(max(hi - lo for lo, hi in spans))
    i = m
    known = {}

    def slope(s: float) -> float:
        nonlocal i, C
        if s not in known:
            while i > _scale_position(s, nm, m):
                i -= 1
                C += logr[i]
            sums = np.zeros(Kmax)
            for lo, hi in spans:
                cols = slice(lo - 1, hi - 1)
                vals = _summands(s - nm + i, logr[i - 1, cols], C[cols], buf[: hi - lo])
                k = lo.bit_length() - 1
                while 2**k < hi:
                    sums[k] += vals[max(2**k, lo) - lo : min(2 ** (k + 1), hi) - lo].sum()
                    k += 1
            known[s] = _growth(sums)
        return known[s]

    return slope


# evaluated regula-falsi steps before the estimate the halving is replayed toward
SECANT_STEPS = 1


def _located_bisection(slope, a: float, b: float, tol: float) -> float:
    """The midpoint of the cell where halving [a, b] down to `tol` lands.

    That is the value of the plain loop: while b - a > tol, mid =
    0.5 * (a + b) replaces a if slope(mid) > 0 and b otherwise.  slope(a) > 0
    and slope(b) <= 0 are known (`slope` should cache what it evaluates).
    Here regula falsi from the ends takes SECANT_STEPS steps, each
    evaluating the slope at its estimate and keeping the bracket, and one
    more estimate gives the root x; the same float halving then runs from
    [a, b] toward x (mid < x replaces a) down to `tol`, and the cell [c, d]
    it ends in is confirmed by slope(c) > 0 and not slope(d) > 0.

    Every midpoint on the halving's path is an end of the final cell or lies
    at least one cell width from it, on the side the path left it.  So if
    the sign of the slope is monotone on those points (positive below the
    root, not positive above it), the plain loop takes the path that ends
    in the confirmed cell, and both return the same 0.5 * (c + d).  When a
    secant estimate is not finite or not inside its bracket, or the cell
    fails its check, the halving runs again from [a, b], whose ends are
    confirmed, deciding each midpoint by the sign of the slope there: that
    is the plain loop itself.
    """
    lo, hi = a, b
    for step in range(SECANT_STEPS + 1):
        x = lo + slope(lo) * (hi - lo) / (slope(lo) - slope(hi))
        if not lo < x < hi:
            x = None
            break
        if step < SECANT_STEPS:
            if slope(x) > 0:
                lo = x
            else:
                hi = x
    for guess in (x, None):
        c, d = a, b
        while d - c > tol:
            mid = 0.5 * (c + d)
            if (slope(mid) > 0) if guess is None else (mid < guess):
                c = mid
            else:
                d = mid
        if guess is None or (slope(c) > 0 and not slope(d) > 0):
            return 0.5 * (c + d)


def hausdorff_cost_exponent(
    inst: ProblemInstance, Kmax: int = 16, tol: float = 1e-3, values: np.ndarray | None = None
) -> CostExponent:
    """The s where the fitted growth of the natural-cover cost crosses zero.

    For each candidate exponent the weighted Hausdorff series (per-point
    summand t_q(Psi, r^s) |q|^m, f = r^s with cap 1) is block-summed over
    the dyadic blocks [2^k, 2^{k+1}), k < Kmax, and its growth exponent
    fitted as series_sum fits it; the fit is decreasing in s, and the
    crossing is bisected to `tol` inside the first unit window (j, j+1)
    where the sign flips.  No sign flip in any window -> status
    "no_crossing" and value None.  `tol` must be a positive finite number
    (ValueError otherwise): at 0 the halving would never stop once its
    ends are adjacent floats, and NaN would skip it.  Kmax must be at least
    3 (ValueError otherwise): the growth fit reads the last half of the
    blocks and needs two of them, so fewer blocks would fit no slope and
    report "no_crossing" for every instance.

    Nothing that is independent of s is recomputed.  With the radii
    r_i = psi_i(q)/|q| sorted ascending, r_(1) <= ... <= r_(m), the cost of
    covering at scale position i is r_(i)^{s - nm + i} prod_{l > i} r_(l),
    so consecutive candidates compare as (r_(i)/r_(i+1))^{s - nm + i}.  For
    s in (j, j+1) the minimum over the m scales therefore sits at position
    i* = min(nm - j, m) (the argmin of `content.candidate_products` at
    f = r^s), and each trial s costs one multiply-add, one exp and a
    per-block sum over A = log r_(i*) and
    C = sum_{l > i*} log r_(l) + log(|q|^m shell count).

    One evaluator (`_cost_slope`) gives every slope the scan reads.  The
    table is made once per call (`_cost_table`), in place in `values`: the
    `criteria.norm_values` array of the m weights, which a `criteria` op
    evaluates once, reads in both series and hands over here last, and
    which a standalone call builds for itself.  It is one array of
    (m + 1)(2^Kmax - 1) floats, about 21 MB at m = 4 and Kmax = 19, and it
    is all the scan holds that grows with Kmax: the evaluator's buffer is
    one span of at most 2^14 norms.  The windows are tried in order, so i*
    never rises, and the evaluator keeps C for the current position in the
    table's work row, adding each log-radius row that a drop of i* frees.
    The scan stops at the first window whose end slopes change sign and
    evaluates nothing after it; `slope_lo` and `slope_hi` are those slopes.

    The bisection is then located rather than walked (`_located_bisection`):
    one regula-falsi step from the window's end slopes estimates the root;
    the float halving of (j + 1e-6, j + 1 - 1e-6) is replayed toward the
    estimate down to `tol`, and the cell it ends in is confirmed by the
    slope's sign at its two ends.  That is three slope evaluations where
    the halving takes one per step (14 at tol 1e-4).  It returns the plain
    halving's value whenever the slope's sign is monotone on the halving's
    midpoints, which the decreasing fit gives; if a check fails, or an
    estimate is not finite or leaves its bracket, the plain halving runs
    from the window, reusing every slope already evaluated.
    """
    if inst.mode == "multiplicative":
        raise ValueError("the natural-cover exponent is for rectangle modes")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be a positive finite number, not {tol!r}")
    if Kmax < 3:
        raise ValueError(f"Kmax must be at least 3 for a growth fit over the last half, not {Kmax}")
    n, m, nm = inst.n, inst.m, inst.ambient_dim
    eps = 1e-6
    if values is None:
        values = norm_values(inst.weights.components, Kmax)
    elif values.shape != (m + 1, 2**Kmax - 1):
        raise ValueError(
            f"values of shape {values.shape} are not the {m} weights and a work row "
            f"over 2^{Kmax} - 1 norms"
        )
    slope = _cost_slope(_cost_table(values, n), nm)
    for j in range(nm):
        a, b = j + eps, j + 1 - eps
        if slope(a) > 0 >= slope(b):
            break
    else:
        return CostExponent(None, None, math.nan, math.nan, "no_crossing")
    value = _located_bisection(slope, a, b, tol)
    return CostExponent(value, (j, j + 1), slope(a), slope(b), "ok")
