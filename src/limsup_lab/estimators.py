"""Desk-scale empirical verification of limsup-set statements.

Everything here measures a *finite* stage of a limsup set or a concrete
measure against the quantity a theorem predicts:

  - exact coverage of union stages (interval sweep at ambient dimension 1,
    Monte Carlo with Wilson intervals otherwise),
  - first-moment tail bounds (one summand per *distinct* resonant set: q and
    -q define the same set, so a shell of lattice points contributes
    shell_count/2 sets),
  - the natural-cover cost exponent (the s where fitted block growth of the
    weighted Hausdorff series crosses zero),
  - Fourier coefficients of the surface measure on {x : q.x = 0 mod 1}
    (quadrature, with a refinement-based error estimate).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from ._rng import CHUNK, monte_carlo_fraction, wilson_interval
from .config import ConfigError
from .criteria import _fit_growth, _norm_spans, norm_values
from .formulas import ProblemInstance
from .funcspace import shell_count
from .intervals import IntervalSet, swept_union_measure
from .resonant import LatticePoint, _block_dots, _in_set, enumerate_shell, set_measures

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
    seed: int


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

    Covered windows are not swept.  Before the windows run, `_cover_set`
    builds C, the exact union of the family's widest intervals.  A window
    [w0, w1) with w1 <= 2 w0 (every window but window 0, as edge k is
    fl(k step)) that lies inside one component of C is handed over as the
    single interval [w0, w1).  The sweep's total on such a window is the
    exact measure of the union there (see `swept_union_measure`), which is
    w1 - w0 for the full family and for the single interval alike, so the
    result is bit for bit the full sweep's.  Window 0 is always swept in
    full.

    Every window has the same width, so one layout serves every swept
    window, built once per call: norm Q gets `per_Q` slots, the largest
    phi - plo + 1 over the swept windows, and the repeated norms, radii and
    slot offsets are laid out once.  A window's block for Q starts at
    p = min(plo, Q + 1 - per_Q), so its slots cover plo..phi and stay in
    0..Q; a slot outside plo..phi lies wholly below w0 or above w1 and clips
    to zero length, which leaves the union unchanged.  Each swept window
    then gathers its block starts, adds the slot offsets and divides by Q
    (the centres p/Q), and writes the starts and ends into two buffers its
    thread keeps for its next window, so past a thread's first window the
    sweep allocates nothing of window size.
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
    covered = (hi <= 2.0 * lo) & (reach >= hi)
    covered_w0 = set(lo[covered].tolist())

    def lowest_p(w0: float) -> np.ndarray:
        return np.maximum(np.floor((w0 - radii) * Qs), 0).astype(np.int64)

    per_Q = np.zeros(Qs.size, dtype=np.int64)
    for w0, w1 in zip(lo[~covered], hi[~covered]):
        phi = np.minimum(np.ceil((w1 + radii) * Qs), Qs).astype(np.int64)
        np.maximum(per_Q, phi - lowest_p(w0) + 1, out=per_Q)
    top_start = Qs + 1 - per_Q
    norm = np.repeat(np.arange(Qs.size), per_Q)
    slot = (np.arange(norm.size) - np.repeat(np.cumsum(per_Q) - per_Q, per_Q)).astype(float)
    Q_rep = Qs[norm].astype(float)
    r_rep = radii[norm]
    buffers = threading.local()

    def gen(w0: float, w1: float):
        if w0 in covered_w0:
            return np.array([w0]), np.array([w1])
        if not hasattr(buffers, "starts"):
            buffers.starts, buffers.ends = np.empty(norm.size), np.empty(norm.size)
        starts, ends = buffers.starts, buffers.ends
        first = np.minimum(lowest_p(w0), top_start).astype(float)
        np.take(first, norm, out=starts, mode="clip")
        starts += slot
        starts /= Q_rep
        np.add(starts, r_rep, out=ends)
        starts -= r_rep
        return starts, ends

    return 2.0 * swept_union_measure(gen, edges)


def _cover_set(Qs: np.ndarray, radii: np.ndarray, width: float) -> IntervalSet:
    """C, the exact union of the stage family's widest intervals.

    The norms with 2 r_Q >= width, widest first, as many whole norms as fit
    in SWEEP_WINDOW_INTERVALS intervals, so C's arrays never outgrow one
    window's buffers.  Their intervals are the floats the sweep's generator
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
    zero delta makes a set with no point.  Each sample chunk of
    `_rng.monte_carlo_fraction` meets blocks of max(1, CHUNK // chunk
    length) rows in one `_block_dots` call, so a block holds no more values
    than a full chunk, and the walk stops between blocks once every point of
    the chunk is covered.  It reports a 99% Wilson half-width.  Exact sweeps
    report half_width None.

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
        return CoverageReport(0.0, None, "empty", 0, seed)
    if stage.representation == "intervals":
        intervals = (Qhi - Qlo + 1) * (Qlo + Qhi + 2) // 2
        if intervals > WORK_LIMIT:
            raise ConfigError(
                f"interval sweep too large: norms {Qlo}..{Qhi} make {intervals} intervals, "
                f"over {WORK_LIMIT:g}; shrink the range"
            )
        value = _interval_sweep_measure(inst.weights.components[0], Qlo, Qhi)
        return CoverageReport(value, None, "interval_sweep", 0, seed)

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
        size = max(1, CHUNK // len(pts))
        for rows, deltas in stage_sets:
            for b in range(len(rows) // 2, len(rows), size):
                hit = _in_set(variant, _block_dots(rows[b:b + size], inst.m, pts), deltas, deltas[0])
                inside |= hit.reshape(-1, len(pts)).any(axis=0)
                if inside.all():
                    return inside
        return inside

    frac, hits = monte_carlo_fraction(in_union, inst.ambient_dim, samples, seed)
    lo, hi = wilson_interval(hits, samples)
    return CoverageReport(frac, (hi - lo) / 2, "monte_carlo", samples, seed)


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
    Kmax: int
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


def _cost_table(values: np.ndarray, n: int) -> np.ndarray:
    """The s-independent part of the natural-cover cost, made in place.

    `values` is a `criteria.norm_values` array of the m weights (m + 1 rows,
    2^Kmax - 1 columns; column |q| - 1 stands for the norm |q|).  Span by
    span (`criteria._norm_spans`, at most 2^14 norms), rows 0..m-1 become
    the radii psi_i/|q| and then log(psi_i/|q|), sorted ascending down the
    column by `_sort_rows`' m-round network of row-wise min/max (log never
    yields NaN or -0.0 here, so this is np.sort's result); the work row m
    becomes log(|q|^m) plus the log of the shell count at |q|, since every
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
            logw[...] = m * np.log(q) + np.log(shell_count(n, norms))
        else:
            r[:, ~ok] = 1.0
            logw[...] = -np.inf
            logw[ok] = m * np.log(q[ok]) + np.log(shell_count(n, norms[ok]))
        _sort_rows(np.log(r, out=r))
    return values


def _block_parts(lo: int, vals: np.ndarray):
    """(k, slice of vals) for each dyadic block k that the span at lo meets."""
    hi = lo + len(vals)
    k = lo.bit_length() - 1
    while 2**k < hi:
        yield k, vals[max(2**k, lo) - lo : min(2 ** (k + 1), hi) - lo]
        k += 1


def _scale_position(s: float, nm: int, m: int) -> int:
    """1-based sorted position of the cheapest cover scale for f = r^s."""
    return max(1, min(nm - math.floor(s), m))


def _window_terms(logr: np.ndarray, logw: np.ndarray, i: int):
    """(A, C) with log(cost * weight) = (s - nm + i) A + C at scale position i."""
    return logr[i - 1], logr[i:].sum(axis=0) + logw


def _summands(coef: float, A: np.ndarray, C: np.ndarray, out=None) -> np.ndarray:
    """exp(coef A + C), written into `out` (a new array if None); overflow gives inf."""
    out = np.multiply(coef, A, out=out)
    out += C
    with np.errstate(over="ignore"):
        return np.exp(out, out=out)


def _growth(block_sums) -> float:
    """Fitted growth of the block sums; non-finite sums saturate at 1e308."""
    sums = [s if math.isfinite(s) else 1e308 for s in block_sums.tolist()]
    return _fit_growth(list(enumerate(sums)))[0]


def _cost_slopes(table: np.ndarray, nm: int, Kmax: int, exponents) -> list[float]:
    """Growth exponent of the natural-cover series at each s, span by span."""
    m = len(table) - 1
    sums = np.zeros((len(exponents), Kmax))
    for lo, hi in _norm_spans(Kmax):
        logr, logw = table[:m, lo - 1 : hi - 1], table[m, lo - 1 : hi - 1]
        terms = {}
        for e, s in enumerate(exponents):
            i = _scale_position(s, nm, m)
            if i not in terms:
                terms[i] = _window_terms(logr, logw, i)
            for k, part in _block_parts(lo, _summands(s - nm + i, *terms[i])):
                sums[e, k] += part.sum()
    return [_growth(row) for row in sums]


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
    "no_crossing" and value None.

    Nothing that is independent of s is recomputed.  With the radii
    r_i = psi_i(q)/|q| sorted ascending, r_(1) <= ... <= r_(m), the cost of
    covering at scale position i is r_(i)^{s - nm + i} prod_{l > i} r_(l),
    so consecutive candidates compare as (r_(i)/r_(i+1))^{s - nm + i}.  For
    s in (j, j+1) the minimum over the m scales therefore sits at position
    i* = min(nm - j, m) (the component `criteria.cover_cost` reports as its
    argmin), and each trial s costs one multiply-add, one exp and a
    per-block sum over A = log r_(i*) and
    C = sum_{l > i*} log r_(l) + log(|q|^m shell count).

    The table is made once per call (`_cost_table`), in place in `values`:
    the `criteria.norm_values` array of the m weights, which a `criteria`
    op evaluates once, reads in both series and hands over here last, and
    which a standalone call builds for itself.  It is one array of
    (m + 1)(2^Kmax - 1) floats, about 21 MB at m = 4 and Kmax = 19, and it
    is all the scan holds that grows with Kmax: every other array is a
    span of at most 2^14 norms.  The windows are tried in order, one pass
    over the spans each, which sums both ends of the window over each
    block's slice of each span; each slope is a sum of its own, so the scan
    stops at the first window whose ends change sign and sums none after
    it.  The bisection then adds the log radii above position i* into
    row m span by span, which makes row m the window's C and row i* - 1
    its A, and each trial writes its summands into a row that A and C do
    not use (a buffer of its own only at m = 1) and sums the blocks with
    `np.add.reduceat`.  A table held as a list of spans would leave its
    freed spans behind as heap holes under the bisection's new arrays; one
    array needs none.
    """
    if inst.mode == "multiplicative":
        raise ValueError("the natural-cover exponent is for rectangle modes")
    n, m, nm = inst.n, inst.m, inst.ambient_dim
    eps = 1e-6
    if values is None:
        values = norm_values(inst.weights.components, Kmax)
    elif values.shape != (m + 1, 2**Kmax - 1):
        raise ValueError(
            f"values of shape {values.shape} are not the {m} weights and a work row "
            f"over 2^{Kmax} - 1 norms"
        )
    table = _cost_table(values, n)
    for j in range(nm):
        slope_lo, slope_hi = _cost_slopes(table, nm, Kmax, (j + eps, j + 1 - eps))
        if slope_lo > 0 >= slope_hi:
            break
    else:
        return CostExponent(None, None, math.nan, math.nan, Kmax, "no_crossing")

    a, b = j + eps, j + 1 - eps
    i = _scale_position(a, nm, m)
    for lo, hi in _norm_spans(Kmax):
        span = table[:, lo - 1 : hi - 1]
        span[m] += span[i:m].sum(axis=0)
    A, C = table[i - 1], table[m]
    spare = 0 if i > 1 else 1
    buf = table[spare] if spare < m else np.empty_like(A)
    starts = 2 ** np.arange(Kmax) - 1

    def slope(s: float) -> float:
        return _growth(np.add.reduceat(_summands(s - nm + i, A, C, out=buf), starts))

    while b - a > tol:
        mid = 0.5 * (a + b)
        if slope(mid) > 0:
            a = mid
        else:
            b = mid
    return CostExponent(0.5 * (a + b), (j, j + 1), slope_lo, slope_hi, Kmax, "ok")


# ---------------------------------------------------------------------------
# surface measures and their Fourier coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourierSample:
    value: complex
    magnitude: float
    error_estimate: float
    reliable: bool
    mass: float  # total mass of the measure (the k = 0 value)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _gl_panels(freq: float, panels: int) -> complex:
    """integral over [0,1] of e^{-2 pi i freq t} by composite Gauss-Legendre."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    t = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = np.exp(-2j * math.pi * freq * t)
    return complex(np.sum(vals * _GL_WEIGHTS[None, :] * half[:, None]))


def surface_fourier(q: LatticePoint, kvec) -> FourierSample:
    """Fourier coefficient of the surface measure on {x : q.x = 0 mod 1}.

    n = 1: the measure is unit mass on each of the |q| points p/|q| (total
    mass |q|), and the coefficient is the exact character sum.  n = 2: with
    d = gcd(q) and q = d q', the set is d closed geodesics of length |q'|_2
    parametrized over t in [0,1] with constant direction (-q2', q1'); the
    coefficient is integrated by composite Gauss-Legendre with 32 panels and
    re-integrated with 64 for the error estimate.
    Integer frequencies make the integrand smooth and periodic, so no
    segment splitting at the square's boundary is needed.
    """
    k = np.asarray(kvec, dtype=float)
    if q.n == 1:
        Q = abs(q.coords[0])
        kk = float(k.reshape(-1)[0])
        phases = np.exp(-2j * math.pi * kk * np.arange(Q) / Q)
        val = complex(np.sum(phases))
        return FourierSample(val, abs(val), 0.0, True, float(Q))
    if q.n != 2:
        raise NotImplementedError("surface measures are implemented for n in {1, 2}")
    if len(k) != 2:
        raise ValueError("frequency vector must have length 2")
    q1, q2 = q.coords
    d = q.gcd
    q1p, q2p = q1 // d, q2 // d
    length = math.hypot(q1p, q2p)
    qp_sq = q1p * q1p + q2p * q2p
    freq = -k[0] * q2p + k[1] * q1p  # k . (direction); an integer
    total = 0j
    total_fine = 0j
    for c in range(d):
        x0 = (c / d) * np.array([q1p, q2p]) / qp_sq
        phase = np.exp(-2j * math.pi * float(k @ x0))
        total += phase * _gl_panels(float(freq), 32)
        total_fine += phase * _gl_panels(float(freq), 64)
    val = length * total_fine
    err = abs(length * (total_fine - total))
    mass = d * length
    return FourierSample(complex(val), abs(val), err, err < 1e-8, mass)
