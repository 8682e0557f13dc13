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
from dataclasses import dataclass

import numpy as np

from ._rng import monte_carlo_fraction, wilson_interval
from .criteria import _fit_growth
from .formulas import ProblemInstance
from .funcspace import WeightSystem
from .intervals import swept_union_measure
from .resonant import (
    LatticePoint,
    ResonantDescriptor,
    enumerate_shell,
    membership,
    mult_star,
    shell_count,
    v_star,
    weighted_rect,
)

# ---------------------------------------------------------------------------
# stage unions and coverage
# ---------------------------------------------------------------------------


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


def _interval_sweep_measure(psi, Qlo: int, Qhi: int, windows: int = 64) -> float:
    """Exact measure of the union of scalar resonant sets, one window at a time.

    For each norm Q the set is Q+1 intervals of radius psi(Q)/Q centred at
    p/Q; a window [w0, w1) only needs the p-range plo..phi meeting it.  All
    norms are generated as one ragged arange: with cnt = phi - plo + 1 per
    norm and `starts_at` its offset in the output, p = arange(total) +
    repeat(plo - starts_at, cnt), the centres are p / Q and the ends are
    formed in place.  Norms with psi(Q) = 0 are dropped first.
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

    def gen(w0: float, w1: float):
        plo = np.maximum(np.floor((w0 - radii) * Qs), 0).astype(np.int64)
        phi = np.minimum(np.ceil((w1 + radii) * Qs), Qs).astype(np.int64)
        cnt = np.maximum(phi - plo + 1, 0)
        total = int(cnt.sum())
        if total == 0:
            return np.empty(0), np.empty(0)
        starts_at = np.concatenate(([0], np.cumsum(cnt)[:-1]))
        p = np.arange(total) + np.repeat(plo - starts_at, cnt)
        centres = p / np.repeat(Qs, cnt)
        r = np.repeat(radii, cnt)
        starts = centres - r
        centres += r
        return starts, centres

    return swept_union_measure(gen, windows=windows)


def _stage_descriptor(inst: ProblemInstance, q: LatticePoint) -> ResonantDescriptor:
    if inst.mode == "multiplicative":
        return mult_star(q, inst.m, inst.psi(q))
    deltas = inst.as_weight_system().evaluate(q)
    return weighted_rect(q, deltas)


def coverage_fraction(
    stage: StageUnion, samples: int = 1_000_000, seed: int = 0
) -> CoverageReport:
    """Measure of the stage union: exact at ambient dimension 1, else MC.

    The Monte-Carlo path tests one descriptor per set: q and -q give the
    same set, bit for bit, so only the q whose first nonzero coordinate is
    positive is kept.  It walks those descriptors once per sample chunk of
    `_rng.monte_carlo_fraction`, stopping early once every point of the
    chunk is covered, and reports a 99% Wilson half-width.  The budget guard
    counts every lattice point of the range, sum_Q shell_count(n, Q), times
    the sample count, and refuses more than 5e9.  Exact sweeps report
    half_width None.
    """
    inst = stage.instance
    if stage.Qhi < stage.Qlo:
        return CoverageReport(0.0, None, "empty", 0, seed)
    if stage.representation == "intervals":
        psi = inst.psi if inst.psi is not None else inst.weights.components[0]
        value = _interval_sweep_measure(psi, stage.Qlo, stage.Qhi)
        return CoverageReport(value, None, "interval_sweep", 0, seed)

    shells = range(stage.Qlo, stage.Qhi + 1)
    if sum(shell_count(inst.n, Q) for Q in shells) * samples > 5e9:
        raise ValueError("Monte-Carlo budget exceeded; shrink the range or samples")
    descriptors = [
        _stage_descriptor(inst, q)
        for Q in shells
        for q in enumerate_shell(inst.n, Q)
        if next(c for c in q.coords if c) > 0
    ]

    def in_union(pts: np.ndarray) -> np.ndarray:
        inside = np.zeros(len(pts), dtype=bool)
        for desc in descriptors:
            inside |= membership(desc, pts)
            if inside.all():
                break
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
    weights = inst.as_weight_system()
    symbolic_tail = 0.0
    if Qhi == math.inf:
        if inst.mode == "multiplicative":
            raise ValueError("infinite ranges need a rectangle mode (weighted/nonweighted)")
        taus = []
        coeff = 1.0
        for c in weights.components:
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
    counts = ((2 * Qs + 1.0) ** n - (2 * Qs - 1.0) ** n) / 2.0
    if inst.mode == "multiplicative":
        vals = inst.psi.eval_norm_array(Qs)
        per_set = np.array(
            [min(v_star(m, min((2.0**m) * v, 1.0)), 1.0) if v > 0 else 0.0 for v in vals]
        )
    else:
        per_set = np.ones(len(Qs))
        for c in weights.components:
            per_set = per_set * np.minimum(2.0 * c.eval_norm_array(Qs), 1.0)
    return float(np.sum(counts * per_set)) + symbolic_tail


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


# norms per table chunk: bounds the scan's working memory whatever Kmax is
_SCAN_CHUNK = 2**14


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


def _cost_table_chunks(weights: WeightSystem, n: int, Kmax: int):
    """The s-independent part of the natural-cover cost, in bounded chunks.

    Yields (k, logr, logw) for norms in [1, 2^Kmax), block by block and at
    most _SCAN_CHUNK norms at a time.  logr is the (m, N) array of
    log(psi_i/|q|), sorted ascending along axis 0 by `_sort_rows`' m-round
    network of row-wise min/max (log never yields NaN or -0.0 here, so this
    is np.sort's result); logw is log(|q|^m) plus the log of the shell count
    at |q|, since every weight depends on the norm alone and a column stands
    for its whole shell.  Columns with a zero weight or a radius above 1 are
    skipped exactly as series_sum skips them: logr 0, logw -inf.
    """
    m = weights.m
    for k in range(Kmax):
        for lo in range(2**k, 2 ** (k + 1), _SCAN_CHUNK):
            norms = np.arange(lo, min(lo + _SCAN_CHUNK, 2 ** (k + 1)))
            q = norms.astype(float)
            psi = np.array([c.eval_norm_array(norms) for c in weights.components])
            count = (2 * q + 1.0) ** n - (2 * q - 1.0) ** n
            r = psi / q
            ok = np.all((psi > 0) & (r <= 1.0 + 1e-12), axis=0)
            logr = _sort_rows(np.log(np.where(ok, r, 1.0)))
            logw = np.full(len(q), -np.inf)
            logw[ok] = m * np.log(q[ok]) + np.log(count[ok])
            yield k, logr, logw


def _scale_position(s: float, nm: int, m: int) -> int:
    """1-based sorted position of the cheapest cover scale for f = r^s."""
    return max(1, min(nm - math.floor(s), m))


def _window_terms(logr: np.ndarray, logw: np.ndarray, i: int):
    """(A, C) with log(cost * weight) = (s - nm + i) A + C at scale position i."""
    return logr[i - 1], logr[i:].sum(axis=0) + logw


def _summands(coef: float, A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """exp(coef A + C) with a single temporary; overflow gives inf."""
    out = coef * A
    out += C
    with np.errstate(over="ignore"):
        return np.exp(out, out=out)


def _growth(block_sums) -> float:
    """Fitted growth of the block sums; non-finite sums saturate at 1e308."""
    sums = [s if math.isfinite(s) else 1e308 for s in block_sums.tolist()]
    return _fit_growth(list(enumerate(sums)))[0]


def _cost_slopes(table, nm: int, Kmax: int, exponents) -> list[float]:
    """Growth exponent of the natural-cover series at each s, from the chunk list."""
    sums = np.zeros((len(exponents), Kmax))
    for k, logr, logw in table:
        terms = {}
        for e, s in enumerate(exponents):
            i = _scale_position(s, nm, len(logr))
            if i not in terms:
                terms[i] = _window_terms(logr, logw, i)
            sums[e, k] += _summands(s - nm + i, *terms[i]).sum()
    return [_growth(row) for row in sums]


def hausdorff_cost_exponent(
    inst: ProblemInstance, Kmax: int = 16, tol: float = 1e-3
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

    The table is built once per call (`_cost_table_chunks`, chunks of at
    most 2^14 norms) and held as a list of chunks: (m + 1)(2^Kmax - 1)
    floats, about 21 MB at m = 4 and Kmax = 19.  One pass over the chunks
    sums both ends of every window.  The bisection then pops the chunks one
    at a time into the crossing window's A and C, two float arrays of
    2^Kmax - 1 entries, so the full table and the concatenated A and C are
    never held together.
    """
    if inst.mode == "multiplicative":
        raise ValueError("the natural-cover exponent is for rectangle modes")
    weights = inst.as_weight_system()
    n, m, nm = inst.n, weights.m, inst.ambient_dim
    eps = 1e-6
    ends = [s for j in range(nm) for s in (j + eps, j + 1 - eps)]
    table = list(_cost_table_chunks(weights, n, Kmax))
    slopes = _cost_slopes(table, nm, Kmax, ends)
    for j in range(nm):
        slope_lo, slope_hi = slopes[2 * j], slopes[2 * j + 1]
        if slope_lo > 0 >= slope_hi:
            break
    else:
        return CostExponent(None, None, math.nan, math.nan, Kmax, "no_crossing")

    a, b = j + eps, j + 1 - eps
    i = _scale_position(a, nm, m)
    sizes = np.zeros(Kmax, dtype=np.int64)
    As, Cs = [], []
    while table:
        k, logr, logw = table.pop(0)
        A, C = _window_terms(logr, logw, i)
        sizes[k] += len(A)
        As.append(A.copy())  # a view would keep the whole chunk alive
        Cs.append(C)
    starts = np.cumsum(sizes) - sizes
    A = np.concatenate(As)
    del As
    C = np.concatenate(Cs)
    del Cs

    def slope(s: float) -> float:
        return _growth(np.add.reduceat(_summands(s - nm + i, A, C), starts))

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


def surface_fourier(q: LatticePoint, kvec, resolution: int = 32) -> FourierSample:
    """Fourier coefficient of the surface measure on {x : q.x = 0 mod 1}.

    n = 1: the measure is unit mass on each of the |q| points p/|q| (total
    mass |q|), and the coefficient is the exact character sum.  n = 2: with
    d = gcd(q) and q = d q', the set is d closed geodesics of length |q'|_2
    parametrized over t in [0,1] with constant direction (-q2', q1'); the
    coefficient is integrated by composite Gauss-Legendre with `resolution`
    panels and re-integrated at double resolution for the error estimate.
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
    panels = max(resolution, 4)
    for c in range(d):
        x0 = (c / d) * np.array([q1p, q2p]) / qp_sq
        phase = np.exp(-2j * math.pi * float(k @ x0))
        total += phase * _gl_panels(float(freq), panels)
        total_fine += phase * _gl_panels(float(freq), 2 * panels)
    val = length * total_fine
    err = abs(length * (total_fine - total))
    mass = d * length
    return FourierSample(complex(val), abs(val), err, err < 1e-8, mass)
