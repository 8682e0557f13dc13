"""Series criteria and proof-level quantities for limsup sets.

The convergence/divergence dichotomies all reduce to one of six series,
summed over nonzero integer vectors v grouped into sup-norm shells |v| = Q.
Every budget depends on v only through Q, so each shell contributes its
lattice-point count times one summand at Q:

  kg                   psi(Q)^m
  weighted             prod_j psi_j(Q)
  jarnik               f(psi/Q) (psi/Q)^{(1-n)m} Q^m
  weighted_hausdorff   t_Q(Psi,f) Q^m
  mult_lebesgue        psi log^{m-1}(1/psi)
  mult_hausdorff       f(psi/Q) (psi/Q)^{1-nm} Q

t_Q is the weighted cover cost: the cheapest f-cost of covering one
resonant rectangle by balls at one of the m candidate scales psi_i(Q)/Q,

  t_Q = min_i f(psi_i/Q) (psi_i/Q)^{(1-n)m} prod_{j: psi_j > psi_i} psi_j/psi_i.

The budgets are read at every norm below 2^Kmax from one array
(`norm_values`), which a `criteria` op evaluates once and shares between
its two series and its cost scan.  Block sums are exact (full shells, shell
count times summand); classification is symbolic (exact, via leading
monomials and the Bertrand test) whenever every ingredient is a
power/power-log/constant family, and an honest fitted-slope heuristic
otherwise.  The unique-scale inflation of the weights
(`inflate_weights`) turns the cover cost into a single ball radius and m
inflated weights with product exactly t_Q·Q^m.

Log factors log^{m-1}(1/psi) carry a small-argument guard max(log(1/psi), 1)
so that the finitely many norms with psi(Q) >= 1/e contribute a plain psi
term instead of a sign flip; the guard never affects classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .asymptotics import (
    Monomial,
    asymptotic_min,
    classify_series,
    log_inverse_of,
    power_log_of,
)
from .funcspace import ApproximatingFunction, DimensionFunction, WeightSystem, shell_count
from .resonant import LatticePoint

if TYPE_CHECKING:
    from .formulas import ProblemInstance


class InapplicableError(ValueError):
    """A construction's precondition fails at this particular q."""


# each mode's (Lebesgue, Hausdorff) series kind
SERIES_KINDS = {
    "nonweighted": ("kg", "jarnik"),
    "weighted": ("weighted", "weighted_hausdorff"),
    "multiplicative": ("mult_lebesgue", "mult_hausdorff"),
}


# ---------------------------------------------------------------------------
# cover cost t_Q
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverCost:
    value: float
    argmin_index: int  # 0-based component achieving the min


def cover_cost(
    weights: WeightSystem, f: DimensionFunction, q: LatticePoint
) -> CoverCost:
    """t_Q(Psi, f) at one lattice point, with the achieving component index."""
    vals = weights.values_at_norm(q.sup_norm)
    return _cover_cost_from_values(vals, float(q.sup_norm), q.n, f)


def _cover_cost_from_values(
    vals, qnorm: float, n: int, f: DimensionFunction
) -> CoverCost:
    m = len(vals)
    best = math.inf
    best_i = -1
    for i in range(m):
        if vals[i] <= 0:
            raise InapplicableError(f"psi_{i} vanishes at |q|={qnorm:g}")
        r = vals[i] / qnorm
        if r > f.domain_cap * (1 + 1e-12):
            raise InapplicableError(
                f"psi_{i}/|q| = {r:g} outside the dimension function's domain"
            )
        term = f(r) * r ** ((1 - n) * m)
        for j in range(m):
            if vals[j] > vals[i]:
                term *= vals[j] / vals[i]
        if term < best:
            best = term
            best_i = i
    return CoverCost(value=best, argmin_index=best_i)


# ---------------------------------------------------------------------------
# unique-scale inflation (one ball radius, m inflated weights)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Inflation:
    """The unique-scale rewrite of the cover cost at one q.

    order        component indices sorted by ascending psi(q) (ties by index)
    k            how many of the sorted components get inflated (1..m)
    ball_radius  the common scale (varpi); sandwiched between
                 psi_{order[k-1]}/|q| (<=) and psi_{order[k]}/|q| (<, vacuous
                 at k=m)
    inflated     the m inflated weights in ORIGINAL component order:
                 |q|*ball_radius for the first k sorted components, the
                 original psi value for the rest; their product is exactly
                 cover.value * |q|^m
    """

    order: tuple[int, ...]
    k: int
    ball_radius: float
    inflated: tuple[float, ...]
    cover: CoverCost


def inflate_weights(
    weights: WeightSystem, f: DimensionFunction, q: LatticePoint
) -> Inflation:
    vals = weights.values_at_norm(q.sup_norm)
    qn = float(q.sup_norm)
    m = len(vals)
    cover = _cover_cost_from_values(vals, qn, q.n, f)
    t = cover.value
    order = tuple(sorted(range(m), key=lambda i: (vals[i], i)))
    sv = [vals[i] for i in order]  # ascending

    if not t > math.prod(s / qn for s in sv):
        raise InapplicableError(
            "cover cost does not exceed the full product of scaled weights "
            "(|q| too small for this dimension function)"
        )

    def lhs(k: int) -> float:
        head = (sv[k - 1] / qn) ** k
        return head * math.prod(s / qn for s in sv[k:])

    k = max(kk for kk in range(1, m + 1) if lhs(kk) <= t)
    varpi = (t * math.prod(qn / s for s in sv[k:])) ** (1.0 / k)

    inflated = list(vals)
    for j in range(k):
        inflated[order[j]] = qn * varpi
    return Inflation(
        order=order,
        k=k,
        ball_radius=varpi,
        inflated=tuple(inflated),
        cover=cover,
    )


# ---------------------------------------------------------------------------
# series descriptors and block sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesDescriptor:
    """The Lebesgue series of a problem instance, or its Hausdorff series.

    `kind` names the series (module docstring) by the instance's mode.
    """

    instance: ProblemInstance
    hausdorff: bool = False

    def __post_init__(self):
        if self.hausdorff and self.instance.f is None:
            raise ValueError("a Hausdorff series needs an instance with a dimension function")

    @property
    def kind(self) -> str:
        return SERIES_KINDS[self.instance.mode][self.hausdorff]

    @property
    def components(self) -> tuple[ApproximatingFunction, ...]:
        """The budgets the summand reads: every weight in weighted mode, else psi."""
        weights = self.instance.weights.components
        return weights if self.instance.mode == "weighted" else weights[:1]


@dataclass(frozen=True)
class SeriesEstimate:
    kind: str
    block_sums: tuple[tuple[int, float], ...]
    partial_sum: float
    growth_exponent: float
    residual: float
    classification: str
    skipped: int
    overflow: bool

    @property
    def converges(self) -> bool | None:
        if self.classification in ("ConvergesSymbolic", "ConvergesHeuristic"):
            return True
        if self.classification in ("DivergesSymbolic", "DivergesHeuristic"):
            return False
        return None

    @property
    def symbolic(self) -> bool:
        return self.classification.endswith("Symbolic")


_HEURISTIC_EPS = 0.05


def _log_guard(psi_vals: np.ndarray, power: int) -> np.ndarray:
    """max(log(1/psi), 1)^power, with psi = 0 handled by the caller."""
    with np.errstate(divide="ignore"):
        L = np.where(psi_vals > 0, np.log(1.0 / np.maximum(psi_vals, 1e-300)), 1.0)
    return np.maximum(L, 1.0) ** power


def _summands_at_norms(desc: SeriesDescriptor, psi: np.ndarray, norms: np.ndarray):
    """(values, skipped_count) of the per-point summand at integer norms.

    `psi` holds the budgets at `norms`, one row per component the series
    reads (`SeriesDescriptor.components`), as a span of `norm_values`.
    Norms where a needed evaluation is impossible (zero weight where a ratio
    or a dimension-function argument is required, or the argument exceeds the
    dimension function's domain) get summand 0 and are counted as skipped.

    Three steps are left out where their result is known exactly:

    - on a span where every norm is valid (`ok.all()`), the Hausdorff kinds
      use their arrays as they are, without `np.where` to the domain cap and
      back to 0: `np.where(True, x, c)` is x;
    - a power with exponent 0 ((1 - n)m at n = 1, 1 - nm at n = m = 1) is
      not formed: r^0 is exactly 1.0, and x * 1.0 = x;
    - in the weighted Hausdorff summand, the factor max(psi_j/psi_i, 1) is
      not formed on a span where psi_j <= psi_i at every norm: division is
      correctly rounded and monotone, so fl(a/b) <= 1 when a <= b, and the
      factor is exactly 1.0 there (the norms it would differ on are skipped
      norms, whose summand is 0 either way).
    """
    inst = desc.instance
    n, m, f = inst.n, inst.m, inst.f
    q = norms.astype(float)
    if desc.kind == "kg":
        return psi[0] ** m, 0
    if desc.kind == "weighted":
        out = psi[0]  # the product 1.0 * psi_0 is psi_0
        for row in psi[1:]:
            out = out * row
        return out, 0
    if desc.kind == "mult_lebesgue":
        out = np.where(psi[0] > 0, psi[0] * _log_guard(psi[0], m - 1), 0.0)
        return out, 0

    # Hausdorff kinds: a dimension function is applied to psi/Q
    cap = f.domain_cap
    if desc.kind in ("jarnik", "mult_hausdorff"):
        r = psi[0] / q
        ok = (psi[0] > 0) & (r <= cap * (1 + 1e-12))
        valid = ok.all()
        rs = r if valid else np.where(ok, r, cap)
        if desc.kind == "jarnik":
            vals = _times_power(f.eval_array(rs), rs, (1 - n) * m) * q**m
        else:
            vals = _times_power(f.eval_array(rs), rs, 1 - n * m) * q
        if valid:
            return vals, 0
        return np.where(ok, vals, 0.0), int(np.count_nonzero(~ok))

    # weighted_hausdorff: t_Q * Q^m, vectorised over the norm axis
    radii = [row / q for row in psi]
    ok = np.ones(len(norms), dtype=bool)
    for row, r in zip(psi, radii):
        ok &= (row > 0) & (r <= cap * (1 + 1e-12))
    valid = ok.all()
    best = np.full(len(norms), np.inf)
    for i in range(m):
        r = radii[i] if valid else np.where(ok, radii[i], cap)
        term = _times_power(f.eval_array(r), r, (1 - n) * m)
        # skipped columns divide by 1, so the product stays finite there; on
        # the others psi_j/psi_i rounds to at least 1 exactly when psi_j > psi_i
        safe_i = psi[i] if valid else np.where(ok, psi[i], 1.0)
        for j in range(m):
            if j != i and not (psi[j] <= psi[i]).all():
                ratio = np.divide(psi[j], safe_i)
                term *= np.maximum(ratio, 1.0, out=ratio)
        np.minimum(best, term, out=best)
    vals = best * q**m
    if valid:
        return vals, 0
    return np.where(ok, vals, 0.0), int(np.count_nonzero(~ok))


def _times_power(x: np.ndarray, r: np.ndarray, e: int) -> np.ndarray:
    """x * r^e, with x itself at e = 0 (r^0 is exactly 1.0 and x * 1.0 = x)."""
    return x if e == 0 else x * r**e


# norms per evaluation span: bounds the per-norm kernels' working memory
_SPAN = 2**14


def _norm_spans(Kmax: int) -> list[tuple[int, int]]:
    """The norm ranges [lo, hi) of at most 2^14 norms that tile [1, 2^Kmax).

    Span j covers [max(2^14 j, 1), 2^14 (j + 1)), cut at 2^Kmax: the first
    holds blocks 0-13 (or every block, when Kmax <= 14) and each later block
    is a run of whole spans.
    """
    top = 2**Kmax
    return [(max(lo, 1), min(lo + _SPAN, top)) for lo in range(0, top, _SPAN)]


def norm_values(components, Kmax: int) -> np.ndarray:
    """The budgets at every norm below 2^Kmax, and one row of work space.

    Row i of the (len(components) + 1, 2^Kmax - 1) result holds
    components[i] at the norms |q| = 1 .. 2^Kmax - 1, column |q| - 1.  The
    rows are filled span by span (`_norm_spans`); a component equal to an
    earlier one is copied from that one's row, so each distinct budget is
    evaluated once per span.  The last row is left unset for the reader:
    `series_sum` writes its products there, and the cost scan its weight
    row.  One such array serves a whole `criteria` op: both series read
    their spans from it, and `estimators.hausdorff_cost_exponent`, last,
    turns it into its table in place.
    """
    components = tuple(components)
    values = np.empty((len(components) + 1, 2**Kmax - 1))
    first = [components.index(c) for c in components]
    for lo, hi in _norm_spans(Kmax):
        norms, cols = np.arange(lo, hi), slice(lo - 1, hi - 1)
        for i, (c, j) in enumerate(zip(components, first)):
            values[i, cols] = values[j, cols] if j < i else c.eval_norm_array(norms)
    return values


def _fsum_saturated(values) -> float:
    """math.fsum of finite floats, or 1e308 where the exact sum overflows."""
    try:
        return math.fsum(values)
    except OverflowError:
        return 1e308


def series_sum(
    desc: SeriesDescriptor, Kmax: int = 14, values: np.ndarray | None = None
) -> SeriesEstimate:
    """Exact dyadic block sums and a convergence classification.

    Blocks are norm ranges [2^k, 2^{k+1}); each block sum is exact, the sum
    over its norms Q of the shell count at Q times the summand at Q (every
    budget depends on the norm alone).  The budgets come from `values`, a
    `norm_values` array at least 2^Kmax - 1 columns wide whose first rows
    are `desc.components` (a `criteria` op passes the one array its two
    series and its scan share); without it the series builds its own.  The
    summands are evaluated span by span (`_norm_spans`, at most 2^14 norms
    each, with `_summands_at_norms`' exact skips on spans where every norm
    is valid), their products with the shell counts are written into the
    array's last row, indexed by Q - 1, and each block is summed over its
    contiguous slice; the kernels' temporaries are span-sized whatever Kmax
    is.  Overflowing blocks, and a partial sum that overflows, are saturated
    to 1e308; a saturated block is flagged.  Classification is symbolic for
    power/power-log/constant families, otherwise by the fitted growth
    exponent with threshold 0.05.
    """
    if Kmax < 2:
        raise ValueError("need at least two blocks")
    n = desc.instance.n
    rows = len(desc.components)
    if values is None:
        values = norm_values(desc.components, Kmax)
    elif len(values) <= rows or values.shape[1] < 2**Kmax - 1:
        raise ValueError(
            f"values of shape {values.shape} lack {rows} budget rows and a work row "
            f"over 2^{Kmax} - 1 norms"
        )
    prods = values[-1]
    skipped = 0
    for lo, hi in _norm_spans(Kmax):
        norms = np.arange(lo, hi)
        vals, sk = _summands_at_norms(desc, values[:rows, lo - 1 : hi - 1], norms)
        with np.errstate(over="ignore"):
            np.multiply(vals, shell_count(n, norms), out=prods[lo - 1 : hi - 1])
        skipped += sk
    blocks = []
    overflow = False
    for k in range(Kmax):
        block = prods[2**k - 1 : 2 ** (k + 1) - 1]
        with np.errstate(over="ignore"):
            s = float(np.sum(block))
        if not math.isfinite(s):
            s = min(_fsum_saturated(min(v, 1e308) for v in block.tolist()), 1e308)
            overflow = True
        blocks.append((k, s))

    partial = _fsum_saturated(b for _, b in blocks)
    growth, residual = _fit_growth(blocks)
    classification = symbolic_classification(desc)
    if classification is None:  # a NaN growth compares false both ways
        classification = "Unknown"
        if growth < -_HEURISTIC_EPS:
            classification = "ConvergesHeuristic"
        elif growth > _HEURISTIC_EPS:
            classification = "DivergesHeuristic"
    return SeriesEstimate(
        kind=desc.kind,
        block_sums=tuple(blocks),
        partial_sum=partial,
        growth_exponent=growth,
        residual=residual,
        classification=classification,
        skipped=skipped,
        overflow=overflow,
    )


def _fit_growth(blocks) -> tuple[float, float]:
    """Least-squares slope of log2(block sum) vs k over the last half.

    The line comes from centred sums, each one `math.fsum` (correctly
    rounded), so no BLAS or LAPACK kernel touches it and its bits are the
    same on every CPU.  Returns (slope, largest absolute residual).
    """
    tail = blocks[len(blocks) // 2 :]
    pts = [(float(k), math.log2(s)) for k, s in tail if s > 0 and math.isfinite(s)]
    if len(pts) < 2:
        return math.nan, math.nan
    k_mean = math.fsum(k for k, _ in pts) / len(pts)
    y_mean = math.fsum(y for _, y in pts) / len(pts)
    sxx = math.fsum((k - k_mean) ** 2 for k, _ in pts)
    sxy = math.fsum((k - k_mean) * (y - y_mean) for k, y in pts)
    slope = sxy / sxx
    intercept = y_mean - slope * k_mean
    residual = max(abs(y - (slope * k + intercept)) for k, y in pts)
    return slope, residual


# ---------------------------------------------------------------------------
# symbolic leading terms
# ---------------------------------------------------------------------------


class _NotSymbolic(Exception):
    pass


def symbolic_classification(desc: SeriesDescriptor) -> str | None:
    """"ConvergesSymbolic" or "DivergesSymbolic" from the series' leading term.

    None when an ingredient is not a power, power-log or positive constant
    family; nothing is summed.
    """
    try:
        verdict = classify_series(_leading_term(desc))
    except _NotSymbolic:
        return None
    return "ConvergesSymbolic" if verdict.converges else "DivergesSymbolic"


def _psi_monomial(psi: ApproximatingFunction) -> Monomial:
    if psi.kind == "power":
        return Monomial(psi.coeff, -psi.tau)
    if psi.kind == "power_log":
        return Monomial(psi.coeff, -psi.tau, psi.p)
    if psi.kind == "constant":
        if psi.coeff <= 0:
            raise _NotSymbolic
        return Monomial(psi.coeff, 0.0)
    raise _NotSymbolic


def _log_inverse_guarded(term: Monomial) -> Monomial:
    """Leading monomial of max(log(1/psi), 1) for psi with leading term `term`.

    A constant psi gives a constant; a growing one is eventually above 1/e,
    where the guard holds the factor at 1.
    """
    if term.a == 0 and term.b == 0 and term.c == 0:
        return Monomial(max(math.log(1.0 / term.coeff), 1.0) if term.coeff < 1 else 1.0, 0.0)
    if (term.a, term.b) > (0.0, 0.0):
        return Monomial(1.0, 0.0)
    return log_inverse_of(term)


def _f_applied(f: DimensionFunction, arg: Monomial) -> Monomial:
    """Leading monomial of f(r) for r with leading term `arg`.

    The numeric sums skip every norm whose r is above f's domain cap.  An r
    that grows, or tends to a constant above the cap, is eventually above
    it, so every summand from some norm on is skipped and there is no
    symbolic class to follow them: _NotSymbolic.  An r that tends to a
    constant inside the domain gives the constant f(r).
    """
    constant = arg.exponents == (0.0, 0.0, 0.0)
    if arg.exponents > (0.0, 0.0, 0.0) or (constant and arg.coeff > f.domain_cap * (1 + 1e-12)):
        raise _NotSymbolic
    if f.kind == "power":
        return arg**f.s
    if f.kind == "power_log":
        if constant:
            return Monomial(f(arg.coeff), 0.0)
        return power_log_of(arg, f.s, f.p)
    raise _NotSymbolic


def _leading_term(desc: SeriesDescriptor) -> Monomial:
    """Leading monomial of shell_count(Q) * summand(Q); raises _NotSymbolic."""
    inst = desc.instance
    n, m, f = inst.n, inst.m, inst.f
    shell = Monomial(n * 2.0**n, n - 1.0)
    Qm = Monomial(1.0, float(m))
    Q1 = Monomial(1.0, 1.0)
    monos = [_psi_monomial(c) for c in inst.weights.components]
    if desc.kind == "kg":
        return shell * (monos[0] ** m)
    if desc.kind == "weighted":
        out = shell
        for mono in monos:
            out = out * mono
        return out
    if desc.kind == "mult_lebesgue":
        p = monos[0]
        return shell * p * (_log_inverse_guarded(p) ** (m - 1))
    if desc.kind == "jarnik":
        r = monos[0] * Monomial(1.0, -1.0)
        return shell * _f_applied(f, r) * (r ** ((1 - n) * m)) * Qm
    if desc.kind == "mult_hausdorff":
        r = monos[0] * Monomial(1.0, -1.0)
        return shell * _f_applied(f, r) * (r ** (1 - n * m)) * Q1
    # weighted_hausdorff: eventual minimum over the m candidate scales
    terms = []
    for i in range(m):
        r = monos[i] * Monomial(1.0, -1.0)
        t = _f_applied(f, r) * (r ** ((1 - n) * m))
        for j in range(m):
            if j == i:
                continue
            # j contributes when psi_j eventually exceeds psi_i (lex order)
            ei, ej = monos[i].exponents, monos[j].exponents
            if ej > ei or (ej == ei and monos[j].coeff > monos[i].coeff):
                t = t * monos[j] * (monos[i] ** -1.0)
        terms.append(t)
    return shell * asymptotic_min(terms) * Qm


# ---------------------------------------------------------------------------
# critical exponents
# ---------------------------------------------------------------------------


def critical_exponent(kind: str, n: int, m: int, tau) -> float:
    """Closed-form decay thresholds for power-family instances.

    kind "s_psi":   n/(1+tau)            (nonweighted, tau the common exponent)
    kind "s_Psi":   n/(1+max_j tau_j)    (weighted)
    kind "tau_psi": n*m/(m+tau)          (multiplicative)

    Each is defined where its denominator is positive; elsewhere a
    ValueError says so.
    """
    if kind not in ("s_psi", "s_Psi", "tau_psi"):
        raise ValueError(f"unknown critical-exponent kind {kind!r}")
    top = n * m if kind == "tau_psi" else n
    denominator = (m if kind == "tau_psi" else 1.0) + max(np.atleast_1d(tau).tolist())
    if not denominator > 0:
        raise ValueError(f"critical exponent {kind} is undefined: its denominator is {denominator:g}")
    return top / denominator


# ---------------------------------------------------------------------------
# lattice sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeSum:
    value: float
    reference: float
    ratio: float
    bounds: tuple[int, ...]
    s: float
    k: int


def lattice_sum(deltas, s: float) -> LatticeSum:
    """Exact S = sum over 0 < |t|, |t_j| <= 2/delta_j of |t|^{-s} (sup norm).

    Computed by exact level counting: the number of admissible t with
    |t| = v is prod_j min(2v+1, 2B_j+1) - prod_j min(2v-1, 2B_j+1).
    The reference scale is (delta_1...delta_{m-k})^{-1} delta_{m-k}^{s-k}
    with the deltas sorted descending and k = floor(s); s must be a
    non-integer in (0, m).
    """
    ds = sorted((float(d) for d in deltas), reverse=True)
    m = len(ds)
    if not all(0 < d < 0.5 for d in ds):
        raise ValueError("deltas must lie in (0, 1/2)")
    if not 0 < s < m or float(s).is_integer():
        raise ValueError(f"s must be a non-integer in (0, {m}), got {s}")
    B = [int(math.floor(2.0 / d)) for d in ds]
    vmax = max(B)
    if vmax > 5e7:
        raise ValueError("enumeration budget exceeded (delta too small)")
    v = np.arange(1, vmax + 1, dtype=float)
    hi = np.ones_like(v)
    lo = np.ones_like(v)
    for Bj in B:
        cap = 2.0 * Bj + 1.0
        hi *= np.minimum(2 * v + 1, cap)
        lo *= np.minimum(2 * v - 1, cap)
    counts = hi - lo
    value = float(np.sum(counts * v**-s))
    k = int(math.floor(s))
    head = math.prod(ds[: m - k]) if m - k > 0 else 1.0
    reference = (1.0 / head) * ds[m - k - 1] ** (s - k)
    return LatticeSum(
        value=value,
        reference=reference,
        ratio=value / reference,
        bounds=tuple(B),
        s=float(s),
        k=k,
    )


# ---------------------------------------------------------------------------
# the log-term sum of the multiplicative cover bound
# ---------------------------------------------------------------------------


def logterm_partial_sum(m: int, s: float) -> float:
    """Partial sum of j^{m-2} 2^{j(s-1)} over 0 <= j <= 400 (0^0 taken as 1)."""
    total = 0.0
    for j in range(401):
        base = 1.0 if j == 0 and m == 2 else float(j) ** (m - 2)
        total += base * 2.0 ** (j * (s - 1.0))
    return total
