"""Series criteria and proof-level quantities for limsup sets.

The convergence/divergence dichotomies all reduce to one of six series,
summed over nonzero integer vectors v grouped into sup-norm shells |v| = Q
(per-point summands; Q denotes the norm, psi values are taken at v):

  kg                   psi(Q)^m
  weighted             prod_j psi_j(Q)
  jarnik               f(psi/Q) (psi/Q)^{(1-n)m} Q^m
  weighted_hausdorff   t_Q(Psi,f) Q^m
  mult_lebesgue        psi log^{m-1}(1/psi)
  mult_hausdorff       f(psi/Q) (psi/Q)^{1-nm} Q

t_Q is the weighted cover cost: the cheapest f-cost of covering one
resonant rectangle by balls at one of the m candidate scales psi_i(Q)/Q,

  t_Q = min_i f(psi_i/Q) (psi_i/Q)^{(1-n)m} prod_{j: psi_j > psi_i} psi_j/psi_i.

Block sums are exact (full shells, shell-count times summand for
norm-dependent weights); classification is symbolic (exact, via leading
monomials and the Bertrand test) whenever every ingredient is a
power/power-log/constant family, and an honest fitted-slope heuristic
otherwise.  The unique-scale inflation of the weights (`inflate_weights`)
turns the cover cost into a single ball radius and m inflated weights with
product exactly t_Q·Q^m.

Log factors log^{m-1}(1/psi) carry a small-argument guard max(log(1/psi), 1)
so that the finitely many norms with psi(Q) >= 1/e contribute a plain psi
term instead of a sign flip; the guard never affects classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    Monomial,
    asymptotic_min,
    classify_series,
    log_inverse_of,
    power_log_of,
)
from .funcspace import ApproximatingFunction, DimensionFunction, WeightSystem
from .resonant import LatticePoint, enumerate_shell


class InapplicableError(ValueError):
    """A construction's precondition fails at this particular q."""


HAUSDORFF_KINDS = ("jarnik", "weighted_hausdorff", "mult_hausdorff")
SERIES_KINDS = ("kg", "weighted", "mult_lebesgue") + HAUSDORFF_KINDS


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
    vals = weights.evaluate(q)
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
    qnorm: float


def inflate_weights(
    weights: WeightSystem, f: DimensionFunction, q: LatticePoint
) -> Inflation:
    vals = weights.evaluate(q)
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
        qnorm=qn,
    )


# ---------------------------------------------------------------------------
# series descriptors and block sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesDescriptor:
    kind: str
    n: int
    m: int
    weights: WeightSystem | None = None
    psi: ApproximatingFunction | None = None
    f: DimensionFunction | None = None

    def __post_init__(self):
        if self.kind not in SERIES_KINDS:
            raise ValueError(f"unknown series kind {self.kind!r}")
        if (self.f is not None) != (self.kind in HAUSDORFF_KINDS):
            raise ValueError("a dimension function is required exactly for Hausdorff kinds")
        if self.kind in ("weighted", "weighted_hausdorff"):
            if self.weights is None or self.weights.m != self.m:
                raise ValueError("weighted kinds need a WeightSystem of matching m")
        elif self.psi is None:
            raise ValueError(f"kind {self.kind!r} needs a single approximating function")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def kg(n, m, psi):
        return SeriesDescriptor(kind="kg", n=n, m=m, psi=psi)

    @staticmethod
    def weighted(n, weights):
        return SeriesDescriptor(kind="weighted", n=n, m=weights.m, weights=weights)

    @staticmethod
    def jarnik(n, m, psi, f):
        return SeriesDescriptor(kind="jarnik", n=n, m=m, psi=psi, f=f)

    @staticmethod
    def weighted_hausdorff(n, weights, f):
        return SeriesDescriptor(
            kind="weighted_hausdorff", n=n, m=weights.m, weights=weights, f=f
        )

    @staticmethod
    def mult_lebesgue(n, m, psi):
        return SeriesDescriptor(kind="mult_lebesgue", n=n, m=m, psi=psi)

    @staticmethod
    def mult_hausdorff(n, m, psi, f):
        return SeriesDescriptor(kind="mult_hausdorff", n=n, m=m, psi=psi, f=f)

    @property
    def component_functions(self) -> tuple[ApproximatingFunction, ...]:
        if self.weights is not None:
            return self.weights.components
        return (self.psi,)


@dataclass(frozen=True)
class SeriesEstimate:
    kind: str
    block_sums: tuple[tuple[int, float], ...]
    partial_sum: float
    growth_exponent: float
    residual: float
    classification: str
    leading_term: Monomial | None
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


def _summands_at_norms(desc: SeriesDescriptor, norms: np.ndarray):
    """(values, skipped_count) of the per-point summand at integer norms.

    Norms where a needed evaluation is impossible (zero weight where a ratio
    or a dimension-function argument is required, or the argument exceeds the
    dimension function's domain) get summand 0 and are counted as skipped.
    """
    n, m, f = desc.n, desc.m, desc.f
    q = norms.astype(float)
    if desc.kind == "kg":
        return desc.psi.eval_norm_array(norms) ** m, 0
    if desc.kind == "weighted":
        out = np.ones_like(q)
        for comp in desc.weights.components:
            out = out * comp.eval_norm_array(norms)
        return out, 0
    if desc.kind == "mult_lebesgue":
        psi = desc.psi.eval_norm_array(norms)
        out = np.where(psi > 0, psi * _log_guard(psi, m - 1), 0.0)
        return out, 0

    # Hausdorff kinds: a dimension function is applied to psi/Q
    if desc.kind in ("jarnik", "mult_hausdorff"):
        psi = desc.psi.eval_norm_array(norms)
        r = psi / q
        ok = (psi > 0) & (r <= f.domain_cap * (1 + 1e-12))
        rs = np.where(ok, r, f.domain_cap)
        if desc.kind == "jarnik":
            vals = f.eval_array(rs) * rs ** ((1 - n) * m) * q**m
        else:
            vals = f.eval_array(rs) * rs ** (1 - n * m) * q
        return np.where(ok, vals, 0.0), int(np.count_nonzero(~ok))

    # weighted_hausdorff: t_Q * Q^m, vectorised over the norm axis
    comps = [c.eval_norm_array(norms) for c in desc.weights.components]
    ok = np.ones(len(norms), dtype=bool)
    for vals in comps:
        r = vals / q
        ok &= (vals > 0) & (r <= f.domain_cap * (1 + 1e-12))
    best = np.full(len(norms), np.inf)
    for i in range(m):
        r = np.where(ok, comps[i] / q, f.domain_cap)
        term = f.eval_array(r) * r ** ((1 - n) * m)
        for j in range(m):
            if j == i:
                continue
            # skipped columns divide by 1, so the product stays finite there
            ratio = np.where(comps[j] > comps[i], comps[j] / np.where(ok, comps[i], 1.0), 1.0)
            term = term * ratio
        best = np.minimum(best, term)
    vals = np.where(ok, best * q**m, 0.0)
    return vals, int(np.count_nonzero(~ok))


def _block_sum_enumerated(desc: SeriesDescriptor, norms: range):
    """Per-point summand summed over full shells for non-norm-dependent weights."""
    total = 0.0
    skipped = 0
    f = desc.f
    for Q in norms:
        for v in enumerate_shell(desc.n, Q):
            vals = [c(v) for c in desc.component_functions]
            try:
                if desc.kind == "weighted":
                    total += math.prod(vals)
                elif desc.kind == "kg":
                    total += vals[0] ** desc.m
                elif desc.kind == "weighted_hausdorff":
                    cc = _cover_cost_from_values(vals, float(Q), desc.n, f)
                    total += cc.value * float(Q) ** desc.m
                elif desc.kind == "mult_lebesgue":
                    if vals[0] > 0:
                        total += vals[0] * max(math.log(1 / vals[0]), 1.0) ** (desc.m - 1)
                else:
                    r = vals[0] / Q
                    if vals[0] <= 0 or r > f.domain_cap * (1 + 1e-12):
                        raise InapplicableError("outside domain")
                    total += f(r) * r ** (1 - desc.n * desc.m) * Q
            except InapplicableError:
                skipped += 1
    return total, skipped


def _univariable(desc: SeriesDescriptor) -> bool:
    return all(c.univariable for c in desc.component_functions)


def series_sum(desc: SeriesDescriptor, Kmax: int = 14) -> SeriesEstimate:
    """Exact dyadic block sums and a convergence classification.

    Blocks are norm ranges [2^k, 2^{k+1}); sums are exact (shell-count times
    summand when every weight depends on the norm alone, full enumeration
    otherwise).  Overflowing blocks are saturated to the largest float and
    flagged.  Classification is symbolic for power/power-log/constant
    families, otherwise by the fitted growth exponent with threshold 0.05.
    """
    if Kmax < 2:
        raise ValueError("need at least two blocks")
    blocks = []
    skipped = 0
    overflow = False
    if _univariable(desc):
        for k in range(Kmax):
            norms = np.arange(2**k, 2 ** (k + 1))
            vals, sk = _summands_at_norms(desc, norms)
            counts = (2 * norms + 1.0) ** desc.n - (2 * norms - 1.0) ** desc.n
            with np.errstate(over="ignore"):
                s = float(np.sum(vals * counts))
            if not math.isfinite(s):
                s = math.fsum(
                    min(v * c, 1e308) for v, c in zip(vals.tolist(), counts.tolist())
                )
                s = min(s, 1e308)
                overflow = True
            blocks.append((k, s))
            skipped += sk
    else:
        if (2 ** (Kmax + 1)) ** desc.n > 2e7:
            raise ValueError(
                "enumeration budget exceeded for non-norm-dependent weights; lower Kmax"
            )
        for k in range(Kmax):
            s, sk = _block_sum_enumerated(desc, range(2**k, 2 ** (k + 1)))
            blocks.append((k, s))
            skipped += sk

    partial = math.fsum(b for _, b in blocks)
    growth, residual = _fit_growth(blocks)
    leading = None
    classification = "Unknown"
    try:
        leading = _leading_term(desc)
        verdict = classify_series(leading)
        classification = "ConvergesSymbolic" if verdict.converges else "DivergesSymbolic"
    except _NotSymbolic:
        if math.isfinite(growth):
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
        leading_term=leading,
        skipped=skipped,
        overflow=overflow,
    )


def _fit_growth(blocks) -> tuple[float, float]:
    """Least-squares slope of log2(block sum) vs k over the last half."""
    tail = blocks[len(blocks) // 2 :]
    pts = [(k, math.log2(s)) for k, s in tail if s > 0 and math.isfinite(s)]
    if len(pts) < 2:
        return math.nan, math.nan
    ks = np.array([p[0] for p in pts], dtype=float)
    ys = np.array([p[1] for p in pts], dtype=float)
    slope, intercept = np.polyfit(ks, ys, 1)
    residual = float(np.max(np.abs(ys - (slope * ks + intercept))))
    return float(slope), residual


# ---------------------------------------------------------------------------
# symbolic leading terms
# ---------------------------------------------------------------------------


class _NotSymbolic(Exception):
    pass


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
    """Leading monomial of max(log(1/psi), 1) for a decaying-or-constant psi."""
    if term.a == 0 and term.b == 0 and term.c == 0:
        return Monomial(max(math.log(1.0 / term.coeff), 1.0) if term.coeff < 1 else 1.0, 0.0)
    return log_inverse_of(term)


def _f_applied(f: DimensionFunction, arg: Monomial) -> Monomial:
    if f.kind == "power":
        return arg**f.s
    if f.kind == "power_log":
        return power_log_of(arg, f.s, f.p)
    raise _NotSymbolic


def _leading_term(desc: SeriesDescriptor) -> Monomial:
    """Leading monomial of shell_count(Q) * summand(Q); raises _NotSymbolic."""
    n, m = desc.n, desc.m
    shell = Monomial(n * 2.0**n, n - 1.0)
    Qm = Monomial(1.0, float(m))
    Q1 = Monomial(1.0, 1.0)
    if desc.kind == "kg":
        return shell * (_psi_monomial(desc.psi) ** m)
    if desc.kind == "weighted":
        out = shell
        for comp in desc.weights.components:
            out = out * _psi_monomial(comp)
        return out
    if desc.kind == "mult_lebesgue":
        p = _psi_monomial(desc.psi)
        return shell * p * (_log_inverse_guarded(p) ** (m - 1))
    if desc.kind == "jarnik":
        r = _psi_monomial(desc.psi) * Monomial(1.0, -1.0)
        return shell * _f_applied(desc.f, r) * (r ** ((1 - n) * m)) * Qm
    if desc.kind == "mult_hausdorff":
        r = _psi_monomial(desc.psi) * Monomial(1.0, -1.0)
        return shell * _f_applied(desc.f, r) * (r ** (1 - n * m)) * Q1
    # weighted_hausdorff: eventual minimum over the m candidate scales
    monos = [_psi_monomial(c) for c in desc.weights.components]
    terms = []
    for i in range(m):
        r = monos[i] * Monomial(1.0, -1.0)
        t = _f_applied(desc.f, r) * (r ** ((1 - n) * m))
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
    """
    if kind == "s_psi":
        return n / (1.0 + float(tau))
    if kind == "s_Psi":
        taus = [float(t) for t in np.atleast_1d(np.asarray(tau, dtype=float))]
        return n / (1.0 + max(taus))
    if kind == "tau_psi":
        return n * m / (m + float(tau))
    raise ValueError(f"unknown critical-exponent kind {kind!r}")


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


def logterm_partial_sum(m: int, s: float, terms: int = 400) -> float:
    """Partial sum of j^{m-2} 2^{j(s-1)} over j >= 0 (0^0 taken as 1)."""
    total = 0.0
    for j in range(terms + 1):
        base = 1.0 if j == 0 and m == 2 else float(j) ** (m - 2)
        total += base * 2.0 ** (j * (s - 1.0))
    return total
