"""Zero-full verdicts and dimension formulas for limsup instances.

A `ProblemInstance` fixes the ambient dimensions (n rows, m coordinate
blocks), the approximation mode, the error budget, and optionally a
dimension function.  Verdicts follow the convergence/divergence dichotomy:
the convergence half is unconditional, the divergence half is gated on the
classical hypotheses (monotone budgets for scalar and multiplicative
instances, univariability in higher dimension or near-monotone shell sums
for weighted ones).  A verdict is Zero, Full, or Inapplicable with the
reason; classifications that rest on a fitted slope rather than a symbolic
test never upgrade to Zero/Full --- they stay Inapplicable and carry the
would-be outcome.

Dimension formulas implemented here:

  dim_rynne_dickinson   (n-1)m + min_i (m + n + sum_{tau_j < tau_i}
                        (tau_i - tau_j)) / (1 + tau_i), for power budgets
                        psi_j = |q|^{-tau_j} with total decay above n; nm
                        at total decay at most n (full measure), and 0 for
                        an infinite exponent (an eventually empty set)
  fourier_dim           twice the critical decay exponent (per mode), for
                        null sets: gated on a symbolically convergent
                        Lebesgue series, and in weighted mode on a critical
                        exponent below 1
  fdim_product          Fourier dimension of a product of null sets: the min
                        of the factors' Fourier dimensions
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .criteria import (
    SeriesDescriptor,
    SeriesEstimate,
    critical_exponent,
    series_sum,
    symbolic_classification,
)
from .funcspace import (
    ApproximatingFunction,
    DimensionFunction,
    WeightSystem,
    bracket,
    compare,
    near_monotone_constant,
    precedes_a_power_below,
)

MODES = ("nonweighted", "weighted", "multiplicative")


@dataclass(frozen=True)
class ProblemInstance:
    """One limsup set: simultaneous (nonweighted), weighted, or multiplicative.

    n is the number of rows (the vectors q live in Z^n), m the number of
    coordinate blocks; the ambient space is [0,1]^{nm}.  Weighted instances
    are given one approximating function per block (`weights`), the other
    modes a single one (`psi`), which `weights` then holds m times: every
    mode reads its per-block budgets from `weights`.  `f` is the optional
    dimension function for Hausdorff questions.
    """

    n: int
    m: int
    mode: str
    weights: WeightSystem | None = None
    psi: ApproximatingFunction | None = None
    f: DimensionFunction | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive integers")
        if self.mode == "weighted":
            if self.weights is None:
                raise ValueError("weighted instances need a WeightSystem")
            if self.weights.m != self.m:
                raise ValueError(
                    f"weight system has {self.weights.m} components, expected m={self.m}"
                )
            if self.psi is not None:
                raise ValueError("weighted instances take weights, not a single psi")
        else:
            if self.psi is None:
                raise ValueError(f"{self.mode} instances need a single approximating function")
            if self.weights is not None:
                raise ValueError(f"{self.mode} instances take a single psi, not weights")
            object.__setattr__(self, "weights", WeightSystem((self.psi,) * self.m))

    @property
    def ambient_dim(self) -> int:
        return self.n * self.m


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

ZERO = "Zero"
FULL = "Full"
INAPPLICABLE = "Inapplicable"


@dataclass(frozen=True)
class Verdict:
    """Zero/Full answer with its hypothesis audit.

    `hypothesis_audit` maps each checked hypothesis to a status string
    ("ok", "failed: ...", "not required: ..."); it is always populated.
    `would_be` carries the outcome a heuristic classification pointed at
    when the verdict itself had to stay Inapplicable.
    """

    outcome: str
    reason: str = ""
    would_be: str | None = None
    hypothesis_audit: dict[str, str] = field(default_factory=dict)
    series: SeriesEstimate | None = None


def _verdict_from_estimate(
    est: SeriesEstimate,
    audit: dict[str, str],
    divergence_ok: bool,
    divergence_reason: str,
) -> Verdict:
    if est.classification == "ConvergesSymbolic":
        return Verdict(ZERO, "series converges", hypothesis_audit=audit, series=est)
    if est.classification == "DivergesSymbolic":
        if divergence_ok:
            return Verdict(FULL, "series diverges", hypothesis_audit=audit, series=est)
        return Verdict(
            INAPPLICABLE,
            f"series diverges but {divergence_reason}",
            would_be=FULL,
            hypothesis_audit=audit,
            series=est,
        )
    if est.classification in ("ConvergesHeuristic", "DivergesHeuristic"):
        would = ZERO if est.classification == "ConvergesHeuristic" else FULL
        if would == FULL and not divergence_ok:
            would = None
        return Verdict(
            INAPPLICABLE,
            "classification is heuristic (fitted growth), not symbolic",
            would_be=would,
            hypothesis_audit=audit,
            series=est,
        )
    return Verdict(
        INAPPLICABLE,
        "series classification unknown",
        hypothesis_audit=audit,
        series=est,
    )


def lebesgue_verdict(inst: ProblemInstance, Kmax: int = 14, values=None) -> Verdict:
    """Lebesgue-measure dichotomy for the instance's limsup set.

    Convergent series give Zero unconditionally.  Divergent series give Full
    only under the mode's hypotheses: a monotone budget when nm = 1 or in
    multiplicative mode; for weighted instances either n >= 2 with
    norm-dependent weights, componentwise monotone weights, or a positive
    near-monotone constant for the shell sums.  `values`, when given, is
    the `criteria.norm_values` array the series reads (see `series_sum`).
    """
    audit: dict[str, str] = {}
    div_ok = True
    div_reason = ""
    if inst.mode == "nonweighted":
        if inst.ambient_dim == 1:
            mono = inst.psi.non_increasing
            audit["monotone budget (nm = 1)"] = "ok" if mono else "failed: psi not non-increasing"
            if not mono:
                div_ok, div_reason = False, "the scalar case needs a monotone budget"
        else:
            audit["monotone budget"] = "not required: nm >= 2"
    elif inst.mode == "multiplicative":
        mono = inst.psi.non_increasing
        audit["monotone budget (multiplicative)"] = (
            "ok" if mono else "failed: psi not non-increasing"
        )
        if not mono:
            div_ok, div_reason = False, "the multiplicative case needs a monotone budget"
    else:  # weighted
        if inst.n >= 2:
            audit["weight regularity"] = "ok: norm-dependent weights with n >= 2"
        elif all(c.non_increasing for c in inst.weights.components):
            audit["weight regularity"] = "ok: componentwise monotone weights"
        elif near_monotone_constant(inst.weights, qmax=512, n=inst.n) > 0:
            # the constant read over norms 1-512 only bounds the true one
            # from above, so the audit names the property, not the number
            audit["weight regularity"] = "ok: near-monotone shell sums"
        else:
            audit["weight regularity"] = "failed: shell sums are not near-monotone"
            div_ok, div_reason = False, "the weighted case needs near-monotone shell sums"
    est = series_sum(SeriesDescriptor(inst), Kmax=Kmax, values=values)
    return _verdict_from_estimate(est, audit, div_ok, div_reason)


def hausdorff_verdict(inst: ProblemInstance, Kmax: int = 14, values=None) -> Verdict:
    """Hausdorff-f-measure dichotomy (zero vs full on every ball).

    Routing depends on the mode's order bracket for the dimension function:

      nonweighted      (n-1)m strictly below f, f below nm
      weighted         some integer k >= 1 with k below f below k+1
                       (`bracket(f, nm)`, the one search the content
                       formula also reads)
      multiplicative   f below nm-1+s for some s in (0,1), i.e. f's largest
                       exponent below nm (`precedes_a_power_below`); for
                       n >= 2 also (n-1)m strictly below f (scalar rows
                       route through the same log-free series, which is why
                       the bracket is mandatory rather than advisory there)

    Instances whose dimension function sits outside the bracket are
    Inapplicable; the series itself is still summed and attached.  `values`
    is as for `lebesgue_verdict`.
    """
    if inst.f is None:
        raise ValueError("hausdorff_verdict needs an instance with a dimension function")
    f, n, m = inst.f, inst.n, inst.m
    nm = n * m
    audit: dict[str, str] = {}
    ok = True
    if inst.mode == "nonweighted":
        lower = compare(f, (n - 1) * m).s_lt_f
        upper = compare(f, nm).f_le_s
        audit["order bracket"] = (
            "ok: (n-1)m strictly below f, f below nm"
            if lower and upper
            else f"failed: needs (n-1)m = {(n - 1) * m} strictly below f below nm = {nm}"
        )
        ok = lower and upper
    elif inst.mode == "weighted":
        if nm < 2:
            audit["order bracket"] = "failed: weighted bracket needs nm >= 2"
            ok = False
        else:
            # k = nm - a: the powers nm - a and nm - a + 1 of the failure text
            k = bracket(f, nm)
            if k is None or k < 1:
                audit["order bracket"] = "failed: no integer bracket (nm-a) <= f <= (nm-a+1)"
                ok = False
            else:
                audit["order bracket"] = f"ok: f sits between powers {k} and {k + 1}"
    else:  # multiplicative
        below = precedes_a_power_below(f, nm)
        lower = True if n == 1 else compare(f, (n - 1) * m).s_lt_f
        top = f"f's largest exponent {max(f.exponents):.12g}"
        if not below:
            audit["order bracket"] = f"failed: {top} is not below nm = {nm}"
        elif not lower:
            audit["order bracket"] = f"failed: needs (n-1)m = {(n - 1) * m} strictly below f"
        else:
            audit["order bracket"] = f"ok: {top} is below nm = {nm}"
        ok = below and lower
    est = series_sum(SeriesDescriptor(inst, hausdorff=True), Kmax=Kmax, values=values)
    if not ok:
        would = None
        if est.classification == "ConvergesSymbolic":
            would = ZERO
        elif est.classification == "DivergesSymbolic":
            would = FULL
        return Verdict(
            INAPPLICABLE,
            "dimension function outside the mode's order bracket",
            would_be=would,
            hypothesis_audit=audit,
            series=est,
        )
    return _verdict_from_estimate(est, audit, True, "")


# ---------------------------------------------------------------------------
# decay exponents and dimension formulas
# ---------------------------------------------------------------------------


def tau_exponent(psi: ApproximatingFunction) -> float:
    """The decay exponent lim -log psi(q) / log |q| (inf for a vanishing tail)."""
    if psi.kind in ("power", "power_log"):
        return psi.tau
    if psi.kind == "constant":
        return 0.0 if psi.coeff > 0 else math.inf
    return 0.0 if psi.values[-1] > 0 else math.inf


def dim_rynne_dickinson(n: int, m: int, taus) -> float:
    """Hausdorff dimension of a weighted power-budget limsup set.

    (n-1)m + min_i (m + n + sum_{j: tau_j < tau_i} (tau_i - tau_j)) / (1 + tau_i)
    when the total decay sum(tau) exceeds n.  Two cases lie outside it:

    - total decay at most n: the weighted Lebesgue series diverges and the
      set has full measure, so the value is nm.  The formula meets it
      there: at total decay n the largest tau_i's term is exactly m, and
      term i is at least m whenever sum_j min(tau_j, tau_i) <= n.
    - an infinite entry: `tau_exponent` reads inf only for a budget that is
      eventually 0, so the set is eventually empty and the value is 0 (the
      convention `fourier_dim` uses).

    Negative entries and a wrong length are a ValueError.
    """
    ts = [float(t) for t in taus]
    if len(ts) != m:
        raise ValueError(f"expected {m} decay exponents, got {len(ts)}")
    if any(not t >= 0 for t in ts):
        raise ValueError("decay exponents must be >= 0 (or +inf)")
    if math.inf in ts:
        return 0.0
    if not sum(ts) > n:
        return float(n * m)
    return (n - 1) * m + min(
        (m + n + sum(ti - tj for tj in ts if tj < ti)) / (1.0 + ti) for ti in ts
    )


# ---------------------------------------------------------------------------
# Fourier dimension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourierReport:
    value: float
    applicable: bool
    reason: str
    audit: dict[str, str] = field(default_factory=dict)


def fourier_dim(inst: ProblemInstance) -> FourierReport:
    """Fourier dimension of a null limsup set: twice its critical decay exponent.

      nonweighted      2n / (1 + tau)
      weighted         2n / (1 + max_j tau_j), gated on a critical exponent
                       below 1
      multiplicative   2nm / (m + tau)

    Infinite decay in any component leaves the set eventually empty, which
    gives the value 0.  Otherwise the closed form needs a null set: the
    instance's Lebesgue series must converge by its symbolic class
    (`criteria.symbolic_classification`); nothing is summed.  A divergent
    series, or a budget with no symbolic class, is inapplicable.  A
    convergent series has tau > 0, so the exponent is always defined there.
    """
    n, m, weighted = inst.n, inst.m, inst.mode == "weighted"
    taus = [tau_exponent(c) for c in inst.weights.components]
    if math.inf in taus:
        return FourierReport(0.0, True, "infinite decay: the set is eventually empty")
    cls = symbolic_classification(SeriesDescriptor(inst))
    gate = "summable weight product" if weighted else "convergent Lebesgue series"
    audit = {gate: "ok" if cls == "ConvergesSymbolic" else f"failed: {cls or 'not symbolic'}"}
    kind = {"nonweighted": "s_psi", "weighted": "s_Psi", "multiplicative": "tau_psi"}[inst.mode]
    if weighted:
        try:
            s_crit = critical_exponent(kind, n, m, taus)
            audit["critical exponent below 1"] = "ok" if s_crit < 1 else f"failed: s = {s_crit:g}"
        except ValueError as exc:
            audit["critical exponent below 1"] = f"failed: {exc}"
    if set(audit.values()) != {"ok"}:
        return FourierReport(
            math.nan, False, "weighted hypotheses fail" if weighted else "the set need not be null", audit
        )
    s_crit = critical_exponent(kind, n, m, taus)
    return FourierReport(
        2.0 * s_crit, True, "closed form under weighted gates" if weighted else "closed form", audit
    )


@dataclass(frozen=True)
class ProductReport:
    value: float
    applicable: bool
    reason: str


def fdim_product(fdims, null_measure: bool) -> ProductReport:
    """Fourier dimension of a product of null sets: the factor minimum.

    The product rule needs every factor to be Lebesgue-null; pass
    null_measure=False (e.g. when a factor's verdict was Full or undecided)
    and the rule is reported inapplicable rather than evaluated.
    """
    values = [float(v) for v in fdims]
    if not values:
        raise ValueError("need at least one factor")
    if any(v < 0 for v in values):
        raise ValueError("Fourier dimensions are non-negative")
    if not null_measure:
        return ProductReport(
            math.nan, False, "factors of positive measure: the product rule does not apply"
        )
    return ProductReport(min(values), True, "minimum over null factors")

