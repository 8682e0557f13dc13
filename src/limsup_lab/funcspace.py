"""Dimension functions, approximating functions, and the power-order calculus.

A *dimension function* f maps (0, cap] to (0, oo), is continuous,
non-decreasing, and satisfies f(r) -> 0 as r -> 0.  The calculus this module
implements is the two-sided comparison against pure powers:

    f "precedes" s     (f <= r^s in order, written f_le_s here)
        iff the ratio r -> f(r) / r^s is non-increasing in r,
    f "strictly precedes" s (f_lt_s)
        iff additionally f(r) / r^s -> oo as r -> 0,

and symmetrically s_le_f / s_lt_f with the ratio non-decreasing and the
limit finite / zero.  For f(r) = r^s0 these reduce to comparisons of s0
with s; for f(r) = r^s0 * log^p(1/r) the verdict is decided by the eventual
sign of d/du [e^{-u(s0-s)} u^p] with u = log(1/r), i.e. by the behaviour of
the ratio near r = 0.  The ratio can fail to be monotone on the *whole*
domain while being monotone near 0 (the log hump); `OrderRelation` carries a
`global_on_domain` flag that records whether the claimed non-strict
relations hold over all of (0, cap].

An *approximating function* psi maps nonzero integer vectors to [0, oo) and
is the error budget of a limsup set.  Supported shapes: pure power decay in
the sup norm, power-times-log decay, constants, tabulated values, and an
escape hatch for arbitrary callables (not serialisable, sign-dependent
values allowed).

`WeightSystem` bundles m approximating functions, one per coordinate block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_DOMAIN_CAP = math.exp(-1.0)

_RATIO_RTOL = 1e-9


def _coords(q) -> tuple[int, ...]:
    """Normalise a lattice-point-like argument to a tuple of ints."""
    if hasattr(q, "coords"):
        return tuple(q.coords)
    if isinstance(q, (int, np.integer)):
        return (int(q),)
    return tuple(int(c) for c in q)


# ---------------------------------------------------------------------------
# dimension functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DimensionFunction:
    """A dimension function on (0, domain_cap].

    kind "power":      f(r) = r^s
    kind "power_log":  f(r) = r^s * log^p(1/r)
    kind "table":      log-log interpolation through (r_i, f_i) breakpoints,
                       extrapolated below the first breakpoint with the first
                       segment's slope.

    The cap defaults to e^{-1}.  Larger caps are accepted only where the
    function stays non-decreasing: up to 1.0 for pure powers, up to
    min(e^{-1}, e^{-p/s}) for power-log with p > 0.
    """

    kind: str
    s: float = float("nan")
    p: float = 0.0
    breakpoints: tuple[tuple[float, float], ...] = ()
    domain_cap: float = DEFAULT_DOMAIN_CAP

    # -- constructors -------------------------------------------------------

    @staticmethod
    def power(s: float, domain_cap: float | None = None) -> "DimensionFunction":
        if s <= 0:
            raise ValueError(f"power exponent must be positive, got {s}")
        cap = DEFAULT_DOMAIN_CAP if domain_cap is None else float(domain_cap)
        if not 0 < cap <= 1.0:
            raise ValueError(f"domain_cap must lie in (0, 1] for a pure power, got {cap}")
        return DimensionFunction(kind="power", s=float(s), domain_cap=cap)

    @staticmethod
    def power_log(s: float, p: float, domain_cap: float | None = None) -> "DimensionFunction":
        if s <= 0:
            raise ValueError(f"power exponent must be positive, got {s}")
        if p > 0:
            monotone_cap = min(DEFAULT_DOMAIN_CAP, math.exp(-p / s))
        else:
            # p <= 0: r^s log^p(1/r) is non-decreasing on all of (0, 1)
            monotone_cap = 1.0 - 1e-12
        cap = min(DEFAULT_DOMAIN_CAP, monotone_cap) if domain_cap is None else float(domain_cap)
        if not 0 < cap <= monotone_cap + 1e-15:
            raise ValueError(
                f"domain_cap {cap} exceeds the monotonicity bound {monotone_cap} "
                f"for r^{s} log^{p}(1/r)"
            )
        return DimensionFunction(kind="power_log", s=float(s), p=float(p), domain_cap=cap)

    @staticmethod
    def table(points: Iterable[tuple[float, float]]) -> "DimensionFunction":
        pts = tuple(sorted((float(r), float(v)) for r, v in points))
        if len(pts) < 2:
            raise ValueError("table needs at least two breakpoints")
        rs = [r for r, _ in pts]
        vs = [v for _, v in pts]
        if rs[0] <= 0 or rs[-1] > 1.0:
            raise ValueError("table breakpoints must lie in (0, 1]")
        if any(v <= 0 for v in vs):
            raise ValueError("table values must be positive")
        if any(b <= a for a, b in zip(vs, vs[1:])):
            raise ValueError("table values must be non-decreasing in r")
        if len(set(rs)) != len(rs):
            raise ValueError("duplicate breakpoint abscissae")
        return DimensionFunction(kind="table", breakpoints=pts, domain_cap=rs[-1])

    def __post_init__(self):
        if self.kind not in ("power", "power_log", "table"):
            raise ValueError(f"unknown dimension-function kind {self.kind!r}")

    # -- evaluation ----------------------------------------------------------

    def __call__(self, r: float) -> float:
        if not (0.0 < r <= self.domain_cap * (1 + 1e-12)):
            raise ValueError(
                f"argument {r} outside the domain (0, {self.domain_cap}] of the dimension function"
            )
        return self._eval_unchecked(float(min(r, self.domain_cap)))

    def _eval_unchecked(self, r: float) -> float:
        if self.kind == "power":
            return r**self.s
        if self.kind == "power_log":
            return r**self.s * math.log(1.0 / r) ** self.p
        return self._table_eval(np.asarray([r], dtype=float))[0]

    def eval_array(self, r: np.ndarray) -> np.ndarray:
        """Vectorised evaluation.  The caller is responsible for the domain."""
        r = np.asarray(r, dtype=float)
        if self.kind == "power":
            return r**self.s
        if self.kind == "power_log":
            return r**self.s * np.log(1.0 / r) ** self.p
        return self._table_eval(r)

    def _table_eval(self, r: np.ndarray) -> np.ndarray:
        rs = np.array([p[0] for p in self.breakpoints])
        vs = np.array([p[1] for p in self.breakpoints])
        out = np.exp(np.interp(np.log(r), np.log(rs), np.log(vs)))
        # below the first breakpoint, continue the first segment in log-log
        lo = r < rs[0]
        if np.any(lo):
            slope = self._first_segment_slope()
            out = np.where(lo, vs[0] * (r / rs[0]) ** slope, out)
        return out

    def _first_segment_slope(self) -> float:
        (r0, v0), (r1, v1) = self.breakpoints[0], self.breakpoints[1]
        return (math.log(v1) - math.log(v0)) / (math.log(r1) - math.log(r0))

    def describe(self) -> str:
        if self.kind == "power":
            return f"r^{self.s:g}"
        if self.kind == "power_log":
            return f"r^{self.s:g} log^{self.p:g}(1/r)"
        return f"table[{len(self.breakpoints)} pts]"


# ---------------------------------------------------------------------------
# order relation f vs r^s
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderRelation:
    """Outcome of comparing a dimension function against the power r^s.

    The four flags are the ground truth (both non-strict flags can hold at
    once, e.g. f(r) = r^s exactly).  `global_on_domain` records whether the
    claimed non-strict relations hold on the entire (0, cap] domain rather
    than just near 0.  `witness` is an (x, y, ratio_x, ratio_y) tuple
    demonstrating a monotonicity failure when one was found on a grid.
    """

    s: float
    f_le_s: bool
    f_lt_s: bool
    s_le_f: bool
    s_lt_f: bool
    global_on_domain: bool = True
    witness: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        if self.f_lt_s and not self.f_le_s:
            raise ValueError("strict relation without the non-strict one")
        if self.s_lt_f and not self.s_le_f:
            raise ValueError("strict relation without the non-strict one")
        if self.f_lt_s and self.s_lt_f:
            raise ValueError("both strict relations cannot hold")


@dataclass(frozen=True)
class GridCheck:
    nonincreasing: bool
    nondecreasing: bool
    witness_increase: tuple[float, float, float, float] | None
    witness_decrease: tuple[float, float, float, float] | None


def ratio_monotone_on_grid(
    f: DimensionFunction, s: float, points: int = 256, r_lo: float | None = None
) -> GridCheck:
    """Check monotonicity of r -> f(r)/r^s on a geometric grid of the domain."""
    if points < 8:
        raise ValueError("grid too coarse")
    cap = f.domain_cap
    if r_lo is None:
        r_lo = min(p[0] for p in f.breakpoints) if f.kind == "table" else cap * 1e-9
    grid = np.geomspace(r_lo, cap, points)
    if f.kind == "table":
        # include the breakpoints themselves so exact hits are honoured
        grid = np.unique(np.concatenate([grid, [p[0] for p in f.breakpoints]]))
    ratio = f.eval_array(grid) / grid**s
    tol = _RATIO_RTOL * np.maximum(ratio[:-1], ratio[1:])
    increases = ratio[1:] > ratio[:-1] + tol
    decreases = ratio[1:] < ratio[:-1] - tol
    wit_inc = wit_dec = None
    if np.any(increases):
        i = int(np.argmax(increases))
        wit_inc = (float(grid[i]), float(grid[i + 1]), float(ratio[i]), float(ratio[i + 1]))
    if np.any(decreases):
        i = int(np.argmax(decreases))
        wit_dec = (float(grid[i]), float(grid[i + 1]), float(ratio[i]), float(ratio[i + 1]))
    return GridCheck(
        nonincreasing=not np.any(increases),
        nondecreasing=not np.any(decreases),
        witness_increase=wit_inc,
        witness_decrease=wit_dec,
    )


def compare(f: DimensionFunction, s: float, grid_points: int = 256) -> OrderRelation:
    """Compare f against r^s in the two-sided power order.

    Analytic kinds (power, power_log) are decided in closed form by the
    behaviour of the ratio f(r)/r^s as r -> 0; `global_on_domain` reports
    whether the monotonicity extends over the whole domain.  Tables are
    decided by a grid check over their breakpoint range and never claim a
    strict relation from data alone (only the extrapolation slope of the
    first segment can, since it pins the behaviour at 0).
    """
    s = float(s)
    if f.kind == "power":
        s0 = f.s
        return OrderRelation(
            s=s,
            f_le_s=s0 <= s,
            f_lt_s=s0 < s,
            s_le_f=s0 >= s,
            s_lt_f=s0 > s,
            global_on_domain=True,
        )

    if f.kind == "power_log":
        s0, p = f.s, f.p
        u_min = math.log(1.0 / f.domain_cap)
        if s0 < s:
            f_le, f_lt, s_le, s_lt = True, True, False, False
            glob = p >= -u_min * (s - s0) - 1e-15
        elif s0 > s:
            f_le, f_lt, s_le, s_lt = False, False, True, True
            glob = p <= u_min * (s0 - s) + 1e-15
        else:
            f_le, f_lt = p >= 0, p > 0
            s_le, s_lt = p <= 0, p < 0
            glob = True
        return OrderRelation(
            s=s, f_le_s=f_le, f_lt_s=f_lt, s_le_f=s_le, s_lt_f=s_lt, global_on_domain=glob
        )

    # table: data-driven
    check = ratio_monotone_on_grid(f, s, points=max(grid_points, 200))
    f_le = check.nonincreasing
    s_le = check.nondecreasing
    slope0 = f._first_segment_slope()
    f_lt = f_le and slope0 < s - 1e-9
    s_lt = s_le and slope0 > s + 1e-9
    witness = None
    if not f_le and not s_le:
        witness = check.witness_increase or check.witness_decrease
    return OrderRelation(
        s=s,
        f_le_s=f_le,
        f_lt_s=f_lt,
        s_le_f=s_le,
        s_lt_f=s_lt,
        global_on_domain=f_le or s_le,
        witness=witness,
    )


def bracket(f: DimensionFunction, d: int) -> int | None:
    """Smallest a in [1, d-1] with (d-a) preceding f and f preceding (d-a+1).

    Returns None when no such a exists (e.g. f already precedes r^1).
    """
    if d < 2:
        raise ValueError(f"ambient dimension must be >= 2 for a bracket, got {d}")
    for a in range(1, d):
        if compare(f, d - a).s_le_f and compare(f, d - a + 1).f_le_s:
            return a
    return None


# ---------------------------------------------------------------------------
# doubling-type regularity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    lo: float
    hi: float
    samples: int


def regularity_check(
    f: DimensionFunction,
    d: int,
    t: float,
    num_r: int = 24,
    num_alpha: int = 16,
    r_lo: float = 1e-12,
) -> RegularityReport:
    """Bounds of f(alpha*r) / (alpha^d f(r)) over r and alpha in (1, r^{-t}].

    A dimension function comparable to r^d in the doubling sense keeps this
    ratio in a fixed positive window; a pure power r^s with s < d makes the
    lower bound collapse to 0 as r -> 0 (the caller judges the window).
    """
    if not 0 < t < 1:
        raise ValueError("t must lie in (0, 1)")
    lo, hi = math.inf, -math.inf
    cap = f.domain_cap
    count = 0
    for r in np.geomspace(r_lo, cap * 0.999, num_r):
        alpha_max = min(r**-t, cap / r)
        if alpha_max <= 1.0:
            continue
        for alpha in np.geomspace(1.0 + 1e-9, alpha_max, num_alpha):
            ratio = f(alpha * r) / (alpha**d * f(r))
            lo = min(lo, ratio)
            hi = max(hi, ratio)
            count += 1
    if count == 0:
        raise ValueError("empty regularity grid; increase the domain or lower t")
    return RegularityReport(lo=lo, hi=hi, samples=count)


# ---------------------------------------------------------------------------
# approximating functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApproximatingFunction:
    """An error budget psi on nonzero integer vectors.

    kind "power":      psi(q) = coeff * |q|^{-tau}          (sup norm)
    kind "power_log":  psi(q) = coeff * |q|^{-tau} log^p|q| (log guarded below by 1)
    kind "constant":   psi(q) = coeff
    kind "table":      values[ |q| - 1 ], |q| capped at the table length
    kind "custom":     fn(q) for an arbitrary callable; sign-dependent values
                       allowed, nothing symbolic is claimed

    All built-in kinds are univariable (they see only |q|).
    """

    kind: str
    tau: float = 0.0
    p: float = 0.0
    coeff: float = 1.0
    values: tuple[float, ...] = ()
    fn: Callable[[tuple[int, ...]], float] | None = field(default=None, compare=False)

    @staticmethod
    def power(tau: float, coeff: float = 1.0) -> "ApproximatingFunction":
        if coeff <= 0:
            raise ValueError("coefficient must be positive")
        return ApproximatingFunction(kind="power", tau=float(tau), coeff=float(coeff))

    @staticmethod
    def power_log(tau: float, p: float, coeff: float = 1.0) -> "ApproximatingFunction":
        if coeff <= 0:
            raise ValueError("coefficient must be positive")
        return ApproximatingFunction(
            kind="power_log", tau=float(tau), p=float(p), coeff=float(coeff)
        )

    @staticmethod
    def constant(c: float) -> "ApproximatingFunction":
        if c < 0:
            raise ValueError("constant value must be non-negative")
        return ApproximatingFunction(kind="constant", coeff=float(c))

    @staticmethod
    def table(values: Sequence[float]) -> "ApproximatingFunction":
        vals = tuple(float(v) for v in values)
        if not vals or any(v < 0 for v in vals):
            raise ValueError("table values must be non-negative and non-empty")
        return ApproximatingFunction(kind="table", values=vals)

    @staticmethod
    def custom(fn: Callable[[tuple[int, ...]], float]) -> "ApproximatingFunction":
        return ApproximatingFunction(kind="custom", fn=fn)

    def __post_init__(self):
        if self.kind not in ("power", "power_log", "constant", "table", "custom"):
            raise ValueError(f"unknown approximating-function kind {self.kind!r}")

    @property
    def univariable(self) -> bool:
        return self.kind != "custom"

    def __call__(self, q) -> float:
        c = _coords(q)
        if all(x == 0 for x in c):
            raise ValueError("approximating functions are defined on nonzero vectors")
        if self.kind == "custom":
            v = float(self.fn(c))
            if v < 0:
                raise ValueError("approximating function produced a negative value")
            return v
        return self.value_at_norm(max(abs(x) for x in c))

    def value_at_norm(self, r: int) -> float:
        """Value at sup norm r (univariable kinds only)."""
        if not self.univariable:
            raise ValueError("custom approximating functions are not univariable")
        if r < 1:
            raise ValueError("norm must be a positive integer")
        if self.kind == "constant":
            return self.coeff
        if self.kind == "table":
            return self.values[min(r, len(self.values)) - 1]
        if self.kind == "power":
            return self.coeff * r**-self.tau
        log_factor = max(math.log(r), 1.0) ** self.p
        return self.coeff * r**-self.tau * log_factor

    def eval_norm_array(self, r: np.ndarray) -> np.ndarray:
        """Vectorised value_at_norm for integer norm arrays >= 1."""
        r = np.asarray(r, dtype=float)
        if self.kind == "constant":
            return np.full_like(r, self.coeff)
        if self.kind == "table":
            idx = np.minimum(r.astype(int), len(self.values)) - 1
            return np.asarray(self.values, dtype=float)[idx]
        if self.kind == "power":
            return self.coeff * r**-self.tau
        logs = np.maximum(np.log(np.maximum(r, 1.0)), 1.0)
        return self.coeff * r**-self.tau * logs**self.p

    @property
    def non_increasing(self) -> bool:
        """Moduli-wise monotonicity: psi(q) >= psi(q') when |q_l| <= |q'_l| for all l.

        For univariable kinds this is monotone decay in the sup norm, decided
        in closed form plus a sampled check over the first 2048 norms.  Custom
        kinds are sampled only (n = 1 chains), so the flag is evidence, not
        proof.
        """
        if self.kind == "constant":
            return True
        if self.kind == "table":
            return all(b <= a for a, b in zip(self.values, self.values[1:]))
        if self.kind == "custom":
            vals = [self.fn((k,)) for k in range(1, 257)]
            vals_neg = [self.fn((-k,)) for k in range(1, 257)]
            return all(b <= a for a, b in zip(vals, vals[1:])) and all(
                b <= a for a, b in zip(vals_neg, vals_neg[1:])
            )
        if self.kind == "power":
            return self.tau >= 0
        # power_log: d/dr [r^-tau log^p r] <= 0 for r >= 2 iff p <= tau*log r;
        # the asymptotic condition is p <= 0 or tau > 0, the small-norm part is sampled.
        if self.tau < 0:
            return False
        if self.p > 0 and self.tau == 0:
            return False
        norms = np.arange(1, 2049)
        vals = self.eval_norm_array(norms)
        return bool(np.all(np.diff(vals) <= 1e-15 * vals[:-1]))

    def describe(self) -> str:
        if self.kind == "power":
            return f"{self.coeff:g}*|q|^-{self.tau:g}"
        if self.kind == "power_log":
            return f"{self.coeff:g}*|q|^-{self.tau:g}*log^{self.p:g}|q|"
        if self.kind == "constant":
            return f"{self.coeff:g}"
        if self.kind == "table":
            return f"table[{len(self.values)}]"
        return "custom"


@dataclass(frozen=True)
class WeightSystem:
    """An m-tuple of approximating functions, one per coordinate block."""

    components: tuple[ApproximatingFunction, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("a weight system needs at least one component")

    @property
    def m(self) -> int:
        return len(self.components)

    @property
    def univariable(self) -> bool:
        return all(c.univariable for c in self.components)

    def evaluate(self, q) -> tuple[float, ...]:
        return tuple(c(q) for c in self.components)

    def values_at_norm(self, r: int) -> tuple[float, ...]:
        return tuple(c.value_at_norm(r) for c in self.components)


@dataclass(frozen=True)
class NearMonotoneReport:
    constant: float
    alpha: float
    qmax: int
    degenerate_shells: int


def near_monotone_constant(
    weights: WeightSystem, alpha: float, qmax: int, n: int = 1
) -> NearMonotoneReport:
    """Worst-case constant c in  q1^alpha S_q1 >= c * q2^alpha S_q2  (q1 < q2).

    S_q is the sum of prod_j psi_j over the sup-norm shell |v| = q.  Shells
    whose sum vanishes are excluded and counted as degenerate.
    """
    from .resonant import shell_weight_sum  # local import to avoid a cycle

    if qmax < 2:
        raise ValueError("qmax must be at least 2")
    sums = np.array([shell_weight_sum(weights, n, q) for q in range(1, qmax + 1)])
    norms = np.arange(1, qmax + 1, dtype=float)
    a = norms**alpha * sums
    degenerate = int(np.sum(sums == 0))
    c = math.inf
    prefix_min = math.inf
    for val in a:
        if val > 0 and prefix_min < math.inf:
            c = min(c, prefix_min / val)
        if val > 0:
            prefix_min = min(prefix_min, val)
    if c is math.inf:
        c = 0.0
    return NearMonotoneReport(
        constant=float(c), alpha=alpha, qmax=qmax, degenerate_shells=degenerate
    )
