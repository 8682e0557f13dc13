"""Dimension functions, approximating functions, and the power-order calculus.

A *dimension function* f maps (0, cap] to (0, oo), is continuous,
non-decreasing, and satisfies f(r) -> 0 as r -> 0.  The calculus this module
implements is the two-sided comparison against pure powers:

    f "precedes" s     (f <= r^s in order, written f_le_s here)
        iff the ratio r -> f(r) / r^s is non-increasing in r,
    f "strictly precedes" s (f_lt_s)
        iff additionally f(r) / r^s -> oo as r -> 0,

and symmetrically s_le_f / s_lt_f with the ratio non-decreasing and the
limit finite / zero.  For a pure power or a table these reduce to
comparisons of its exponents (`DimensionFunction.exponents`) with s; for
f(r) = r^s0 * log^p(1/r) the verdict is decided by the eventual sign of
d/du [e^{-u(s0-s)} u^p] with u = log(1/r), i.e. by the behaviour of the
ratio near r = 0.  The ratio can fail to be monotone on the *whole* domain
while being monotone near 0 (the log hump); `OrderRelation` carries a
`global_on_domain` flag that records whether the claimed non-strict
relations hold over all of (0, cap].

An *approximating function* psi maps nonzero integer vectors to [0, oo) and
is the error budget of a limsup set.  It depends on q only through the sup
norm |q|, so it is read at norms.  Supported shapes: pure power decay,
power-times-log decay, constants, and tabulated values.

Each kind of either function is written once, as an array formula
(`DimensionFunction.eval_array`, `ApproximatingFunction.eval_norm_array`);
a single value (`f(r)`, `value_at_norm`) is a checked read of that formula.

`WeightSystem` bundles m approximating functions, one per coordinate block.
`shell_count` is the one count of the lattice points on a sup-norm shell,
which every series and shell sum multiplies its per-norm value by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

DEFAULT_DOMAIN_CAP = math.exp(-1.0)



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
            raise ValueError("table values must be strictly increasing in r")
        if len(set(rs)) != len(rs):
            raise ValueError("duplicate breakpoint abscissae")
        return DimensionFunction(kind="table", breakpoints=pts, domain_cap=rs[-1])

    def __post_init__(self):
        if self.kind not in ("power", "power_log", "table"):
            raise ValueError(f"unknown dimension-function kind {self.kind!r}")

    # -- evaluation ----------------------------------------------------------

    def __call__(self, r: float) -> float:
        """f(r), checked against the domain; one `eval_array` of a single value."""
        if not (0.0 < r <= self.domain_cap * (1 + 1e-12)):
            raise ValueError(
                f"argument {r} outside the domain (0, {self.domain_cap}] of the dimension function"
            )
        return float(self.eval_array(min(r, self.domain_cap)))

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
            out = np.where(lo, vs[0] * (r / rs[0]) ** self.exponents[0], out)
        return out

    @property
    def exponents(self) -> tuple[float, ...]:
        """f's local power exponents, from r = 0 up to the cap.

        s for "power" and "power_log"; for a table, the log-log slope of
        each segment in order, the first of which also continues below the
        first breakpoint.
        """
        if self.kind != "table":
            return (self.s,)
        return tuple(
            (math.log(v1) - math.log(v0)) / (math.log(r1) - math.log(r0))
            for (r0, v0), (r1, v1) in zip(self.breakpoints, self.breakpoints[1:])
        )

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
    than just near 0.
    """

    s: float
    f_le_s: bool
    f_lt_s: bool
    s_le_f: bool
    s_lt_f: bool
    global_on_domain: bool = True

    def __post_init__(self):
        if self.f_lt_s and not self.f_le_s:
            raise ValueError("strict relation without the non-strict one")
        if self.s_lt_f and not self.s_le_f:
            raise ValueError("strict relation without the non-strict one")
        if self.f_lt_s and self.s_lt_f:
            raise ValueError("both strict relations cannot hold")


def _tie(f: DimensionFunction) -> float:
    """How near s an exponent of f counts as s: a table's are slopes of floating logs."""
    return 1e-9 if f.kind == "table" else 0.0


def compare(f: DimensionFunction, s: float) -> OrderRelation:
    """Compare f against r^s in the two-sided power order, in closed form.

    A pure power or a table is a power of exponent x on each log-log
    segment, where f/r^s moves like r^(x - s).  So the ratio is
    non-increasing on the whole domain exactly when every exponent is at
    most s, and non-decreasing exactly when every exponent is at least s.
    The first exponent holds down to r = 0 and so decides the limit, hence
    the strict relations.  A table's exponents within `_tie` of s count as
    s; a power's are compared exactly.

    A power-log f is decided by the behaviour of the ratio f(r)/r^s as
    r -> 0; `global_on_domain` reports whether the monotonicity extends
    over the whole domain.
    """
    s = float(s)
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

    xs, tie = f.exponents, _tie(f)
    f_le = max(xs) <= s + tie
    s_le = min(xs) >= s - tie
    return OrderRelation(
        s=s,
        f_le_s=f_le,
        f_lt_s=f_le and xs[0] < s - tie,
        s_le_f=s_le,
        s_lt_f=s_le and xs[0] > s + tie,
        global_on_domain=f_le or s_le,
    )


def precedes_a_power_below(f: DimensionFunction, d: float) -> bool:
    """Whether f precedes r^t for some t < d.

    f preceding r^t implies f precedes r^t' for every t' > t, and f
    precedes every power above its largest exponent and none below it.  So
    this holds exactly when f's largest exponent sits below d; a table's
    exponent within `_tie` of d counts as d, as in `compare`.
    """
    return max(f.exponents) < d - _tie(f)


def bracket(f: DimensionFunction, d: int) -> int | None:
    """Largest k in [0, d-1] with r^k preceding f and f preceding r^(k+1).

    k = 0 needs only f preceding r^1: r^0 precedes every dimension function,
    which is non-decreasing with limit 0.  Where f is order-equal to some
    r^j both j - 1 and j qualify, and the larger is returned.  None when no
    k qualifies (f decays faster than r^d).  The content formula prices a
    rectangle at position k, and the weighted Hausdorff gate asks k >= 1.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    for k in range(d - 1, -1, -1):
        if (k == 0 or compare(f, k).s_le_f) and compare(f, k + 1).f_le_s:
            return k
    return None


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

    Every kind sees only the sup norm |q|.
    """

    kind: str
    tau: float = 0.0
    p: float = 0.0
    coeff: float = 1.0
    values: tuple[float, ...] = ()

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

    def __post_init__(self):
        if self.kind not in ("power", "power_log", "constant", "table"):
            raise ValueError(f"unknown approximating-function kind {self.kind!r}")

    def value_at_norm(self, r: int) -> float:
        """Value at sup norm r >= 1; one `eval_norm_array` of a single norm."""
        if r < 1:
            raise ValueError("norm must be a positive integer")
        return float(self.eval_norm_array(r))

    def eval_norm_array(self, r: np.ndarray) -> np.ndarray:
        """Values at integer norms >= 1 (an array, or one norm as a 0-d array)."""
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

        Since psi sees only |q|, this is monotone decay in the sup norm,
        decided in closed form, and for power-log from the first four norms.
        There psi(q) = c q^-tau L^p with L = max(log q, 1).  A negative tau
        grows, and so does tau = 0 with p > 0.  Otherwise L = log q from
        q = 3 on, where psi changes with the sign of p - tau log q.  With
        tau > 0 and p > tau log 4, psi rises over all of [3, 4]; so when it
        does not rise over norms 1-4, p <= tau log 4 and psi decreases from
        4 on.  With tau = 0 and p <= 0 it never rises.
        """
        if self.kind == "constant":
            return True
        if self.kind == "table":
            return all(b <= a for a, b in zip(self.values, self.values[1:]))
        if self.kind == "power":
            return self.tau >= 0
        if self.tau < 0:
            return False
        if self.p > 0 and self.tau == 0:
            return False
        vals = self.eval_norm_array(np.arange(1, 5))
        return bool(np.all(np.diff(vals) <= 1e-15 * vals[:-1]))


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

    def values_at_norm(self, r: int) -> tuple[float, ...]:
        return tuple(c.value_at_norm(r) for c in self.components)


def shell_count(n: int, q):
    """Number of integer vectors of sup norm exactly q, (2q + 1)^n - (2q - 1)^n.

    An int for an integer q >= 1; float64 for an array of norms, where int64
    would wrap silently at n >= 4.
    """
    if isinstance(q, np.ndarray):
        q = q.astype(float)
    elif q < 1:
        raise ValueError("shell radius must be a positive integer")
    return (2 * q + 1) ** n - (2 * q - 1) ** n


def near_monotone_constant(weights: WeightSystem, qmax: int, n: int) -> float:
    """Worst-case constant c in  S_q1 >= c * S_q2  (q1 < q2).

    S_q is the sum of prod_j psi_j over the sup-norm shell |v| = q: the
    shell count times the product at q, since every psi_j reads the norm
    alone, over norms 1..max(qmax, longest table + 2): exact for tables,
    which are constant past their last entry.  c is 0 when the sums grow
    without bound: no component ends in zeros, and the shell count times the
    non-table components, of order q^a log^p q with a = n - 1 - sum tau and
    p = sum p, has (a, p) > (0, 0).  Otherwise c is the smallest ratio of
    the least earlier nonzero sum to a later one (0.0 when no two shells are
    nonzero); shells whose sum vanishes are excluded.
    """
    if qmax < 2:
        raise ValueError("qmax must be at least 2")
    norms = np.arange(1, max(qmax, *(len(c.values) + 2 for c in weights.components)) + 1)
    sums = shell_count(n, norms) * np.prod(
        [c.eval_norm_array(norms) for c in weights.components], axis=0
    )
    powers = [c for c in weights.components if c.kind in ("power", "power_log")]
    grows = (n - 1 - sum(c.tau for c in powers), sum(c.p for c in powers)) > (0, 0)
    positive = sums > 0
    earlier = np.minimum.accumulate(np.where(positive, sums, np.inf))[:-1]
    later = positive[1:] & (earlier < np.inf)
    bounded = later.any() and not (grows and positive[-1])
    return float(np.min(earlier[later] / sums[1:][later])) if bounded else 0.0
