"""Dimension/approximating function tests: order calculus against the grid oracle.

`compare` decides every order relation in closed form from f's local power
exponents.  The referee here samples the ratio f/r^s on a geometric grid
instead and asks whether it is monotone.
"""

import math

import numpy as np
import pytest

from limsup_lab.criteria import SeriesDescriptor, series_sum
from limsup_lab.formulas import (
    FULL,
    INAPPLICABLE,
    ZERO,
    ProblemInstance,
    Verdict,
    _verdict_from_estimate,
    hausdorff_verdict,
)
from limsup_lab.funcspace import (
    ApproximatingFunction,
    DimensionFunction,
    OrderRelation,
    WeightSystem,
    bracket,
    compare,
    near_monotone_constant,
    precedes_a_power_below,
)

_RATIO_RTOL = 1e-9


def _grid_monotone(f, s):
    """(non-increasing, non-decreasing) of r -> f(r)/r^s on a 256-point geometric grid.

    The grid runs from the first breakpoint of a table (cap * 1e-9 for the
    analytic kinds) to the cap; a table's breakpoints join it, so exact hits
    are honoured.
    """
    cap = f.domain_cap
    if f.kind == "table":
        breaks = [p[0] for p in f.breakpoints]
        grid = np.unique(np.concatenate([np.geomspace(min(breaks), cap, 256), breaks]))
    else:
        grid = np.geomspace(cap * 1e-9, cap, 256)
    ratio = f.eval_array(grid) / grid**s
    tol = _RATIO_RTOL * np.maximum(ratio[:-1], ratio[1:])
    return (
        not np.any(ratio[1:] > ratio[:-1] + tol),
        not np.any(ratio[1:] < ratio[:-1] - tol),
    )


def test_power_eval_and_domain():
    f = DimensionFunction.power(1.5, domain_cap=1.0)
    assert f(0.25) == 0.25**1.5
    assert f(1.0) == 1.0
    with pytest.raises(ValueError):
        f(0.0)
    with pytest.raises(ValueError):
        f(1.5)
    with pytest.raises(ValueError):
        DimensionFunction.power(-1.0)
    with pytest.raises(ValueError):
        DimensionFunction.power(2.0, domain_cap=1.5)


def test_power_log_cap_guards_monotonicity():
    # r^s log^p(1/r) with p > 0 turns around at r = e^{-p/s}; caps beyond
    # that are rejected, caps below are fine.
    with pytest.raises(ValueError):
        DimensionFunction.power_log(1.0, 2.0, domain_cap=0.2)  # e^{-2} ~ 0.135
    f = DimensionFunction.power_log(1.0, 2.0, domain_cap=0.1)
    grid = np.geomspace(1e-9, 0.1, 200)
    vals = f.eval_array(grid)
    assert np.all(np.diff(vals) >= 0)
    # p <= 0 is monotone on all of (0, 1)
    g = DimensionFunction.power_log(1.0, -1.0, domain_cap=0.9)
    assert g(0.9) > g(0.5) > g(0.1)


def test_table_validation():
    with pytest.raises(ValueError):
        DimensionFunction.table([(0.5, 0.1)])
    with pytest.raises(ValueError):
        DimensionFunction.table([(0.1, 0.5), (0.5, 0.1)])  # decreasing
    # equal values are non-decreasing but not strictly increasing
    with pytest.raises(ValueError, match="table values must be strictly increasing in r"):
        DimensionFunction.table([(0.1, 0.2), (0.5, 0.2)])
    with pytest.raises(ValueError):
        DimensionFunction.table([(0.1, 0.1), (1.5, 0.5)])  # abscissa > 1
    with pytest.raises(ValueError):
        DimensionFunction.table([(0.1, 0.1), (0.1, 0.2)])  # duplicate r
    with pytest.raises(ValueError):
        DimensionFunction.table([(0.1, -0.1), (0.5, 0.2)])


def test_table_loglog_interpolation():
    # two points on r^2 reproduce r^2 between and below them
    f = DimensionFunction.table([(0.1, 0.01), (1.0, 1.0)])
    assert f(0.5) == pytest.approx(0.25, rel=1e-12)
    assert f(0.01) == pytest.approx(1e-4, rel=1e-9)  # extrapolated with slope 2


def test_compare_power_matches_grid_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        s0 = rng.uniform(0.2, 4.0)
        s = rng.uniform(0.2, 4.0)
        f = DimensionFunction.power(s0, domain_cap=1.0)
        rel = compare(f, s)
        assert (rel.f_le_s, rel.s_le_f) == _grid_monotone(f, s)
        assert rel.f_lt_s == (s0 < s)
        assert rel.s_lt_f == (s0 > s)


def _random_table(rng, lo, hi, tie=None):
    """A table of 2-6 breakpoints with log-log slopes drawn from (lo, hi).

    With `tie`, one segment gets slope exactly `tie`; the breakpoint values
    go through exp, so the slope read back sits within rounding of it.
    """
    k = int(rng.integers(2, 7))
    rs = np.sort(rng.uniform(np.log(1e-6), np.log(0.9), k))
    slopes = rng.uniform(lo, hi, k - 1)
    if tie is not None:
        slopes[rng.integers(k - 1)] = tie
    logs = np.concatenate([[rng.uniform(-8.0, -1.0)], np.diff(rs) * slopes])
    return DimensionFunction.table(zip(np.exp(rs), np.exp(np.cumsum(logs))))


def test_compare_table_matches_grid_oracle():
    """The slope-decided table order equals the grid's, except within 1e-9 of a tie."""
    rng = np.random.default_rng(29)
    decided = ties = 0
    for j in range(300):
        tie = 1 + j % 3
        f = _random_table(rng, 0.2, 4.0, tie=tie)
        xs = f.exponents
        for s in list(rng.uniform(0.2, 4.0, 4)) + [1.0, 2.0, 3.0]:
            if min(abs(x - s) for x in xs) < 1e-9:
                ties += 1
                continue
            rel = compare(f, s)
            assert (rel.f_le_s, rel.s_le_f) == _grid_monotone(f, s), (f.breakpoints, s)
            assert rel.f_lt_s == (rel.f_le_s and xs[0] < s)
            assert rel.s_lt_f == (rel.s_le_f and xs[0] > s)
            # away from a tie, f precedes a power below s iff it precedes r^s
            assert precedes_a_power_below(f, s) == rel.f_le_s
            decided += 1
        # at the integer slope's tie the slope counts as the integer both ways
        assert min(abs(x - tie) for x in xs) < 1e-12
        rel = compare(f, tie)
        assert rel.f_le_s == all(x <= tie + 1e-9 for x in xs)
        assert rel.s_le_f == all(x >= tie - 1e-9 for x in xs)
    assert decided > 1500 and ties >= 300


def test_bracket_on_tables_matches_grid_oracle():
    """`bracket` on a table is the largest k the grid finds between r^k and r^(k+1)."""
    rng = np.random.default_rng(30)
    d = 5
    found = set()
    for j in range(200):
        # slopes inside (k, k + 1), and every fourth table wider by 0.3 each side
        k = j % d
        wide = 0.3 * (j % 4 == 0)
        f = _random_table(rng, max(k - wide, 0.05), k + 1 + wide)
        if any(abs(x - i) < 1e-9 for x in f.exponents for i in range(d + 1)):
            continue
        want = None
        for i in range(d - 1, -1, -1):
            if (i == 0 or _grid_monotone(f, i)[1]) and _grid_monotone(f, i + 1)[0]:
                want = i
                break
        assert bracket(f, d) == want, f.breakpoints
        found.add(want)
    assert found == {None, 0, 1, 2, 3, 4}


def test_f_precedes_implies_monotone_ratio():
    cases = [
        (DimensionFunction.power(1.2, domain_cap=1.0), 1.2),
        (DimensionFunction.power(0.7, domain_cap=1.0), 1.5),
        (DimensionFunction.power_log(1.5, 3.0), 1.6),
        (DimensionFunction.power_log(2.0, 1.0), 2.0),
    ]
    rng = np.random.default_rng(5)
    for f, s in cases:
        rel = compare(f, s)
        assert rel.f_le_s
        if not rel.global_on_domain:
            continue
        xs = np.sort(rng.uniform(1e-8, f.domain_cap, 64))
        ratios = f.eval_array(xs) / xs**s
        for rx, ry in zip(ratios, ratios[1:]):
            assert ry <= rx + 1e-12 * rx


def test_compare_power_log_equal_exponent():
    f = DimensionFunction.power_log(1.5, 3.0)
    rel = compare(f, 1.5)
    assert rel.f_lt_s and not rel.s_le_f
    g = DimensionFunction.power_log(1.5, -2.0)
    rel2 = compare(g, 1.5)
    assert rel2.s_lt_f and not rel2.f_le_s
    h = DimensionFunction.power(1.5)
    rel3 = compare(h, 1.5)
    assert rel3.f_le_s and rel3.s_le_f


def test_compare_log_hump_sets_global_flag():
    # r^2 log^5(1/r) vs r^1: near 0 the power wins, but the log hump breaks
    # ratio monotonicity over the whole (0, e^{-1}] domain.
    f = DimensionFunction.power_log(2.0, 5.0, domain_cap=math.exp(-2.5))
    rel = compare(f, 1.0)
    assert rel.s_lt_f
    assert not rel.global_on_domain


def test_order_relation_rejects_inconsistent_flags():
    with pytest.raises(ValueError):
        OrderRelation(s=1.0, f_le_s=False, f_lt_s=True, s_le_f=False, s_lt_f=False)
    with pytest.raises(ValueError):
        OrderRelation(s=1.0, f_le_s=True, f_lt_s=True, s_le_f=True, s_lt_f=True)


def test_bracket_satisfies_both_orders():
    cases = [
        (DimensionFunction.power(2.5, domain_cap=1.0), 4, 2),
        (DimensionFunction.power(1.3, domain_cap=1.0), 3, 1),
        (DimensionFunction.power_log(2.5, 1.0), 4, 2),
    ]
    for f, d, expected in cases:
        k = bracket(f, d)
        assert k == expected
        assert compare(f, k).s_le_f
        assert compare(f, k + 1).f_le_s
    # f already below r^1 has no bracket with k >= 1, only k = 0
    assert bracket(DimensionFunction.power(0.5, domain_cap=1.0), 3) == 0
    # in dimension 1 the only candidate is k = 0, which r^1.5 decays past
    assert bracket(DimensionFunction.power(1.5), 1) is None
    with pytest.raises(ValueError):
        bracket(DimensionFunction.power(1.5), 0)


# ---------------------------------------------------------------------------
# the one bracket against the two searches it replaced
# ---------------------------------------------------------------------------


def _old_content_bracket(f, d):
    """content.content_bracket as it was: the smallest k in [0, d-1]."""
    if d < 1:
        raise ValueError("dimension must be positive")
    for k in range(0, d):
        below_ok = True if k == 0 else compare(f, k).s_le_f
        if below_ok and compare(f, k + 1).f_le_s:
            return k
    return None


def _old_bracket(f, d):
    """funcspace.bracket as it was: the smallest a in [1, d-1], i.e. k = d - a."""
    if d < 2:
        raise ValueError(f"ambient dimension must be >= 2 for a bracket, got {d}")
    for a in range(1, d):
        if compare(f, d - a).s_le_f and compare(f, d - a + 1).f_le_s:
            return a
    return None


_GRID = [0.25 * j for j in range(1, 25)]  # 0.25 .. 6.0, the integers among them

BRACKET_FS = (
    [DimensionFunction.power(s, domain_cap=1.0) for s in _GRID]
    + [DimensionFunction.power_log(s, p) for s in _GRID for p in (-1.0, 1.0)]
    + [
        # two points on r^2: order-equal to r^2 on the grid
        DimensionFunction.table([(1e-3, 1e-6), (0.3, 0.09)]),
        # slope 1.3 then 1.8: between r^1 and r^2, equal to neither
        DimensionFunction.table([(1e-4, 1e-4**1.3), (1e-2, 1e-2**1.3), (0.3, 1e-2**1.3 * 30**1.8)]),
    ]
)


def _order_equal_to_an_integer_power(f, d):
    return any(compare(f, j).f_le_s and compare(f, j).s_le_f for j in range(1, d + 1))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_bracket_is_both_old_searches(d):
    ties = 0
    for f in BRACKET_FS:
        k = bracket(f, d)
        if d >= 2:
            a = _old_bracket(f, d)
            if a is None:
                assert k in (0, None), f.describe()
            else:
                assert k == d - a, f.describe()
        old = _old_content_bracket(f, d)
        if _order_equal_to_an_integer_power(f, d):
            # f = r^j with 1 <= j < d: the old content search took j - 1
            ties += k != old
            assert k in (old, old + 1), f.describe()
        else:
            assert k == old, f.describe()
        if k is not None:
            assert k == 0 or compare(f, k).s_le_f
            assert compare(f, k + 1).f_le_s
    # the grid's integers below d, and the r^2 table once d > 2
    assert ties == (d - 1) + (d > 2)


def _parent_weighted_hausdorff_verdict(inst, Kmax):
    """hausdorff_verdict's weighted branch as it was, on `_old_bracket`."""
    f, nm = inst.f, inst.n * inst.m
    audit, ok = {}, True
    if nm < 2:
        audit["order bracket"] = "failed: weighted bracket needs nm >= 2"
        ok = False
    else:
        a = _old_bracket(f, nm)
        if a is None:
            audit["order bracket"] = "failed: no integer bracket (nm-a) <= f <= (nm-a+1)"
            ok = False
        else:
            audit["order bracket"] = f"ok: f sits between powers {nm - a} and {nm - a + 1}"
    est = series_sum(SeriesDescriptor(inst, hausdorff=True), Kmax=Kmax)
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


def test_weighted_hausdorff_gate_keeps_the_parents_verdicts():
    fs = (
        [DimensionFunction.power(s) for s in _GRID if s <= 4.0]
        + [DimensionFunction.power_log(s, 1.0) for s in (0.5, 1.0, 2.0, 2.5)]
        + BRACKET_FS[-2:]
    )
    taus = (1.0, 2.0, 3.0)
    seen = set()
    for n in (1, 2):
        for m in (1, 2, 3):
            weights = WeightSystem(tuple(ApproximatingFunction.power(t) for t in taus[:m]))
            for f in fs:
                inst = ProblemInstance(n=n, m=m, mode="weighted", weights=weights, f=f)
                got = hausdorff_verdict(inst, Kmax=6)
                want = _parent_weighted_hausdorff_verdict(inst, Kmax=6)
                assert (got.outcome, got.would_be, got.hypothesis_audit) == (
                    want.outcome, want.would_be, want.hypothesis_audit
                ), (n, m, f.describe())
                seen.add(got.hypothesis_audit["order bracket"].split(":")[0])
    assert seen == {"ok", "failed"}


def test_af_power_log_guard_keeps_small_norms_sane():
    """The log factor is floored at 1 so negative powers stay monotone at q = 1, 2."""
    psi = ApproximatingFunction.power_log(1.0, -2.0)
    assert psi.value_at_norm(1) == 1.0
    assert psi.value_at_norm(2) == 0.5  # max(ln 2, 1) = 1, not ln 2
    assert psi.value_at_norm(3) == pytest.approx(1 / (3 * math.log(3) ** 2), rel=1e-12)
    assert psi.non_increasing
    norms = np.arange(1, 64)
    vec = psi.eval_norm_array(norms)
    for r, v in zip(norms, vec):
        assert v == pytest.approx(psi.value_at_norm(int(r)), rel=1e-14)


def test_af_shapes_and_validation():
    psi = ApproximatingFunction.power(2.0, coeff=3.0)
    assert psi.value_at_norm(5) == 3.0 * 5.0**-2
    with pytest.raises(ValueError):
        psi.value_at_norm(0)
    with pytest.raises(ValueError):
        ApproximatingFunction.power(1.0, coeff=0.0)
    tab = ApproximatingFunction.table([0.5, 0.25, 0.1])
    assert tab.value_at_norm(2) == 0.25
    assert tab.value_at_norm(17) == 0.1  # capped at the table tail
    assert tab.non_increasing
    const = ApproximatingFunction.constant(0.0)
    assert const.value_at_norm(7) == 0.0
    with pytest.raises(ValueError):
        ApproximatingFunction(kind="custom")  # budgets see only |q|


def test_af_non_increasing_flags():
    assert ApproximatingFunction.power(0.5).non_increasing
    assert not ApproximatingFunction.power(-1.0).non_increasing
    assert not ApproximatingFunction.power_log(0.0, 1.0).non_increasing
    assert ApproximatingFunction.power_log(1.0, 1.0).non_increasing
    assert not ApproximatingFunction.table([0.1, 0.5]).non_increasing


def _non_increasing_over_2048_norms(psi):
    vals = psi.eval_norm_array(np.arange(1, 2049))
    return bool(np.all(np.diff(vals) <= 1e-15 * vals[:-1]))


def test_power_log_monotonicity_read_from_four_norms():
    """The four-norm read equals a read of the first 2048 norms.

    Beyond norm 4 psi can rise only when p > tau log 4, and then it rises
    over [3, 4] already.  The humps at e^(p/tau) in (3, 4) sit nearest that
    edge.
    """
    rng = np.random.default_rng(31)
    cases = [(rng.uniform(0.0, 3.0), rng.uniform(-4.0, 6.0)) for _ in range(600)]
    cases += [(tau, tau * math.log(rng.uniform(3.0, 4.0))) for tau in rng.uniform(0.05, 3.0, 200)]
    cases += [(tau, tau * math.log(4.0)) for tau in (0.5, 1.0, 2.0)]
    cases += [(0.0, p) for p in (-2.0, -0.5, 0.0)]
    seen = set()
    for tau, p in cases:
        psi = ApproximatingFunction.power_log(tau, p)
        if tau == 0 and p > 0:
            assert not psi.non_increasing
            continue
        assert psi.non_increasing == _non_increasing_over_2048_norms(psi), (tau, p)
        seen.add(psi.non_increasing)
    assert seen == {True, False}


def test_weight_system_and_near_monotone():
    w = WeightSystem(
        (ApproximatingFunction.power(1.0), ApproximatingFunction.power(3.0))
    )
    assert w.m == 2
    assert w.values_at_norm(2) == (0.5, 0.125)
    # monotone decreasing shell sums: every earlier prefix dominates
    assert near_monotone_constant(w, qmax=64, n=1) >= 1.0

    # only the first shell sum is nonzero, so no two shells are compared
    vanishing = WeightSystem((ApproximatingFunction.table([1.0, 0.0]),))
    assert near_monotone_constant(vanishing, qmax=16, n=1) == 0.0
