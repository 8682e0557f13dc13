"""Dimension/approximating function tests: order calculus against the grid oracle."""

import math

import numpy as np
import pytest

from limsup_lab.funcspace import (
    ApproximatingFunction,
    DimensionFunction,
    OrderRelation,
    WeightSystem,
    bracket,
    compare,
    near_monotone_constant,
    ratio_monotone_on_grid,
    regularity_check,
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
        grid = ratio_monotone_on_grid(f, s)
        assert rel.f_le_s == grid.nonincreasing
        assert rel.s_le_f == grid.nondecreasing
        assert rel.f_lt_s == (s0 < s)
        assert rel.s_lt_f == (s0 > s)


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
        (DimensionFunction.power(1.3, domain_cap=1.0), 3, 2),
        (DimensionFunction.power_log(2.5, 1.0), 4, 2),
    ]
    for f, d, expected in cases:
        a = bracket(f, d)
        assert a == expected
        assert compare(f, d - a).s_le_f
        assert compare(f, d - a + 1).f_le_s
    # f already below r^1 has no bracket in [1, d-1]
    assert bracket(DimensionFunction.power(0.5, domain_cap=1.0), 3) is None
    with pytest.raises(ValueError):
        bracket(DimensionFunction.power(1.5), 1)


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
    assert psi((0, -5)) == 3.0 * 5.0**-2
    with pytest.raises(ValueError):
        psi((0, 0))
    with pytest.raises(ValueError):
        ApproximatingFunction.power(1.0, coeff=0.0)
    tab = ApproximatingFunction.table([0.5, 0.25, 0.1])
    assert tab.value_at_norm(2) == 0.25
    assert tab.value_at_norm(17) == 0.1  # capped at the table tail
    assert tab.non_increasing
    const = ApproximatingFunction.constant(0.0)
    assert const((7,)) == 0.0
    bad = ApproximatingFunction.custom(lambda c: -1.0)
    with pytest.raises(ValueError):
        bad((1,))


def test_af_custom_sees_signs():
    psi = ApproximatingFunction.custom(lambda c: 1.0 if c[0] > 0 else 0.5)
    assert psi((3,)) == 1.0
    assert psi((-3,)) == 0.5
    assert not psi.univariable
    with pytest.raises(ValueError):
        psi.value_at_norm(3)


def test_af_non_increasing_flags():
    assert ApproximatingFunction.power(0.5).non_increasing
    assert not ApproximatingFunction.power(-1.0).non_increasing
    assert not ApproximatingFunction.power_log(0.0, 1.0).non_increasing
    assert ApproximatingFunction.power_log(1.0, 1.0).non_increasing
    assert not ApproximatingFunction.table([0.1, 0.5]).non_increasing
    inc = ApproximatingFunction.custom(lambda c: float(abs(c[0])))
    assert not inc.non_increasing


def test_weight_system_and_near_monotone():
    w = WeightSystem(
        (ApproximatingFunction.power(1.0), ApproximatingFunction.power(3.0))
    )
    assert w.m == 2
    assert w.values_at_norm(2) == (0.5, 0.125)
    rep = near_monotone_constant(w, alpha=0.0, qmax=64, n=1)
    # monotone decreasing shell sums: every earlier prefix dominates
    assert rep.constant >= 1.0
    assert rep.degenerate_shells == 0

    vanishing = WeightSystem((ApproximatingFunction.table([1.0, 0.0]),))
    rep2 = near_monotone_constant(vanishing, alpha=0.0, qmax=16, n=1)
    assert rep2.degenerate_shells == 15


def test_regularity_power_window_collapses():
    f = DimensionFunction.power(1.5, domain_cap=1.0)
    rep = regularity_check(f, d=2, t=0.5, num_r=16, num_alpha=8)
    # ratio alpha^{s-d} dips toward 0 as alpha grows: no doubling window
    assert rep.lo < 1e-2
    assert rep.hi <= 1.0 + 1e-9
    assert rep.samples > 0
