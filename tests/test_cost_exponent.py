"""The cost-exponent scan against series_sum and a brute-force minimum.

The scan evaluates the natural-cover cost through the position lemma (the
cheapest of the m cover scales for f = r^s, s in (j, j+1), sits at sorted
position min(nm - j, m)).  These properties pin it to the general path:
`criteria._summands_at_norms` takes the minimum over every scale, and
`series_sum` is the reference block sum and growth fit.  `np.sort` is the
reference for the row network that sorts the table's log radii.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from limsup_lab import cli, estimators
from limsup_lab.config import ParsedConfig, parse_run
from limsup_lab.criteria import (
    SeriesDescriptor,
    _norm_spans,
    _summands_at_norms,
    norm_values,
    series_sum,
)
from limsup_lab.estimators import (
    _cost_slopes,
    _cost_table,
    _scale_position,
    _sort_rows,
    _summands,
    _window_terms,
    hausdorff_cost_exponent,
)
from limsup_lab.formulas import ProblemInstance
from limsup_lab.funcspace import ApproximatingFunction, DimensionFunction, WeightSystem

AF = ApproximatingFunction
KMAX = 9
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

coeffs = st.floats(0.1, 2.0)
taus = st.floats(0.0, 3.0)
# zeros and values above the norm give skipped norms (psi = 0 or psi/Q > 1)
table_values = st.one_of(st.just(0.0), st.floats(1e-3, 4.0))
components = st.one_of(
    st.builds(AF.power, taus, coeffs),
    st.builds(AF.power_log, taus, st.floats(-2.0, 2.0), coeffs),
    st.builds(AF.table, st.lists(table_values, min_size=1, max_size=40)),
)
weight_systems = st.integers(1, 3).flatmap(
    lambda m: st.lists(components, min_size=m, max_size=m).map(
        lambda cs: WeightSystem(tuple(cs))
    )
)
rows = st.sampled_from([1, 2])
fractions = st.floats(0.01, 0.99)


def _weighted_hausdorff(n: int, weights: WeightSystem, s: float) -> SeriesDescriptor:
    """The weighted Hausdorff series of (weights, r^s) with cap 1."""
    f = DimensionFunction.power(s, domain_cap=1.0)
    inst = ProblemInstance(n=n, m=weights.m, mode="weighted", weights=weights, f=f)
    return SeriesDescriptor(inst, hausdorff=True)


def _reference_slope(n: int, weights: WeightSystem, s: float, Kmax: int) -> float:
    return series_sum(_weighted_hausdorff(n, weights, s), Kmax=Kmax).growth_exponent


def _reference_scan(inst: ProblemInstance, Kmax: int, tol: float):
    """The scan as one series_sum per trial exponent: (value, window, status)."""
    weights = inst.weights
    eps = 1e-6

    def slope(s):
        return _reference_slope(inst.n, weights, s, Kmax)

    for j in range(inst.ambient_dim):
        if slope(j + eps) > 0 >= slope(j + 1 - eps):
            break
    else:
        return None, None, "no_crossing"
    a, b = j + eps, j + 1 - eps
    while b - a > tol:
        mid = 0.5 * (a + b)
        if slope(mid) > 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b), (j, j + 1), "ok"


def _same_slope(got: float, ref: float) -> bool:
    if math.isnan(ref):
        return math.isnan(got)
    return abs(got - ref) <= 1e-9


@SETTINGS
@given(n=rows, weights=weight_systems, u=fractions)
def test_cheapest_scale_sits_at_the_lemma_position(n, weights, u):
    m = weights.m
    nm = n * m
    for j in range(nm):
        s = j + u
        i = _scale_position(s, nm, m)
        assert i == min(nm - j, m)
        desc = _weighted_hausdorff(n, weights, s)
        table = _cost_table(norm_values(weights.components, KMAX), n)
        norms = np.arange(1, 2**KMAX)
        assert table.shape == (m + 1, len(norms))
        brute, _ = _summands_at_norms(desc, norm_values(weights.components, KMAX)[:m], norms)
        q = norms.astype(float)
        brute = brute * ((2 * q + 1) ** n - (2 * q - 1) ** n)
        got = _summands(s - nm + i, *_window_terms(table[:m], table[m], i))
        np.testing.assert_allclose(got, brute, rtol=1e-9, atol=0)


@SETTINGS
@given(n=rows, weights=weight_systems, u=fractions)
def test_scan_slopes_match_series_sum(n, weights, u):
    exponents = [j + u for j in range(n * weights.m)]
    table = _cost_table(norm_values(weights.components, KMAX), n)
    got = _cost_slopes(table, n * weights.m, KMAX, exponents)
    for s, g in zip(exponents, got):
        assert _same_slope(g, _reference_slope(n, weights, s, KMAX))


@SETTINGS
@given(n=rows, weights=weight_systems, weighted=st.booleans())
def test_scan_matches_reference_bisection(n, weights, weighted):
    if weighted:
        inst = ProblemInstance(n=n, m=weights.m, mode="weighted", weights=weights)
    else:
        inst = ProblemInstance(
            n=n, m=weights.m, mode="nonweighted", psi=weights.components[0]
        )
    got = hausdorff_cost_exponent(inst, Kmax=KMAX)
    assert (got.value, got.window, got.status) == _reference_scan(inst, KMAX, 1e-3)
    if got.status == "ok":
        j = got.window[0]
        weights = inst.weights
        assert got.slope_lo > 0 >= got.slope_hi
        assert _same_slope(got.slope_lo, _reference_slope(n, weights, j + 1e-6, KMAX))
        assert _same_slope(got.slope_hi, _reference_slope(n, weights, j + 1 - 1e-6, KMAX))


def test_scan_without_crossing_matches_reference():
    inst = ProblemInstance(
        n=1, m=2, mode="weighted", weights=WeightSystem((AF.power(0.1), AF.power(0.1)))
    )
    got = hausdorff_cost_exponent(inst, Kmax=KMAX)
    assert (got.value, got.window, got.status) == _reference_scan(inst, KMAX, 1e-3)
    assert got.status == "no_crossing"
    assert math.isnan(got.slope_lo) and math.isnan(got.slope_hi)



# log radii: -inf and a few repeated values give ties; log never yields -0.0,
# so x + 0.0 turns a drawn -0.0 into 0.0
log_radii = st.one_of(
    st.just(-math.inf), st.sampled_from([-2.0, -0.5, 0.0]), st.floats(-50.0, 50.0)
).map(lambda x: x + 0.0)


@st.composite
def row_stacks(draw):
    """(m, N) arrays, m = 1..6, whose columns repeat from a small pool."""
    m = draw(st.integers(1, 6))
    pool = draw(st.lists(st.lists(log_radii, min_size=m, max_size=m), min_size=1, max_size=5))
    cols = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    return np.array(cols).T.copy()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=row_stacks())
def test_row_network_is_bit_equal_to_np_sort(a):
    expected = np.sort(a, axis=0)
    got = _sort_rows(a)
    assert got is a
    assert got.tobytes() == expected.tobytes()


def test_cost_table_is_built_once_per_scan(monkeypatch):
    calls = []
    build = estimators._cost_table

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(estimators, "_cost_table", counted)
    crossing = ProblemInstance(
        n=1, m=2, mode="weighted", weights=WeightSystem((AF.power(1.0), AF.power(3.0)))
    )
    no_crossing = ProblemInstance(
        n=1, m=2, mode="weighted", weights=WeightSystem((AF.power(0.1), AF.power(0.1)))
    )
    for inst, status in ((crossing, "ok"), (no_crossing, "no_crossing")):
        calls.clear()
        assert hausdorff_cost_exponent(inst, Kmax=KMAX).status == status
        assert len(calls) == 1


def test_a_criteria_op_evaluates_each_budget_once_per_span(monkeypatch):
    # both series and the scan read one array; power budgets are monotone
    # in closed form, so the Lebesgue audit evaluates nothing
    calls = []
    evaluate = ApproximatingFunction.eval_norm_array

    def counted(self, r):
        calls.append((self, int(np.min(r)), int(np.max(r)) + 1))
        return evaluate(self, r)

    monkeypatch.setattr(ApproximatingFunction, "eval_norm_array", counted)
    psi, other = AF.power(1.0), AF.power(3.0, 0.5)
    f = DimensionFunction.power(1.5)
    # (instance, run.Kmax, the Kmax of the array: the scan's 16 in the rectangle modes)
    instances = [
        (ProblemInstance(n=1, m=2, mode="weighted", weights=WeightSystem((psi, other)), f=f),
         12, 16),
        # m equal weights: psi is evaluated once and copied
        (ProblemInstance(n=1, m=2, mode="nonweighted", psi=psi, f=f), 12, 16),
        # no scan: the series' Kmax
        (ProblemInstance(n=1, m=2, mode="multiplicative", psi=other, f=f), 15, 15),
    ]
    for inst, Kmax, evaluated in instances:
        calls.clear()
        cli.cmd_criteria(ParsedConfig(inst, parse_run({"Kmax": Kmax}), {}))
        expected = [(c, lo, hi) for c in dict.fromkeys(inst.weights.components)
                    for lo, hi in _norm_spans(evaluated)]
        assert sorted(calls, key=lambda c: (id(c[0]), c[1])) == sorted(
            expected, key=lambda c: (id(c[0]), c[1])
        ), inst.mode
