"""The cost-exponent scan against series_sum and a brute-force minimum.

The scan evaluates the natural-cover cost through the position lemma (the
cheapest of the m cover scales for f = r^s, s in (j, j+1), sits at sorted
position min(nm - j, m)), and reads every slope from one evaluator,
`_cost_slope`.  These properties pin that evaluator to the general path:
`series_sum`, whose summands take the minimum over every scale
(`criteria._summands_at_norms`), is the reference block sum and growth
fit.  `np.sort` is the reference for the row network that sorts the
table's log radii, and the plain halving loop for the located search that
finds the crossing.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from limsup_lab import cli, estimators
from limsup_lab.config import ParsedConfig, parse_run
from limsup_lab.criteria import (
    SeriesDescriptor,
    _norm_spans,
    norm_values,
    series_sum,
)
from limsup_lab.estimators import (
    _cost_slope,
    _cost_table,
    _located_bisection,
    _scale_position,
    _sort_rows,
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
    return _plain_halving(slope, j + eps, j + 1 - eps, tol), (j, j + 1), "ok"


def _plain_halving(slope, a: float, b: float, tol: float) -> float:
    """The bisection the located search must reproduce, midpoint by midpoint."""
    while b - a > tol:
        mid = 0.5 * (a + b)
        if slope(mid) > 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _same_slope(got: float, ref: float) -> bool:
    if math.isnan(ref):
        return math.isnan(got)
    return abs(got - ref) <= 1e-9


@SETTINGS
@given(n=rows, weights=weight_systems, u=fractions)
def test_cheapest_scale_sits_at_the_lemma_position(n, weights, u):
    # series_sum takes the minimum over every cover scale; the evaluator
    # prices each norm at the lemma position alone, reached from position m
    # in one walk (a fresh table per exponent, so several rows fold at once).
    # Every block sum it fits is held to series_sum's, not only the slope
    m = weights.m
    nm = n * m
    growth = estimators._growth
    for j in range(nm):
        s = j + u
        assert _scale_position(s, nm, m) == min(nm - j, m)
        table = _cost_table(norm_values(weights.components, KMAX), n)
        assert table.shape == (m + 1, 2**KMAX - 1)
        fitted = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimators, "_growth", lambda b: fitted.append(b.copy()) or growth(b))
            got = _cost_slope(table, nm)(s)
        ref = series_sum(_weighted_hausdorff(n, weights, s), Kmax=KMAX)
        np.testing.assert_allclose(fitted[0], [b for _, b in ref.block_sums], rtol=1e-9, atol=0)
        assert _same_slope(got, ref.growth_exponent)


@SETTINGS
@given(n=rows, weights=weight_systems, u=fractions)
def test_scan_slopes_match_series_sum(n, weights, u):
    # one evaluator walked through the windows in order, as the scan walks
    # them, folds one row into C at each drop of the position
    nm = n * weights.m
    slope = _cost_slope(_cost_table(norm_values(weights.components, KMAX), n), nm)
    for s in [j + t for j in range(nm) for t in (u, 0.5 * u)]:
        assert _same_slope(slope(s), _reference_slope(n, weights, s, KMAX))


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


# ---------------------------------------------------------------------------
# the located search
# ---------------------------------------------------------------------------

wide_weight_systems = st.integers(1, 4).flatmap(
    lambda m: st.lists(components, min_size=m, max_size=m).map(
        lambda cs: WeightSystem(tuple(cs))
    )
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=rows,
    weights=wide_weight_systems,
    weighted=st.booleans(),
    tol=st.sampled_from([1e-3, 1e-4]),
    Kmax=st.integers(12, 16),
)
def test_located_search_is_the_plain_halving_on_the_scans_slopes(n, weights, weighted, tol, Kmax):
    # each search the scan runs is replayed by the plain loop on the same
    # slope function, which must land on the same float
    if weighted:
        inst = ProblemInstance(n=n, m=weights.m, mode="weighted", weights=weights)
    else:
        inst = ProblemInstance(n=n, m=weights.m, mode="nonweighted", psi=weights.components[0])
    searches = []

    def recorded(slope, a, b, t):
        got = _located_bisection(slope, a, b, t)
        searches.append((got, _plain_halving(slope, a, b, t)))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_located_bisection", recorded)
        got = hausdorff_cost_exponent(inst, Kmax=Kmax, tol=tol)
    assert len(searches) == (got.status == "ok")
    for located, plain in searches:
        assert located == plain
        assert got.value == located


# monotone in sign: positive below the root, not positive above it (NaN
# counts as not positive, as in the plain loop); the step shapes put the
# regula-falsi estimate far from the root, so the search falls back
shapes = st.sampled_from([
    lambda u: u,
    lambda u: u**3,
    lambda u: math.expm1(8.0 * u),
    lambda u: math.tanh(50.0 * u),
    lambda u: 1.0 if u > 0 else -1.0,
    lambda u: 1.0 if u > 0 else -1e-9,
    lambda u: u if u > 0 else math.nan,
])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    root=st.floats(0.0, 1.0),
    shape=shapes,
    scale=st.floats(1e-3, 1e3),
    tol=st.sampled_from([1e-3, 1e-4, 0.3, 2.0]),
)
def test_located_search_equals_the_plain_halving_when_the_sign_is_monotone(root, shape, scale, tol):
    a, b = 1e-6, 1.0 - 1e-6

    def slope(s):
        return scale * shape(root - s)

    assume(slope(a) > 0 >= slope(b))
    assert _located_bisection(slope, a, b, tol) == _plain_halving(slope, a, b, tol)


@pytest.mark.parametrize(
    "inst",
    [
        ProblemInstance(
            n=1, m=2, mode="weighted", weights=WeightSystem((AF.power(1.0), AF.power(3.0)))
        ),
        ProblemInstance(n=1, m=1, mode="nonweighted", psi=AF.power(2.0)),
    ],
    ids=["tau_1_3", "tau_2"],
)
def test_located_search_takes_its_secant_step_and_two_checks(inst):
    # the two scans the Rynne-Dickinson criterion pins, at its Kmax and tol:
    # the plain loop evaluates 14 midpoints, the located search one secant
    # point and the two ends of its cell
    evaluated = set()

    def counted(slope, a, b, tol):
        def slope_at(s):
            evaluated.add(s)
            return slope(s)

        got = _located_bisection(slope_at, a, b, tol)
        evaluated.difference_update((a, b))  # the window's end slopes are known
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_located_bisection", counted)
        assert hausdorff_cost_exponent(inst, Kmax=16, tol=1e-4).status == "ok"
    assert len(evaluated) == estimators.SECANT_STEPS + 2


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf])
def test_scan_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    # tol = 0 would halve forever once a and b are adjacent floats, and
    # tol = nan would skip the search and report the window's midpoint
    inst = ProblemInstance(
        n=1, m=2, mode="weighted", weights=WeightSystem((AF.power(1.0), AF.power(3.0)))
    )
    with pytest.raises(ValueError, match="tol"):
        hausdorff_cost_exponent(inst, Kmax=KMAX, tol=tol)


@pytest.mark.parametrize("Kmax", [0, 1, 2])
def test_scan_rejects_fewer_than_three_blocks(Kmax):
    # the growth fit reads the last half of the blocks and needs two; with
    # fewer the scan would fit no slope and answer "no_crossing" for every
    # instance, where Kmax = 3 already finds tau = (1, 3)'s crossing
    inst = ProblemInstance(
        n=1, m=2, mode="weighted", weights=WeightSystem((AF.power(1.0), AF.power(3.0)))
    )
    assert hausdorff_cost_exponent(inst, Kmax=3).status == "ok"
    with pytest.raises(ValueError, match="Kmax"):
        hausdorff_cost_exponent(inst, Kmax=Kmax)
