"""Span-wise series sums and cost scans against the block-by-block code.

`series_sum` and the cost-exponent scan evaluate their per-norm kernels in
spans of at most 2^14 norms, and read each dyadic block off a contiguous
slice.  The oracle here is the earlier code that evaluated one block (the
scan: one block, cut into 2^14-norm chunks) at a time, with the earlier
weighted-Hausdorff ratio `where(psi_j > psi_i, psi_j / psi_i, 1)`.  The
scan oracle builds its own table with `np.sort`, forms C at each trial by
adding the log radii above the scale position into the weight row, top row
first (the order in which the scan folds them into its work row), and sums
every slope it reads, window ends and halving midpoints alike, chunk by
chunk; the plain halving stands for the located search.  At
Kmax 15 and 16 the first span holds blocks 0-13 and the rest are whole
spans, so a span boundary or a block slice that is off by one norm shows
here.  Such a shift can leave a scan's value, window and status alone and
move only its slopes, so every field is compared bit for bit.

A `criteria` op evaluates each budget once, into one `norm_values` array
that both verdicts' series read and the scan then turns into its table.
Its verdicts and scan are held here to the standalone calls, which build
their own arrays, and to the block code, on spans where every norm is valid
(the kernels' fast branch) and spans where only some are (the masked one).
"""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limsup_lab import cli
from limsup_lab.asymptotics import classify_series
from limsup_lab.config import ParsedConfig, parse_run
from limsup_lab.criteria import (
    _HEURISTIC_EPS,
    SeriesDescriptor,
    SeriesEstimate,
    _fit_growth,
    _leading_term,
    _log_guard,
    _NotSymbolic,
    series_sum,
)
from limsup_lab.estimators import CostExponent, hausdorff_cost_exponent
from limsup_lab.formulas import ProblemInstance, hausdorff_verdict, lebesgue_verdict
from limsup_lab.funcspace import ApproximatingFunction, DimensionFunction, WeightSystem

AF = ApproximatingFunction
DF = DimensionFunction


# ---------------------------------------------------------------------------
# the oracle: block-by-block evaluation
# ---------------------------------------------------------------------------


def _block_summands(desc, norms):
    inst = desc.instance
    n, m, f = inst.n, inst.m, inst.f
    components = inst.weights.components
    q = norms.astype(float)
    if desc.kind == "kg":
        return components[0].eval_norm_array(norms) ** m, 0
    if desc.kind == "weighted":
        out = np.ones_like(q)
        for comp in components:
            out = out * comp.eval_norm_array(norms)
        return out, 0
    if desc.kind == "mult_lebesgue":
        psi = components[0].eval_norm_array(norms)
        return np.where(psi > 0, psi * _log_guard(psi, m - 1), 0.0), 0
    if desc.kind in ("jarnik", "mult_hausdorff"):
        psi = components[0].eval_norm_array(norms)
        r = psi / q
        ok = (psi > 0) & (r <= f.domain_cap * (1 + 1e-12))
        rs = np.where(ok, r, f.domain_cap)
        if desc.kind == "jarnik":
            vals = f.eval_array(rs) * rs ** ((1 - n) * m) * q**m
        else:
            vals = f.eval_array(rs) * rs ** (1 - n * m) * q
        return np.where(ok, vals, 0.0), int(np.count_nonzero(~ok))
    comps = [c.eval_norm_array(norms) for c in components]
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
            ratio = np.where(comps[j] > comps[i], comps[j] / np.where(ok, comps[i], 1.0), 1.0)
            term = term * ratio
        best = np.minimum(best, term)
    return np.where(ok, best * q**m, 0.0), int(np.count_nonzero(~ok))


def _block_series_sum(desc, Kmax):
    blocks = []
    skipped = 0
    overflow = False
    for k in range(Kmax):
        norms = np.arange(2**k, 2 ** (k + 1))
        vals, sk = _block_summands(desc, norms)
        counts = (2 * norms + 1.0) ** desc.instance.n - (2 * norms - 1.0) ** desc.instance.n
        with np.errstate(over="ignore"):
            s = float(np.sum(vals * counts))
        if not math.isfinite(s):
            s = math.fsum(min(v * c, 1e308) for v, c in zip(vals.tolist(), counts.tolist()))
            s = min(s, 1e308)
            overflow = True
        blocks.append((k, s))
        skipped += sk
    growth, residual = _fit_growth(blocks)
    classification = "Unknown"
    try:
        converges = classify_series(_leading_term(desc))
        classification = "ConvergesSymbolic" if converges else "DivergesSymbolic"
    except _NotSymbolic:
        if math.isfinite(growth):
            if growth < -_HEURISTIC_EPS:
                classification = "ConvergesHeuristic"
            elif growth > _HEURISTIC_EPS:
                classification = "DivergesHeuristic"
    return SeriesEstimate(
        kind=desc.kind,
        block_sums=tuple(blocks),
        partial_sum=math.fsum(b for _, b in blocks),
        growth_exponent=growth,
        residual=residual,
        classification=classification,
        skipped=skipped,
        overflow=overflow,
    )


def _block_table(weights, n, Kmax):
    m = weights.m
    for k in range(Kmax):
        for lo in range(2**k, 2 ** (k + 1), 2**14):
            norms = np.arange(lo, min(lo + 2**14, 2 ** (k + 1)))
            q = norms.astype(float)
            psi = np.array([c.eval_norm_array(norms) for c in weights.components])
            count = (2 * q + 1.0) ** n - (2 * q - 1.0) ** n
            r = psi / q
            ok = np.all((psi > 0) & (r <= 1.0 + 1e-12), axis=0)
            logr = np.sort(np.log(np.where(ok, r, 1.0)), axis=0)
            logw = np.full(len(q), -np.inf)
            logw[ok] = m * np.log(q[ok]) + np.log(count[ok])
            yield k, logr, logw


def _block_scan(inst, Kmax, tol):
    weights = inst.weights
    n, m, nm = inst.n, weights.m, inst.ambient_dim
    eps = 1e-6
    table = list(_block_table(weights, n, Kmax))

    def slope(s):
        # the cheapest scale sits at position i = min(nm - floor(s), m);
        # C adds the log radii above it to the weight row, top row first
        i = max(1, min(nm - math.floor(s), m))
        sums = np.zeros(Kmax)
        for k, logr, logw in table:
            C = logw.copy()
            for row in logr[i:][::-1]:
                C += row
            out = (s - nm + i) * logr[i - 1]
            out += C
            with np.errstate(over="ignore"):
                sums[k] += np.exp(out).sum()
        sums = [b if math.isfinite(b) else 1e308 for b in sums.tolist()]
        return _fit_growth(list(enumerate(sums)))[0]

    for j in range(nm):
        a, b = j + eps, j + 1 - eps
        slope_lo, slope_hi = slope(a), slope(b)
        if slope_lo > 0 >= slope_hi:
            break
    else:
        return CostExponent(None, None, math.nan, math.nan, "no_crossing")
    while b - a > tol:
        mid = 0.5 * (a + b)
        if slope(mid) > 0:
            a = mid
        else:
            b = mid
    return CostExponent(0.5 * (a + b), (j, j + 1), slope_lo, slope_hi, "ok")


# ---------------------------------------------------------------------------
# bit-for-bit comparison
# ---------------------------------------------------------------------------


def _bits(value):
    """A comparable form in which every float is its hex string (NaN included)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return value


def _assert_same_series(desc, Kmax):
    got = series_sum(desc, Kmax=Kmax)
    ref = _block_series_sum(desc, Kmax)
    assert _bits(astuple(got)) == _bits(astuple(ref)), desc.kind
    return got


def _assert_same_scan(inst, Kmax, tol=1e-3):
    got = hausdorff_cost_exponent(inst, Kmax=Kmax, tol=tol)
    ref = _block_scan(inst, Kmax, tol)
    assert _bits(astuple(got)) == _bits(astuple(ref))
    return got


def _descriptors(n, weights, f):
    """The six series: each mode's Lebesgue and Hausdorff series."""
    psi = weights.components[0]
    m = weights.m
    instances = [
        ProblemInstance(n=n, m=m, mode="nonweighted", psi=psi, f=f),
        ProblemInstance(n=n, m=m, mode="weighted", weights=weights, f=f),
        ProblemInstance(n=n, m=m, mode="multiplicative", psi=psi, f=f),
    ]
    return [SeriesDescriptor(inst, hausdorff) for inst in instances for hausdorff in (False, True)]


# ---------------------------------------------------------------------------
# pinned cases
# ---------------------------------------------------------------------------

# zeros, and values above the norm at the smallest norms (psi/Q > 1): skipped
ZERO_AND_WIDE_TABLE = AF.table([4.0, 0.0, 3.5, 0.2, 0.0, 0.05, 0.01, 0.3, 0.002, 0.0, 1e-4])

CASES = [
    (1, (AF.power(0.7), AF.power(2.1, 0.5)), DF.power(1.3, domain_cap=1.0)),
    (1, (AF.power(1.2), AF.power_log(0.4, -1.0, 0.8), AF.power(2.5)), DF.power_log(2.2, -0.5)),
    (1, (AF.power(0.9), AF.power(1.1), AF.power(1.7), AF.power(2.4)), DF.power(3.4, domain_cap=1.0)),
    (2, (AF.power_log(1.3, 1.5, 0.6), AF.power(2.8)), DF.power(3.1, domain_cap=1.0)),
    (2, (ZERO_AND_WIDE_TABLE, AF.power(2.5)), DF.power(3.5, domain_cap=1.0)),
    (1, (ZERO_AND_WIDE_TABLE, AF.power(1.6, 2.0)),
     DF.table([(1e-6, 1e-7), (1e-2, 1e-3), (0.5, 0.4)])),
]


@pytest.mark.parametrize("Kmax", [15, 16])
@pytest.mark.parametrize("case", range(len(CASES)))
def test_series_sums_are_the_block_sums_bit_for_bit(case, Kmax):
    n, comps, f = CASES[case]
    weights = WeightSystem(comps)
    for desc in _descriptors(n, weights, f):
        _assert_same_series(desc, Kmax)


@pytest.mark.parametrize("Kmax", [15, 16])
@pytest.mark.parametrize("case", range(len(CASES)))
def test_scans_are_the_block_scans_bit_for_bit(case, Kmax):
    n, comps, _ = CASES[case]
    weights = WeightSystem(comps)
    inst = ProblemInstance(n=n, m=weights.m, mode="weighted", weights=weights)
    # a block boundary off by one norm moves the trial slopes by about 1e-5;
    # a fine tolerance runs the bisection until its slopes are far smaller
    _assert_same_scan(inst, Kmax, tol=1e-10)


def test_the_pinned_scans_cross_and_skip():
    # the pinned cases are not vacuous: scans that cross, and skipped norms
    statuses = set()
    for n, comps, f in CASES:
        weights = WeightSystem(comps)
        inst = ProblemInstance(n=n, m=weights.m, mode="weighted", weights=weights)
        statuses.add(hausdorff_cost_exponent(inst, Kmax=15).status)
    assert statuses == {"ok"}
    n, comps, f = CASES[4]
    weights = WeightSystem(comps)
    inst = ProblemInstance(n=n, m=weights.m, mode="weighted", weights=weights, f=f)
    assert series_sum(SeriesDescriptor(inst, hausdorff=True), Kmax=15).skipped > 0


@pytest.mark.parametrize("Kmax", [15, 16])
@pytest.mark.parametrize("norm, block", [(3, 1), (20000, 14)])
def test_an_overflowing_block_is_saturated_as_before(norm, block, Kmax):
    # at n = 2 the product with the shell count overflows at one norm, in the
    # first span or in the second; the exact block and partial sums do not
    values = [0.5 / q for q in range(1, 20002)]  # norms above 20001 read the last
    values[norm - 1] = 1e307
    inst = ProblemInstance(n=2, m=1, mode="nonweighted", psi=AF.table(values))
    got = _assert_same_series(SeriesDescriptor(inst), Kmax)
    assert got.overflow
    assert [k for k, b in got.block_sums if b >= 1e308] == [block]


def test_sums_that_overflow_after_saturation_read_1e308():
    # every term from block 10 on is finite, but neither those blocks' nor
    # the partial sum's exact value is; the block code raised OverflowError
    inst = ProblemInstance(n=1, m=1, mode="nonweighted", psi=AF.constant(1e305))
    desc = SeriesDescriptor(inst)
    with pytest.raises(OverflowError):
        _block_series_sum(desc, 15)
    got = series_sum(desc, Kmax=15)
    assert got.overflow
    assert 1e308 < got.block_sums[9][1] < math.inf  # finite, so not saturated
    assert [b for _, b in got.block_sums[10:]] == [1e308] * 5
    assert got.partial_sum == 1e308


# ---------------------------------------------------------------------------
# drawn cases
# ---------------------------------------------------------------------------

coeffs = st.floats(0.1, 2.0)
taus = st.floats(0.0, 3.0)
table_values = st.one_of(st.just(0.0), st.floats(1e-3, 4.0))
components = st.one_of(
    st.builds(AF.power, taus, coeffs),
    st.builds(AF.power_log, taus, st.floats(-2.0, 2.0), coeffs),
    st.builds(AF.table, st.lists(table_values, min_size=1, max_size=40)),
)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([1, 2]),
    comps=st.integers(1, 3).flatmap(lambda m: st.lists(components, min_size=m, max_size=m)),
    u=st.floats(0.05, 0.95),
    Kmax=st.sampled_from([15, 16]),
)
def test_drawn_series_and_scans_are_the_block_code_bit_for_bit(n, comps, u, Kmax):
    weights = WeightSystem(tuple(comps))
    s = (n * weights.m - 1) + u
    for desc in _descriptors(n, weights, DF.power(s, domain_cap=1.0)):
        _assert_same_series(desc, Kmax)
    inst = ProblemInstance(n=n, m=weights.m, mode="weighted", weights=weights)
    _assert_same_scan(inst, Kmax, tol=1e-4)


# ---------------------------------------------------------------------------
# one criteria op: one evaluation, the standalone bits
# ---------------------------------------------------------------------------


def _criteria_op(inst, Kmax):
    """The verdicts and the scan of one `cli.cmd_criteria` op, by function name."""
    seen = {}

    def recorded(name, fn):
        def call(*args, **kwargs):
            seen[name] = fn(*args, **kwargs)
            return seen[name]

        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in ("lebesgue_verdict", "hausdorff_verdict", "hausdorff_cost_exponent"):
            mp.setattr(cli, name, recorded(name, getattr(cli, name)))
        cli.cmd_criteria(ParsedConfig(inst, parse_run({"Kmax": Kmax}), {}))
    return seen


def _assert_op_is_standalone_and_block_code(inst, Kmax):
    """The op's verdicts and scan, field for field, equal the standalone calls and the oracle."""
    op = _criteria_op(inst, Kmax)
    verdicts = [("lebesgue_verdict", lebesgue_verdict, False)]
    if inst.f is not None:
        verdicts.append(("hausdorff_verdict", hausdorff_verdict, True))
    assert set(op) == {name for name, _, _ in verdicts} | (
        set() if inst.mode == "multiplicative" else {"hausdorff_cost_exponent"}
    )
    estimates = []
    for name, verdict, hausdorff in verdicts:
        got = op[name]
        assert _bits(astuple(got)) == _bits(astuple(verdict(inst, Kmax=Kmax))), name
        ref = _block_series_sum(SeriesDescriptor(inst, hausdorff), Kmax)
        assert _bits(astuple(got.series)) == _bits(astuple(ref)), name
        estimates.append(got.series)
    if "hausdorff_cost_exponent" in op:
        scan_Kmax = max(Kmax, 16)
        got = op["hausdorff_cost_exponent"]
        assert _bits(astuple(got)) == _bits(astuple(hausdorff_cost_exponent(inst, Kmax=scan_Kmax)))
        assert _bits(astuple(got)) == _bits(astuple(_block_scan(inst, scan_Kmax, 1e-3)))
    return estimates


def _instances(n, comps, f):
    """The instance of every mode on these budgets (psi = the first) and f."""
    m = len(comps)
    return [
        ProblemInstance(n=n, m=m, mode="nonweighted", psi=comps[0], f=f),
        ProblemInstance(n=n, m=m, mode="weighted", weights=WeightSystem(tuple(comps)), f=f),
        ProblemInstance(n=n, m=m, mode="multiplicative", psi=comps[0], f=f),
    ]


@pytest.mark.parametrize(
    "n, comps, s",
    [
        # zeros and psi/Q above the cap at norms 1-10; every norm from 11 on
        # reads the table's last value, 1e-4, and is valid
        (1, (ZERO_AND_WIDE_TABLE, AF.power(1.6, 2.0)), 1.4),
        # psi/Q above the default cap e^-1 at norms 1-4
        (2, (AF.power(0.2, 2.0), AF.power_log(1.1, 1.0, 0.5)), 3.5),
    ],
    ids=["zero_table", "wide_at_norms_1_to_4"],
)
def test_criteria_ops_mix_masked_and_valid_spans_bit_for_bit(n, comps, s):
    # the first span is masked and every later span is valid, so the two
    # branches of each Hausdorff kernel meet in one call
    f = DF.power(s)
    for inst in _instances(n, comps, f):
        _, hausdorff = _assert_op_is_standalone_and_block_code(inst, 15)
        assert 0 < hausdorff.skipped < 2**14 - 1, inst.mode


components_with_constants = st.one_of(
    components, st.builds(AF.constant, st.one_of(st.just(0.0), st.floats(0.01, 2.0)))
)


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([1, 2]),
    comps=st.integers(1, 3).flatmap(
        lambda m: st.lists(components_with_constants, min_size=m, max_size=m)
    ),
    u=st.floats(0.05, 0.95),
    cap=st.sampled_from([1.0, None]),
    Kmax=st.sampled_from([12, 15]),
)
def test_drawn_criteria_ops_are_the_standalone_calls_bit_for_bit(n, comps, u, cap, Kmax):
    f = DF.power((n * len(comps) - 1) + u, domain_cap=cap)
    for inst in _instances(n, comps, f):
        _assert_op_is_standalone_and_block_code(inst, Kmax)
