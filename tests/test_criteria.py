"""Cover costs, series sums and classification, and lattice sums."""

import math
import warnings
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limsup_lab.content import candidate_products
from limsup_lab.criteria import (
    SERIES_KINDS,
    InapplicableError,
    SeriesDescriptor,
    _fit_growth,
    critical_exponent,
    lattice_sum,
    series_sum,
)
from limsup_lab.formulas import ProblemInstance
from limsup_lab.funcspace import (
    ApproximatingFunction,
    DimensionFunction,
    WeightSystem,
)
from limsup_lab.resonant import LatticePoint, enumerate_shell

AF = ApproximatingFunction
DF = DimensionFunction


def _series(n, m, mode, budget, f=None):
    """The instance's Lebesgue series, or its Hausdorff series when f is given.

    `budget` is the WeightSystem of a weighted instance, else its one psi.
    """
    key = "weights" if mode == "weighted" else "psi"
    inst = ProblemInstance(n=n, m=m, mode=mode, f=f, **{key: budget})
    return SeriesDescriptor(inst, hausdorff=f is not None)


def _cover_cost(vals, qnorm: float, n: int, f: DimensionFunction) -> tuple[float, int]:
    """t_Q(Psi, f) at one lattice point, with its argmin: the scalar referee.

    One loop over the m candidate scales psi_i/|q|; InapplicableError where
    the series skips the norm.
    """
    m = len(vals)
    best, best_i = math.inf, -1
    for i in range(m):
        if vals[i] <= 0:
            raise InapplicableError(f"psi_{i} vanishes at |q|={qnorm:g}")
        r = vals[i] / qnorm
        if r > f.domain_cap * (1 + 1e-12):
            raise InapplicableError(f"psi_{i}/|q| = {r:g} outside the dimension function's domain")
        term = f(r) * r ** ((1 - n) * m)
        for j in range(m):
            if vals[j] > vals[i]:
                term *= vals[j] / vals[i]
        if term < best:
            best, best_i = term, i
    return best, best_i


def _products_at(w: WeightSystem, f: DimensionFunction, q: LatticePoint) -> np.ndarray:
    """The m candidate products of t_Q at one lattice point, as the series forms them."""
    psi = np.array(w.values_at_norm(q.sup_norm))[:, None]
    qn = np.array([float(q.sup_norm)])
    return candidate_products(psi, qn, f.eval_array(psi / qn), (q.n - 1) * w.m)[:, 0]


def test_cover_cost_equal_weights_reduce():
    psi = AF.power(1.2)
    w = WeightSystem((psi, psi, psi))
    q = LatticePoint((3, 4))
    r = 4.0**-1.2 / 4.0
    f = DF.power(1.7)
    expected = f(r) * r ** ((1 - 2) * 3)
    got = _products_at(w, f, q)
    assert got == pytest.approx([expected] * 3, rel=1e-12)
    assert np.argmin(got) == 0
    value, index = _cover_cost(w.values_at_norm(4), 4.0, 2, f)
    assert (got.min(), index) == (pytest.approx(value, rel=1e-12), 0)


def test_cover_cost_worked_instance():
    w = WeightSystem((AF.power(1.0), AF.power(3.0)))
    q = LatticePoint((2,))
    got = _products_at(w, DF.power(1.5), q)
    # argmin at the small component: f(1/16) * (1/2)/(1/8) = 4/64
    assert got.min() == pytest.approx(1.0 / 16, rel=1e-12)
    assert np.argmin(got) == 1


def test_cover_cost_domain_guard():
    # psi(Q)/Q = Q^-1.1 is above the e^-1 cap of r^1.5 at Q = 1 and 2, so
    # the series skips both norms
    est = series_sum(_series(1, 1, "weighted", WeightSystem((AF.power(0.1),)), DF.power(1.5)), Kmax=2)
    assert est.skipped == 2
    with pytest.raises(InapplicableError):
        _cover_cost([1.0], 1.0, 1, DF.power(1.5))


def test_series_descriptor_validation():
    inst = ProblemInstance(n=1, m=1, mode="nonweighted", psi=AF.power(1.0))
    with pytest.raises(ValueError):
        SeriesDescriptor(inst, hausdorff=True)  # f missing
    assert SeriesDescriptor(inst).kind == "kg"
    assert SERIES_KINDS == {
        "nonweighted": ("kg", "jarnik"),
        "weighted": ("weighted", "weighted_hausdorff"),
        "multiplicative": ("mult_lebesgue", "mult_hausdorff"),
    }


def test_series_sum_kg_blocks_exact():
    est = series_sum(_series(1, 2, "nonweighted", AF.power(1.0)), Kmax=8)
    for k, s in est.block_sums:
        brute = math.fsum(2.0 * Q**-2.0 for Q in range(2**k, 2 ** (k + 1)))
        assert s == pytest.approx(brute, rel=1e-12)
    assert est.classification == "ConvergesSymbolic"
    assert est.converges is True
    assert est.skipped == 0 and not est.overflow


def test_series_sum_mult_blocks_exact():
    psi = AF.power(2.0, coeff=0.5)
    est = series_sum(_series(1, 2, "multiplicative", psi), Kmax=6)
    for k, s in est.block_sums:
        brute = math.fsum(
            2.0 * (0.5 * Q**-2.0) * max(math.log(1.0 / (0.5 * Q**-2.0)), 1.0)
            for Q in range(2**k, 2 ** (k + 1))
        )
        assert s == pytest.approx(brute, rel=1e-10)
    assert est.converges is True


def test_series_sum_jarnik_skips_out_of_domain():
    est = series_sum(_series(1, 1, "nonweighted", AF.constant(0.9), DF.power(1.5)), Kmax=3)
    # r = 0.9/Q exceeds the e^-1 cap at Q = 1 and 2
    assert est.skipped == 2
    assert est.block_sums[0] == (0, 0.0)
    # block 1 keeps only Q = 3; shell count for n = 1 is 2
    assert est.block_sums[1][1] == pytest.approx(2 * (0.9 / 3) ** 1.5 * 3, rel=1e-12)


def test_series_sum_weighted_hausdorff_skips_zero_weights_without_overflow():
    # psi_1 vanishes at Q = 2 and 4; the cover-cost ratios there must not
    # overflow before the skip mask zeroes the summand
    w = WeightSystem((AF.table([0.5, 0.0, 0.1, 0.0]), AF.power(1.5), AF.power(0.5)))
    f = DF.power(1.8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = series_sum(_series(1, 3, "weighted", w, f), Kmax=5)
    assert not est.overflow
    # block 1 keeps only Q = 3 (two lattice points); Q = 1 exceeds the cap
    assert est.block_sums[1][1] == pytest.approx(
        2 * _cover_cost(w.values_at_norm(3), 3.0, 1, f)[0] * 3.0**3, rel=1e-12
    )
    assert [b for _, b in est.block_sums if _ != 1] == [0.0] * 4


def _log_f(f: DimensionFunction, r: float) -> float:
    """log f(r), for a table below its first breakpoint: formed in logs, so it cannot underflow."""
    if f.kind == "power":
        return f.s * math.log(r)
    if f.kind == "power_log":
        return f.s * math.log(r) + f.p * math.log(math.log(1.0 / r))
    (r0, v0), (r1, v1) = f.breakpoints[:2]
    slope = (math.log(v1) - math.log(v0)) / (math.log(r1) - math.log(r0))
    return math.log(v0) + slope * (math.log(r) - math.log(r0))


@pytest.mark.parametrize(
    "f",
    [DF.power(1.5), DF.power_log(1.5, -1.0), DF.table([(1e-3, 1e-4), (0.3, 0.2)])],
    ids=["power", "power_log", "table"],
)
def test_series_sum_forms_one_power_where_f_underflows_as_the_power_overflows(f):
    # r = 1e-300 / Q^2: f(r) underflows to 0 and r^(1 - nm) = r^-2 overflows,
    # so the product f(r) * r^-2 would be 0 * inf, a NaN block sum
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = series_sum(_series(1, 3, "multiplicative", AF.power(1.0, coeff=1e-300), f), Kmax=8)
    for k, got in est.block_sums:
        want = math.fsum(
            2.0 * Q * math.exp(_log_f(f, 1e-300 / Q**2) - 2.0 * math.log(1e-300 / Q**2))
            for Q in range(2**k, 2 ** (k + 1))
        )
        assert got == pytest.approx(want, rel=1e-9)
    assert est.skipped == 0


def test_series_weighted_equals_kg_when_equal():
    psi = AF.power(1.3)
    a = series_sum(_series(1, 2, "weighted", WeightSystem((psi, psi))), Kmax=8)
    b = series_sum(_series(1, 2, "nonweighted", psi), Kmax=8)
    for (ka, sa), (kb, sb) in zip(a.block_sums, b.block_sums):
        assert ka == kb
        assert sa == pytest.approx(sb, rel=1e-12)


def _point_summand(desc: SeriesDescriptor, v: LatticePoint) -> float:
    """The series summand at one lattice point; InapplicableError when skipped."""
    inst = desc.instance
    n, m, f = inst.n, inst.m, inst.f
    Q = float(v.sup_norm)
    if desc.kind == "weighted_hausdorff":
        return _cover_cost(inst.weights.values_at_norm(v.sup_norm), Q, n, f)[0] * Q**m
    vals = inst.weights.values_at_norm(v.sup_norm)
    if desc.kind == "weighted":
        return math.prod(vals)
    psi = vals[0]
    if desc.kind == "kg":
        return psi**m
    if desc.kind == "mult_lebesgue":
        return psi * max(math.log(1.0 / psi), 1.0) ** (m - 1) if psi > 0 else 0.0
    r = psi / Q
    if psi <= 0 or r > f.domain_cap * (1 + 1e-12):
        raise InapplicableError("outside the dimension function's domain")
    if desc.kind == "jarnik":
        return f(r) * r ** ((1 - n) * m) * Q**m
    return f(r) * r ** (1 - n * m) * Q  # mult_hausdorff


def _enumerated_blocks(desc: SeriesDescriptor, Kmax: int):
    """(block sums, skipped norms) by summing over every lattice point."""
    blocks = []
    skipped = 0
    for k in range(Kmax):
        terms = []
        for Q in range(2**k, 2 ** (k + 1)):
            shell_skipped = False
            for row in enumerate_shell(desc.instance.n, Q).tolist():
                v = LatticePoint(tuple(row))
                try:
                    terms.append(_point_summand(desc, v))
                except InapplicableError:
                    shell_skipped = True
            skipped += shell_skipped
        blocks.append(math.fsum(terms))
    return blocks, skipped


# zeros and values above the norm give skipped norms (psi = 0 or psi/Q > cap)
_table_values = st.one_of(st.just(0.0), st.floats(1e-3, 4.0))
_budgets = st.one_of(
    st.builds(AF.power, st.floats(0.0, 3.0), st.floats(0.1, 2.0)),
    st.builds(AF.power_log, st.floats(0.0, 3.0), st.floats(-2.0, 2.0), st.floats(0.1, 2.0)),
    st.builds(AF.table, st.lists(_table_values, min_size=1, max_size=40)),
)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 2),
    Kmax=st.integers(2, 6),
    components=st.lists(_budgets, min_size=1, max_size=3),
    s=st.floats(0.2, 4.0),
)
def test_series_sum_matches_shell_enumeration(n, Kmax, components, s):
    weights = WeightSystem(tuple(components))
    psi, m, f = components[0], len(components), DF.power(s)
    descriptors = [
        _series(n, m, mode, weights if mode == "weighted" else psi, g)
        for mode in SERIES_KINDS
        for g in (None, f)
    ]
    assert [d.kind for d in descriptors] == [k for ks in SERIES_KINDS.values() for k in ks]
    for desc in descriptors:
        est = series_sum(desc, Kmax=Kmax)
        ref_blocks, ref_skipped = _enumerated_blocks(desc, Kmax)
        assert [k for k, _ in est.block_sums] == list(range(Kmax))
        np.testing.assert_allclose(
            [b for _, b in est.block_sums], ref_blocks, rtol=1e-12, atol=0
        )
        assert est.skipped == ref_skipped
        assert not est.overflow


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    Kmax=st.integers(2, 24),
    slope=st.floats(-20.0, 20.0),
    offset=st.floats(-300.0, 300.0),
    noise=st.lists(st.floats(-3.0, 3.0), min_size=24, max_size=24),
    holes=st.dictionaries(st.integers(0, 23), st.sampled_from([0.0, math.inf])),
)
def test_growth_fit_matches_polyfit(Kmax, slope, offset, noise, holes):
    # block sums 2^(slope k + offset + noise), some zero or infinite
    blocks = [
        (k, holes.get(k, 2.0 ** (slope * k + offset + noise[k]))) for k in range(Kmax)
    ]
    growth, residual = _fit_growth(blocks)
    pts = [(k, math.log2(s)) for k, s in blocks[Kmax // 2 :] if 0 < s < math.inf]
    if len(pts) < 2:
        assert math.isnan(growth) and math.isnan(residual)
        return
    ks, ys = np.array(pts).T
    ref_slope, ref_intercept = np.polyfit(ks, ys, 1)
    ref_residual = np.max(np.abs(ys - (ref_slope * ks + ref_intercept)))
    assert growth == pytest.approx(ref_slope, rel=1e-12, abs=1e-12)
    assert residual == pytest.approx(ref_residual, rel=1e-12, abs=1e-12)


def test_series_heuristic_verdicts():
    slow = AF.table([q**-0.5 for q in range(1, 1025)])
    div = series_sum(_series(1, 1, "nonweighted", slow), Kmax=10)
    assert div.classification == "DivergesHeuristic"
    assert div.converges is False
    harmonic = AF.table([1.0 / q for q in range(1, 1025)])
    flat = series_sum(_series(1, 1, "nonweighted", harmonic), Kmax=10)
    assert flat.classification == "Unknown"
    assert flat.converges is None


def test_series_classification_log_borderline():
    # m = 2 multiplicative: the extra log makes 1/(q log^2 q) diverge and
    # only 1/(q log^3 q) converge
    div = series_sum(_series(1, 2, "multiplicative", AF.power_log(1.0, -2.0)), Kmax=8)
    conv = series_sum(_series(1, 2, "multiplicative", AF.power_log(1.0, -3.0)), Kmax=8)
    assert div.classification == "DivergesSymbolic"
    assert conv.classification == "ConvergesSymbolic"


def test_critical_exponents():
    assert critical_exponent("s_psi", 1, 1, 2.0) == pytest.approx(1 / 3)
    assert critical_exponent("s_Psi", 2, 2, (1.0, 3.0)) == pytest.approx(0.5)
    assert critical_exponent("tau_psi", 1, 2, 2.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        critical_exponent("nope", 1, 1, 1.0)


def test_lattice_sum_brute_force_2d():
    got = lattice_sum((0.45, 0.4), 1.3)
    brute = math.fsum(
        max(abs(t1), abs(t2)) ** -1.3
        for t1 in range(-4, 5)
        for t2 in range(-5, 6)
        if (t1, t2) != (0, 0)
    )
    assert got.value == pytest.approx(brute, rel=1e-12)
    assert got.bounds == (4, 5)
    assert got.k == 1
    assert got.reference == pytest.approx(0.45 ** -0.7, rel=1e-12)
    assert got.ratio == pytest.approx(got.value / got.reference, rel=1e-15)


def test_lattice_sum_brute_force_3d():
    got = lattice_sum((0.3, 0.35, 0.4), 2.5)
    brute = math.fsum(
        max(abs(t) for t in tt) ** -2.5
        for tt in iproduct(range(-5, 6), range(-5, 6), range(-6, 7))
        if any(tt)
    )
    assert got.value == pytest.approx(brute, rel=1e-12)


def test_lattice_sum_symmetry_and_monotonicity():
    a = lattice_sum((0.1, 0.3), 1.5)
    b = lattice_sum((0.3, 0.1), 1.5)
    assert a.value == b.value
    assert a.bounds == b.bounds
    smaller = lattice_sum((0.05, 0.3), 1.5)
    assert smaller.value > a.value  # shrinking a delta adds points


def test_lattice_sum_validation():
    with pytest.raises(ValueError):
        lattice_sum((0.1, 0.2), 1.0)  # integer s
    with pytest.raises(ValueError):
        lattice_sum((0.1, 0.2), 2.5)  # s outside (0, m)
    with pytest.raises(ValueError):
        lattice_sum((0.6, 0.2), 0.5)  # delta not below 1/2
