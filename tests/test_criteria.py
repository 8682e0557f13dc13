"""Cover costs, inflation, series sums and classification, and lattice sums."""

import math
import warnings
from itertools import product as iproduct

import numpy as np
import pytest

from limsup_lab.criteria import (
    InapplicableError,
    SeriesDescriptor,
    cover_cost,
    critical_exponent,
    inflate_weights,
    lattice_sum,
    logterm_partial_sum,
    series_sum,
)
from limsup_lab.funcspace import (
    ApproximatingFunction,
    DimensionFunction,
    WeightSystem,
)
from limsup_lab.resonant import LatticePoint

AF = ApproximatingFunction
DF = DimensionFunction


def test_cover_cost_equal_weights_reduce():
    psi = AF.power(1.2)
    w = WeightSystem((psi, psi, psi))
    q = LatticePoint((3, 4))
    r = 4.0**-1.2 / 4.0
    f = DF.power(1.7)
    expected = f(r) * r ** ((1 - 2) * 3)
    got = cover_cost(w, f, q)
    assert got.value == pytest.approx(expected, rel=1e-12)
    assert got.argmin_index == 0


def test_cover_cost_worked_instance():
    w = WeightSystem((AF.power(1.0), AF.power(3.0)))
    q = LatticePoint((2,))
    got = cover_cost(w, DF.power(1.5), q)
    # argmin at the small component: f(1/16) * (1/2)/(1/8) = 4/64
    assert got.value == pytest.approx(1.0 / 16, rel=1e-12)
    assert got.argmin_index == 1


def test_cover_cost_domain_guard():
    w = WeightSystem((AF.power(0.1),))
    with pytest.raises(InapplicableError):
        cover_cost(w, DF.power(1.5), LatticePoint((1,)))  # psi(1)/1 = 1 > cap


def test_inflation_worked_instance():
    w = WeightSystem((AF.power(1.0), AF.power(3.0)))
    q = LatticePoint((2,))
    infl = inflate_weights(w, DF.power(1.5), q)
    assert infl.order == (1, 0)
    assert infl.k == 2
    assert infl.ball_radius == pytest.approx(0.25, rel=1e-15)
    assert infl.inflated == pytest.approx((0.5, 0.5), rel=1e-15)
    assert math.prod(infl.inflated) == pytest.approx(
        infl.cover.value * 2.0**2, rel=1e-15
    )


def test_inflation_equal_weights_inflate_all():
    psi = AF.power(1.2)
    w = WeightSystem((psi, psi, psi))
    q = LatticePoint((5,))
    infl = inflate_weights(w, DF.power(1.7), q)
    assert infl.k == 3
    assert infl.ball_radius == pytest.approx(infl.cover.value ** (1 / 3), rel=1e-12)


def test_inflation_random_invariants():
    rng = np.random.default_rng(2024)
    valid = 0
    for _ in range(300):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        w = WeightSystem(
            tuple(AF.power(float(rng.uniform(0.5, 2.5))) for _ in range(m))
        )
        coords = rng.integers(2, 21, size=n) * rng.choice([-1, 1], size=n)
        q = LatticePoint(tuple(int(c) for c in coords))
        f = DF.power(float(rng.uniform(0.3, m + 0.5)))
        try:
            infl = inflate_weights(w, f, q)
        except InapplicableError:
            continue
        valid += 1
        vals = w.evaluate(q)
        qn = float(q.sup_norm)
        sv = sorted(vals)
        t = infl.cover.value
        k = infl.k
        assert 1 <= k <= m
        assert math.prod(infl.inflated) == pytest.approx(t * qn**m, rel=1e-9)
        assert infl.ball_radius >= sv[k - 1] / qn * (1 - 1e-9)
        if k < m:
            assert infl.ball_radius < sv[k] / qn * (1 + 1e-9)
        for orig, new in zip(vals, infl.inflated):
            assert new >= orig * (1 - 1e-12)
    assert valid >= 150


def test_series_descriptor_validation():
    with pytest.raises(ValueError):
        SeriesDescriptor(kind="bogus", n=1, m=1, psi=AF.power(1.0))
    with pytest.raises(ValueError):
        SeriesDescriptor(kind="jarnik", n=1, m=1, psi=AF.power(1.0))  # f missing
    with pytest.raises(ValueError):
        SeriesDescriptor(kind="weighted", n=1, m=2, psi=AF.power(1.0))


def test_series_sum_kg_blocks_exact():
    est = series_sum(SeriesDescriptor.kg(1, 2, AF.power(1.0)), Kmax=8)
    for k, s in est.block_sums:
        brute = math.fsum(2.0 * Q**-2.0 for Q in range(2**k, 2 ** (k + 1)))
        assert s == pytest.approx(brute, rel=1e-12)
    assert est.classification == "ConvergesSymbolic"
    assert est.converges is True
    assert est.skipped == 0 and not est.overflow


def test_series_sum_mult_blocks_exact():
    psi = AF.power(2.0, coeff=0.5)
    est = series_sum(SeriesDescriptor.mult_lebesgue(1, 2, psi), Kmax=6)
    for k, s in est.block_sums:
        brute = math.fsum(
            2.0 * (0.5 * Q**-2.0) * max(math.log(1.0 / (0.5 * Q**-2.0)), 1.0)
            for Q in range(2**k, 2 ** (k + 1))
        )
        assert s == pytest.approx(brute, rel=1e-10)
    assert est.converges is True


def test_series_sum_jarnik_skips_out_of_domain():
    est = series_sum(
        SeriesDescriptor.jarnik(1, 1, AF.constant(0.9), DF.power(1.5)), Kmax=3
    )
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
        est = series_sum(SeriesDescriptor.weighted_hausdorff(1, w, f), Kmax=5)
    assert not est.overflow
    # block 1 keeps only Q = 3 (two lattice points); Q = 1 exceeds the cap
    assert est.block_sums[1][1] == pytest.approx(
        2 * cover_cost(w, f, LatticePoint((3,))).value * 3.0**3, rel=1e-12
    )
    assert [b for _, b in est.block_sums if _ != 1] == [0.0] * 4


def test_series_weighted_equals_kg_when_equal():
    psi = AF.power(1.3)
    a = series_sum(SeriesDescriptor.weighted(1, WeightSystem((psi, psi))), Kmax=8)
    b = series_sum(SeriesDescriptor.kg(1, 2, psi), Kmax=8)
    for (ka, sa), (kb, sb) in zip(a.block_sums, b.block_sums):
        assert ka == kb
        assert sa == pytest.approx(sb, rel=1e-12)


def test_series_custom_enumeration_matches_univariable_twin():
    fn = AF.custom(lambda c: float(max(abs(x) for x in c)) ** -2.0)
    twin = AF.power(2.0)
    a = series_sum(SeriesDescriptor.weighted(1, WeightSystem((fn,))), Kmax=10)
    b = series_sum(SeriesDescriptor.weighted(1, WeightSystem((twin,))), Kmax=10)
    for (_, sa), (_, sb) in zip(a.block_sums, b.block_sums):
        assert sa == pytest.approx(sb, rel=1e-9)
    assert a.classification == "ConvergesHeuristic"
    assert b.classification == "ConvergesSymbolic"
    assert a.converges is True and not a.symbolic


def test_series_heuristic_verdicts():
    div = series_sum(
        SeriesDescriptor.kg(1, 1, AF.custom(lambda c: abs(c[0]) ** -0.5)), Kmax=10
    )
    assert div.classification == "DivergesHeuristic"
    assert div.converges is False
    flat = series_sum(
        SeriesDescriptor.kg(1, 1, AF.custom(lambda c: 1.0 / abs(c[0]))), Kmax=10
    )
    assert flat.classification == "Unknown"
    assert flat.converges is None


def test_series_classification_log_borderline():
    # m = 2 multiplicative: the extra log makes 1/(q log^2 q) diverge and
    # only 1/(q log^3 q) converge
    div = series_sum(SeriesDescriptor.mult_lebesgue(1, 2, AF.power_log(1.0, -2.0)), Kmax=8)
    conv = series_sum(SeriesDescriptor.mult_lebesgue(1, 2, AF.power_log(1.0, -3.0)), Kmax=8)
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


def test_logterm_partial_sum_closed_forms():
    x = 2.0**-0.5
    assert logterm_partial_sum(2, 0.5) == pytest.approx(1 / (1 - x), rel=1e-12)
    assert logterm_partial_sum(2, 0.5) < 1 / (1 - x)
    assert logterm_partial_sum(3, 0.5) == pytest.approx(x / (1 - x) ** 2, rel=1e-12)
