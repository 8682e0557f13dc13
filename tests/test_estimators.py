"""Coverage sweeps, tail moments and cost exponents."""

import math

import pytest

from limsup_lab import _rng
from limsup_lab._rng import CHUNK
from limsup_lab.estimators import (
    StageUnion,
    coverage_fraction,
    hausdorff_cost_exponent,
    tail_first_moment,
)
from limsup_lab.formulas import ProblemInstance
from limsup_lab.funcspace import ApproximatingFunction, WeightSystem
from limsup_lab.intervals import resonant_interval_set
from limsup_lab.resonant import v_star

AF = ApproximatingFunction


def _inst(mode, n, m, psi=None, weights=None):
    return ProblemInstance(n=n, m=m, mode=mode, psi=psi, weights=weights)


def test_stage_union_validation_and_representation():
    inst = _inst("nonweighted", 1, 1, psi=AF.power(2.0))
    assert StageUnion(inst, 1, 8).representation == "intervals"
    inst2 = _inst("nonweighted", 1, 2, psi=AF.power(2.0))
    assert StageUnion(inst2, 1, 8).representation == "monte_carlo"
    with pytest.raises(ValueError):
        StageUnion(inst, 0, 8)


def test_coverage_exact_scalar_sweep():
    psi = AF.power(2.0, coeff=0.25)
    inst = _inst("nonweighted", 1, 1, psi=psi)
    got = coverage_fraction(StageUnion(inst, 1, 1))
    assert got.method == "interval_sweep"
    assert got.half_width is None
    assert got.value == pytest.approx(0.5, rel=1e-12)  # [0,1/4] u [3/4,1]
    # empty range
    assert coverage_fraction(StageUnion(inst, 5, 4)).value == 0.0


def test_coverage_monotone_in_range():
    inst = _inst("nonweighted", 1, 1, psi=AF.power(2.0, coeff=0.25))
    vals = [coverage_fraction(StageUnion(inst, 1, Qhi)).value for Qhi in (2, 8, 32)]
    assert vals[0] <= vals[1] <= vals[2]
    assert vals[2] <= 1.0


def test_coverage_below_tail_first_moment():
    inst = _inst("nonweighted", 1, 1, psi=AF.power(2.0, coeff=0.25))
    cov = coverage_fraction(StageUnion(inst, 2, 20)).value
    assert cov <= tail_first_moment(inst, 2, 20) + 1e-12


def test_coverage_monte_carlo_matches_product_oracle():
    psi = AF.power(2.0, coeff=0.3)
    inst = _inst("nonweighted", 1, 2, psi=psi)
    got = coverage_fraction(StageUnion(inst, 1, 2), samples=40_000, seed=3)
    assert got.method == "monte_carlo"
    # the union is (A1 x A1) u (A2 x A2) for the scalar interval sets A_Q
    a1 = resonant_interval_set(1, 0.3).measure()
    a2 = resonant_interval_set(2, 0.075).measure()
    c = resonant_interval_set(1, 0.3).intersect(resonant_interval_set(2, 0.075)).measure()
    exact = a1 * a1 + a2 * a2 - c * c
    assert abs(got.value - exact) <= 2 * got.half_width


@pytest.mark.parametrize(
    "mode, n, m, budget",
    [
        # thin rectangles: the walk keeps nearly every point
        ("nonweighted", 2, 1, AF.power(3.0, coeff=0.01)),
        # the first rows cover part of each block, so the walk drops points
        ("weighted", 1, 2, WeightSystem((AF.power(0.3, coeff=0.4), AF.power(1.0, coeff=0.2)))),
        # the first row covers every block
        ("nonweighted", 2, 2, AF.power(0.1, coeff=3.0)),
        ("multiplicative", 2, 2, AF.power(1.0, coeff=0.001)),
    ],
    ids=["thin", "partial", "covering", "star"],
)
def test_coverage_hits_do_not_depend_on_the_block_size(monkeypatch, mode, n, m, budget):
    # BLOCK splits each chunk into blocks of the one stream, and each block
    # walks the rows on its own; the hits are a sum over points
    key = "weights" if mode == "weighted" else "psi"
    stage = StageUnion(_inst(mode, n, m, **{key: budget}), 1, 4)
    got = coverage_fraction(stage, samples=CHUNK + 30_000, seed=11)
    monkeypatch.setattr(_rng, "BLOCK", 1 << 16)
    assert coverage_fraction(stage, samples=CHUNK + 30_000, seed=11) == got


def test_coverage_budget_guard():
    inst = _inst("multiplicative", 1, 2, psi=AF.power(2.0))
    with pytest.raises(ValueError):
        coverage_fraction(StageUnion(inst, 1, 1024), samples=3_000_000)


@pytest.mark.parametrize("samples, runs", [(490_196, True), (490_197, False)])
def test_coverage_budget_guard_counts_every_lattice_point(samples, runs):
    # n = 2, |q| <= 50: 101^2 - 1 = 10200 lattice points (q and -q each
    # count, though they give one set), so the 5e9 line falls between these
    # sample counts; radius 0.6 covers every point, so a run stops after its
    # first descriptor
    inst = _inst("weighted", 2, 1, weights=WeightSystem((AF.constant(0.6),)))
    stage = StageUnion(inst, 1, 50)
    if runs:
        assert coverage_fraction(stage, samples=samples).value == 1.0
    else:
        with pytest.raises(ValueError, match="Monte-Carlo budget exceeded"):
            coverage_fraction(stage, samples=samples)


def test_tail_first_moment_exact_finite():
    inst = _inst("nonweighted", 1, 1, psi=AF.power(2.0, coeff=0.25))
    got = tail_first_moment(inst, 2, 5)
    brute = sum(0.5 * Q**-2.0 for Q in range(2, 6))
    assert got == pytest.approx(brute, rel=1e-12)
    assert tail_first_moment(inst, 5, 4) == 0.0


def test_tail_first_moment_multiplicative():
    inst = _inst("multiplicative", 1, 2, psi=AF.power(3.0))
    got = tail_first_moment(inst, 2, 2)
    assert got == pytest.approx(v_star(2, 0.5), rel=1e-12)


def test_tail_first_moment_infinite_range():
    inst = _inst("nonweighted", 1, 1, psi=AF.power(2.0, coeff=0.25))
    inf_tail = tail_first_moment(inst, 2, math.inf)
    assert math.isfinite(inf_tail)
    assert inf_tail >= tail_first_moment(inst, 2, 10_000)
    # slow decay: the comparison integral diverges
    slow = _inst("nonweighted", 1, 1, psi=AF.power(0.5))
    assert tail_first_moment(slow, 2, math.inf) == math.inf
    with pytest.raises(ValueError):
        tail_first_moment(_inst("multiplicative", 1, 2, psi=AF.power(2.0)), 1, math.inf)
    with pytest.raises(ValueError):
        tail_first_moment(
            _inst("nonweighted", 1, 1, psi=AF.power_log(2.0, 1.0)), 1, math.inf
        )


def test_cost_exponent_recovers_weighted_dimension():
    w = WeightSystem((AF.power(1.0), AF.power(3.0)))
    inst = _inst("weighted", 1, 2, weights=w)
    got = hausdorff_cost_exponent(inst, Kmax=14)
    assert got.status == "ok"
    assert got.window == (1, 2)
    assert got.slope_lo > 0 >= got.slope_hi
    assert got.value == pytest.approx(1.25, abs=1e-3)


def test_cost_exponent_no_crossing_and_mult_guard():
    w = WeightSystem((AF.power(0.1), AF.power(0.1)))
    got = hausdorff_cost_exponent(_inst("weighted", 1, 2, weights=w), Kmax=10)
    assert got.status == "no_crossing"
    assert got.value is None and got.window is None
    with pytest.raises(ValueError):
        hausdorff_cost_exponent(_inst("multiplicative", 1, 2, psi=AF.power(2.0)))
