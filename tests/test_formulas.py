"""Zero/Full verdicts and dimension formulas against classical worked values."""

import math

import pytest

from limsup_lab.formulas import (
    FULL,
    INAPPLICABLE,
    ZERO,
    ProblemInstance,
    TauSpectrum,
    dim_rynne_dickinson,
    dim_wang_wu,
    fdim_product,
    fourier_dim,
    hausdorff_verdict,
    lebesgue_verdict,
    tau_exponent,
)
from limsup_lab.funcspace import (
    ApproximatingFunction,
    DimensionFunction,
    WeightSystem,
)

AF = ApproximatingFunction
DF = DimensionFunction


def test_instance_validation():
    psi = AF.power(2.0)
    with pytest.raises(ValueError):
        ProblemInstance(n=1, m=1, mode="bogus", psi=psi)
    with pytest.raises(ValueError):
        ProblemInstance(n=0, m=1, mode="nonweighted", psi=psi)
    with pytest.raises(ValueError):
        ProblemInstance(n=1, m=2, mode="weighted")  # weights missing
    with pytest.raises(ValueError):
        ProblemInstance(n=1, m=3, mode="weighted", weights=WeightSystem((psi, psi)))
    with pytest.raises(ValueError):
        ProblemInstance(n=1, m=1, mode="nonweighted")  # psi missing
    with pytest.raises(ValueError):
        ProblemInstance(
            n=1, m=2, mode="multiplicative", weights=WeightSystem((psi, psi))
        )
    inst = ProblemInstance(n=1, m=2, mode="nonweighted", psi=psi)
    assert inst.ambient_dim == 2
    assert inst.as_weight_system().m == 2
    assert "nonweighted" in inst.describe()


def test_khintchine_borderline_verdicts():
    # scalar case: 1/(q log^2 q) converges, 1/(q log q) diverges
    conv = lebesgue_verdict(
        ProblemInstance(n=1, m=1, mode="nonweighted", psi=AF.power_log(1.0, -2.0))
    )
    assert conv.outcome == ZERO
    assert conv.series.symbolic
    div = lebesgue_verdict(
        ProblemInstance(n=1, m=1, mode="nonweighted", psi=AF.power_log(1.0, -1.0))
    )
    assert div.outcome == FULL
    assert div.hypothesis_audit["monotone budget (nm = 1)"] == "ok"


def test_multiplicative_borderline_verdicts():
    # the extra log(1/psi) factor shifts the borderline by one log power
    conv = lebesgue_verdict(
        ProblemInstance(n=1, m=2, mode="multiplicative", psi=AF.power_log(1.0, -3.0))
    )
    assert conv.outcome == ZERO
    div = lebesgue_verdict(
        ProblemInstance(n=1, m=2, mode="multiplicative", psi=AF.power_log(1.0, -2.0))
    )
    assert div.outcome == FULL
    assert div.series.symbolic


def test_nonmonotone_scalar_budget_stays_inapplicable():
    wobble = AF.custom(lambda c: abs(c[0]) ** -0.5 * (2.0 if c[0] % 2 else 1.0))
    got = lebesgue_verdict(
        ProblemInstance(n=1, m=1, mode="nonweighted", psi=wobble), Kmax=10
    )
    assert got.outcome == INAPPLICABLE
    assert got.would_be is None  # divergent + unverifiable monotonicity
    assert got.hypothesis_audit["monotone budget (nm = 1)"].startswith("failed")


def test_heuristic_classification_never_upgrades():
    decaying = AF.custom(lambda c: abs(c[0]) ** -2.0)
    got = lebesgue_verdict(
        ProblemInstance(n=1, m=1, mode="nonweighted", psi=decaying), Kmax=10
    )
    assert got.outcome == INAPPLICABLE
    assert got.would_be == ZERO
    assert "heuristic" in got.reason


def test_weighted_regularity_paths():
    # univariable with n >= 2
    w = WeightSystem((AF.power(0.3), AF.power(0.4)))
    got = lebesgue_verdict(ProblemInstance(n=2, m=2, mode="weighted", weights=w))
    assert got.outcome == FULL
    assert "n >= 2" in got.hypothesis_audit["weight regularity"]
    # componentwise monotone with n = 1
    got1 = lebesgue_verdict(ProblemInstance(n=1, m=2, mode="weighted", weights=w))
    assert got1.outcome == FULL
    assert "componentwise monotone" in got1.hypothesis_audit["weight regularity"]


def test_weighted_near_monotone_path():
    bumpy = AF.custom(
        lambda c: abs(c[0]) ** -1.5 * (2.0 if c[0] % 2 == 0 else 1.0)
    )
    got = lebesgue_verdict(
        ProblemInstance(n=1, m=1, mode="weighted", weights=WeightSystem((bumpy,))),
        Kmax=10,
    )
    # the parity wobble defeats chainwise monotonicity but the shell sums
    # stay comparable; the custom budget still only classifies heuristically,
    # so no upgrade
    assert got.hypothesis_audit["weight regularity"].startswith("ok: near-monotone")
    assert got.outcome == INAPPLICABLE
    assert got.would_be == ZERO


def test_jarnik_dichotomy_scalar():
    psi = AF.power(2.0)
    full = hausdorff_verdict(
        ProblemInstance(n=1, m=1, mode="nonweighted", psi=psi, f=DF.power(0.6))
    )
    zero = hausdorff_verdict(
        ProblemInstance(n=1, m=1, mode="nonweighted", psi=psi, f=DF.power(0.7))
    )
    assert full.outcome == FULL
    assert zero.outcome == ZERO
    # the flip sits at s = 2/3, matching the dimension formula
    assert dim_rynne_dickinson(1, 1, (2.0,)) == pytest.approx(2.0 / 3.0)


def test_weighted_hausdorff_flips_at_dimension():
    w = WeightSystem((AF.power(1.0), AF.power(3.0)))
    full = hausdorff_verdict(
        ProblemInstance(n=1, m=2, mode="weighted", weights=w, f=DF.power(1.1))
    )
    zero = hausdorff_verdict(
        ProblemInstance(n=1, m=2, mode="weighted", weights=w, f=DF.power(1.4))
    )
    assert full.outcome == FULL
    assert zero.outcome == ZERO
    assert dim_rynne_dickinson(1, 2, (1.0, 3.0)) == pytest.approx(1.25)


def test_hausdorff_bracket_failures():
    psi = AF.power(2.0)
    # nm = 1 yet f decays like r^1.5: outside the bracket
    out = hausdorff_verdict(
        ProblemInstance(n=1, m=1, mode="nonweighted", psi=psi, f=DF.power(1.5))
    )
    assert out.outcome == INAPPLICABLE
    assert out.would_be == ZERO  # the series itself converges symbolically
    assert out.hypothesis_audit["order bracket"].startswith("failed")
    # multiplicative: f must sit below nm-1+s for some s < 1
    mult = hausdorff_verdict(
        ProblemInstance(n=1, m=2, mode="multiplicative", psi=psi, f=DF.power(2.5))
    )
    assert mult.outcome == INAPPLICABLE
    mult_ok = hausdorff_verdict(
        ProblemInstance(n=1, m=2, mode="multiplicative", psi=psi, f=DF.power(1.5))
    )
    assert mult_ok.outcome == FULL
    with pytest.raises(ValueError):
        hausdorff_verdict(ProblemInstance(n=1, m=1, mode="nonweighted", psi=psi))


def test_tau_exponent():
    assert tau_exponent(AF.power(1.5)) == 1.5
    assert tau_exponent(AF.power_log(2.0, -3.0)) == 2.0
    assert tau_exponent(AF.constant(0.5)) == 0.0
    with pytest.raises(ValueError):
        tau_exponent(AF.custom(lambda c: 1.0))


def test_dim_rynne_dickinson_values():
    assert dim_rynne_dickinson(1, 2, (1.0, 3.0)) == pytest.approx(1.25)
    assert dim_rynne_dickinson(1, 1, (2.0,)) == pytest.approx(2.0 / 3.0)
    # equal exponents tau = 3 with n = 2, m = 1: (n-1)m + (m+n)/(1+tau)
    assert dim_rynne_dickinson(2, 1, (3.0,)) == pytest.approx(1 + 3.0 / 4.0)
    with pytest.raises(ValueError):
        dim_rynne_dickinson(1, 1, (0.5,))  # total decay below n
    with pytest.raises(ValueError):
        dim_rynne_dickinson(1, 2, (1.0,))  # wrong length
    with pytest.raises(ValueError):
        dim_rynne_dickinson(1, 2, (1.0, math.inf))


def test_dim_wang_wu_spectrum():
    singleton = dim_wang_wu(2, TauSpectrum(((1.0, 3.0),)))
    assert singleton.value == pytest.approx(dim_rynne_dickinson(1, 2, (1.0, 3.0)))
    assert not singleton.all_infinite
    # an infinite entry caps the contribution at the finite count
    capped = dim_wang_wu(2, TauSpectrum(((1.0, math.inf),)))
    assert capped.value == pytest.approx(1.0)
    sup = dim_wang_wu(2, TauSpectrum(((1.0, 3.0), (1.0, math.inf))))
    assert sup.value == pytest.approx(1.25)
    empty = dim_wang_wu(2, TauSpectrum(((math.inf, math.inf),)))
    assert empty.value == 0.0
    assert empty.all_infinite
    with pytest.raises(ValueError):
        dim_wang_wu(3, TauSpectrum(((1.0, 2.0),)))
    with pytest.raises(ValueError):
        TauSpectrum(((-1.0, 2.0),))
    with pytest.raises(ValueError):
        TauSpectrum(())


def test_fourier_dim_closed_forms():
    nonw = fourier_dim(ProblemInstance(n=1, m=1, mode="nonweighted", psi=AF.power(2.0)))
    assert nonw.value == pytest.approx(2.0 / 3.0)
    assert nonw.applicable
    mult = fourier_dim(
        ProblemInstance(n=1, m=2, mode="multiplicative", psi=AF.power(2.0))
    )
    assert mult.value == pytest.approx(1.0)


def test_fourier_dim_weighted_gates():
    w = WeightSystem((AF.power(1.0), AF.power(2.0)))
    ok = fourier_dim(ProblemInstance(n=1, m=2, mode="weighted", weights=w))
    assert ok.applicable
    assert ok.value == pytest.approx(2.0 / 3.0)
    # non-summable weight product: gate fails
    slow = WeightSystem((AF.power(0.2), AF.power(0.3)))
    bad = fourier_dim(ProblemInstance(n=1, m=2, mode="weighted", weights=slow))
    assert not bad.applicable
    assert math.isnan(bad.value)
    assert bad.audit["summable weight product"].startswith("failed")
    flat = WeightSystem((AF.constant(1.0), AF.constant(1.0)))
    gate2 = fourier_dim(ProblemInstance(n=1, m=2, mode="weighted", weights=flat))
    assert not gate2.applicable
    assert gate2.audit["critical exponent below 1"].startswith("failed")


def test_fourier_at_most_hausdorff():
    w = WeightSystem((AF.power(1.0), AF.power(3.0)))
    rep = fourier_dim(ProblemInstance(n=1, m=2, mode="weighted", weights=w))
    assert rep.value <= dim_rynne_dickinson(1, 2, (1.0, 3.0)) + 1e-12


def test_product_formulas():
    got = fdim_product((0.4, 0.7), null_measure=True)
    assert got.applicable and got.value == pytest.approx(0.4)
    # symmetric and idempotent
    assert fdim_product((0.7, 0.4), True).value == got.value
    assert fdim_product((0.4, 0.4), True).value == pytest.approx(0.4)
    # monotone: improving a factor cannot lower the product value
    assert fdim_product((0.5, 0.7), True).value >= got.value
    gated = fdim_product((0.4, 0.7), null_measure=False)
    assert not gated.applicable and math.isnan(gated.value)
    with pytest.raises(ValueError):
        fdim_product((), True)
    with pytest.raises(ValueError):
        fdim_product((-0.1,), True)
