"""Zero/Full verdicts and dimension formulas against classical worked values."""

import math

import numpy as np
import pytest

from limsup_lab.formulas import (
    FULL,
    INAPPLICABLE,
    ZERO,
    ProblemInstance,
    dim_rynne_dickinson,
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
    assert inst.weights.components == (psi, psi)


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
    wobble = AF.table([q**-0.5 * (2.0 if q % 2 else 1.0) for q in range(1, 1025)])
    got = lebesgue_verdict(
        ProblemInstance(n=1, m=1, mode="nonweighted", psi=wobble), Kmax=10
    )
    assert got.outcome == INAPPLICABLE
    assert got.would_be is None  # divergent + unverifiable monotonicity
    assert got.hypothesis_audit["monotone budget (nm = 1)"].startswith("failed")


def test_heuristic_classification_never_upgrades():
    decaying = AF.table([q**-2.0 for q in range(1, 1025)])
    got = lebesgue_verdict(
        ProblemInstance(n=1, m=1, mode="nonweighted", psi=decaying), Kmax=10
    )
    assert got.outcome == INAPPLICABLE
    assert got.would_be == ZERO
    assert "heuristic" in got.reason


def test_weighted_regularity_paths():
    # norm-dependent weights with n >= 2
    w = WeightSystem((AF.power(0.3), AF.power(0.4)))
    got = lebesgue_verdict(ProblemInstance(n=2, m=2, mode="weighted", weights=w))
    assert got.outcome == FULL
    assert "n >= 2" in got.hypothesis_audit["weight regularity"]
    # componentwise monotone with n = 1
    got1 = lebesgue_verdict(ProblemInstance(n=1, m=2, mode="weighted", weights=w))
    assert got1.outcome == FULL
    assert "componentwise monotone" in got1.hypothesis_audit["weight regularity"]


def test_weighted_near_monotone_path():
    bumpy = AF.table([q**-1.5 * (2.0 if q % 2 == 0 else 1.0) for q in range(1, 1025)])
    got = lebesgue_verdict(
        ProblemInstance(n=1, m=1, mode="weighted", weights=WeightSystem((bumpy,))),
        Kmax=10,
    )
    # the parity wobble defeats chainwise monotonicity but the shell sums
    # stay comparable; the tabulated budget still only classifies
    # heuristically, so no upgrade
    assert got.hypothesis_audit["weight regularity"] == "ok: near-monotone shell sums"
    assert got.outcome == INAPPLICABLE
    assert got.would_be == ZERO


def test_weighted_near_monotone_gate_reads_every_norm():
    # psi = (q^0.5, q^-0.2): shell sums 2 q^0.3 grow without bound, though
    # their least earlier/later ratio over norms 1-512 is 0.154
    growing = WeightSystem((AF.power(-0.5), AF.power(0.2)))
    got = lebesgue_verdict(ProblemInstance(n=1, m=2, mode="weighted", weights=growing))
    assert got.hypothesis_audit["weight regularity"] == "failed: shell sums are not near-monotone"
    assert got.outcome == INAPPLICABLE
    assert got.would_be == FULL
    # a table that is zero over norms 1-600: the gate reads it past its last entry
    late = WeightSystem((AF.table([0.0] * 600 + [0.3]), AF.power(1.0)))
    got = lebesgue_verdict(ProblemInstance(n=1, m=2, mode="weighted", weights=late), Kmax=12)
    assert got.hypothesis_audit["weight regularity"] == "ok: near-monotone shell sums"
    assert got.would_be == FULL


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


def _mult_verdict(n, m, f, tau=2.0):
    inst = ProblemInstance(n=n, m=m, mode="multiplicative", psi=AF.power(tau), f=f)
    return hausdorff_verdict(inst, Kmax=10)


def test_multiplicative_gate_reads_the_largest_exponent():
    """f precedes some r^t with t < nm exactly when f's largest exponent is below nm."""
    # just below nm: the power answers Zero.  The table's series reads r
    # near 0, where its slope is 1.5, and diverges only by a fitted growth;
    # the gate holds for both
    near = DF.table([(1e-4, 1e-4**1.5), (1e-2, 1e-2**1.5), (0.3, 1e-2**1.5 * 30**1.97)])
    assert max(near.exponents) == pytest.approx(1.97, abs=1e-12)
    for f, outcome in ((DF.power(1.97), ZERO), (near, INAPPLICABLE)):
        out = _mult_verdict(1, 2, f)
        assert out.outcome == outcome, f.describe()
        assert out.hypothesis_audit["order bracket"] == (
            "ok: f's largest exponent 1.97 is below nm = 2"
        )
    assert _mult_verdict(1, 2, near).would_be == FULL
    # at nm, with or without a log factor, and a table whose largest slope is 2
    tied = DF.table([(1e-4, 1e-6), (1e-2, 1e-3), (0.3, 1e-3 * 30**2)])
    assert max(tied.exponents) == pytest.approx(2.0, abs=1e-12)
    for f in (DF.power(2.0), DF.power_log(2.0, 1.0), DF.power_log(2.0, -1.0), tied):
        out = _mult_verdict(1, 2, f)
        assert out.outcome == INAPPLICABLE, f.describe()
        assert out.reason == "dimension function outside the mode's order bracket"
        assert out.hypothesis_audit["order bracket"] == (
            "failed: f's largest exponent 2 is not below nm = 2"
        )
    # n = 2, m = 1: f must also sit strictly above r^((n-1)m) = r^1
    # (r^1 log^-1(1/r) sits strictly above r^1, r^1 log(1/r) does not)
    for f in (DF.power(1.5), DF.power_log(1.0, -1.0)):
        out = _mult_verdict(2, 1, f, tau=3.0)
        assert out.hypothesis_audit["order bracket"].startswith("ok"), f.describe()
    for f in (DF.power(0.8), DF.power(1.0), DF.power_log(1.0, 1.0)):
        out = _mult_verdict(2, 1, f, tau=3.0)
        assert out.outcome == INAPPLICABLE, f.describe()
        assert out.hypothesis_audit["order bracket"] == (
            "failed: needs (n-1)m = 1 strictly below f"
        )


def test_tau_exponent():
    assert tau_exponent(AF.power(1.5)) == 1.5
    assert tau_exponent(AF.power_log(2.0, -3.0)) == 2.0
    assert tau_exponent(AF.constant(0.5)) == 0.0
    assert tau_exponent(AF.constant(0.0)) == math.inf
    assert tau_exponent(AF.table([0.5, 0.1])) == 0.0
    assert tau_exponent(AF.table([0.5, 0.0])) == math.inf  # vanishing tail


def test_dim_rynne_dickinson_values():
    assert dim_rynne_dickinson(1, 2, (1.0, 3.0)) == pytest.approx(1.25)
    assert dim_rynne_dickinson(1, 1, (2.0,)) == pytest.approx(2.0 / 3.0)
    # equal exponents tau = 3 with n = 2, m = 1: (n-1)m + (m+n)/(1+tau)
    assert dim_rynne_dickinson(2, 1, (3.0,)) == pytest.approx(1 + 3.0 / 4.0)
    assert dim_rynne_dickinson(1, 1, (0.5,)) == 1.0  # total decay below n: full measure
    with pytest.raises(ValueError):
        dim_rynne_dickinson(1, 2, (1.0,))  # wrong length
    with pytest.raises(ValueError):
        dim_rynne_dickinson(1, 2, (1.0, -0.5))


def _one_vector_spectrum_dim(m, vec):
    """The scalar (n = 1) spectrum formula over a one-vector spectrum, as it
    stood before it was folded into `dim_rynne_dickinson`: min(#finite, min
    over finite i of (m + 1 + sum_{tau_j < tau_i} (tau_i - tau_j)) / (1 + tau_i)),
    and 0 with no finite entry."""
    finite = [t for t in vec if math.isfinite(t)]
    if not finite:
        return 0.0
    inner = min((m + 1 + sum(ti - tj for tj in finite if tj < ti)) / (1.0 + ti) for ti in finite)
    return max(0.0, min(inner, float(len(finite))))


def test_dim_rynne_dickinson_is_the_one_vector_spectrum_formula_at_n_1():
    # every finite draw: above total decay 1 the closed form, at most 1 the
    # full-measure value m, both bit for bit what the spectrum formula gave
    rng = np.random.default_rng(20240)
    low = 0
    for _ in range(4000):
        m = int(rng.integers(1, 5))
        taus = [float(t) for t in rng.uniform(0.0, rng.choice([0.5, 4.0]), size=m)]
        low += sum(taus) <= 1
        assert dim_rynne_dickinson(1, m, taus) == _one_vector_spectrum_dim(m, taus), taus
    assert 1000 < low < 3000


def test_total_decay_at_most_n_reads_nm_and_the_formula_meets_it():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for _ in range(50):
                w = rng.dirichlet(np.ones(m))
                at_most = [float(t) for t in w * n * rng.uniform(0.0, 1.0)]
                assert dim_rynne_dickinson(n, m, at_most) == float(n * m)
                above = [float(t) for t in w * n * (1 + 1e-9)]
                assert dim_rynne_dickinson(n, m, above) == pytest.approx(n * m, abs=1e-8)
            assert dim_rynne_dickinson(n, m, [0.0] * m) == float(n * m)


def test_an_infinite_decay_exponent_is_an_eventually_empty_set():
    assert dim_rynne_dickinson(1, 2, (1.0, math.inf)) == 0.0
    assert dim_rynne_dickinson(2, 3, (math.inf, 0.0, 5.0)) == 0.0
    assert dim_rynne_dickinson(1, 1, (math.inf,)) == 0.0
    with pytest.raises(ValueError):
        dim_rynne_dickinson(1, 2, (math.inf, -1.0))
    with pytest.raises(ValueError):
        dim_rynne_dickinson(1, 2, (math.nan, 2.0))


def test_fourier_dim_closed_forms():
    nonw = fourier_dim(ProblemInstance(n=1, m=1, mode="nonweighted", psi=AF.power(2.0)))
    assert nonw.value == pytest.approx(2.0 / 3.0)
    assert nonw.applicable
    mult = fourier_dim(
        ProblemInstance(n=1, m=2, mode="multiplicative", psi=AF.power(2.0))
    )
    assert mult.value == pytest.approx(1.0)
    # twice the critical exponent, bit for bit the closed forms 2n/(1+tau)
    # and 2nm/(m+tau), where the set is null: the Lebesgue series converges
    # for m tau > n (nonweighted) and tau > n (multiplicative); elsewhere the
    # closed form does not apply.  A vanishing budget has decay tau = inf
    # and value 0
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for tau in (0.0, 0.3, 1.0 / 3.0, 2.0, 7.1, math.inf):
                psi = AF.constant(0.0) if math.isinf(tau) else AF.power(tau)
                nonw = fourier_dim(ProblemInstance(n=n, m=m, mode="nonweighted", psi=psi))
                mult = fourier_dim(ProblemInstance(n=n, m=m, mode="multiplicative", psi=psi))
                assert nonw.applicable is (m * tau > n)
                assert mult.applicable is (tau > n)
                if nonw.applicable:
                    assert nonw.value == 2.0 * n / (1.0 + tau)
                else:
                    assert math.isnan(nonw.value)
                if mult.applicable:
                    assert mult.value == 2.0 * n * m / (m + tau)
                else:
                    assert math.isnan(mult.value)


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
