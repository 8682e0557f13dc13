"""Resonant sets: exact measures vs brute force, Monte Carlo, and interval sweeps."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limsup_lab.funcspace import ApproximatingFunction, WeightSystem
from limsup_lab.intervals import resonant_interval_set, resonant_measure_rational
from limsup_lab.resonant import (
    LatticePoint,
    coprime_dist,
    dyadic_decompose,
    dyadic_scale,
    enumerate_shell,
    measure_exact,
    measure_monte_carlo,
    membership,
    mult_star,
    mult_star_coprime,
    pairwise_intersection_1d,
    quasi_independence_report,
    sandwich_check,
    set_measure_1d,
    shell_count,
    shell_weight_sum,
    totient_sieve,
    v_star,
    weighted_rect,
    weighted_rect_coprime,
)


def test_lattice_point_norms():
    q = LatticePoint((3, -4, 0))
    assert q.sup_norm == 4
    assert q.gcd == 1
    assert (-q).coords == (-3, 4, 0)
    assert LatticePoint((6, -9)).gcd == 3
    with pytest.raises(ValueError):
        LatticePoint((0, 0))


def test_shell_count_matches_enumeration():
    for n in (1, 2, 3):
        for q in (1, 2, 3):
            pts = enumerate_shell(n, q)
            assert len(pts) == shell_count(n, q)
            assert all(p.sup_norm == q for p in pts)
    assert shell_count(2, 3) == 7 * 7 - 5 * 5
    with pytest.raises(ValueError):
        enumerate_shell(8, 100)  # budget guard


def test_shell_weight_sum_vs_enumeration():
    w = WeightSystem(
        (ApproximatingFunction.power(1.0), ApproximatingFunction.power(2.0))
    )
    for n, q in [(1, 3), (2, 2), (2, 5)]:
        fast = shell_weight_sum(w, n, q)
        slow = sum(math.prod(w.evaluate(v)) for v in enumerate_shell(n, q))
        assert fast == pytest.approx(slow, rel=1e-12)


def test_totient_sieve_brute_force():
    phi = totient_sieve(120)
    for q in range(1, 121):
        brute = sum(1 for r in range(1, q + 1) if math.gcd(r, q) == 1)
        assert phi[q] == brute


def test_v_star_closed_forms():
    assert v_star(1, 0.3) == 0.3
    t = 0.25
    assert v_star(2, t) == pytest.approx(t * (1 + math.log(1 / t)), rel=1e-12)
    L = math.log(1 / t)
    assert v_star(3, t) == pytest.approx(t * (1 + L + L * L / 2), rel=1e-12)
    assert v_star(2, 1.0) == 1.0
    with pytest.raises(ValueError):
        v_star(2, 0.0)


def test_v_star_matches_monte_carlo():
    # direct oracle: product of m uniforms below t
    rng = np.random.default_rng(123)
    for m, t in [(2, 0.125), (3, 0.25)]:
        u = rng.random((200_000, m))
        frac = float(np.mean(np.prod(u, axis=1) < t))
        se = math.sqrt(frac * (1 - frac) / 200_000)
        assert abs(v_star(m, t) - frac) < 4 * se


def test_measure_exact_weighted():
    q = LatticePoint((2,))
    assert measure_exact(weighted_rect(q, (0.1, 0.3))) == pytest.approx(0.12, rel=1e-12)
    # radii at or above 1/2 saturate to the whole torus factor
    assert measure_exact(weighted_rect(q, (0.7, 0.25))) == pytest.approx(0.5, rel=1e-12)


def test_measure_exact_coprime_factor():
    # gcd 4: centres p/4 with gcd(p, 4) = 1 are 1/4 and 3/4
    q = LatticePoint((4,))
    got = measure_exact(weighted_rect_coprime(q, (0.1,)))
    assert got == pytest.approx(2 * 0.1 * 2 / 4, rel=1e-12)
    sweep = resonant_interval_set(4, 0.1, coprime=True).measure()
    assert got == pytest.approx(sweep, rel=1e-12)
    with pytest.raises(ValueError):
        measure_exact(weighted_rect_coprime(q, (0.6,)))


def test_measure_exact_mult_star_vs_mc():
    q = LatticePoint((3,))
    desc = mult_star(q, 2, 1.0 / 64)
    exact = measure_exact(desc)
    assert exact == pytest.approx(v_star(2, 4 / 64), rel=1e-12)
    mc = measure_monte_carlo(desc, n_samples=200_000, seed=7)
    se = math.sqrt(exact * (1 - exact) / 200_000)
    assert abs(exact - mc) < 4 * se
    with pytest.raises(ValueError):
        measure_exact(mult_star(q, 2, 0.3))  # delta > 2^-m


def test_coprime_star_single_block():
    q = LatticePoint((6,))
    got = measure_exact(mult_star_coprime(q, 1, 0.01))
    assert got == pytest.approx(2 * 0.01 * 2 / 6, rel=1e-12)  # phi(6) = 2


def test_membership_weighted_scalar():
    desc = weighted_rect(LatticePoint((1,)), (0.1,))
    pts = np.array([[0.05], [0.5], [0.95], [0.1]])
    got = membership(desc, pts)
    assert got.tolist() == [True, False, True, False]


def test_membership_mult_product_rule():
    desc = mult_star(LatticePoint((1,)), 2, 0.01)
    pts = np.array([[0.5, 0.015], [0.5, 0.025], [0.003, 0.5]])
    got = membership(desc, pts)
    # products of distances: 0.0075, 0.0125, 0.0015
    assert got.tolist() == [True, False, True]


def test_coprime_dist_brute_force():
    rng = np.random.default_rng(9)
    for d in (1, 2, 6, 12):
        v = rng.uniform(-2 * d, 3 * d, size=40)
        got = coprime_dist(v, d)
        coe = [k for k in range(-3 * d, 4 * d + 1) if math.gcd(k % d if d > 1 else k, d) == 1]
        for x, g in zip(v, got):
            brute = min(abs(x - k) for k in coe)
            assert g == pytest.approx(brute, abs=1e-12)


def test_dyadic_scale_and_decompose():
    assert dyadic_scale(0.25) == 2
    assert dyadic_scale(0.2) == 2
    assert dyadic_scale(2.0**-5) == 5
    assert dyadic_scale(2.0**-5 - 1e-12) == 5
    with pytest.raises(ValueError):
        dyadic_scale(0.7)
    dec = dyadic_decompose(3, 2.0**-8)
    assert dec.N == 8
    assert dec.cardinality == math.comb(7, 2)
    assert all(sum(ix) == 5 for ix in dec.indices)
    assert len(set(dec.indices)) == dec.cardinality
    with pytest.raises(ValueError):
        dyadic_decompose(3, 0.2)  # needs delta <= 2^-m


def test_sandwich_check_holds():
    rep = sandwich_check(LatticePoint((3,)), 2, 2.0**-6, n_points=20_000, seed=1)
    assert rep.ok
    assert rep.points == 20_001  # the deterministic witness rides along
    assert rep.inner_hits <= rep.union_hits <= rep.outer_hits


def test_quasi_independence_duplicated_set():
    desc = weighted_rect(LatticePoint((3,)), (0.05,))
    mu = set_measure_1d(desc)
    rep = quasi_independence_report([desc, desc])
    assert rep.method == "exact-sweep"
    assert rep.C == pytest.approx(1.0 / mu, rel=1e-9)
    assert rep.lamperti_lower == pytest.approx(mu, rel=1e-9)


def test_quasi_independence_disjoint_floors_at_one():
    # coprime neighbourhoods of 1/2 vs {1/3, 2/3} are disjoint at delta 0.01
    d1 = weighted_rect_coprime(LatticePoint((2,)), (0.01,))
    d2 = weighted_rect_coprime(LatticePoint((3,)), (0.01,))
    rep = quasi_independence_report([d1, d2])
    assert rep.C == 1.0
    assert rep.pairs == 1
    assert rep.worst_pair is None


def test_quasi_independence_prime_family():
    primes = [q for q in range(2, 60) if all(q % p for p in range(2, q))]
    descs = [
        weighted_rect_coprime(LatticePoint((q,)), (1.0 / q**2,)) for q in primes
    ]
    rep = quasi_independence_report(descs)
    assert rep.method == "exact-sweep"
    assert 1.0 <= rep.C < 50.0
    assert rep.lamperti_lower == pytest.approx(1.0 / rep.C, rel=1e-12)
    assert rep.skipped_null == 0


def test_pairwise_intersection_vs_direct_sweep():
    d1 = weighted_rect(LatticePoint((2,)), (0.1,))
    d2 = weighted_rect(LatticePoint((3,)), (0.1,))
    got = pairwise_intersection_1d(d1, d2)
    s1 = resonant_interval_set(2, 0.1)
    s2 = resonant_interval_set(3, 0.1)
    assert got == pytest.approx(s1.intersect(s2).measure(), rel=1e-12)


def test_rational_oracle_agrees_with_float_sweep():
    rng = np.random.default_rng(77)
    for _ in range(25):
        q = int(rng.integers(2, 60))
        delta = Fraction(1, q * q)
        exact = resonant_measure_rational(q, delta)
        # p = 0 and p = q are clipped halves; everything else is interior
        assert exact == Fraction(2, q * q)
        sweep = resonant_interval_set(q, float(delta)).measure()
        assert abs(sweep - float(exact)) <= 1e-9 * float(exact)


def test_rational_oracle_coprime_closed_form():
    phi = totient_sieve(60)
    for q in range(2, 61):
        delta = Fraction(1, q * q)
        exact = resonant_measure_rational(q, delta, coprime=True)
        assert exact == 2 * delta * Fraction(int(phi[q]), q)


# ---------------------------------------------------------------------------
# membership is a property of the set, not of the sign of q
# ---------------------------------------------------------------------------

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

lattice_points = st.integers(1, 2).flatmap(
    lambda n: st.lists(st.integers(-12, 12), min_size=n, max_size=n)
).filter(any).map(lambda cs: LatticePoint(tuple(cs)))
radii = st.floats(1e-3, 0.6)


@SETTINGS
@given(
    q=lattice_points,
    m=st.integers(1, 3),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_membership_is_unchanged_when_q_is_negated(q, m, data, seed):
    deltas = data.draw(st.lists(radii, min_size=m, max_size=m))
    delta = data.draw(radii) ** m
    pts = np.random.default_rng(seed).random((4000, q.n * m))
    for build in (
        lambda p: weighted_rect(p, deltas),
        lambda p: weighted_rect_coprime(p, deltas),
        lambda p: mult_star(p, m, delta),
        lambda p: mult_star_coprime(p, m, delta),
    ):
        assert np.array_equal(membership(build(q), pts), membership(build(-q), pts))
