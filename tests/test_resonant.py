"""Resonant sets: exact measures vs brute force, Monte Carlo, and interval sweeps."""

import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limsup_lab import estimators, resonant
from limsup_lab._rng import (
    BLOCK,
    CHUNK,
    WORKERS_ENV,
    chunk_plan,
    chunk_rng,
    map_uniform_chunks,
    monte_carlo_fraction,
)
from limsup_lab.estimators import StageUnion
from limsup_lab.formulas import ProblemInstance
from limsup_lab.funcspace import ApproximatingFunction, WeightSystem, near_monotone_constant
from limsup_lab.intervals import resonant_interval_set, resonant_measure_rational
from limsup_lab.resonant import (
    LatticePoint,
    SandwichReport,
    coprime_dist,
    dyadic_decompose,
    dyadic_scale,
    enumerate_shell,
    measure_exact,
    measure_monte_carlo,
    membership,
    mult_star,
    pairwise_intersection_1d,
    quasi_independence_report,
    sandwich_check,
    set_measure_1d,
    shell_count,
    totient_sieve,
    v_star,
    weighted_rect,
)

AF = ApproximatingFunction

def test_lattice_point_norms():
    q = LatticePoint((3, -4, 0))
    assert q.sup_norm == 4
    assert q.gcd == 1
    assert LatticePoint((6, -9)).gcd == 3
    with pytest.raises(ValueError):
        LatticePoint((0, 0))


@pytest.mark.parametrize("field", ["sup_norm", "gcd"])
def test_lattice_point_derived_fields_are_not_constructor_arguments(field):
    # both are computed from the coordinates; passing one is an error, not
    # a value silently overwritten
    with pytest.raises(TypeError):
        LatticePoint((3,), **{field: 99})


def test_shell_count_matches_enumeration():
    for n in (1, 2, 3):
        for q in (1, 2, 3):
            rows = enumerate_shell(n, q)
            assert rows.dtype == np.int64 and rows.shape == (shell_count(n, q), n)
            assert (np.abs(rows).max(axis=1) == q).all()
    assert shell_count(2, 3) == 7 * 7 - 5 * 5
    with pytest.raises(ValueError):
        enumerate_shell(8, 100)  # budget guard


def test_shell_count_of_an_array_is_float_and_does_not_wrap():
    # (2q + 1)^n in int64 wraps at n = 4 and q near 2^15; float64 does not
    norms = np.array([1, 3, 40_000])
    got = shell_count(4, norms)
    assert got.dtype == np.float64
    exact = [shell_count(4, int(q)) for q in norms.tolist()]
    assert got.tolist() == pytest.approx(exact, rel=1e-12)
    assert (2 * 40_000 + 1) ** 4 > 2**63  # each power alone wraps in int64


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_shell_is_the_filtered_cube_in_order(n):
    for q in range(1, 7 if n < 4 else 4):
        cube = itertools.product(range(-q, q + 1), repeat=n)
        expected = [c for c in cube if max(abs(x) for x in c) == q]
        rows = enumerate_shell(n, q)
        assert rows.dtype == np.int64 and rows.shape == (len(expected), n)
        assert [tuple(r) for r in rows.tolist()] == expected
        # the upper half is one q of each +-q pair: first nonzero coordinate > 0
        upper = [c for c in expected if next(x for x in c if x) > 0]
        assert [tuple(r) for r in rows[len(rows) // 2:].tolist()] == upper


def test_shell_weight_sum_vs_enumeration():
    # near_monotone_constant reads each shell's sum of prod_j psi_j as the
    # shell count times the product at the norm; a rising table makes the
    # constant the least earlier sum over a later one
    w = WeightSystem((ApproximatingFunction.power(1.0), ApproximatingFunction.table((1, 4, 3, 9, 2))))
    for n in (1, 2):
        sums = [
            sum(
                math.prod(w.values_at_norm(LatticePoint(tuple(v)).sup_norm))
                for v in enumerate_shell(n, q).tolist()
            )
            for q in range(1, 6)
        ]
        slow = min(min(sums[:j]) / sums[j] for j in range(1, 5))
        assert near_monotone_constant(w, 5, n) == pytest.approx(slow, rel=1e-12)


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


def test_measure_exact_mult_star_vs_mc():
    q = LatticePoint((3,))
    desc = mult_star(q, 2, 1.0 / 64)
    exact = measure_exact(desc)
    assert exact == pytest.approx(v_star(2, 4 / 64), rel=1e-12)
    mc = measure_monte_carlo(desc, n_samples=200_000, seed=7)
    se = math.sqrt(exact * (1 - exact) / 200_000)
    assert abs(exact - mc) < 4 * se
    # prod_j ||y_j|| <= 2^-m everywhere, so a star with delta > 2^-m is the
    # whole cube, and one with delta 0 holds no point
    assert measure_exact(mult_star(q, 2, 0.3)) == 1.0
    assert measure_exact(mult_star(q, 2, 0.0)) == 0.0


def test_set_measures_are_measure_exact_at_every_radius():
    rng = np.random.default_rng(3)
    for m in (1, 2, 3, 5):
        deltas = rng.uniform(0.0, 0.7, size=(m, 40))
        deltas[:, :3] = 0.0
        got = resonant.set_measures("weighted", m, deltas)
        for i in range(40):
            assert got[i] == measure_exact(weighted_rect(LatticePoint((i + 1,)), deltas[:, i]))
        budgets = np.concatenate(([0.0, 2.0**-m, 0.4], rng.uniform(0.0, 2.0**-m, 40)))
        got = resonant.set_measures("mult", m, budgets)
        for i, delta in enumerate(budgets.tolist()):
            assert got[i] == measure_exact(mult_star(LatticePoint((2,)), m, delta))
            if 0 < delta <= 2.0**-m:
                assert got[i] == pytest.approx(v_star(m, 2.0**m * delta), rel=1e-15)


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
    # at delta 0.2 the sets of q = 2 and 3 (measure 2/5 each) meet only at
    # the ends, in 2/15, so their ratio 5/6 floors at 1
    d1 = weighted_rect(LatticePoint((2,)), (0.2,))
    d2 = weighted_rect(LatticePoint((3,)), (0.2,))
    assert pairwise_intersection_1d(d1, d2) == pytest.approx(2 / 15, rel=1e-12)
    rep = quasi_independence_report([d1, d2])
    assert rep.C == 1.0
    assert rep.pairs == 1
    assert rep.worst_pair is None


def test_quasi_independence_prime_family():
    primes = [q for q in range(2, 60) if all(q % p for p in range(2, q))]
    descs = [
        weighted_rect(LatticePoint((q,)), (1.0 / q**2,)) for q in primes
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


def _negated(q: LatticePoint) -> LatticePoint:
    return LatticePoint(tuple(-c for c in q.coords))


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
        lambda p: mult_star(p, m, delta),
    ):
        assert np.array_equal(membership(build(q), pts), membership(build(_negated(q)), pts))


# deltas no larger than 2^-m, as the dyadic decomposition needs
def star_delta(m: int):
    return st.floats(2.0**-8, 1.0).map(lambda u: u * 2.0**-m)


@SETTINGS
@given(
    q=lattice_points,
    m=st.integers(1, 3),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sandwich_report_is_unchanged_when_q_is_negated(q, m, data, seed):
    delta = data.draw(star_delta(m))
    negated = sandwich_check(_negated(q), m, delta, 3000, seed)
    assert sandwich_check(q, m, delta, 3000, seed) == negated


# ---------------------------------------------------------------------------
# the dyadic sandwich against a per-point referee
# ---------------------------------------------------------------------------


def _coprime_distance_scan(y: float, d: int) -> float:
    """Distance from y to the nearest integer k with gcd(k, d) = 1.

    Scans outward from y: step t looks at floor(y) - t and floor(y) + 1 + t,
    which lie t to t + 1 away, so the first step with a coprime integer
    holds the nearest one.
    """
    k0 = math.floor(y)
    for t in range(2 * d + 1):
        found = [abs(y - k) for k in (k0 - t, k0 + 1 + t) if math.gcd(k, d) == 1]
        if found:
            return min(found)
    raise AssertionError(f"no integer coprime with {d} near {y}")


def _sandwich_per_point(q: LatticePoint, m: int, delta: float, n_points: int, seed: int):
    """The sandwich counts point by point, over the points `sandwich_check` draws."""
    n = q.n
    i0 = max(range(n), key=lambda i: abs(q.coords[i]))
    witness = [0.0] * n
    witness[i0] = 1.0 / abs(q.coords[i0])
    points = [witness * m]
    for c, size in chunk_plan(n_points):
        points += chunk_rng(seed, c).random((size, n * m)).tolist()
    indices = dyadic_decompose(m, delta).indices
    inner = union = outer = inner_bad = outer_bad = 0
    for x in points:
        dots = [sum(a * b for a, b in zip(q.coords, x[j * n:(j + 1) * n])) for j in range(m)]
        dist = [_coprime_distance_scan(y, q.gcd) for y in dots]
        star = math.prod(dist)
        in_inner = star < delta
        in_outer = star < 2.0 ** (m + 1) * delta
        in_union = False
        for k in indices:
            if all(dj < 2.0**-kj for dj, kj in zip(dist, k)):
                in_union = True
                break
        inner += in_inner
        union += in_union
        outer += in_outer
        inner_bad += in_inner and not in_union
        outer_bad += in_union and not in_outer
    return SandwichReport(len(points), inner, union, outer, inner_bad, outer_bad)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    q=lattice_points,
    m=st.integers(1, 3),
    data=st.data(),
    n_points=st.integers(0, 1500),
    seed=st.integers(0, 2**32 - 1),
)
def test_sandwich_check_matches_per_point_referee(q, m, data, n_points, seed):
    delta = data.draw(star_delta(m))
    assert sandwich_check(q, m, delta, n_points, seed) == _sandwich_per_point(
        q, m, delta, n_points, seed
    )


def test_sandwich_check_over_two_chunks_matches_referee_at_any_worker_count(monkeypatch):
    # q = 6 has coprime gaps of 4, so the inner inclusion fails at some points
    q, m, delta, n_points = LatticePoint((6,)), 2, 2.0**-5, CHUNK + 500
    expected = _sandwich_per_point(q, m, delta, n_points, seed=3)
    assert expected.inner_violations > 0
    for workers in ("1", "2"):
        monkeypatch.setenv(WORKERS_ENV, workers)
        assert sandwich_check(q, m, delta, n_points, seed=3) == expected


@pytest.mark.parametrize("n_samples", [CHUNK + 700, 3 * BLOCK])
def test_each_chunk_reaches_its_consumer_as_blocks_of_its_one_draw(monkeypatch, n_samples):
    # at one worker the chunks run in order, so the blocks arrive in stream
    # order; each chunk's blocks, joined, are the chunk drawn in one call
    monkeypatch.setenv(WORKERS_ENV, "1")
    seed, dim = 7, 3
    blocks = []

    def record(pts):
        blocks.append(pts.copy())
        return len(pts)

    plan = chunk_plan(n_samples)
    assert map_uniform_chunks(record, dim, n_samples, seed) == [size for _, size in plan]
    assert max(len(b) for b in blocks) <= BLOCK
    drawn = np.concatenate(blocks)
    start = 0
    for c, size in plan:
        assert np.array_equal(drawn[start:start + size], chunk_rng(seed, c).random((size, dim)))
        start += size
    assert start == len(drawn)


@SETTINGS
@given(
    p=st.sampled_from((2, 3, 5, 7)),
    e=st.integers(1, 3),
    sign=st.sampled_from((1, -1)),
    m=st.integers(1, 3),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sandwich_holds_at_prime_power_q(p, e, sign, m, data, seed):
    # integers coprime with a prime power are at most 2 apart, so every
    # coprime distance is at most 1 and the star lies in the dyadic union
    delta = data.draw(star_delta(m))
    rep = sandwich_check(LatticePoint((sign * p**e,)), m, delta, n_points=20_000, seed=seed)
    assert rep.ok, rep


# ---------------------------------------------------------------------------
# the Monte-Carlo membership kernel against per-point referees
# ---------------------------------------------------------------------------

# n = 1-3 with negative and zero coordinates
kernel_points = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.integers(-12, 12), min_size=n, max_size=n)
).filter(any).map(lambda cs: LatticePoint(tuple(cs)))


def _dots_per_point(q: LatticePoint, m: int, x: list[float]) -> list[float]:
    """q.x_j from Python floats: one rounding per product and per addition."""
    n = q.n
    return [
        sum(xi * float(c) for xi, c in zip(x[j * n:(j + 1) * n], q.coords))
        for j in range(m)
    ]


@SETTINGS
@given(q=kernel_points, m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_block_dots_are_the_ieee_per_coordinate_sums(q, m, seed):
    # a fused multiply-add (one rounding for x0 q0 + x1 q1) would differ
    # from this referee at n >= 2
    pts = np.random.default_rng(seed).uniform(-3.0, 3.0, (500, q.n * m))
    expected = np.array([_dots_per_point(q, m, x) for x in pts.tolist()])
    assert np.array_equal(resonant._block_dots([q.coords], m, pts), expected)


@pytest.mark.parametrize("m", [1, 2])
def test_block_dots_of_a_block_are_its_single_row_dots_stacked(m):
    # zero columns differ from row to row; a block skips only a column that
    # is zero in every row (the last one in rows[[1, 4]])
    rows = np.array([[3, 0, -7], [0, 5, 0], [-2, -11, 0], [0, 0, 4], [1, 1, 0]])
    pts = np.random.default_rng(7).uniform(-3.0, 3.0, (400, 3 * m))
    for block in (rows, rows[[1, 4]]):
        got = resonant._block_dots(block, m, pts)
        want = np.concatenate([resonant._block_dots(row[None, :], m, pts) for row in block])
        assert got.shape == (len(block) * len(pts), m)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _membership_per_point(desc, x: list[float]) -> bool:
    dist = [abs(y - round(y)) for y in _dots_per_point(desc.q, desc.m, x)]
    if desc.variant == "weighted":
        return all(d < dd for d, dd in zip(dist, desc.deltas))
    return math.prod(dist) < desc.delta


@SETTINGS
@given(
    q=kernel_points,
    m=st.integers(1, 4),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_membership_matches_a_per_point_loop(q, m, data, seed):
    deltas = data.draw(st.lists(radii, min_size=m, max_size=m))
    delta = data.draw(radii) ** m
    pts = np.random.default_rng(seed).random((1500, q.n * m))
    for desc in (weighted_rect(q, deltas), mult_star(q, m, delta)):
        expected = [_membership_per_point(desc, x) for x in pts.tolist()]
        assert membership(desc, pts).tolist() == expected


def _quasi_per_pair(descs, mc_samples, seed):
    """The Monte-Carlo quasi report from one `monte_carlo_fraction` run per pair.

    The denominators are the sets' closed-form measures, divided by one and
    then the other, as in the report.
    """
    measures = [measure_exact(d) for d in descs]
    C, worst, pairs, skipped = 1.0, None, 0, 0
    for i in range(len(descs)):
        for j in range(i + 1, len(descs)):
            if measures[i] == 0 or measures[j] == 0:
                skipped += 1
                continue
            inter, _ = monte_carlo_fraction(
                lambda pts: membership(descs[i], pts) & membership(descs[j], pts),
                dim=descs[i].ambient_dim,
                n_samples=mc_samples,
                seed=seed,
            )
            pairs += 1
            ratio = inter / measures[i] / measures[j]
            if ratio > C:
                C, worst = ratio, (i, j)
    return C, 1.0 / C, pairs, skipped, worst


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 3),
    m=st.integers(1, 2),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_quasi_monte_carlo_report_matches_per_pair_referee(n, m, data, seed):
    points = st.lists(st.integers(-6, 6), min_size=n, max_size=n).filter(any)
    family = data.draw(st.lists(points, min_size=2, max_size=5))
    descs = []
    for coords in family:
        # a zero radius now and then makes a null set, whose pairs are skipped
        deltas = data.draw(
            st.lists(st.one_of(st.just(0.0), st.floats(0.02, 0.45)), min_size=m, max_size=m)
        )
        descs.append(weighted_rect(LatticePoint(tuple(coords)), deltas))
    if data.draw(st.booleans()):
        descs.append(mult_star(LatticePoint(tuple(family[0])), m, 2.0**-m / 3))
    rep = quasi_independence_report(descs, mc_samples=3000, seed=seed)
    assert rep.method == "monte-carlo"
    assert (rep.C, rep.lamperti_lower, rep.pairs, rep.skipped_null, rep.worst_pair) == (
        _quasi_per_pair(descs, 3000, seed)
    )


def _coverage_over_every_lattice_point(inst, Qlo, Qhi, samples, seed) -> int:
    """Hits of the union over every q of the range, -q included, on the stream.

    One descriptor per lattice point, its deltas evaluated at that point.
    """
    descs = []
    for Q in range(Qlo, Qhi + 1):
        for row in enumerate_shell(inst.n, Q).tolist():
            q = LatticePoint(tuple(row))
            if inst.mode == "multiplicative":
                descs.append(mult_star(q, inst.m, inst.psi.value_at_norm(q.sup_norm)))
            else:
                descs.append(weighted_rect(q, inst.weights.values_at_norm(q.sup_norm)))
    hits = 0
    for c, size in chunk_plan(samples):
        pts = chunk_rng(seed, c).random((size, inst.ambient_dim))
        inside = np.zeros(size, dtype=bool)
        for desc in descs:
            inside |= membership(desc, pts)
        hits += int(np.count_nonzero(inside))
    return hits


@pytest.mark.parametrize(
    "mode, n, m, Qhi",
    [("nonweighted", 2, 1, 3), ("multiplicative", 2, 2, 2), ("weighted", 3, 1, 1)],
)
def test_coverage_over_one_q_per_sign_pair_matches_every_lattice_point(
    monkeypatch, mode, n, m, Qhi
):
    # q and -q give one set, so the union over one of each is the union
    # over all; two chunks, so the thread pool runs at two workers
    psi = AF.power(2.0, coeff=0.05)
    if mode == "weighted":
        inst = ProblemInstance(n=n, m=m, mode=mode, weights=WeightSystem((psi,)))
    else:
        inst = ProblemInstance(n=n, m=m, mode=mode, psi=psi)
    samples, seed = CHUNK + 700, 5
    hits = _coverage_over_every_lattice_point(inst, 1, Qhi, samples, seed)
    assert 0 < hits < samples
    for workers in ("1", "2"):
        monkeypatch.setenv(WORKERS_ENV, workers)
        got = estimators.coverage_fraction(StageUnion(inst, 1, Qhi), samples, seed)
        assert got.value == hits / samples


def _at_eight_threads_three_times(fn, *args):
    """`fn(*args)` three times at eight workers, threads switching every 10 us."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(WORKERS_ENV, "8")
            return [fn(*args) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)


def _at_one_worker(fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(WORKERS_ENV, "1")
        return fn(*args)


def test_monte_carlo_blocks_hold_with_more_threads_than_cores():
    # each thread draws and tests its own blocks; with eight threads and a
    # short switch interval, a block or a count shared between threads
    # would be overwritten mid-chunk and move the totals
    thin = ProblemInstance(n=2, m=1, mode="nonweighted", psi=AF.power(3.0, coeff=0.05))
    stage, samples = StageUnion(thin, 1, 6), 3 * CHUNK + 700
    ref = _at_one_worker(estimators.coverage_fraction, stage, samples, 4)
    # a thin union covers no block whole, so no block stops the walk early
    assert 0 < ref.value < 0.5
    assert _at_eight_threads_three_times(
        estimators.coverage_fraction, stage, samples, 4
    ) == [ref] * 3

    args = (LatticePoint((6,)), 2, 2.0**-5, CHUNK + 500, 3)
    ref = _at_one_worker(sandwich_check, *args)
    assert ref.inner_violations > 0
    assert _at_eight_threads_three_times(sandwich_check, *args) == [ref] * 3

    descs = [
        weighted_rect(LatticePoint((1, 2)), [0.3]),
        weighted_rect(LatticePoint((2, -1)), [0.25]),
        mult_star(LatticePoint((1, 1)), 1, 0.2),
    ]
    pairs = [(0, 1), (0, 2), (1, 2)]
    args = (descs, pairs, 3 * CHUNK + 700, 9)
    ref = _at_one_worker(resonant._mc_pair_fractions, *args)
    assert all(0 < f < 1 for f in ref)
    assert _at_eight_threads_three_times(resonant._mc_pair_fractions, *args) == [ref] * 3
