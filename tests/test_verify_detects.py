"""Planted defects: a verify criterion fails when the code it checks is wrong.

Each test plants one realistic defect into the code under test, never into
the oracle that referees it, and asserts that the criterion reports
passed = False; for criterion 11, which is slow, the sandwich part calls
the code under test at the criterion's arguments instead.  A defect is one edited line: the function's source is
edited and executed in its own module's namespace, and the copy replaces
the binding the criterion reads.  `_mutant` fails loudly if the line it
edits is gone, so a refactor cannot turn a test into a silent no-op.

Criteria 2 and 7 map their work through `_rng.parallel_map`, so their
tests run at one worker: the map then stays in this process and sees the
planted copy.  Threads, as in criterion 11's sweep, share it anyway.
"""

import inspect
import textwrap

import pytest

from limsup_lab import (
    _rng,
    content,
    criteria,
    estimators,
    formulas,
    funcspace,
    intervals,
    resonant,
    verify,
)
from limsup_lab._rng import WORKERS_ENV
from limsup_lab.resonant import LatticePoint


def _mutant(fn, old: str, new: str):
    """`fn` recompiled with the one occurrence of `old` replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, f"{fn.__qualname__} no longer holds {old!r} once"
    namespace: dict = {}
    code = compile(source.replace(old, new), inspect.getsourcefile(fn), "exec")
    exec(code, fn.__globals__, namespace)
    return namespace[fn.__name__]


@pytest.fixture
def one_worker(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "1")
    return monkeypatch


# ---------------------------------------------------------------------------
# criterion 1: content argmin
# ---------------------------------------------------------------------------


def test_content_argmin_fails_when_the_formula_drops_a_power_of_the_scale(monkeypatch):
    # P(i) = a_1 ... a_i a_{i+1}^{-i} f(a_{i+1}); a unit-side count of -1
    # (the sign of (1 - n)m for (n - 1)m) takes one power too few of
    # a_{i+1}, multiplying P(i) by a_{i+1} < 1 more for each i, so the
    # argmin slides past the integer bracket
    planted = _mutant(
        content.rect_content_formula,
        "candidate_products(a.T, 1.0, _f_at(fs, a, caps).T, 0)",
        "candidate_products(a.T, 1.0, _f_at(fs, a, caps).T, -1)",
    )
    monkeypatch.setattr(verify, "rect_content_formula", planted)
    passed, measured, _, _ = verify._criterion_1(0)
    assert passed is False, measured


def _plant_products(monkeypatch, old, new):
    planted = _mutant(content.candidate_products, old, new)
    monkeypatch.setattr(content, "candidate_products", planted)
    monkeypatch.setattr(verify, "candidate_products", planted)


def test_content_argmin_fails_when_the_ratio_factor_is_not_held_at_one(monkeypatch):
    # a side shorter than the candidate must contribute 1, not its ratio
    # below 1.  On sorted sides every such ratio row is left out, so only
    # the resonant rectangles, whose sides come in component order, see it
    _plant_products(
        monkeypatch,
        "products[i] *= np.maximum(ratio, 1.0, out=ratio)",
        "products[i] *= ratio",
    )
    passed, measured, _, _ = verify._criterion_1(0)
    assert passed is False, measured


def test_content_argmin_fails_when_the_ratio_is_inverted(monkeypatch):
    # psi_i/psi_j in place of psi_j/psi_i prices each candidate by the
    # shorter sides instead of the longer ones
    _plant_products(
        monkeypatch,
        "np.divide(budgets[j], budgets[i])",
        "np.divide(budgets[i], budgets[j])",
    )
    passed, measured, _, _ = verify._criterion_1(0)
    assert passed is False, measured


def _plant_bracket(monkeypatch, old, new):
    planted = _mutant(funcspace.bracket, old, new)
    monkeypatch.setattr(content, "bracket", planted)
    monkeypatch.setattr(verify, "bracket", planted)


def _content_argmin_result():
    # through _run_criterion, which reports a raise as a failure
    return verify._run_criterion(1, "content-argmin", verify._criterion_1, 0)


def test_content_argmin_fails_when_the_bracket_loop_stops_at_one(monkeypatch):
    # without k = 0 an f below r^1 has no bracket, and the formula refuses it
    _plant_bracket(monkeypatch, "range(d - 1, -1, -1)", "range(d - 1, 0, -1)")
    result = _content_argmin_result()
    assert result.passed is False, result.measured
    assert "no integer bracket" in result.measured


def test_content_argmin_fails_when_the_two_orders_are_swapped(monkeypatch):
    # f preceding r^k and r^(k+1) preceding f bracket nothing between r^1 and r^d
    _plant_bracket(
        monkeypatch,
        "compare(f, k).s_le_f) and compare(f, k + 1).f_le_s",
        "compare(f, k).f_le_s) and compare(f, k + 1).s_le_f",
    )
    result = _content_argmin_result()
    assert result.passed is False, result.measured
    assert "no integer bracket" in result.measured


# ---------------------------------------------------------------------------
# criterion 2: content sandwich
# ---------------------------------------------------------------------------


def test_content_sandwich_fails_without_the_half_cell_outward_rounding(one_worker):
    # each cube's per-axis count must round outward to whole atom cells;
    # counting only the atoms inside undercounts mu(B) and lifts 1/c above
    # the content
    planted = _mutant(content.mdp_check, "half = cell / 2.0", "half = 0.0")
    one_worker.setattr(verify, "mdp_check", planted)
    passed, measured, _, _ = verify._criterion_2(0)
    assert passed is False, measured


def test_content_sandwich_fails_when_the_greedy_cover_rounds_its_tiles_down(one_worker):
    # floor instead of ceil leaves part of the rectangle uncovered, so the
    # "cover" costs less than the content
    planted = _mutant(
        content.greedy_cover_oracle, "np.ceil(s / t)", "np.floor(s / t)"
    )
    one_worker.setattr(verify, "greedy_cover_oracle", planted)
    passed, measured, _, _ = verify._criterion_2(0)
    assert passed is False, measured


# ---------------------------------------------------------------------------
# criterion 3: dyadic decomposition
# ---------------------------------------------------------------------------


def test_dyadic_decomposition_fails_when_the_scale_is_one_too_many(monkeypatch):
    # at N + 1 the indices sum to N + 1 - m, so there are C(N, m - 1) of
    # them, not C(N - 1, m - 1), for every m >= 2
    planted = _mutant(resonant.dyadic_scale, "return N", "return N + 1")
    monkeypatch.setattr(resonant, "dyadic_scale", planted)
    passed, measured, _, _ = verify._criterion_3(0)
    assert passed is False, measured


# ---------------------------------------------------------------------------
# criterion 4: multiplicative measure
# ---------------------------------------------------------------------------


def test_mult_measure_fails_when_the_star_product_skips_its_last_block(monkeypatch):
    # without the last factor the sampled star is {prod_{j<m} ||u_j|| < delta},
    # far larger than V_m(2^m delta)
    planted = _mutant(
        resonant._star, "for j in range(1, dist.shape[1]):", "for j in range(1, dist.shape[1] - 1):"
    )
    monkeypatch.setattr(resonant, "_star", planted)
    passed, measured, _, _ = verify._criterion_4(0)
    assert passed is False, measured


def test_mult_measure_fails_when_a_chunk_drops_its_last_partial_block(monkeypatch):
    # 10^6 samples end in a chunk of 82496 points, a full block and one of
    # 16960; without that block about 1.7% of the samples are never tested
    # but still divide the hits, and every star's fraction comes out low
    planted = _mutant(
        _rng.map_uniform_chunks,
        "for start in range(BLOCK, size, BLOCK):",
        "for start in range(BLOCK, size - size % BLOCK, BLOCK):",
    )
    monkeypatch.setattr(verify, "map_uniform_chunks", planted)
    passed, measured, _, _ = verify._criterion_4(0)
    assert passed is False, measured


# ---------------------------------------------------------------------------
# criterion 5: coprime measure
# ---------------------------------------------------------------------------


def test_coprime_measure_fails_when_the_rational_sweep_drops_its_coprime_filter(
    monkeypatch,
):
    # every centre p/q then counts, so the measure is 2/q^2 instead of the
    # closed form 2 delta phi(q)/q
    planted = _mutant(
        intervals.resonant_measure_rational,
        "if coprime and math.gcd(p, q) != 1:",
        "if False:",
    )
    monkeypatch.setattr(verify, "resonant_measure_rational", planted)
    passed, measured, _, _ = verify._criterion_5(0)
    assert passed is False, measured


# ---------------------------------------------------------------------------
# criterion 7: dimension cross-check
# ---------------------------------------------------------------------------


def test_dimension_crosscheck_fails_when_the_sort_network_skips_its_last_round(
    one_worker,
):
    # m - 1 rounds leave some orders of the radii unsorted (any reversed
    # m >= 3), so the scan reads the wrong cover scale and its exponent
    # leaves Rynne-Dickinson's
    planted = _mutant(estimators._sort_rows, "for r in range(m):", "for r in range(m - 1):")
    one_worker.setattr(estimators, "_sort_rows", planted)
    passed, measured, _, _ = verify._criterion_7(0)
    assert passed is False, measured


def test_dimension_crosscheck_fails_when_the_scale_position_is_off_by_one(one_worker):
    # the cheapest cover scale for s in (j, j + 1) sits at min(nm - j, m);
    # one position lower prices every cover at the wrong side length
    planted = _mutant(
        estimators._scale_position, "nm - math.floor(s)", "nm - math.floor(s) - 1"
    )
    one_worker.setattr(estimators, "_scale_position", planted)
    passed, measured, _, _ = verify._criterion_7(0)
    assert passed is False, measured


def test_dimension_crosscheck_fails_when_the_walk_folds_the_wrong_row(one_worker):
    # when the scale position drops to i, row i is the log radius freed
    # from A into C; folding row i - 1 prices every later window wrongly
    planted = _mutant(estimators._cost_slope, "C += logr[i]", "C += logr[i - 1]")
    one_worker.setattr(estimators, "_cost_slope", planted)
    passed, measured, _, _ = verify._criterion_7(0)
    assert passed is False, measured


# ---------------------------------------------------------------------------
# criterion 8: Fourier formulas
# ---------------------------------------------------------------------------


def test_fourier_formulas_fail_when_the_value_drops_its_factor_two(monkeypatch):
    # the Fourier dimension is twice the critical exponent; without the 2
    # the weighted (1, q^-2) instance reads 1/3 and the multiplicative 1/2
    planted = _mutant(formulas.fourier_dim, "2.0 * s_crit", "s_crit")
    monkeypatch.setattr(verify, "fourier_dim", planted)
    passed, measured, _, _ = verify._criterion_8(0)
    assert passed is False, measured


def test_fourier_formulas_fail_when_the_null_set_gate_is_inverted(monkeypatch):
    # a gate that admits only non-convergent series turns both pinned null
    # instances inapplicable
    planted = _mutant(
        formulas.fourier_dim, 'if cls == "ConvergesSymbolic"', 'if cls != "ConvergesSymbolic"'
    )
    monkeypatch.setattr(verify, "fourier_dim", planted)
    passed, measured, _, _ = verify._criterion_8(0)
    assert passed is False, measured


# ---------------------------------------------------------------------------
# criterion 10: lattice sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "old, new",
    [
        # the count stops one level short of the outermost shell |t| = max B_j
        ("np.arange(1, vmax + 1, dtype=float)", "np.arange(1, vmax, dtype=float)"),
        # each coordinate admits |t_j| < B_j instead of |t_j| <= B_j
        ("cap = 2.0 * Bj + 1.0", "cap = 2.0 * Bj - 1.0"),
        # the reference scale takes one coordinate too few
        ("k = int(math.floor(s))", "k = int(math.floor(s)) + 1"),
    ],
    ids=["outermost-level-dropped", "cap-2B-minus-1", "k-floor-s-plus-1"],
)
def test_lattice_sums_fail_on_a_planted_defect(monkeypatch, old, new):
    # the first two flip the sign of ratio/L - 1 wherever the boundary term
    # leads (m - s > 1), and passed the frozen bounds c10 used to read; the
    # third keeps the ratio off L, so its step ratio tends to 1
    monkeypatch.setattr(verify, "lattice_sum", _mutant(criteria.lattice_sum, old, new))
    passed, measured, _, _ = verify._criterion_10(0)
    assert passed is False, measured


# ---------------------------------------------------------------------------
# criterion 13: determinism
# ---------------------------------------------------------------------------


def test_determinism_fails_when_the_chunk_split_follows_the_worker_count(monkeypatch):
    # chunks of CHUNK // workers samples split the stream differently at 1
    # and 8 workers, so the Monte-Carlo payloads differ
    planted = _mutant(
        _rng.chunk_plan,
        "size = min(CHUNK, n_samples - c * CHUNK)",
        "size = min(CHUNK // worker_count(), n_samples - c * CHUNK)",
    )
    monkeypatch.setattr(_rng, "chunk_plan", planted)
    passed, measured, _, _ = verify._criterion_13(0, 0.0)
    assert passed is False, measured
    assert "DIFFER" in measured


def test_determinism_fails_when_each_block_makes_its_generator_afresh(monkeypatch):
    # every block after a chunk's first then repeats the chunk's first
    # numbers, at any worker count, so only the one-draw count can see it
    planted = _mutant(
        _rng.map_uniform_chunks,
        "total = total + fn(rng.random(",
        "total = total + fn(chunk_rng(seed, c).random(",
    )
    monkeypatch.setattr(verify, "map_uniform_chunks", planted)
    passed, measured, _, _ = verify._criterion_13(0, 0.0)
    assert passed is False, measured
    assert "identical" in measured and "100501 vs 100716" in measured


# ---------------------------------------------------------------------------
# criterion 11: coverage dichotomy
# ---------------------------------------------------------------------------


def test_coverage_dichotomy_fails_when_the_sweep_drops_its_last_window(monkeypatch):
    # about 5 * 10^7 intervals, half of them on [0, 1/2], make 191 windows
    # of width 1/382 there; losing the last loses 1/382 of the half range,
    # which the doubling makes 2/382 of [0, 1], and the exact gate on the
    # psi = 1/(2q) union must see it
    planted = _mutant(
        intervals.swept_union_measure,
        "zip(edges[:-1], edges[1:])",
        "zip(edges[:-2], edges[1:-1])",
    )
    monkeypatch.setattr(estimators, "swept_union_measure", planted)
    passed, measured, _, _ = verify._criterion_11(0)
    assert passed is False, measured
    assert "coverage(psi=1/(2q), q<=1e4) = 0.9948" in measured


def test_sandwich_check_sees_a_dyadic_rectangle_left_out_at_c11s_arguments():
    # without R'(5, (1, 1/16)) the star points with c_1 >= 1/2 and c_2 small
    # lie in no rectangle; c11 is slow, so its sandwich is called directly
    planted = _mutant(
        resonant.sandwich_check,
        "for idx in decomposition.indices",
        "for idx in decomposition.indices[1:]",
    )
    rep = planted(LatticePoint((5,)), 2, 2.0**-6, n_points=100_000, seed=0)
    assert rep.inner_violations > 0, rep


# ---------------------------------------------------------------------------
# criterion 12: verdict engine
# ---------------------------------------------------------------------------


def test_verdict_engine_fails_when_the_multiplicative_term_drops_a_log_power(monkeypatch):
    # psi log^{m-1}(1/psi) with one log power too few turns the m = 2 series
    # for psi = 1/(q log^2 q), which diverges like sum 1/(q log q), into a
    # convergent one, and the Full case reads Zero
    planted = _mutant(
        criteria._leading_term,
        "(_log_inverse_guarded(p) ** (m - 1))",
        "(_log_inverse_guarded(p) ** (m - 2))",
    )
    monkeypatch.setattr(criteria, "_leading_term", planted)
    passed, measured, _, _ = verify._criterion_12(0)
    assert passed is False, measured
