"""Planted defects: a verify criterion fails when the code it checks is wrong.

Each test plants one realistic defect into the code under test, never into
the oracle that referees it, and asserts that the criterion reports
passed = False; for criterion 11, which is slow, the sandwich part calls
the code under test at the criterion's arguments instead.  A defect is one edited line: the function's source is
edited and executed in its own module's namespace, and the copy replaces
the binding the criterion reads.  `_mutant` fails loudly if the line it
edits is gone, so a refactor cannot turn a test into a silent no-op.

Criterion 2 runs at one worker, so `_rng.parallel_map` stays in this
process and sees the planted copy; threads, as in criterion 11's sweep,
share it anyway.
"""

import inspect
import textwrap

import pytest

from limsup_lab import content, estimators, intervals, resonant, verify
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
# criterion 2: content sandwich
# ---------------------------------------------------------------------------


def test_content_sandwich_fails_without_the_half_cell_outward_rounding(one_worker):
    # each cube's per-axis count must round outward to whole atom cells;
    # counting only the atoms inside undercounts mu(B) and lifts 1/c above
    # the content
    planted = _mutant(
        content.mdp_check, "half = rect.sides[j] / len(u) / 2.0", "half = 0.0"
    )
    one_worker.setattr(verify, "mdp_check", planted)
    passed, measured, _, _ = verify._criterion_2(0)
    assert passed is False, measured


def test_content_sandwich_fails_when_the_greedy_cover_rounds_its_tiles_down(one_worker):
    # floor instead of ceil leaves part of the rectangle uncovered, so the
    # "cover" costs less than the content
    planted = _mutant(
        content.greedy_cover_oracle, "math.ceil(s / t)", "math.floor(s / t)"
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
    monkeypatch,
):
    # m - 1 rounds leave some orders of the radii unsorted (any reversed
    # m >= 3), so the scan reads the wrong cover scale and its exponent
    # leaves Rynne-Dickinson's
    planted = _mutant(estimators._sort_rows, "for r in range(m):", "for r in range(m - 1):")
    monkeypatch.setattr(estimators, "_sort_rows", planted)
    passed, measured, _, _ = verify._criterion_7(0)
    assert passed is False, measured


def test_dimension_crosscheck_fails_when_the_scale_position_is_off_by_one(monkeypatch):
    # the cheapest cover scale for s in (j, j + 1) sits at min(nm - j, m);
    # one position lower prices every cover at the wrong side length
    planted = _mutant(
        estimators._scale_position, "nm - math.floor(s)", "nm - math.floor(s) - 1"
    )
    monkeypatch.setattr(estimators, "_scale_position", planted)
    passed, measured, _, _ = verify._criterion_7(0)
    assert passed is False, measured


# ---------------------------------------------------------------------------
# criterion 11: coverage dichotomy
# ---------------------------------------------------------------------------


def test_coverage_dichotomy_fails_when_the_sweep_drops_its_last_window(monkeypatch):
    # about 5 * 10^7 intervals make 382 windows of at most 2^17 each; losing
    # the last loses 1/382 of [0, 1], and the exact gate on the psi = 1/(2q)
    # union must see it
    planted = _mutant(
        intervals.swept_union_measure,
        "zip(edges[:-1], edges[1:])",
        "zip(edges[:-2], edges[1:-1])",
    )
    monkeypatch.setattr(estimators, "swept_union_measure", planted)
    passed, measured, _, _ = verify._criterion_11(0)
    assert passed is False, measured
    assert "coverage(psi=1/(2q), q<=1e4) = 0.9974" in measured


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
