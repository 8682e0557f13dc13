"""Rectangle content: closed formula vs greedy cover and mass-distribution oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limsup_lab.content import (
    MdpResult,
    Rect,
    content_bracket,
    greedy_cover_oracle,
    lattice_atoms,
    mdp_check,
    rect_content_formula,
)
from limsup_lab.funcspace import DimensionFunction

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def test_rect_sorts_and_validates():
    r = Rect((0.2, 0.9, 0.5))
    assert r.sides == (0.9, 0.5, 0.2)
    assert r.d == 3
    with pytest.raises(ValueError):
        Rect(())
    with pytest.raises(ValueError):
        Rect((0.5, 1.2))
    with pytest.raises(ValueError):
        Rect((0.5, 0.0))


def test_content_bracket():
    assert content_bracket(DimensionFunction.power(2.5, domain_cap=1.0), 4) == 2
    assert content_bracket(DimensionFunction.power(0.5, domain_cap=1.0), 3) == 0
    assert content_bracket(DimensionFunction.power(3.5, domain_cap=1.0), 3) is None
    with pytest.raises(ValueError):
        content_bracket(DimensionFunction.power(1.5), 0)


def test_formula_worked_value():
    # d=3, f = r^2.5: bracket k = 2, content = a1 a2 a3^{-2} f(a3) = a1 a2 sqrt(a3)
    f = DimensionFunction.power(2.5, domain_cap=1.0)
    est = rect_content_formula(Rect((0.9, 0.5, 0.2)), f)
    assert est.bracket_k == 2
    assert est.formula_value == pytest.approx(0.9 * 0.5 * math.sqrt(0.2), rel=1e-12)
    assert est.min_index == 2
    assert len(est.products) == 3


def test_argmin_equals_bracket_on_random_rects():
    rng = np.random.default_rng(20)
    for d in range(1, 5):
        for _ in range(100):
            sides = np.sort(rng.uniform(0.3, 1.0, size=d))[::-1]
            s = rng.uniform(0.05, d - 0.05)
            if abs(s - round(s)) < 1e-3:
                continue
            est = rect_content_formula(
                Rect(tuple(sides)), DimensionFunction.power(s, domain_cap=1.0)
            )
            assert est.min_index == est.bracket_k, (d, s, sides)


def test_formula_rejects_unbracketed_f():
    f = DimensionFunction.power(5.0, domain_cap=1.0)
    with pytest.raises(ValueError):
        rect_content_formula(Rect((0.5, 0.5)), f)
    g = DimensionFunction.power(1.5)  # cap e^{-1} < side
    with pytest.raises(ValueError):
        rect_content_formula(Rect((0.9, 0.5)), g)


def test_greedy_cover_bounds_formula():
    rng = np.random.default_rng(21)
    for d in range(1, 5):
        for _ in range(50):
            sides = tuple(np.sort(rng.uniform(0.3, 1.0, size=d))[::-1])
            s = rng.uniform(0.05, d - 0.05)
            if abs(s - round(s)) < 1e-3:
                continue
            f = DimensionFunction.power(s, domain_cap=1.0)
            formula = rect_content_formula(Rect(sides), f).formula_value
            cover = greedy_cover_oracle(Rect(sides), f)
            ratio = cover.value / formula
            assert 1.0 - 1e-12 <= ratio <= 4.0**d, (d, s, sides, ratio)


def test_greedy_exact_on_cubes():
    f = DimensionFunction.power(1.5, domain_cap=1.0)
    for a in (0.25, 0.5, 0.8):
        rect = Rect((a, a, a))
        est = rect_content_formula(rect, f)
        cover = greedy_cover_oracle(rect, f)
        assert cover.count == 1
        assert cover.value == pytest.approx(est.formula_value, rel=1e-12)


def test_lattice_atoms_shape_and_range():
    rect = Rect((0.8, 0.4))
    atoms = lattice_atoms(rect, total=1000)
    assert len(atoms.axes) == 2
    for u, side in zip(atoms.axes, rect.sides):
        assert np.all(np.diff(u) > 0)
        assert 0 < u[0] and u[-1] < side
    # per-axis counts respect the aspect ratio, and len() counts every atom
    nx, ny = (len(u) for u in atoms.axes)
    assert nx > ny
    assert len(atoms) == nx * ny


def test_mdp_lower_bound_window():
    """Grid atoms: the mass-distribution bound lands in [4^{-d}, 1] x formula."""
    rng = np.random.default_rng(22)
    for d in (1, 2, 3):
        for trial in range(8):
            sides = tuple(np.sort(rng.uniform(0.3, 1.0, size=d))[::-1])
            s = rng.uniform(0.1, d - 0.1)
            if abs(s - round(s)) < 1e-3:
                continue
            f = DimensionFunction.power(s, domain_cap=1.0)
            rect = Rect(sides)
            formula = rect_content_formula(rect, f).formula_value
            atoms = lattice_atoms(rect, total=4096)
            res = mdp_check(
                atoms, f, rect, n_balls=32, seed=trial, resolution_floor=min(sides) / 4
            )
            ratio = res.lower_bound / formula
            assert 4.0**-d <= ratio <= 1.0 + 1e-9, (d, s, sides, ratio)
            assert res.balls_used > 0


def test_mdp_resolution_floor_skips_tiny_cubes():
    # the corner-aligned cube at the short side 0.1 sits below the floor
    rect = Rect((0.5, 0.1))
    f = DimensionFunction.power(0.5, domain_cap=1.0)
    atoms = lattice_atoms(rect, total=512)
    res = mdp_check(atoms, f, rect, n_balls=32, seed=0, resolution_floor=0.3)
    assert res.balls_skipped > 0
    # with no random cubes and both sides below the floor nothing is counted
    with pytest.raises(ValueError, match="no sampled cube captured any mass"):
        mdp_check(atoms, f, rect, n_balls=0, seed=0, resolution_floor=0.6)


# ---------------------------------------------------------------------------
# the batched cube pass against the per-cube loop
# ---------------------------------------------------------------------------


def _mdp_per_cube(atoms, f, rect, n_balls, seed, resolution_floor):
    """mdp_check as one step per candidate cube: the reference for the batch.

    It lists the atoms as meshgrid rows and draws each random centre as a
    row, so it checks mdp_check's per-axis index lookup independently.
    """
    axes = atoms.axes
    rows = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    n, d = rows.shape
    if resolution_floor is None:
        resolution_floor = 10.0 / n ** (1.0 / d)
    rng = np.random.default_rng(seed)
    a = np.asarray(rect.sides)
    cells = [rect.sides[j] / len(u) for j, u in enumerate(axes)]
    extra = np.geomspace(
        max(resolution_floor, min(rect.sides) / 4), min(f.domain_cap, a[0]), n_balls
    )
    candidates = [(np.zeros(d), t) for t in rect.sides]
    centers = rows[rng.integers(0, n, size=len(extra))]
    for c, t in zip(centers, extra):
        candidates.append((np.clip(c - t / 2.0, 0.0, np.maximum(a - t, 0.0)), t))
    c_max = 0.0
    used = skipped = 0
    for lo, t in candidates:
        if t < resolution_floor or t > f.domain_cap:
            skipped += 1
            continue
        hi = lo + t
        mass = 1.0
        for j, u in enumerate(axes):
            half = cells[j] / 2.0
            cnt = np.searchsorted(u, hi[j] + half, side="right") - np.searchsorted(
                u, lo[j] - half, side="left"
            )
            mass *= cnt / len(u)
        used += 1
        if mass != 0.0:
            c_max = max(c_max, mass / f(t))
    if c_max == 0.0:
        raise ValueError("no sampled cube captured any mass; increase n_balls or atoms")
    return MdpResult(
        lower_bound=1.0 / c_max,
        c=c_max,
        balls_used=used,
        balls_skipped=skipped,
        resolution_floor=resolution_floor,
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def _table(rs, ratios):
    """A table dimension function: abscissae on a 1/20 grid, values rising."""
    v = 0.01
    pts = [(min(rs) / 20, v)]
    for r, k in zip(sorted(rs)[1:], ratios):
        v *= k
        pts.append((r / 20, v))
    return DimensionFunction.table(pts)


dimension_functions = st.one_of(
    st.builds(DimensionFunction.power, st.floats(0.1, 4.0), st.just(1.0)),
    st.builds(DimensionFunction.power_log, st.floats(0.2, 3.0), st.floats(-2.0, 2.0)),
    st.builds(
        _table,
        st.lists(st.integers(1, 20), min_size=2, max_size=5, unique=True),
        st.lists(st.floats(1.01, 3.0), min_size=4, max_size=4),
    ),
)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@SETTINGS
@given(
    data=st.data(),
    f=dimension_functions,
    total=st.integers(1, 20_000),
    n_balls=st.integers(0, 64),
    seed=st.integers(0, 2**32 - 1),
    # floors above every scale leave no cube to count
    floor=st.one_of(st.floats(0.0, 0.3), st.none(), st.floats(0.3, 1.2)),
)
def test_mdp_batch_matches_per_cube_loop(d, data, f, total, n_balls, seed, floor):
    rect = Rect(tuple(data.draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d))))
    atoms = lattice_atoms(rect, total=total)
    args = (atoms, f, rect, n_balls, seed, floor)
    assert _outcome(mdp_check, *args) == _outcome(_mdp_per_cube, *args)


def test_mdp_batch_matches_per_cube_loop_when_every_cube_is_below_the_floor():
    rect = Rect((0.7, 0.4, 0.2))
    f = DimensionFunction.power(2.5, domain_cap=1.0)
    atoms = lattice_atoms(rect, total=2000)
    args = (atoms, f, rect, 0, 3, 0.75)
    got = _outcome(mdp_check, *args)
    assert got == _outcome(_mdp_per_cube, *args)
    assert got == "no sampled cube captured any mass; increase n_balls or atoms"
