"""Rectangle content: closed formula vs greedy cover and mass-distribution oracles."""

import math

import numpy as np
import pytest

from limsup_lab.content import (
    Rect,
    content_bracket,
    greedy_cover_oracle,
    lattice_atoms,
    mdp_check,
    rect_content_formula,
)
from limsup_lab.funcspace import DimensionFunction


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
    assert atoms.shape[1] == 2
    assert np.all(atoms > 0)
    assert np.all(atoms < np.asarray(rect.sides))
    # per-axis counts respect the aspect ratio
    nx = len(np.unique(atoms[:, 0]))
    ny = len(np.unique(atoms[:, 1]))
    assert nx > ny


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


def test_mdp_grid_detection_is_order_independent():
    f = DimensionFunction.power(1.5, domain_cap=1.0)
    rect = Rect((0.9, 0.6))
    atoms = lattice_atoms(rect, total=900)
    rng = np.random.default_rng(3)
    shuffled = atoms[rng.permutation(len(atoms))]
    a = mdp_check(atoms, f, rect, n_balls=16, seed=0)
    b = mdp_check(shuffled, f, rect, n_balls=16, seed=0)
    assert a.lower_bound == b.lower_bound


def test_mdp_scattered_atoms_fall_back():
    # random atoms are not a product grid; the in-cube counting path still
    # produces a positive bound in the right ballpark
    rng = np.random.default_rng(4)
    rect = Rect((0.8, 0.8))
    f = DimensionFunction.power(1.5, domain_cap=1.0)
    atoms = rng.uniform(0.0, 0.8, size=(20_000, 2))
    res = mdp_check(atoms, f, rect, n_balls=64, seed=1)
    formula = rect_content_formula(rect, f).formula_value
    assert res.lower_bound > 0
    assert res.lower_bound <= 2.0 * formula


def test_mdp_resolution_floor_skips_tiny_cubes():
    # the corner-aligned cube at the short side 0.1 sits below the floor
    rect = Rect((0.5, 0.1))
    f = DimensionFunction.power(0.5, domain_cap=1.0)
    atoms = lattice_atoms(rect, total=512)
    res = mdp_check(atoms, f, rect, n_balls=32, seed=0, resolution_floor=0.3)
    assert res.balls_skipped > 0
    with pytest.raises(ValueError):
        mdp_check(np.zeros((10, 2)) + 0.1, f, rect, n_balls=8, seed=0)
