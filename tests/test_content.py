"""Rectangle content: closed formula vs greedy cover and mass-distribution oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limsup_lab import verify
from limsup_lab.content import (
    MdpResult,
    RectCorpus,
    greedy_cover_oracle,
    lattice_atoms,
    mdp_check,
    rect_content_formula,
)
from limsup_lab.funcspace import DimensionFunction, bracket

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _one(*sides):
    return RectCorpus([sides])


def _power_corpus(rng, d, count, s_lo, s_hi, gap):
    """Random sides in [0.3, 1) with a power law r^s per rectangle, s off the integers."""
    sides, fs = [], []
    while len(fs) < count:
        row = np.sort(rng.uniform(0.3, 1.0, size=d))[::-1]
        s = rng.uniform(s_lo, s_hi)
        if abs(s - round(s)) < gap:
            continue
        sides.append(row)
        fs.append(DimensionFunction.power(s, domain_cap=1.0))
    return RectCorpus(np.array(sides)), fs


def test_rect_sorts_and_validates():
    r = RectCorpus([[0.2, 0.9, 0.5], [0.1, 0.3, 0.2]])
    assert r.sides.tolist() == [[0.9, 0.5, 0.2], [0.3, 0.2, 0.1]]
    assert (r.d, len(r)) == (3, 2)
    assert not r.sides.flags.writeable
    for bad in ([], [[]], [0.5, 0.5], [[0.5, 1.2]], [[0.5, 0.0]], [[0.5, float("nan")]]):
        with pytest.raises(ValueError):
            RectCorpus(bad)


def test_content_bracket():
    # the formula's k is funcspace.bracket's, k = 0 included
    assert bracket(DimensionFunction.power(2.5, domain_cap=1.0), 4) == 2
    assert bracket(DimensionFunction.power(0.5, domain_cap=1.0), 3) == 0
    assert bracket(DimensionFunction.power(3.5, domain_cap=1.0), 3) is None
    with pytest.raises(ValueError):
        bracket(DimensionFunction.power(1.5), 0)


def test_formula_worked_value():
    # d=3, f = r^2.5: bracket k = 2, content = a1 a2 a3^{-2} f(a3) = a1 a2 sqrt(a3)
    f = DimensionFunction.power(2.5, domain_cap=1.0)
    est = rect_content_formula(_one(0.9, 0.5, 0.2), [f])
    assert est.bracket_k.tolist() == [2]
    assert est.formula_value[0] == pytest.approx(0.9 * 0.5 * math.sqrt(0.2), rel=1e-12)
    assert est.min_index.tolist() == [2]
    assert est.products.shape == (1, 3)


def test_argmin_equals_bracket_on_random_rects():
    rng = np.random.default_rng(20)
    for d in range(1, 5):
        rects, fs = _power_corpus(rng, d, 100, 0.05, d - 0.05, 1e-3)
        est = rect_content_formula(rects, fs)
        assert np.array_equal(est.min_index, est.bracket_k), d


def test_formula_rejects_unbracketed_f():
    f = DimensionFunction.power(5.0, domain_cap=1.0)
    with pytest.raises(ValueError, match="no integer bracket"):
        rect_content_formula(_one(0.5, 0.5), [f])
    g = DimensionFunction.power(1.5)  # cap e^{-1} < side
    with pytest.raises(ValueError, match="exceeds the dimension function domain cap"):
        rect_content_formula(_one(0.9, 0.5), [g])
    # one dimension function per rectangle
    with pytest.raises(ValueError, match="2 rectangles need as many"):
        rect_content_formula(RectCorpus([[0.5, 0.5], [0.4, 0.3]]), [f])


def test_greedy_cover_bounds_formula():
    rng = np.random.default_rng(21)
    for d in range(1, 5):
        rects, fs = _power_corpus(rng, d, 50, 0.05, d - 0.05, 1e-3)
        formula = rect_content_formula(rects, fs).formula_value
        ratio = greedy_cover_oracle(rects, fs).value / formula
        assert np.all((1.0 - 1e-12 <= ratio) & (ratio <= 4.0**d)), (d, ratio)


def test_greedy_exact_on_cubes():
    f = DimensionFunction.power(1.5, domain_cap=1.0)
    rects = RectCorpus([[a, a, a] for a in (0.25, 0.5, 0.8)])
    est = rect_content_formula(rects, [f] * 3)
    cover = greedy_cover_oracle(rects, [f] * 3)
    assert cover.count.tolist() == [1, 1, 1]
    assert cover.value == pytest.approx(est.formula_value, rel=1e-12)


def test_lattice_atoms_shape_and_range():
    rects = RectCorpus([[0.8, 0.4], [0.3, 0.3]])
    atoms = lattice_atoms(rects, total=1000)
    assert atoms.counts.shape == atoms.cells.shape == (2, 2)
    for counts, cells, sides in zip(atoms.counts, atoms.cells, rects.sides):
        for c, cell, side in zip(counts, cells, sides):
            u = (np.arange(c) + 0.5) * cell
            assert np.all(np.diff(u) > 0)
            assert 0 < u[0] and u[-1] < side
    # per-axis counts respect the aspect ratio, and len() counts every atom
    (nx, ny), (mx, my) = atoms.counts
    assert nx > ny and mx == my
    assert len(atoms) == nx * ny + mx * my


def test_mdp_lower_bound_window():
    """Grid atoms: the mass-distribution bound lands in [4^{-d}, 1] x formula."""
    rng = np.random.default_rng(22)
    for d in (1, 2, 3):
        rects, fs = _power_corpus(rng, d, 8, 0.1, d - 0.1, 1e-3)
        formula = rect_content_formula(rects, fs).formula_value
        atoms = lattice_atoms(rects, total=4096)
        floor = rects.sides[:, -1] / 4
        res = mdp_check(atoms, fs, rects, n_balls=32, seed=0, resolution_floor=floor)
        ratio = res.lower_bound / formula
        assert np.all((4.0**-d <= ratio) & (ratio <= 1.0 + 1e-9)), (d, ratio)
        assert np.all(res.balls_used > 0)


def test_mdp_resolution_floor_skips_tiny_cubes():
    # the corner-aligned cube at the short side 0.1 sits below the floor
    rects = _one(0.5, 0.1)
    f = DimensionFunction.power(0.5, domain_cap=1.0)
    atoms = lattice_atoms(rects, total=512)
    res = mdp_check(atoms, [f], rects, n_balls=32, seed=0, resolution_floor=0.3)
    assert res.balls_skipped[0] > 0
    # with no random cubes and both sides below the floor nothing is counted
    with pytest.raises(ValueError, match="no sampled cube captured any mass"):
        mdp_check(atoms, [f], rects, n_balls=0, seed=0, resolution_floor=0.6)


# ---------------------------------------------------------------------------
# the corpus cube pass against a per-cube loop over each rectangle
# ---------------------------------------------------------------------------


def _mdp_per_cube(atoms, r, f, rects, n_balls, seed, resolution_floor):
    """mdp_check of rectangle r alone, one step per candidate cube.

    It lists the atoms as meshgrid rows of the grid's coordinates, draws
    each random centre as a row, and counts each cube with searchsorted, so
    it checks the corpus pass's index unravelling and its exact grid counts
    independently.  f is read through eval_array, as the corpus reads it.
    """
    sides = tuple(rects.sides[r])
    axes = [(np.arange(c) + 0.5) * cell for c, cell in zip(atoms.counts[r], atoms.cells[r])]
    rows = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    n, d = rows.shape
    if resolution_floor is None:
        resolution_floor = float((10.0 / np.array([n]) ** (1.0 / d))[0])
    rng = np.random.default_rng(seed + r)
    a = np.asarray(sides)
    extra = np.geomspace(max(resolution_floor, min(sides) / 4), min(f.domain_cap, a[0]), n_balls)
    candidates = [(np.zeros(d), t) for t in sides]
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
            half = atoms.cells[r, j] / 2.0
            cnt = np.searchsorted(u, hi[j] + half, side="right") - np.searchsorted(
                u, lo[j] - half, side="left"
            )
            mass *= cnt / len(u)
        used += 1
        if mass != 0.0:
            c_max = max(c_max, mass / f.eval_array(np.array([t]))[0])
    if c_max == 0.0:
        raise ValueError("no sampled cube captured any mass; increase n_balls or atoms")
    return (1.0 / c_max, c_max, used, skipped, resolution_floor)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def _corpus_rows(res: MdpResult):
    return list(zip(
        res.lower_bound.tolist(),
        res.c.tolist(),
        res.balls_used.tolist(),
        res.balls_skipped.tolist(),
        res.resolution_floor.tolist(),
    ))


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
    fs=st.lists(dimension_functions, min_size=1, max_size=3),
    total=st.integers(1, 20_000),
    n_balls=st.integers(0, 64),
    seed=st.integers(0, 2**32 - 4),
    # floors above every scale leave no cube to count
    floor=st.one_of(st.floats(0.0, 0.3), st.none(), st.floats(0.3, 1.2)),
)
def test_mdp_batch_matches_per_cube_loop(d, data, fs, total, n_balls, seed, floor):
    side = st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d)
    rects = RectCorpus(data.draw(st.lists(side, min_size=len(fs), max_size=len(fs))))
    atoms = lattice_atoms(rects, total=total)
    got = _outcome(mdp_check, atoms, fs, rects, n_balls, seed, floor)
    want = [
        _outcome(_mdp_per_cube, atoms, r, f, rects, n_balls, seed, floor)
        for r, f in enumerate(fs)
    ]
    # the corpus raises when any one rectangle captured no mass
    failed = [w for w in want if isinstance(w, str)]
    if failed:
        assert got == failed[0]
    else:
        assert _corpus_rows(got) == want


def test_mdp_batch_matches_per_cube_loop_when_every_cube_is_below_the_floor():
    rects = _one(0.7, 0.4, 0.2)
    f = DimensionFunction.power(2.5, domain_cap=1.0)
    atoms = lattice_atoms(rects, total=2000)
    got = _outcome(mdp_check, atoms, [f], rects, 0, 3, 0.75)
    assert got == _outcome(_mdp_per_cube, atoms, 0, f, rects, 0, 3, 0.75)
    assert got == "no sampled cube captured any mass; increase n_balls or atoms"


# ---------------------------------------------------------------------------
# referee: the corpus form against the per-rectangle code it replaced
# ---------------------------------------------------------------------------
#
# The functions below are the per-rectangle content code as it stood before
# the corpus form, with a rectangle given as its descending sides; the
# content formula's products are written in the float order that
# `content.candidate_products` now takes.  Their pows go through `pw` and
# their f values through `fv`; by default these are Python's float ** (the
# C library's pow) and the scalar f(t), as in that code.


def _scalar_pow(x, y):
    return x ** y


def _scalar_f(f, t):
    return f(t)


def _numpy_pow(x, y):
    return float(np.power(np.array([x]), np.array([y], dtype=float))[0])


def _numpy_f(f, t):
    return float(f.eval_array(np.array([min(t, f.domain_cap)]))[0])


def _old_rect_content_formula(a, f, fv):
    # P(i) in the corpus form's float order: f(a_i), then max(a_j / a_i, 1)
    # for every other side in index order (a factor of exactly 1.0 changes
    # nothing, so the ones the corpus form leaves out are taken here)
    d = len(a)
    k = bracket(f, d)  # content_bracket's k on this corpus, whose s is off the integers
    products = []
    for i in range(d):
        p = fv(f, a[i])
        for j in range(d):
            if j != i:
                p *= max(a[j] / a[i], 1.0)
        products.append(p)
    min_index = int(np.argmin(products))
    return products[k], k, min_index, tuple(products)


def _old_greedy_cover_oracle(a, f, fv):
    best = None
    for i, t in enumerate(a):
        count = 1
        for s in a:
            if s > t:
                count *= math.ceil(s / t)
        cost = count * fv(f, t)
        if best is None or cost < best[0]:
            best = (cost, i, t, count)
    return best


def _old_lattice_atoms(a, total, pw):
    a = np.asarray(a)
    h = pw(float(np.prod(a) / total), 1.0 / len(a))
    counts = np.maximum(1, np.round(a / h).astype(int))
    return tuple((np.arange(c) + 0.5) * (s / c) for c, s in zip(counts, a))


def _old_mdp_check(axes, f, sides, n_balls, seed, resolution_floor, fv):
    n, d = math.prod(len(u) for u in axes), len(axes)
    rng = np.random.default_rng(seed)
    a = np.asarray(sides)
    extra = np.geomspace(
        max(resolution_floor, min(sides) / 4), min(f.domain_cap, a[0]), n_balls
    )
    picks = np.unravel_index(rng.integers(0, n, size=len(extra)), [len(u) for u in axes])
    centers = np.stack([u[i] for u, i in zip(axes, picks)], axis=1)
    scales = list(sides) + list(extra)
    t = np.asarray(scales)
    lo = np.concatenate([
        np.zeros((d, d)),
        np.clip(centers - extra[:, None] / 2.0, 0.0, np.maximum(a - extra[:, None], 0.0)),
    ])
    keep = ~((t < resolution_floor) | (t > f.domain_cap))
    lo = lo[keep]
    hi = lo + t[keep, None]
    mass = np.ones(len(lo))
    for j, u in enumerate(axes):
        half = sides[j] / len(u) / 2.0
        cnt = np.searchsorted(u, hi[:, j] + half, side="right") - np.searchsorted(
            u, lo[:, j] - half, side="left"
        )
        mass = mass * (cnt / len(u))
    c_max = 0.0
    for m, k in zip(mass, np.flatnonzero(keep)):
        if m != 0.0:
            c_max = max(c_max, m / fv(f, scales[k]))
    return 1.0 / c_max, len(lo), len(t) - len(lo)


def _referee(d, pw, fv):
    """(old, new) per-rectangle tuples on verify's c2 corpus of dimension d, first six."""
    rects, fs = verify._rect_corpus(d, 0, count=6)
    est = rect_content_formula(rects, fs)
    cover = greedy_cover_oracle(rects, fs)
    atoms = lattice_atoms(rects, total=16384)
    mdp = mdp_check(atoms, fs, rects, n_balls=48, seed=0, resolution_floor=rects.sides[:, -1] / 4)
    old, new = [], []
    for r, f in enumerate(fs):
        a = tuple(float(x) for x in rects.sides[r])
        value, k, min_index, products = _old_rect_content_formula(a, f, fv)
        greedy = _old_greedy_cover_oracle(a, f, fv)
        axes = _old_lattice_atoms(a, 16384, pw)
        bound, used, skipped = _old_mdp_check(axes, f, a, 48, r, a[-1] / 4, fv)
        old.append(((k, min_index, greedy[1], greedy[3], tuple(len(u) for u in axes), used, skipped),
                    (value, *products, greedy[0], bound)))
        new.append((
            (int(est.bracket_k[r]), int(est.min_index[r]), int(cover.scale_index[r]),
             int(cover.count[r]), tuple(atoms.counts[r].tolist()),
             int(mdp.balls_used[r]), int(mdp.balls_skipped[r])),
            (float(est.formula_value[r]), *est.products[r].tolist(), float(cover.value[r]),
             float(mdp.lower_bound[r])),
        ))
    return old, new


def _ulps(x: float, y: float) -> int:
    return abs(int(np.float64(x).view(np.int64)) - int(np.float64(y).view(np.int64)))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_corpus_form_is_the_per_rectangle_code_under_numpys_pow(d):
    # with the old code's pows taken by numpy, every integer and every float
    # of the corpus form equals the per-rectangle code bit for bit
    old, new = _referee(d, _numpy_pow, _numpy_f)
    assert new == old


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_corpus_form_moves_only_the_ulps_of_pow(d):
    # Against the per-rectangle code as it was: the brackets, argmins, cover
    # scales and counts, atom grids and cube counts are equal; the floats
    # move by at most 4 units in the last place.  They move because the old
    # code took its powers and f(t) = t^s with the C library's pow on Python
    # floats, and the corpus form takes them with numpy's pow on arrays,
    # whose SIMD kernels may round the last bit the other way (the test
    # above shows pow is the only difference).  A value is a product of two
    # such pows and a prefix product, and a ratio of two of them at most.
    old, new = _referee(d, _scalar_pow, _scalar_f)
    for (old_ints, old_floats), (new_ints, new_floats) in zip(old, new):
        assert new_ints == old_ints
        assert max(_ulps(x, y) for x, y in zip(old_floats, new_floats)) <= 4
