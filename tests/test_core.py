"""Core substrate: the value domain, grid functions, finite laws and
discrete conjugation."""

from __future__ import annotations

import numpy as np
import pytest

from twoscale.core import (
    INF,
    BlendPlan,
    Grid,
    GridValueFn,
    LawTable,
    fenchel_conjugate,
)


# ---------------------------------------------------------------- grids


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid([[1.0, 1.0, 2.0]])
    with pytest.raises(ValueError):
        Grid([[2.0, 1.0]])
    with pytest.raises(ValueError):
        Grid([])
    with pytest.raises(ValueError):
        Grid([[]])


def test_grid_points_row_major():
    g = Grid([[0.0, 1.0], [10.0, 20.0]])
    pts = g.points()
    assert pts.shape == (4, 2)
    assert pts.tolist() == [[0, 10], [0, 20], [1, 10], [1, 20]]


def test_grid_is_immutable():
    g = Grid([[0.0, 1.0]])
    with pytest.raises(AttributeError):
        g.axes = None
    with pytest.raises(ValueError):
        g.axes[0][0] = 5.0


def test_eval_gridfn_examples():
    g = Grid([[0.0, 1.0, 2.0]])
    f_lin = GridValueFn(g, np.array([0.0, 1.0, 2.0]))
    assert f_lin.eval_many([[0.5]])[0] == 0.5
    f_inf = GridValueFn(g, np.array([INF, 0.0, 2.0]))
    assert f_inf.eval_many([[0.5]])[0] == INF


def test_multilinear_zero_weight_corner_ignores_infinity():
    g = Grid([[0.0, 1.0]])
    f = GridValueFn(g, np.array([INF, 3.0]))
    # querying exactly at the finite vertex puts weight 0 on the +inf corner
    assert f.eval_many([[1.0]])[0] == 3.0
    assert f.eval_many([[0.0]])[0] == INF


def test_out_of_range_queries_clamp():
    g = Grid([[0.0, 1.0, 2.0]])
    f = GridValueFn(g, np.array([5.0, 1.0, 7.0]))
    assert f.eval_many([[-100.0]])[0] == 5.0
    assert f.eval_many([[100.0]])[0] == 7.0


def test_eval_gridfn_dimension_mismatch():
    g = Grid([[0.0, 1.0]])
    f = GridValueFn(g, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        f.eval_many(np.array([[0.0, 1.0]]))


def test_gridfn_2d_bilinear():
    g = Grid([[0.0, 1.0], [0.0, 1.0]])
    # f(x, y) = 2x + 3y is reproduced exactly by bilinear interpolation
    vals = np.array([[0.0, 3.0], [2.0, 5.0]])
    f = GridValueFn(g, vals)
    assert f.eval_many([[0.25, 0.5]])[0] == pytest.approx(0.5 + 1.5, abs=1e-12)


def _unfolded_blend(fn, base, frac):
    """Multilinear blend over all 2**ndim cell corners, none folded: the
    reference for BlendPlan.  Corners run in binary order, axis 0 in the
    lowest bit; a corner's weight is the product of its per-axis factors in
    axis order, and a +inf corner counts as 0 and makes the result +inf
    where its weight is positive."""
    shape = fn.grid.shape
    strides = [int(np.prod(shape[j + 1:])) for j in range(len(shape))]
    raw = fn.values.ravel()
    flat = np.where(np.isposinf(raw), 0.0, raw)
    total = np.zeros(base.shape)
    pos = np.zeros(base.shape, bool)
    for corner in range(1 << len(shape)):
        w, idx = None, base
        for j in range(len(shape)):
            if (corner >> j) & 1:
                f = frac[j]
                idx = idx + (strides[j] if shape[j] > 1 else 0)
            else:
                f = 1.0 - frac[j]
            w = f if w is None else w * f
        total += flat[idx] * w
        pos |= (w > 0.0) & np.isposinf(raw[idx])
    return np.where(pos, INF, total)


def _folded_world():
    """A 2-D table and queries whose axis-1 coordinates sit on grid points,
    the last one included: axis 1's fractions are exactly 0 or 1."""
    g = Grid([[0.0, 1.0, 2.5], [0.0, 0.5, 1.0]])
    vals = np.arange(9.0).reshape(3, 3) * 0.7 - 1.3
    x = np.array([[0.3, 0.0], [1.7, 0.5], [0.6, 1.0], [2.5, 1.0], [2.0, 0.5], [1.0, 0.0]])
    base, frac = g.interp_plan(x)
    assert set(frac[1]) == {0.0, 1.0}
    return g, vals, base, frac


def test_folded_blend_drops_an_axis_of_whole_fractions():
    g, vals, base, frac = _folded_world()
    plan = BlendPlan(g, base, frac)
    assert len(plan.corners) == 2
    fn = GridValueFn(g, vals)
    assert np.array_equal(plan.blend(vals), _unfolded_blend(fn, base, frac))


def test_folded_blend_ignores_inf_at_a_weight_zero_corner():
    g, vals, base, frac = _folded_world()
    # (0.3, 0.0) and (0.6, 1.0) give weight 0 to their axis-1 corners at
    # index 1, (1.7, 0.5) and (2.0, 0.5) to theirs at index 2; (1.0, 0.0)
    # sits on an axis-0 point, so the kept axis gives (2, 0) weight 0
    vals = vals.copy()
    vals[0, 1] = vals[2, 2] = vals[2, 0] = INF
    fn = GridValueFn(g, vals)
    got = BlendPlan(g, base, frac).blend(fn.values)
    want = _unfolded_blend(fn, base, frac)
    assert np.array_equal(got, want)
    assert np.isfinite(got[[0, 1, 2, 4, 5]]).all()


def test_folded_blend_keeps_inf_at_a_weight_one_corner():
    g, vals, base, frac = _folded_world()
    vals = vals.copy()
    vals[0, 2] = INF  # the axis-1 corner of (0.6, 1.0), at fraction 1
    fn = GridValueFn(g, vals)
    got = BlendPlan(g, base, frac).blend(fn.values)
    assert np.array_equal(got, _unfolded_blend(fn, base, frac))
    assert got[2] == INF
    assert np.isfinite(np.delete(got, 2)).all()


def test_blend_plan_reuses_its_buffer():
    g, vals, base, frac = _folded_world()
    plan = BlendPlan(g, base, frac)
    first = plan.blend(vals)
    assert plan.blend(vals + 1.0) is first


def test_gridfn_values_size_check():
    g = Grid([[0.0, 1.0, 2.0]])
    with pytest.raises(ValueError):
        GridValueFn(g, np.zeros(2))


@pytest.mark.parametrize("values", [[np.nan, 1.0, 2.0], [INF, np.nan, 2.0]])
def test_gridfn_refuses_nan(values):
    # a NaN beside an infinity would blend to 0, one without to NaN
    with pytest.raises(ValueError, match="NaN"):
        GridValueFn(Grid([[0.0, 1.0, 2.0]]), np.array(values))


@pytest.mark.parametrize("values", [[-INF, 1.0, 2.0], [INF, -INF, 2.0]])
def test_gridfn_refuses_neg_inf(values):
    # a value is a real cost or +inf; -inf beside +inf would blend to either
    with pytest.raises(ValueError, match="values hold -inf"):
        GridValueFn(Grid([[0.0, 1.0, 2.0]]), np.array(values))


def test_gridfn_json_roundtrip_with_infinities(tmp_path):
    g = Grid([[0.0, 1.0, 2.0], [0.0, 1.0]])
    vals = np.array([[INF, 0.5], [-2.5, INF], [1.0, 3.0]])
    f = GridValueFn(g, vals)
    path = tmp_path / "fn.json"
    f.save_json(path)
    g2 = GridValueFn.load_json(path)
    assert g2.grid == f.grid
    assert np.array_equal(g2.values, f.values)
    # sentinel encoding of infinities in the JSON text
    text = path.read_text()
    assert text.count('"inf"') == 2
    # byte stability across saves
    path2 = tmp_path / "fn2.json"
    f.save_json(path2)
    assert path.read_bytes() == path2.read_bytes()
    # a -inf in the text is refused when the function is built
    with pytest.raises(ValueError, match="-inf"):
        GridValueFn.from_jsonable({"grid": [[0.0, 1.0]], "values": [1.0, "-inf"]})


# ---------------------------------------------------------------- finite laws


def test_law_table_atoms_skip_zero_probability():
    # row 0 is padded with its last atom; row 1 holds a probability-0 atom inside
    table = LawTable.from_rows([[0.5, 2.0], [1.0, 3.0, 4.0]], [[0.25, 0.75], [0.5, 0.0, 0.5]])
    assert table.probs[0, 2] == 0.0
    assert list(table.atoms(0)) == [(0.5, 0.25), (2.0, 0.75)]
    assert list(table.atoms(1)) == [(1.0, 0.5), (4.0, 0.5)]
    assert all(type(p) is float for _, p in table.atoms(1))


def test_distribution_validation():
    with pytest.raises(ValueError, match="sum to"):
        LawTable([[1.0]], [[0.5]])
    with pytest.raises(ValueError, match="nonnegative"):
        LawTable([[1.0, 2.0]], [[1.5, -0.5]])
    with pytest.raises(ValueError, match="not one"):
        LawTable([[1.0, 2.0]], [[0.5]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_distribution_refuses_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        LawTable([[1.0, 2.0]], [[bad, 0.5]])
    with pytest.raises(ValueError, match="finite"):
        LawTable([[1.0, bad]], [[0.5, 0.5]])


def test_law_table_pads_short_days_with_their_last_atom():
    table = LawTable.from_rows(
        [[0.3], [0.1, 0.2, 0.4], [0.2, 0.5]], [[1.0], [0.25, 0.5, 0.25], [0.5, 0.5]]
    )
    assert table.support.tolist() == [[0.3, 0.3, 0.3], [0.1, 0.2, 0.4], [0.2, 0.5, 0.5]]
    assert table.probs.tolist() == [[1.0, 0.0, 0.0], [0.25, 0.5, 0.25], [0.5, 0.5, 0.0]]
    assert not table.support.flags.writeable and not table.probs.flags.writeable


def test_law_table_validation():
    with pytest.raises(ValueError, match="not one \\(rows, atoms\\) shape"):
        LawTable([[1.0, 2.0]], [[1.0]])
    with pytest.raises(ValueError, match="not one \\(rows, atoms\\) shape"):
        LawTable([1.0], [1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        LawTable([[1.0, 2.0]], [[1.5, -0.5]])
    with pytest.raises(ValueError, match="row 1 sum to"):
        LawTable([[1.0, 2.0], [1.0, 2.0]], [[0.5, 0.5], [0.5, 0.4]])
    with pytest.raises(ValueError, match="one probability per atom"):
        LawTable.from_rows([[1.0, 2.0]], [[1.0]])
    with pytest.raises(ValueError, match="one probability per atom"):
        LawTable.from_rows([[]], [[]])
    with pytest.raises(ValueError, match="2 supports for 1 rows"):
        LawTable.from_rows([[1.0], [2.0]], [[1.0]])


# ---------------------------------------------------------------- conjugation


def test_fenchel_examples():
    states = Grid([[0.0, 1.0, 2.0]])
    zero = GridValueFn(states, np.zeros(3))
    conj = fenchel_conjugate(zero, Grid([[-1.0, 0.0, 1.0]]))
    assert conj.tolist() == [0.0, 0.0, 2.0]

    sq = GridValueFn(Grid([[-1.0, 0.0, 1.0]]), np.array([1.0, 0.0, 1.0]))
    conj2 = fenchel_conjugate(sq, Grid([[1.0]]))
    assert conj2[0] == pytest.approx(0.0)

    allinf = GridValueFn(states, np.full(3, INF))
    conj3 = fenchel_conjugate(allinf, Grid([[-2.0, 0.0, 3.0]]))
    assert np.all(np.isneginf(conj3))


def test_fenchel_young_exhaustive():
    rng = np.random.default_rng(3)
    xs = np.array([-1.0, 0.0, 0.5, 2.0])
    ps = np.array([-2.0, -1.0, 0.0, 1.0, 3.0])
    vals = rng.standard_normal(len(xs))
    vals[1] = INF  # one infeasible state
    f = GridValueFn(Grid([xs]), vals)
    conj = fenchel_conjugate(f, Grid([ps]))
    for i, x in enumerate(xs):
        for j, p in enumerate(ps):
            assert vals[i] + conj[j] >= p * x - 1e-12


def test_fenchel_monotone_in_f():
    xs = np.array([0.0, 1.0, 2.0])
    ps = Grid([[-1.0, 0.0, 2.0]])
    rng = np.random.default_rng(5)
    fv = rng.standard_normal(3)
    gv = fv + rng.random(3)  # g >= f pointwise
    cf = fenchel_conjugate(GridValueFn(Grid([xs]), fv), ps)
    cg = fenchel_conjugate(GridValueFn(Grid([xs]), gv), ps)
    assert np.all(cf >= cg - 1e-12)


def test_fenchel_midpoint_convexity():
    xs = np.array([-1.0, 0.0, 1.0, 2.0])
    ps = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    rng = np.random.default_rng(7)
    f = GridValueFn(Grid([xs]), rng.standard_normal(len(xs)))
    conj = fenchel_conjugate(f, Grid([ps]))
    for i in range(len(ps)):
        for j in range(i, len(ps)):
            mid = (ps[i] + ps[j]) / 2.0
            k = np.searchsorted(ps, mid)
            if k < len(ps) and ps[k] == mid:
                assert conj[k] <= (conj[i] + conj[j]) / 2.0 + 1e-12


def test_fenchel_dimension_check():
    f = GridValueFn(Grid([[0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        fenchel_conjugate(f, Grid([[0.0], [1.0]]))
