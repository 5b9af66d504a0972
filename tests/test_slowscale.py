"""Slow-scale recursions: generic price/resource bounds, the battery
recursions and the gap report."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from twoscale import slowscale
from twoscale.core import INF, Grid, GridValueFn
from twoscale.intraday import (
    FEAS_TOL,
    PRICE,
    RESOURCE,
    IntradayTable,
    build_periodicity_classes,
    compute_intraday,
)
from twoscale.oracle import TinyProblem, flat_dp_solve
from twoscale.pipeline import _load_tables, stage_fit, stage_intraday
from twoscale.slowscale import (
    DayObjective,
    SlowValueSeq,
    _bellman_recursion,
    _expect,
    _Interp,
    block_bellman_solve,
    check_sandwich,
    day_continuation,
    generic_price_recursion,
    generic_resource_recursion,
    price_bellman_recursion,
    renewal_states,
    resource_bellman_recursion,
)

from conftest import (
    CRITERION_10,
    N_SOC,
    _dense_resource_objective,
    _ref_continuation,
    _ref_expect,
    _ref_price_objective,
    law_table,
    point_laws,
    point_table,
    small_battery_config,
)


def point(v):
    """The law of the one atom v, as a (support, probs) pair."""
    return [float(v)], [1.0]


def move_problem(D=0, M=0, cost=None, final=None, states=None):
    """Shift dynamics x' = clip(x + u), |u| move cost by default."""
    states = np.array([0.0, 1.0]) if states is None else states

    def default_cost(d, m, x, u, w):
        return abs(u)

    def dyn(d, m, x, u, w):
        return float(np.clip(x + u, states[0], states[-1]))

    return TinyProblem(
        D=D,
        M=M,
        states=states,
        controls=np.array([-1.0, 0.0, 1.0]),
        noise=[point_laws([0.0] * (M + 1))] * (D + 1),
        cost=cost or default_cost,
        dynamics=dyn,
        final_cost=np.array([0.0, 1.0]) if final is None else final,
    )


# ---------------------------------------------------------------- generic


def test_generic_resource_single_day_example():
    # targets {0, 1}, move cost |u|, final cost r^2: staying at 0 is free
    p = move_problem()
    seq = generic_resource_recursion(p)
    assert seq.kind == "resource-upper"
    assert seq.days[0].values[0] == pytest.approx(0.0, abs=1e-12)
    assert seq.days[0].values[1] == pytest.approx(0.0, abs=1e-12)  # target 0 reachable


def test_generic_resource_infeasible_everywhere():
    p = move_problem(cost=lambda d, m, x, u, w: INF)
    seq = generic_resource_recursion(p)
    assert np.all(np.isposinf(seq.days[0].values))


def test_generic_resource_upper_bounds_exact():
    p = move_problem(D=1)
    exact = flat_dp_solve(TinyProblem(**{**_fields(p), "inequality": True}))
    upper = generic_resource_recursion(p).days[0].values
    assert np.all(upper >= exact - 1e-9)


def test_generic_price_zero_price_collapses_to_min_continuation():
    p = move_problem()
    seq = generic_price_recursion(p, np.array([0.0]))
    assert seq.kind == "price-lower"
    # ell at price 0 is the day cost with free end state (0 here), plus min K
    assert np.allclose(seq.days[0].values, 0.0 + p.final_cost.min(), atol=1e-12)


def test_generic_price_linear_cost_example():
    # single no-op control: the day value with terminal p*x is exactly p*x
    states = np.array([0.0, 1.0, 2.0])

    def cost(d, m, x, u, w):
        return 0.0

    def dyn(d, m, x, u, w):
        return x

    p = TinyProblem(
        D=0, M=0, states=states, controls=np.array([0.0]),
        noise=[point_laws([0.0])], cost=cost, dynamics=dyn,
        final_cost=np.zeros(3),
    )
    seq = generic_price_recursion(p, np.array([-2.0, -1.0, 0.0]))
    # max_p (p*x - max_r p*r) = 0, attained at p = 0
    assert np.allclose(seq.days[0].values, 0.0, atol=1e-12)


def test_generic_price_rejects_positive_prices():
    with pytest.raises(ValueError):
        generic_price_recursion(move_problem(), np.array([-1.0, 0.5]))


def test_generic_terminal_agreement():
    p = move_problem(final=np.array([3.0, 7.0]))
    up = generic_resource_recursion(p)
    lo = generic_price_recursion(p, np.array([-1.0, 0.0]))
    ex = block_bellman_solve(p)
    for seq in (up, lo, ex):
        assert np.array_equal(seq.days[p.D + 1].values, p.final_cost)


def test_slow_value_seq_kind_validation():
    g = Grid([[0.0]])
    with pytest.raises(ValueError):
        SlowValueSeq("bogus", g, np.zeros((2, 1)))
    assert SlowValueSeq("exact-oracle", g, np.zeros((3, 1))).horizon == 1
    for shape in ((3, 2), (1, 1), (3,)):
        with pytest.raises(ValueError, match="not \\(D\\+2,\\)"):
            SlowValueSeq("exact-oracle", g, np.zeros(shape))


# ---------------------------------------------------------------- battery


def battery_seqs(world, gamma=None, renewal_grid=None, D=None, price=0.05):
    cfg = world["cfg"]
    if gamma is not None or renewal_grid is not None:
        kw = {}
        if gamma is not None:
            kw["gamma"] = gamma
        if renewal_grid is not None:
            kw["renewal_grid"] = renewal_grid
        cfg = small_battery_config(**kw)
    D = world["D"] if D is None else D
    classmap = build_periodicity_classes(D, 1)
    price_laws = point_table(price, D + 1)
    upper = resource_bellman_recursion(
        {1: world["rtab"]}, classmap, price_laws, cfg, world["h_grid"], world["c_grid"], D
    )
    lower = price_bellman_recursion(
        {1: world["ptab"]}, classmap, price_laws, cfg, world["h_grid"], world["c_grid"], D
    )
    return lower, upper


def test_battery_recursions_sandwich_small_world(small_world):
    lower, upper = battery_seqs(small_world)
    rep = check_sandwich(lower, upper, np.array([0.0, 0.0]))
    assert rep.violations == 0
    assert np.all(rep.gap_at_x0 >= -1e-9)


def test_battery_no_battery_column_identical(small_world):
    # with purchases priced out, both recursions' c = 0 columns are the same
    # discounted no-battery bill (no duality gap without a battery)
    lower, upper = battery_seqs(small_world, price=1e9)
    for lo, up in zip(lower.days, upper.days):
        assert np.allclose(lo.values[:, 0], up.values[:, 0], atol=1e-9)


def test_battery_no_battery_value_is_discounted_bill_sum(small_world):
    # battery price far above any possible saving: nobody ever buys
    lower, upper = battery_seqs(small_world, price=1e9)
    cfg = small_world["cfg"]
    base = small_world["rtab"].table.values[0, 0]
    D = small_world["D"]
    geo = base * sum(cfg.gamma**k for k in range(D + 1))
    assert upper.days[0].values[0, 0] == pytest.approx(geo, rel=1e-12)
    assert lower.days[0].values[0, 0] == pytest.approx(geo, rel=1e-12)


def test_battery_values_nonincreasing_in_health(small_world):
    lower, upper = battery_seqs(small_world)
    for seq in (lower, upper):
        for day in seq.days:
            assert np.all(np.diff(day.values, axis=0) <= 1e-9)


def test_battery_discount_consistency_single_day(small_world):
    # gamma = 1, one day, no renewal, zero final cost: the resource value is
    # the cheapest intraday entry over aging budgets not exceeding h
    lower, upper = battery_seqs(
        small_world, gamma=1.0, renewal_grid=(0.0,), D=0, price=1.0
    )
    rvals = small_world["rtab"].table.values
    dh_grid = small_world["dh_grid"]
    h_grid = small_world["h_grid"]
    for hi, h in enumerate(h_grid):
        feas = dh_grid <= h + 1e-9
        for ci in range(rvals.shape[0]):
            assert upper.days[0].values[hi, ci] == pytest.approx(
                rvals[ci, feas].min(), abs=1e-9
            )


def test_renewal_values_mapping():
    cfg = small_battery_config()  # renewal grid (0, 50), cycle count 4, gamma 0.99
    h_grid = np.array([0.0, 100.0, 200.0])
    c_grid = np.array([0.0, 50.0])
    renewal = renewal_states(h_grid, c_grid, cfg)
    assert [a.tolist() for a in renewal] == [[50.0], [2], [1]]  # fresh state (200, 50)
    vnext = np.arange(6, dtype=float).reshape(3, 2)
    support, probs = np.array([0.1, 0.2, 0.3]), [0.5, 0.0, 0.5]
    by_size = support[:, None] * renewal[0]
    disc = np.empty((2, 3))
    atoms = day_continuation(vnext, by_size, probs, cfg.gamma, renewal, disc)
    # over (c, h), with the bytes of gamma * vnext
    assert disc.T.tobytes(order="C") == (0.99 * vnext).tobytes()
    assert [p for p, _ in atoms] == [0.5, 0.5]  # zero-probability atoms skipped
    assert [b for _, b in atoms] == [p * 50.0 + 0.99 * vnext[2, 1] for p in (0.1, 0.3)]
    none = small_battery_config(renewal_grid=(0.0,))
    nothing = renewal_states(h_grid, c_grid, none)
    by_none = support[:, None] * nothing[0]
    no_buy = day_continuation(vnext, by_none, probs, none.gamma, nothing, disc)
    assert [b for _, b in no_buy] == [INF, INF]


def test_renewal_values_require_on_grid_states():
    cfg = small_battery_config()
    with pytest.raises(ValueError, match="not on the"):
        renewal_states(np.array([0.0, 100.0]), np.array([0.0, 50.0]), cfg)
    with pytest.raises(ValueError, match="not on the"):
        renewal_states(np.array([0.0, 200.0]), np.array([0.0, 25.0]), cfg)


def test_interp_matches_np_interp_bit_for_bit():
    rng = np.random.default_rng(7)
    for _ in range(300):
        xp = np.sort(rng.choice(np.linspace(0.0, 800.0, 41), rng.integers(1, 9), replace=False))
        fp = rng.normal(size=(3, len(xp))) * 10.0 ** rng.integers(-3, 6)
        for v in (INF, -INF, 0.0, -0.0):
            fp[rng.random(fp.shape) < 0.1] = v
        axis = np.concatenate([rng.choice(xp, 3), rng.uniform(-50.0, 900.0, 4)])
        x = np.maximum(xp[:, None] - axis[None, :], 0.0) + rng.choice([0.0, -10.0, 1000.0])
        # every row, and the last two rows read in reverse order
        for rows in (np.arange(3), np.array([2, 1])):
            with np.errstate(invalid="ignore"):
                got = _Interp(x, xp, rows, len(fp))(fp)
            assert got.shape == (len(rows),) + x.shape
            for f, g in zip(fp[rows], got):
                with np.errstate(invalid="ignore"):
                    assert g.tobytes() == np.interp(x, xp, f).tobytes()


@pytest.mark.parametrize("shape", [(), (1,), (1, 1), (2,), (3, 61), (61, 3), (3, 2000), (1, 7)])
def test_expect_equals_the_loop_over_atoms_bit_for_bit(shape):
    # up to 12 atoms; keep in C order and, for two axes, also as a
    # transposed view
    rng = np.random.default_rng(5)
    for _ in range(50):
        n_atoms = int(rng.integers(1, 13))
        keep = np.array(rng.normal(size=shape) * 10.0 ** rng.integers(-3, 6))
        keep[rng.random(shape) < 0.2] = INF
        best_buy = rng.normal(size=n_atoms) * 10.0 ** rng.integers(-3, 6)
        best_buy[rng.random(n_atoms) < 0.2] = INF
        probs = rng.random(n_atoms) + 0.01
        probs /= probs.sum()
        atoms = list(zip(probs.tolist(), best_buy.tolist()))
        for k in (keep, keep.T) if keep.ndim == 2 else (keep,):
            out, term = np.empty(k.shape), np.empty(k.shape)
            got, want = _expect(k, atoms, out, term), _ref_expect(k, probs, best_buy)
            assert got is out and got.shape == k.shape
            assert got.tobytes() == want.tobytes()


def _per_capacity_recursion(dec, tables, classmap, price_laws, cfg, h_grid, c_grid, D):
    """Reference battery recursion, the day step as it was before it was
    made lean: one (support, probs) law of ``price_laws`` per day, one objective per
    capacity index, the dense unpacked one for resource, reduced over the
    whole day axis."""
    renewal = renewal_states(h_grid, c_grid, cfg)
    values = np.empty((D + 2, len(h_grid), len(c_grid)))
    values[D + 1] = 0.0
    for d in range(D, -1, -1):
        table = tables[int(classmap.day_to_class[d])]
        cont = _ref_continuation(values[d + 1], price_laws[d], cfg, renewal)
        for ci in range(len(c_grid)):
            if dec.budget_axis:
                obj = _dense_resource_objective(table, h_grid, h_grid, FEAS_TOL, [ci], cont)
                values[d, :, ci] = np.minimum.reduce(obj[0], axis=1)
            else:
                obj = _ref_price_objective(table, h_grid, h_grid, [ci], cont)
                values[d, :, ci] = np.maximum.reduce(obj[0], axis=1)
    return values


def _pipeline_world(cfg, out):
    """The intraday tables of a pipeline run and its recursion arguments
    with the price laws as the fit wrote them, a list of (support, probs)
    pairs: each day's row of laws.npz without its probability-0 padding."""
    stage_fit(cfg, out)
    stage_intraday(cfg, out)
    with np.load(out / "laws.npz") as npz:
        rows = zip(npz["price_support"], npz["price_probs"])
        laws = [(xs[ps > 0.0], ps[ps > 0.0]) for xs, ps in rows]
    tables = {dec: _load_tables(cfg, out, dec) for dec in (RESOURCE, PRICE)}
    args = (cfg.classmap, laws, cfg.battery_config(), cfg.h_grid(), cfg.c_grid(), cfg.D)
    return tables, args


@pytest.fixture(scope="module")
def criterion_10_world(tmp_path_factory):
    return _pipeline_world(CRITERION_10, tmp_path_factory.mktemp("criterion_10"))


@pytest.fixture(scope="module")
def merged_atoms_world(tmp_path_factory):
    """Criterion 10 with a battery price low enough that the floor merges
    two of its five atoms from day 13 on: a ragged (days, atoms) table."""
    cfg = dataclasses.replace(CRITERION_10, price_forecast=(0.032, 0.001), price_atoms=5)
    tables, args = _pipeline_world(cfg, tmp_path_factory.mktemp("merged"))
    sizes = [len(probs) for _, probs in args[1]]
    assert sizes[:13] == [5] * 13 and sizes[13:] == [4] * (len(sizes) - 13)
    return tables, args


@pytest.mark.parametrize("dec", [RESOURCE, PRICE], ids=lambda dec: dec.mode)
@pytest.mark.parametrize("world", ["small_world", "criterion_10_world", "merged_atoms_world"])
def test_recursion_equals_per_capacity_loop_bit_for_bit(request, world, dec):
    if world == "small_world":
        w = request.getfixturevalue(world)
        tab = w["rtab"] if dec.budget_axis else w["ptab"]
        tables = {1: tab}
        args = (w["classmap"], [point(0.05)] * (w["D"] + 1), w["cfg"],
                w["h_grid"], w["c_grid"], w["D"])
    else:
        all_tables, args = request.getfixturevalue(world)
        tables = all_tables[dec]
    classmap, laws, *rest = args
    seq = _bellman_recursion(dec, tables, classmap, law_table(laws), *rest)
    want = _per_capacity_recursion(dec, tables, *args)
    assert seq.kind == dec.kind
    assert seq.values.tobytes() == want.tobytes()


def test_resource_recursion_retries_interpolation_on_infinite_values(small_world, monkeypatch):
    # 4 controls leave out u = 0, so no control fits a zero aging budget: the
    # dh = 0 entries of every battery are +inf, and so is the value at h = 0,
    # which tomorrow's health between h = 0 and the next grid point reads
    w = small_world
    rtab = compute_intraday(
        RESOURCE, w["cfg"], w["slot_laws"], w["c_grid"], w["dh_grid"], n_soc=N_SOC,
        n_controls=4,
    )
    assert np.isposinf(rtab.table.values[1:, 0]).all()
    retried = []
    retry = slowscale._interp_retry

    def counting_retry(interp, fp, out):
        retried.append(int(np.isnan(out).sum()))
        return retry(interp, fp, out)

    monkeypatch.setattr(slowscale, "_interp_retry", counting_retry)
    laws = [point(0.05)] * (w["D"] + 1)
    args = (w["classmap"], laws, w["cfg"], w["h_grid"], w["c_grid"], w["D"])
    seq = _bellman_recursion(RESOURCE, {1: rtab}, w["classmap"], law_table(laws), *args[2:])
    assert sum(retried) > 0
    assert np.isposinf(seq.values[:-1, 0, 1:]).all() and not np.isnan(seq.values).any()
    want = _per_capacity_recursion(RESOURCE, {1: rtab}, *args)
    assert seq.values.tobytes() == want.tobytes()


def _shifted_table(table, shift):
    """``table`` with its day axis moved up by ``shift``: the same costs, so
    that a budget h - dh >= -tol needs h >= shift."""
    grid = Grid([table.table.grid.axes[0], table.axis + shift])
    return IntradayTable(
        table.decomposition, GridValueFn(grid, table.table.values), table.n_controls
    )


@pytest.mark.parametrize("h", [
    [0.0, 50.0, 100.0, 150.0, 200.0],  # the first row empty
    [50.0, 0.0, 200.0, -1.0],  # empty rows in the middle and at the end
    [-1.0, 10.0],  # every row empty
])
def test_rows_without_a_feasible_budget_read_inf(small_world, h):
    # a dh axis starting at 30 leaves no feasible budget below h = 30:
    # np.minimum.reduceat would hand such a row the entry at its start, or
    # fail on an empty run at the end
    w = small_world
    table = _shifted_table(w["rtab"], 30.0)
    renewal = renewal_states(w["h_grid"], w["c_grid"], w["cfg"])
    vnext = np.random.default_rng(3).uniform(0.0, 50.0, (len(w["h_grid"]), len(w["c_grid"])))
    disc = np.empty((len(w["c_grid"]), len(w["h_grid"])))
    by_size = 0.05 * renewal[0][None, :]
    atoms = day_continuation(vnext, by_size, [1.0], w["cfg"].gamma, renewal, disc)
    objective = DayObjective(table, h, w["h_grid"], FEAS_TOL)
    obj = objective(disc, atoms)
    cont = _ref_continuation(vnext, point(0.05), w["cfg"], renewal)
    dense = _dense_resource_objective(table, h, w["h_grid"], FEAS_TOL, slice(None), cont)
    assert obj.shape == (len(w["c_grid"]), np.count_nonzero(np.isfinite(dense[0])))
    assert objective.unpack(obj).tobytes() == dense.tobytes()
    got = objective.reduce(obj, np.empty((len(w["c_grid"]), len(h))))
    want = np.minimum.reduce(dense, axis=2)
    assert np.isposinf(got[:, np.asarray(h) < 30.0]).all()
    assert got.tobytes() == want.tobytes()


def test_resource_recursion_with_empty_budget_rows_equals_dense_reference(small_world):
    w = small_world
    table = _shifted_table(w["rtab"], 30.0)
    laws = [point(0.05)] * (w["D"] + 1)
    args = (w["classmap"], laws, w["cfg"], w["h_grid"], w["c_grid"], w["D"])
    seq = _bellman_recursion(RESOURCE, {1: table}, w["classmap"], law_table(laws), *args[2:])
    assert np.isposinf(seq.values[:-1, 0]).all() and np.isfinite(seq.values[:, 1:]).all()
    assert seq.values.tobytes() == _per_capacity_recursion(RESOURCE, {1: table}, *args).tobytes()


def test_day_plan_packs_the_feasible_pairs_row_by_row(small_world):
    w = small_world
    h = np.array([200.0, 0.0, 60.0, -1.0, 100.0 - 1e-12])
    plan = DayObjective(w["rtab"], h, w["h_grid"], FEAS_TOL)
    # dh in (0, 25, 50, 75, 100); h = 100 - 1e-12 affords dh = 100 within the tolerance
    assert plan.shape == (5, 5)
    assert plan.hi.tolist() == [0] * 5 + [1] + [2] * 3 + [4] * 5
    assert plan.ai.tolist() == [0, 1, 2, 3, 4, 0, 0, 1, 2, 0, 1, 2, 3, 4]
    assert plan.starts.tolist() == [0, 5, 6, 9, 9]
    assert plan.filled.tolist() == [True, True, True, False, True]
    assert plan.ell.tobytes() == w["rtab"].table.values[:, plan.ai].tobytes()
    # on a subset of the capacities, in the order given
    assert DayObjective(w["rtab"], h, w["h_grid"], FEAS_TOL, [1]).ell.tobytes() == (
        w["rtab"].table.values[[1]][:, plan.ai].tobytes()
    )


# ---------------------------------------------------------------- gap report


def test_check_sandwich_trivial_equal():
    g = Grid([[0.0, 1.0]])
    values = np.tile([2.0, 3.0], (3, 1))
    lower = SlowValueSeq("price-lower", g, values)
    upper = SlowValueSeq("resource-upper", g, values)
    rep = check_sandwich(lower, upper, np.array([0.0]))
    assert np.all(rep.max_rel_gap == 0.0)
    assert np.all(rep.gap_at_x0 == 0.0)
    assert rep.violations == 0


def test_check_sandwich_flags_violations():
    g = Grid([[0.0, 1.0]])
    lo = SlowValueSeq("price-lower", g, np.tile([5.0, 1.0], (2, 1)))
    up = SlowValueSeq("resource-upper", g, np.tile([4.0, 2.0], (2, 1)))
    rep = check_sandwich(lo, up, np.array([1.0]))
    assert rep.violations == 2  # one bad point per day
    assert rep.gap_at_x0[0] == pytest.approx(1.0)


def test_check_sandwich_grid_mismatch():
    lo = SlowValueSeq("price-lower", Grid([[0.0, 1.0]]), np.zeros((2, 2)))
    up = SlowValueSeq("resource-upper", Grid([[0.0, 2.0]]), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="different grids"):
        check_sandwich(lo, up, np.array([0.0]))
    longer = SlowValueSeq("resource-upper", lo.grid, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="different horizons"):
        check_sandwich(lo, longer, np.array([0.0]))


def _fields(p: TinyProblem) -> dict:
    from twoscale.oracle import _fields as f

    return f(p)


def _sandwich_by_eval_many(lower, upper, x0, tol=1e-6):
    """Per-day reference report: each day located on its own grid by eval_many."""
    n = len(lower.days)
    max_rel, gap0, lo0, up0 = (np.empty(n) for _ in range(4))
    violations = 0
    x0 = np.asarray(x0, dtype=float).reshape(1, -1)
    for d, (lo, up) in enumerate(zip(lower.days, upper.days)):
        lv, uv = lo.values, up.values
        denom = np.maximum(np.abs(lv), 1e-9)
        max_rel[d] = float(((uv - lv) / denom).max())
        violations += int(np.sum(lv > uv + tol * denom))
        lo0[d], up0[d] = float(lo.eval_many(x0)[0]), float(up.eval_many(x0)[0])
        gap0[d] = (up0[d] - lo0[d]) / max(abs(lo0[d]), 1e-9)
    return max_rel, gap0, lo0, up0, violations


def _with_day(seq, d, values):
    every = seq.values.copy()
    every[d] = values
    return SlowValueSeq(seq.kind, seq.grid, every)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("x0", [(0.0, 0.0), (75.0, 20.0), (200.0, 50.0)])
def test_check_sandwich_matches_per_day_eval_many(small_world, x0):
    lower, upper = battery_seqs(small_world)
    # +inf entries on a cell corner around each x0: one day of the upper
    # bound, and one day where both bounds are infinite somewhere
    inf_up = upper.values[1].copy()
    inf_up[1:3, :] = INF
    upper = _with_day(upper, 1, inf_up)
    both = lower.values[2].copy()
    both[-1, 0] = INF
    lower = _with_day(lower, 2, both)
    upper = _with_day(upper, 2, np.maximum(upper.values[2], both))
    rep = check_sandwich(lower, upper, np.array(x0))
    ref = _sandwich_by_eval_many(lower, upper, np.array(x0))
    for got, want in zip(
        (rep.max_rel_gap, rep.gap_at_x0, rep.lower_at_x0, rep.upper_at_x0), ref[:4]
    ):
        assert got.tobytes() == want.tobytes()
    assert rep.violations == ref[4]
    assert np.isposinf(rep.max_rel_gap[1])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_check_sandwich_block_edges_match_per_day_eval_many(small_world, monkeypatch):
    # blocks of 4 days over 12 days: block edges between days 3 | 4 and 7 | 8
    lower, upper = battery_seqs(small_world, D=10)
    assert lower.grid.size == 10
    monkeypatch.setattr(slowscale, "SANDWICH_BLOCK", 40)
    lo, up = lower.values.copy(), upper.values.copy()
    # the corners of x0 = (75, 20) are h indices 1, 2 and c indices 0, 1
    up[3, 2, 1] = INF  # last day of a block
    lo[4, 1, 0] = INF  # first day of the next one
    up[4, 2, 0] = lo[4, 2, 0] - 1.0  # a violation there too
    lo[7, 1, 1] = up[7, 1, 1] = INF  # both bounds +inf on one day
    lo[8, 2, 0] = INF
    lower = SlowValueSeq(lower.kind, lower.grid, lo)
    upper = SlowValueSeq(upper.kind, upper.grid, up)
    x0 = np.array([75.0, 20.0])
    rep = check_sandwich(lower, upper, x0)
    ref = _sandwich_by_eval_many(lower, upper, x0)
    for got, want in zip(
        (rep.max_rel_gap, rep.gap_at_x0, rep.lower_at_x0, rep.upper_at_x0), ref[:4]
    ):
        assert got.tobytes() == want.tobytes()
    assert rep.violations == ref[4] > 0
    assert np.isposinf(rep.upper_at_x0[3]) and np.isposinf(rep.lower_at_x0[4])
    assert np.isnan(rep.gap_at_x0[7])


@pytest.mark.parametrize("day, corners", [(9, [(1, 0), (4, 1)]), (10, [(2, 1)])])
def test_slow_value_seq_refuses_nan(small_world, day, corners):
    # a NaN beside an infinity (day 9) would blend to 0, one without it to NaN
    lower, _ = battery_seqs(small_world, D=10)
    lo = lower.values.copy()
    lo[(day,) + corners[0]] = np.nan
    for corner in corners[1:]:
        lo[(day,) + corner] = INF
    with pytest.raises(ValueError, match="NaN"):
        SlowValueSeq(lower.kind, lower.grid, lo)


def test_slow_value_seq_refuses_neg_inf(small_world):
    # a value is a real cost or +inf
    lower, _ = battery_seqs(small_world, D=10)
    lo = lower.values.copy()
    lo[9, 1, 0] = -INF
    with pytest.raises(ValueError, match="price-lower values hold -inf"):
        SlowValueSeq(lower.kind, lower.grid, lo)


def test_check_sandwich_memory_stays_within_a_block():
    # a decade-sized pair: one bound's values take 4.8 MB
    grid = Grid([np.linspace(0.0, 800.0, 61), np.array([0.0, 100.0, 200.0])])
    values = np.random.default_rng(5).uniform(1.0, 2.0, (3286,) + grid.shape)
    lower = SlowValueSeq("price-lower", grid, values)
    upper = SlowValueSeq("resource-upper", grid, values + 0.5)
    tracemalloc.start()
    try:
        rep = check_sandwich(lower, upper, np.array([0.0, 0.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.violations == 0
    assert peak < values.nbytes / 3


def test_battery_recursion_days_are_read_only_views(small_world):
    lower, upper = battery_seqs(small_world)
    for seq in (lower, upper):
        assert seq.values.shape == (small_world["D"] + 2,) + seq.grid.shape
        for d, day in enumerate(seq.days):
            assert day.grid is seq.grid
            assert np.shares_memory(day.values, seq.values)
            assert day.values.tobytes() == seq.values[d].tobytes()
        with pytest.raises(ValueError):
            seq.values[0, 0, 0] = 1.0
