"""Fast-scale DP engine, periodicity classes and the daily cost tables."""

from __future__ import annotations

import json

import numpy as np
import pytest

from twoscale.core import INF, DiscreteDist, Grid, GridValueFn, low_add_arrays
from twoscale.intraday import (
    FastStage,
    FastStageModel,
    PeriodicityClassMap,
    _cell_model,
    _expect_accumulate,
    _expect_start,
    _expect_value,
    _fast_cell,
    build_periodicity_classes,
    compute_price_intraday,
    compute_resource_intraday,
    no_battery_bill,
    solve_fast_dp,
)
from twoscale.oracle import random_tiny_problem

from conftest import N_CONTROLS, N_SOC, point_laws, small_battery_config


def point(v):
    return DiscreteDist(np.array([float(v)]), np.array([1.0]))


def make_stage(grid, controls, noise, cost, dyn):
    return FastStage(
        state_grid=grid,
        controls=np.asarray(controls, dtype=float),
        noise=noise,
        cost=cost,
        dynamics=dyn,
    )


def stay(s, u, w):
    """Next states equal to the states, for every control."""
    return np.broadcast_to(s, (len(u),) + s.shape)


# ---------------------------------------------------------------- generic DP


def test_fast_dp_free_control_example():
    grid = Grid([[0.0]])
    stage = make_stage(
        grid, [0.0, 1.0], point(0.0), lambda s, u, w: np.tile(u[:, None], len(s)), stay
    )
    model = FastStageModel(stages=(stage,), terminal_grid=grid)
    sol = solve_fast_dp(model, GridValueFn(grid, np.zeros(1)))
    assert sol.values[0].values[0] == 0.0


def test_fast_dp_two_step_quadratic_example():
    # cost u^2 per step, terminal -x, dynamics x' = x + u: grid optimum is 0
    grid = Grid([np.arange(-2.0, 3.0)])
    controls = [-1.0, 0.0, 1.0]

    def cost(s, u, w):
        return np.tile(u[:, None] * u[:, None], len(s))

    def dyn(s, u, w):
        return s[None] + u[:, None, None]

    stages = tuple(
        make_stage(grid, controls, point(0.0), cost, dyn) for _ in range(2)
    )
    model = FastStageModel(stages=stages, terminal_grid=grid)
    terminal = GridValueFn(grid, -grid.axes[0])
    sol = solve_fast_dp(model, terminal)
    x0 = np.searchsorted(grid.axes[0], 0.0)
    assert sol.values[0].values[x0] == pytest.approx(0.0, abs=1e-12)


def test_fast_dp_expectation_passthrough():
    grid = Grid([[0.0]])
    noise = DiscreteDist(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    stage = make_stage(
        grid, [0.0], noise, lambda s, u, w: np.full((len(u), len(s)), float(w)), stay
    )
    model = FastStageModel(stages=(stage,), terminal_grid=grid)
    sol = solve_fast_dp(model, GridValueFn(grid, np.zeros(1)))
    assert sol.values[0].values[0] == pytest.approx(0.0)


def test_fast_dp_all_infeasible_gives_infinity():
    grid = Grid([[0.0, 1.0]])
    stage = make_stage(
        grid,
        [0.0, 1.0],
        point(0.0),
        lambda s, u, w: np.tile(np.where(s[:, 0] > 0.5, INF, 1.0), (len(u), 1)),
        stay,
    )
    model = FastStageModel(stages=(stage,), terminal_grid=grid)
    sol = solve_fast_dp(model, GridValueFn(grid, np.zeros(2)))
    assert sol.values[0].values[1] == INF
    assert sol.values[0].values[0] == 1.0


def test_fast_dp_terminal_grid_mismatch():
    grid = Grid([[0.0, 1.0]])
    other = Grid([[0.0, 2.0]])
    stage = make_stage(
        grid, [0.0], point(0.0), lambda s, u, w: np.zeros((len(u), len(s))), stay
    )
    model = FastStageModel(stages=(stage,), terminal_grid=grid)
    with pytest.raises(ValueError):
        solve_fast_dp(model, GridValueFn(other, np.zeros(2)))


@pytest.mark.parametrize(
    "cost, dyn, handle",
    [
        # the per-control forms: one row of states, no control axis
        (lambda s, u, w: np.zeros((len(u), len(s))), lambda s, u, w: s, "dynamics"),
        (lambda s, u, w: np.zeros(len(s)), stay, "cost"),
    ],
)
def test_fast_dp_rejects_a_handle_off_the_contract_shape(cost, dyn, handle):
    grid = Grid([[0.0, 1.0]])
    stage = make_stage(grid, [0.0, 1.0], point(0.0), cost, dyn)
    model = FastStageModel(stages=(stage,), terminal_grid=grid)
    with pytest.raises(ValueError, match=f"{handle} returned shape"):
        solve_fast_dp(model, GridValueFn(grid, np.zeros(2)))


def _tree_value(stages, terminal_axis, terminal_vals, m, x):
    """Brute-force scenario recursion for integer-state shift instances."""
    if m == len(stages):
        i = int(np.argmin(np.abs(terminal_axis - x)))
        return float(terminal_vals[i])
    stage = stages[m]
    total = 0.0
    axis = stage.state_grid.axes[0]
    for w, p in stage.noise.atoms():
        best = INF
        for u in stage.controls:
            c = float(stage.cost(np.array([[x]]), np.array([u]), float(w))[0, 0])
            nxt = float(stage.dynamics(np.array([[x]]), np.array([u]), float(w))[0, 0, 0])
            nxt = float(np.clip(nxt, axis[0], axis[-1]))
            q = c + _tree_value(stages, terminal_axis, terminal_vals, m + 1, nxt)
            best = min(best, q)
        total += p * best
    return total


class _TabCost:
    def __init__(self, tab):
        self.tab = tab

    def __call__(self, s, u, w):
        xi = np.clip(np.round(s[:, 0]).astype(int), 0, self.tab.shape[0] - 1)
        ui = np.round(u).astype(int) + 1
        return self.tab[xi[None, :], ui[:, None], int(round(w)) + 1]


def _shift_instances(seed=123, n=10):
    """Random integer-state instances x' = clip(x + u + w) with tabulated
    costs and noise-dependent dynamics: (model, terminal) pairs."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        n_states = int(rng.integers(2, 4))
        axis = np.arange(n_states, dtype=float)
        grid = Grid([axis])
        n_steps = int(rng.integers(1, 4))
        controls = np.array(sorted(rng.choice([-1.0, 0.0, 1.0], 2, replace=False)))
        stages = []
        for _ in range(n_steps):
            n_atoms = int(rng.integers(1, 3))
            atoms = np.array(sorted(rng.choice([-1.0, 0.0, 1.0], n_atoms, replace=False)))
            probs = rng.random(n_atoms) + 0.1
            probs /= probs.sum()

            def dyn(s, u, w, lo=axis[0], hi=axis[-1]):
                return np.clip(s[None] + u[:, None, None] + w, lo, hi)

            stages.append(
                make_stage(
                    grid,
                    controls,
                    DiscreteDist(atoms, probs),
                    _TabCost(rng.uniform(0.0, 2.0, size=(n_states, 3, 3))),
                    dyn,
                )
            )
        terminal_vals = rng.uniform(0.0, 2.0, size=n_states)
        model = FastStageModel(stages=tuple(stages), terminal_grid=grid)
        out.append((model, GridValueFn(grid, terminal_vals)))
    return out


def test_fast_dp_matches_exhaustive_enumeration():
    for model, terminal in _shift_instances():
        axis = terminal.grid.axes[0]
        sol = solve_fast_dp(model, terminal)
        for i, x in enumerate(axis):
            brute = _tree_value(model.stages, axis, terminal.values, 0, float(x))
            assert sol.values[0].values[i] == pytest.approx(brute, abs=1e-9)


def _per_control_reference(model, terminal):
    """The fast DP control by control, the reference for the broadcast
    solver: each handle's (controls, ...) result is taken one control row at a
    time, its next states are looked up with eval_many and the best control
    is kept by a sequential np.minimum."""
    values = [terminal]
    vnext = terminal
    for stage in reversed(model.stages):
        states = stage.state_grid.points()
        total, pos, neg = _expect_start(len(states))
        for w, p in stage.noise.atoms():
            cost = stage.cost(states, stage.controls, w)
            nxt = stage.dynamics(states, stage.controls, w)
            q_best = None
            for k in range(len(stage.controls)):
                q = low_add_arrays(cost[k], vnext.eval_many(nxt[k]))
                q_best = q if q_best is None else np.minimum(q_best, q)
            total, pos, neg = _expect_accumulate(total, pos, neg, q_best, p)
        vnext = GridValueFn(stage.state_grid, _expect_value(total, pos, neg))
        values.append(vnext)
    return [v.values for v in reversed(values)]


def _assert_matches_reference(model, terminal):
    fast = [v.values for v in solve_fast_dp(model, terminal).values]
    ref = _per_control_reference(model, terminal)
    assert len(fast) == len(ref) == len(model.stages) + 1
    for a, b in zip(fast, ref):
        assert np.array_equal(np.isposinf(a), np.isposinf(b))
        assert np.array_equal(a, b)
    return ref


@pytest.mark.parametrize(
    "budget_axis, c, axis, n_soc, n_controls, some_inf",
    [
        # budget axis: |u| in {12.5, 25} falls between the 16.7-kWh budget points
        (True, 50.0, np.linspace(0.0, 100.0, 7), 5, 5, False),
        # no u = 0 control: the zero-budget row is infeasible
        (True, 50.0, np.linspace(0.0, 60.0, 4), 6, 4, True),
        # the last surcharge point sits at fraction 1 of the last cell
        (False, 50.0, np.array([0.0, 0.05, 0.1]), 5, 7, False),
        # soc 2, 4, 6 of a 10-kWh battery cannot move by 7.9 kWh: +inf rows
        (False, 10.0, np.array([0.0, 0.2]), 5, 4, True),
    ],
)
def test_broadcast_stages_match_per_control_reference(
    budget_axis, c, axis, n_soc, n_controls, some_inf
):
    cfg = small_battery_config()
    laws = [
        DiscreteDist(np.array([-9.0, 3.5, 11.0]), np.array([0.25, 0.5, 0.25])),
        point(-8.0),
        DiscreteDist(np.array([2.0, 14.0]), np.array([0.4, 0.6])),
        point(12.0),
    ]
    ref = _assert_matches_reference(
        *_cell_model(cfg, laws, c, axis, n_soc, n_controls, budget_axis)
    )
    mixed = [np.isposinf(t).any() and np.isfinite(t).any() for t in ref]
    assert any(mixed) == some_inf
    assert all(np.isfinite(t).all() for t in ref) == (not some_inf)


def test_noise_dependent_stages_match_per_control_reference():
    for model, terminal in _shift_instances():
        _assert_matches_reference(model, terminal)
    p = random_tiny_problem(7)
    model = p.day_model(0)
    _assert_matches_reference(model, GridValueFn(model.terminal_grid, p.final_cost))


def test_plan_built_once_per_cell_and_once_per_noise_dependent_atom(monkeypatch):
    plans = []
    interp_plan = Grid.interp_plan

    def counted(grid, x):
        plans.append(len(x))
        return interp_plan(grid, x)

    monkeypatch.setattr(Grid, "interp_plan", counted)
    cfg = small_battery_config()
    laws = [DiscreteDist(np.array([-9.0, 11.0]), np.array([0.5, 0.5]))] * 4
    _fast_cell(cfg, laws, 50.0, np.linspace(0.0, 100.0, 7), 5, 5, True)
    assert plans == [5 * 5 * 7]
    # a transition that depends on w returns a new array at every atom
    plans.clear()
    p = random_tiny_problem(7)
    model = p.day_model(0)
    solve_fast_dp(model, GridValueFn(model.terminal_grid, p.final_cost))
    assert len(plans) == sum(len(list(st.noise.atoms())) for st in model.stages)


# ---------------------------------------------------------------- periodicity


def test_periodicity_trimester_two_years():
    cm = build_periodicity_classes(729, 4)
    assert cm.day_to_class[0] == 1 and cm.day_to_class[365] == 1
    assert cm.day_to_class[89] == 1 and cm.day_to_class[90] == 2
    assert cm.day_to_class[180] == 2 and cm.day_to_class[181] == 3
    assert cm.day_to_class[272] == 3 and cm.day_to_class[273] == 4
    assert cm.day_to_class[364] == 4
    assert cm.representatives == {1: 0, 2: 90, 3: 181, 4: 273}


def test_periodicity_single_class():
    cm = build_periodicity_classes(9, 1)
    assert set(cm.day_to_class.tolist()) == {1}
    assert cm.representatives == {1: 0}


def test_periodicity_errors():
    with pytest.raises(ValueError):
        build_periodicity_classes(9, 3)
    with pytest.raises(ValueError):
        build_periodicity_classes(9, 0)
    with pytest.raises(ValueError):
        PeriodicityClassMap(np.array([1, 2]), {1: 1})


# ---------------------------------------------------------------- daily tables


@pytest.fixture(scope="module")
def world(small_world):
    return small_world


def test_resource_table_base_cases(world):
    rtab, cfg, laws = world["rtab"], world["cfg"], world["slot_laws"]
    base = no_battery_bill(laws, cfg.rates)
    # c = 0 row is the pure bill regardless of the aging budget
    assert np.allclose(rtab.table.values[0, :], base)
    # dh = 0 column: a zero budget forces u = 0, same bill
    assert rtab.table.values[1, 0] == pytest.approx(base, abs=1e-9)


def test_resource_table_monotone_in_budget(world):
    vals = world["rtab"].table.values
    assert np.all(np.diff(vals, axis=1) <= 1e-9)


def test_resource_table_nonnegative(world):
    assert np.all(world["rtab"].table.values >= -1e-12)


def test_price_table_base_cases(world):
    ptab, cfg, laws = world["ptab"], world["cfg"], world["slot_laws"]
    base = no_battery_bill(laws, cfg.rates)
    assert np.allclose(ptab.table.values[0, :], base)


def test_price_table_monotone_in_surcharge(world):
    vals = world["ptab"].table.values
    assert np.all(np.diff(vals, axis=1) >= -1e-9)


def test_price_table_huge_surcharge_prices_battery_out():
    cfg = small_battery_config()
    laws = point_laws([10.0, -8.0, 6.0, 12.0])
    c_grid = np.array([0.0, 50.0])
    tab = compute_price_intraday(
        1, cfg, laws, c_grid, np.array([0.0, 1e6]), n_soc=N_SOC, n_controls=N_CONTROLS
    )
    base = no_battery_bill(laws, cfg.rates)
    assert tab.table.values[1, 1] == pytest.approx(base, abs=1e-9)


def test_resource_single_step_cannot_discharge_empty():
    # one slot, demand 1, tariff 1, big budget: the empty battery cannot help
    cfg = small_battery_config(
        charge_eff=1.0, discharge_eff=1.0, u_max=10.0, renewal_grid=(0.0, 10.0), rates=(1.0,),
    )
    laws = point_laws([1.0])
    tab = compute_resource_intraday(
        1, cfg, laws, np.array([0.0, 10.0]), np.array([0.0, 20.0]), n_soc=5, n_controls=5
    )
    assert tab.table.values[1, 1] == pytest.approx(1.0, abs=1e-9)


def test_price_two_step_arbitrage_is_free_at_zero_surcharge():
    # surplus 1 then demand 1 at unit tariff: charging then discharging wipes
    # the bill when the surcharge is zero and efficiencies are 1
    cfg = small_battery_config(
        charge_eff=1.0, discharge_eff=1.0, u_max=1.0, renewal_grid=(0.0, 10.0), rates=(1.0, 1.0),
    )
    laws = point_laws([-1.0, 1.0])
    tab = compute_price_intraday(
        1, cfg, laws, np.array([0.0, 10.0]), np.array([0.0, 0.5]), n_soc=9, n_controls=3
    )
    assert tab.table.values[1, 0] == pytest.approx(0.0, abs=1e-9)
    # the no-battery bill is 1; with surcharge 0.5 the exchange costs exactly 1
    assert tab.table.values[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_intraday_weak_duality(world):
    # L^P(c, pi) <= L^R(dh, c) + pi * dh for every pi, dh, c
    rvals = world["rtab"].table.values  # (c, dh)
    pvals = world["ptab"].table.values  # (c, pi)
    dh_grid, pi_grid = world["dh_grid"], world["pi_grid"]
    for ci in range(len(world["c_grid"])):
        for pi_i, pi in enumerate(pi_grid):
            lhs = pvals[ci, pi_i]
            rhs = rvals[ci, :] + pi * dh_grid
            assert lhs <= rhs.min() + 1e-9


def test_periodicity_bit_exact_tables(world):
    cfg, laws = world["cfg"], world["slot_laws"]
    kw = dict(n_soc=N_SOC, n_controls=N_CONTROLS)
    a = compute_resource_intraday(1, cfg, laws, world["c_grid"], world["dh_grid"], **kw)
    b = compute_resource_intraday(1, cfg, laws, world["c_grid"], world["dh_grid"], **kw)
    assert json.dumps(a.table.to_jsonable()) == json.dumps(b.table.to_jsonable())
    pa = compute_price_intraday(1, cfg, laws, world["c_grid"], world["pi_grid"], **kw)
    pb = compute_price_intraday(1, cfg, laws, world["c_grid"], world["pi_grid"], **kw)
    assert json.dumps(pa.table.to_jsonable()) == json.dumps(pb.table.to_jsonable())
    assert a.fast.shape == (len(world["c_grid"]) - 1, len(laws) + 1, N_SOC, len(world["dh_grid"]))
    assert np.array_equal(a.fast, b.fast)


def test_negative_surcharge_rejected(world):
    with pytest.raises(ValueError):
        compute_price_intraday(
            1, world["cfg"], world["slot_laws"], world["c_grid"], np.array([-0.1, 0.0]),
            N_SOC, N_CONTROLS,
        )


def test_capacity_grid_not_from_zero_rejected(world):
    with pytest.raises(ValueError, match="start at c = 0"):
        compute_price_intraday(
            1, world["cfg"], world["slot_laws"], np.array([25.0, 50.0]), world["pi_grid"],
            N_SOC, N_CONTROLS,
        )
