"""Fast-scale DP engine, periodicity classes and the daily cost tables."""

from __future__ import annotations

import json

import numpy as np
import pytest

from twoscale.battery import white_noise_resample
from twoscale.core import INF, Grid, GridValueFn, LawTable
from twoscale.intraday import (
    PRICE,
    RESOURCE,
    FastStage,
    FastStageModel,
    PeriodicityClassMap,
    _cell_model,
    _expect_accumulate,
    _expect_start,
    _expect_value,
    _fast_cell,
    build_periodicity_classes,
    compute_intraday,
    no_battery_bill,
    solve_fast_dp,
)
from twoscale.oracle import random_tiny_problem

from conftest import N_CONTROLS, N_SOC, law_table, point_laws, small_battery_config


def point(v):
    """The law of the one atom v, as a (support, probs) pair."""
    return [float(v)], [1.0]


def make_stage(grid, controls, cost, dyn, fixed=None):
    controls = np.asarray(controls, dtype=float)
    return FastStage(
        state_grid=grid,
        controls=controls,
        cost=cost,
        dynamics=dyn,
        fixed=np.zeros((len(controls), grid.size)) if fixed is None else fixed,
    )


def stay(s, u, w):
    """Next states equal to the states, for every control."""
    return np.broadcast_to(s, (len(u),) + s.shape)


# ---------------------------------------------------------------- generic DP


def test_fast_dp_free_control_example():
    grid = Grid([[0.0]])
    stage = make_stage(grid, [0.0, 1.0], lambda s, u, w: np.tile(u[:, None], len(s)), stay)
    model = FastStageModel(stages=(stage,), terminal_grid=grid, noise=point_laws([0.0]))
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

    stages = tuple(make_stage(grid, controls, cost, dyn) for _ in range(2))
    model = FastStageModel(stages=stages, terminal_grid=grid, noise=point_laws([0.0, 0.0]))
    terminal = GridValueFn(grid, -grid.axes[0])
    sol = solve_fast_dp(model, terminal)
    x0 = np.searchsorted(grid.axes[0], 0.0)
    assert sol.values[0].values[x0] == pytest.approx(0.0, abs=1e-12)


def test_fast_dp_expectation_passthrough():
    grid = Grid([[0.0]])
    noise = law_table([([-1.0, 1.0], [0.5, 0.5])])
    stage = make_stage(grid, [0.0], lambda s, u, w: np.full((len(u), len(s)), float(w)), stay)
    model = FastStageModel(stages=(stage,), terminal_grid=grid, noise=noise)
    sol = solve_fast_dp(model, GridValueFn(grid, np.zeros(1)))
    assert sol.values[0].values[0] == pytest.approx(0.0)


def test_fast_dp_all_infeasible_gives_infinity():
    grid = Grid([[0.0, 1.0]])
    stage = make_stage(
        grid,
        [0.0, 1.0],
        lambda s, u, w: np.tile(np.where(s[:, 0] > 0.5, INF, 1.0), (len(u), 1)),
        stay,
    )
    model = FastStageModel(stages=(stage,), terminal_grid=grid, noise=point_laws([0.0]))
    sol = solve_fast_dp(model, GridValueFn(grid, np.zeros(2)))
    assert sol.values[0].values[1] == INF
    assert sol.values[0].values[0] == 1.0


@pytest.mark.parametrize("fixed_inf", [False, True])
def test_fast_dp_refuses_a_neg_inf_cost(fixed_inf):
    # a cost is real or +inf: a -inf noise part is refused, alone or where it
    # meets the +inf of an infeasible control
    grid = Grid([[0.0, 1.0]])
    fixed = np.zeros((2, 2))
    fixed[1] = INF if fixed_inf else 0.0
    stage = make_stage(
        grid, [0.0, 1.0], lambda s, u, w: np.array([[0.0, 1.0], [-INF, -INF]]), stay, fixed
    )
    model = FastStageModel(stages=(stage,), terminal_grid=grid, noise=point_laws([0.0]))
    # (-inf) + (+inf) is NaN, with numpy's invalid-value warning
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="NaN" if fixed_inf else "-inf"):
            solve_fast_dp(model, GridValueFn(grid, np.zeros(2)))


def test_fast_dp_terminal_grid_mismatch():
    grid = Grid([[0.0, 1.0]])
    other = Grid([[0.0, 2.0]])
    stage = make_stage(grid, [0.0], lambda s, u, w: np.zeros((len(u), len(s))), stay)
    model = FastStageModel(stages=(stage,), terminal_grid=grid, noise=point_laws([0.0]))
    with pytest.raises(ValueError):
        solve_fast_dp(model, GridValueFn(other, np.zeros(2)))


def test_fast_dp_model_needs_one_noise_law_per_stage():
    grid = Grid([[0.0]])
    stage = make_stage(grid, [0.0], lambda s, u, w: np.zeros((len(u), len(s))), stay)
    with pytest.raises(ValueError, match="2 noise laws for 1 stages"):
        FastStageModel(stages=(stage,), terminal_grid=grid, noise=point_laws([0.0, 1.0]))


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
    stage = make_stage(grid, [0.0, 1.0], cost, dyn)
    model = FastStageModel(stages=(stage,), terminal_grid=grid, noise=point_laws([0.0]))
    with pytest.raises(ValueError, match=f"{handle} returned shape"):
        solve_fast_dp(model, GridValueFn(grid, np.zeros(2)))


def _tree_value(model, terminal_axis, terminal_vals, m, x):
    """Brute-force scenario recursion for integer-state shift instances."""
    if m == len(model.stages):
        i = int(np.argmin(np.abs(terminal_axis - x)))
        return float(terminal_vals[i])
    stage = model.stages[m]
    total = 0.0
    axis = stage.state_grid.axes[0]
    for w, p in model.noise.atoms(m):
        best = INF
        for u in stage.controls:
            c = float(stage.cost(np.array([[x]]), np.array([u]), float(w))[0, 0])
            c += float(stage.fixed[list(stage.controls).index(u), list(axis).index(x)])
            nxt = float(stage.dynamics(np.array([[x]]), np.array([u]), float(w))[0, 0, 0])
            nxt = float(np.clip(nxt, axis[0], axis[-1]))
            q = c + _tree_value(model, terminal_axis, terminal_vals, m + 1, nxt)
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
        stages, noises = [], []
        for _ in range(n_steps):
            n_atoms = int(rng.integers(1, 3))
            atoms = np.array(sorted(rng.choice([-1.0, 0.0, 1.0], n_atoms, replace=False)))
            probs = rng.random(n_atoms) + 0.1
            probs /= probs.sum()

            def dyn(s, u, w, lo=axis[0], hi=axis[-1]):
                return np.clip(s[None] + u[:, None, None] + w, lo, hi)

            noises.append((atoms, probs))
            stages.append(
                make_stage(
                    grid, controls, _TabCost(rng.uniform(0.0, 2.0, size=(n_states, 3, 3))), dyn
                )
            )
        terminal_vals = rng.uniform(0.0, 2.0, size=n_states)
        model = FastStageModel(stages=tuple(stages), terminal_grid=grid, noise=law_table(noises))
        out.append((model, GridValueFn(grid, terminal_vals)))
    return out


def test_fast_dp_matches_exhaustive_enumeration():
    for model, terminal in _shift_instances():
        axis = terminal.grid.axes[0]
        sol = solve_fast_dp(model, terminal)
        for i, x in enumerate(axis):
            brute = _tree_value(model, axis, terminal.values, 0, float(x))
            assert sol.values[0].values[i] == pytest.approx(brute, abs=1e-9)


def _per_control_reference(model, terminal):
    """The fast DP control by control, the reference for the broadcast
    solver: each handle's (controls, ...) result is taken one control row at a
    time, the noise part is added to the row of the noise-free part, the next
    states are looked up with eval_many and the best control is kept by a
    sequential np.minimum."""
    values = [terminal]
    vnext = terminal
    for m in reversed(range(len(model.stages))):
        stage = model.stages[m]
        states = stage.state_grid.points()
        total, pos = _expect_start(len(states))
        for w, p in model.noise.atoms(m):
            cost = stage.cost(states, stage.controls, w)
            nxt = stage.dynamics(states, stage.controls, w)
            q_best = None
            for k in range(len(stage.controls)):
                q = (cost[k] + stage.fixed[k]) + vnext.eval_many(nxt[k])
                q_best = q if q_best is None else np.minimum(q_best, q)
            total, pos = _expect_accumulate(total, pos, q_best, p)
        vnext = GridValueFn(stage.state_grid, _expect_value(total, pos))
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
    laws = law_table([
        ([-9.0, 3.5, 11.0], [0.25, 0.5, 0.25]),
        point(-8.0),
        ([2.0, 14.0], [0.4, 0.6]),
        point(12.0),
    ])
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


def _battery_cell(laws, **overrides):
    """A 50-kWh resource cell of the small battery on the slot laws."""
    cfg = small_battery_config(**overrides)
    return _cell_model(cfg, laws, 50.0, np.linspace(0.0, 100.0, 5), 5, 5, True)


def test_split_matches_reference_where_a_control_zeroes_the_net_demand():
    # controls -25, -12.5, 0, 12.5, 25: at w = 12.5 the control -12.5 gives
    # w + u == 0 exactly, at w = 0 the control 0 does
    laws = law_table([
        ([-3.0, 0.0, 12.5], [0.3, 0.3, 0.4]),
        point(12.5),
        point(-25.0),
        ([0.0, 7.0], [0.5, 0.5]),
    ])
    model, terminal = _battery_cell(laws)
    controls = model.stages[0].controls
    assert (controls + 12.5 == 0.0).any() and (controls == 0.0).any()
    _assert_matches_reference(model, terminal)


def test_split_matches_reference_on_a_free_slot():
    # rate 0: every control row of slots 0 and 2 is bill-free
    laws = point_laws([10.0, -8.0, 6.0, 12.0])
    model, terminal = _battery_cell(laws, rates=(0.0, 0.2, 0.0, 0.3))
    cost = model.stages[0].cost(None, model.stages[0].controls, 10.0)
    assert not cost.any()
    _assert_matches_reference(model, terminal)


def test_split_matches_reference_where_every_control_pays():
    # w > u_max = 25: no control brings the net demand to 0
    laws = law_table([([26.0, 40.0], [0.5, 0.5]), point(30.0), point(25.5), point(31.0)])
    model, terminal = _battery_cell(laws)
    for m, stage in enumerate(model.stages):
        for w, _ in model.noise.atoms(m):
            assert stage.cost(None, stage.controls, w).all()
    _assert_matches_reference(model, terminal)


class _GappedCost:
    """A noise part whose zero rows sit in the middle of the control grid:
    control rows 1 and 3 of 5 pay nothing at atom 0, every row pays at other
    atoms; the rest is a per-(control, state) table scaled by the atom."""

    def __init__(self, tab):
        self.tab = tab

    def __call__(self, s, u, w):
        out = self.tab * (1.0 + w)
        if w == 0.0:
            out[[1, 3]] = 0.0
        return out


@pytest.mark.parametrize("terminal_inf", [False, True])
def test_split_matches_reference_with_zero_rows_in_the_middle(terminal_inf):
    rng = np.random.default_rng(5)
    grid = Grid([np.arange(4.0)])
    controls = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    fixed = rng.uniform(-1.0, 1.0, size=(5, 4))
    # +inf in paid rows 0 and 4 and in the bill-free row 1, whose state 3
    # moves to state 2
    fixed[0, 3] = fixed[4, 0] = fixed[1, 3] = INF

    def dyn(s, u, w):
        return np.clip(s[None] + u[:, None, None], 0.0, 3.0)

    # the last step has atom 0 alone, so its bill-free rows decide alone
    noises = [([0.0, 0.5], [0.5, 0.5])] * 2 + [point(0.0)]
    stages = tuple(
        make_stage(grid, controls, _GappedCost(rng.uniform(0.1, 2.0, (5, 4))), dyn, fixed)
        for _ in noises
    )
    model = FastStageModel(stages=stages, terminal_grid=grid, noise=law_table(noises))
    end = rng.uniform(0.0, 2.0, size=4)
    if terminal_inf:
        # meets the +inf of fixed in row 1, and no best control reads it
        end[2] = INF
    cost = stages[0].cost(None, controls, 0.0)
    assert list(np.flatnonzero(~cost.any(axis=1))) == [1, 3]
    ref = _assert_matches_reference(model, GridValueFn(grid, end))
    assert all(np.isfinite(values).all() for values in ref[:-1])


def test_fixed_off_the_contract_shape_is_rejected():
    grid = Grid([[0.0, 1.0]])
    stage = make_stage(
        grid, [0.0, 1.0], lambda s, u, w: np.zeros((len(u), 1)), stay, np.zeros((2, 1))
    )
    model = FastStageModel(stages=(stage,), terminal_grid=grid, noise=point_laws([0.0]))
    with pytest.raises(ValueError, match="fixed has shape"):
        solve_fast_dp(model, GridValueFn(grid, np.zeros(2)))


def test_plan_built_once_per_cell_and_once_per_noise_dependent_atom(monkeypatch):
    plans = []
    interp_plan = Grid.interp_plan

    def counted(grid, x):
        plans.append(len(x))
        return interp_plan(grid, x)

    monkeypatch.setattr(Grid, "interp_plan", counted)
    cfg = small_battery_config()
    laws = law_table([([-9.0, 11.0], [0.5, 0.5])] * 4)
    _fast_cell(cfg, laws, 50.0, np.linspace(0.0, 100.0, 7), 5, 5, True)
    assert plans == [5 * 5 * 7]
    # a transition that depends on w returns a new array at every atom
    plans.clear()
    p = random_tiny_problem(7)
    model = p.day_model(0)
    solve_fast_dp(model, GridValueFn(model.terminal_grid, p.final_cost))
    assert len(plans) == sum(len(list(model.noise.atoms(m))) for m in range(len(model.stages)))


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
    tab = compute_intraday(
        PRICE, cfg, laws, c_grid, np.array([0.0, 1e6]), n_soc=N_SOC, n_controls=N_CONTROLS
    )
    base = no_battery_bill(laws, cfg.rates)
    assert tab.table.values[1, 1] == pytest.approx(base, abs=1e-9)


def test_resource_single_step_cannot_discharge_empty():
    # one slot, demand 1, tariff 1, big budget: the empty battery cannot help
    cfg = small_battery_config(
        charge_eff=1.0, discharge_eff=1.0, u_max=10.0, renewal_grid=(0.0, 10.0), rates=(1.0,),
    )
    laws = point_laws([1.0])
    tab = compute_intraday(
        RESOURCE, cfg, laws, np.array([0.0, 10.0]), np.array([0.0, 20.0]), n_soc=5,
        n_controls=5,
    )
    assert tab.table.values[1, 1] == pytest.approx(1.0, abs=1e-9)


def test_price_two_step_arbitrage_is_free_at_zero_surcharge():
    # surplus 1 then demand 1 at unit tariff: charging then discharging wipes
    # the bill when the surcharge is zero and efficiencies are 1
    cfg = small_battery_config(
        charge_eff=1.0, discharge_eff=1.0, u_max=1.0, renewal_grid=(0.0, 10.0), rates=(1.0, 1.0),
    )
    laws = point_laws([-1.0, 1.0])
    tab = compute_intraday(
        PRICE, cfg, laws, np.array([0.0, 10.0]), np.array([0.0, 0.5]), n_soc=9, n_controls=3
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
    a = compute_intraday(RESOURCE, cfg, laws, world["c_grid"], world["dh_grid"], **kw)
    b = compute_intraday(RESOURCE, cfg, laws, world["c_grid"], world["dh_grid"], **kw)
    assert json.dumps(a.table.to_jsonable()) == json.dumps(b.table.to_jsonable())
    pa = compute_intraday(PRICE, cfg, laws, world["c_grid"], world["pi_grid"], **kw)
    pb = compute_intraday(PRICE, cfg, laws, world["c_grid"], world["pi_grid"], **kw)
    assert json.dumps(pa.table.to_jsonable()) == json.dumps(pb.table.to_jsonable())
    n_slots = len(laws.probs)
    assert a.fast.shape == (len(world["c_grid"]) - 1, n_slots + 1, N_SOC, len(world["dh_grid"]))
    assert np.array_equal(a.fast, b.fast)


def test_negative_surcharge_rejected(world):
    with pytest.raises(ValueError):
        compute_intraday(
            PRICE, world["cfg"], world["slot_laws"], world["c_grid"], np.array([-0.1, 0.0]),
            N_SOC, N_CONTROLS,
        )


def test_capacity_grid_not_from_zero_rejected(world):
    with pytest.raises(ValueError, match="start at c = 0"):
        compute_intraday(
            PRICE, world["cfg"], world["slot_laws"], np.array([25.0, 50.0]), world["pi_grid"],
            N_SOC, N_CONTROLS,
        )


def test_padded_rows_give_the_results_of_the_unpadded_laws():
    # each row's law unpadded, 2 atoms wide, and padded to 5 atoms by its last
    # atom at probability 0; random probabilities, so that some cumulative
    # sums end off 1.0
    rng = np.random.default_rng(9)
    support, probs = np.sort(rng.uniform(-20.0, 20.0, (4, 2)), axis=1), rng.random((4, 2)) + 0.1
    tight = LawTable(support, probs / probs.sum(axis=1)[:, None])
    padded = LawTable(
        np.pad(tight.support, ((0, 0), (0, 3)), mode="edge"), np.pad(tight.probs, ((0, 0), (0, 3)))
    )
    cfg = small_battery_config()
    assert no_battery_bill(padded, cfg.rates) == no_battery_bill(tight, cfg.rates)
    for budget_axis, axis in ((True, np.linspace(0.0, 100.0, 5)), (False, np.array([0.0, 0.1]))):
        want = _fast_cell(cfg, tight, 50.0, axis, N_SOC, N_CONTROLS, budget_axis)
        got = _fast_cell(cfg, padded, 50.0, axis, N_SOC, N_CONTROLS, budget_axis)
        assert got.tobytes() == want.tobytes()
    classmap = build_periodicity_classes(199, 4)
    prices = point_laws([1.0] * 200)
    for seed in (0, 5):
        want = white_noise_resample({c: tight for c in range(1, 5)}, prices, classmap, 6, seed, 200)
        got = white_noise_resample({c: padded for c in range(1, 5)}, prices, classmap, 6, seed, 200)
        assert got.netload.tobytes() == want.netload.tobytes()
