"""Online policy synthesis and Monte Carlo replay."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from twoscale import battery
from twoscale.battery import ScenarioSet, white_noise_resample
from twoscale.config import RunConfig
from twoscale.core import INF, Grid, GridValueFn
from twoscale.intraday import (
    PRICE,
    RESOURCE,
    IntradayTable,
    build_periodicity_classes,
    compute_intraday,
    control_grid,
)
from twoscale.pipeline import (
    _load_fit,
    _load_tables,
    load_value_seq,
    stage_bellman,
    stage_fit,
    stage_intraday,
    stage_report,
    stage_simulate,
)
from twoscale.policy import (
    ADMISS_TOL,
    _best_on_axis,
    _replay_day,
    _soc_steps,
    select_price,
    select_resource,
    simulate_policies,
    simulate_policy,
)
from twoscale.slowscale import (
    price_bellman_recursion,
    renewal_states,
    resource_bellman_recursion,
)

from conftest import (
    CRITERION_10,
    D_SMALL,
    N_CONTROLS,
    N_SOC,
    _dense_resource_objective,
    _ref_continuation,
    check_state_bounds,
    law_table,
    point_laws,
    point_table,
    small_battery_config,
)

ATOMS = (10.0, -8.0, 6.0, 12.0)


def make_world(price, netload_atoms=ATOMS, D=D_SMALL):
    cfg = small_battery_config()
    slot_laws = point_laws(netload_atoms)
    c_grid = np.array([0.0, 50.0])
    dh_grid = np.linspace(0.0, 100.0, 5)
    pi_grid = np.array([0.0, 0.05, 0.10])
    h_grid = np.linspace(0.0, 200.0, 5)
    classmap = build_periodicity_classes(D, 1)
    price_laws = point_table(price, D + 1)
    rtab = compute_intraday(
        RESOURCE, cfg, slot_laws, c_grid, dh_grid, n_soc=N_SOC, n_controls=N_CONTROLS
    )
    ptab = compute_intraday(
        PRICE, cfg, slot_laws, c_grid, pi_grid, n_soc=N_SOC, n_controls=N_CONTROLS
    )
    upper = resource_bellman_recursion(
        {1: rtab}, classmap, price_laws, cfg, h_grid, c_grid, D
    )
    lower = price_bellman_recursion(
        {1: ptab}, classmap, price_laws, cfg, h_grid, c_grid, D
    )
    netload = np.tile(np.array(netload_atoms), (2, D + 1, 1))
    scen = ScenarioSet(netload, np.full((2, D + 1), price))
    return {
        "cfg": cfg, "classmap": classmap, "price_laws": price_laws,
        "rtab": rtab, "ptab": ptab, "upper": upper, "lower": lower,
        "scen": scen, "D": D,
    }


@pytest.fixture(scope="module")
def cheap():
    return make_world(price=0.05)


@pytest.fixture(scope="module")
def dear():
    return make_world(price=1e9)


@pytest.fixture(scope="module")
def idle():
    return make_world(price=1e9, netload_atoms=(0.0, 0.0, 0.0, 0.0))


@pytest.fixture(scope="module")
def two_sizes():
    """50 and 100 kWh batteries on sale at two cheap price atoms, with noisy
    netloads: from day 1 on, every day holds batteries of both sizes."""
    D = D_SMALL
    cfg = small_battery_config(renewal_grid=(0.0, 50.0, 100.0))
    slot_laws = point_laws(ATOMS)
    c_grid = np.array([0.0, 50.0, 100.0])
    h_grid = np.linspace(0.0, 400.0, 9)
    classmap = build_periodicity_classes(D, 1)
    atoms = np.array([0.001, 0.01])
    price_laws = law_table([(atoms, [0.5, 0.5])] * (D + 1))
    rtab = compute_intraday(
        RESOURCE, cfg, slot_laws, c_grid, np.linspace(0.0, 100.0, 5), n_soc=N_SOC,
        n_controls=N_CONTROLS,
    )
    ptab = compute_intraday(
        PRICE, cfg, slot_laws, c_grid, np.array([0.0, 0.05, 0.10]), n_soc=N_SOC,
        n_controls=N_CONTROLS,
    )
    upper = resource_bellman_recursion({1: rtab}, classmap, price_laws, cfg, h_grid, c_grid, D)
    lower = price_bellman_recursion({1: ptab}, classmap, price_laws, cfg, h_grid, c_grid, D)
    rng = np.random.default_rng(0)
    n = 8
    netload = np.array(ATOMS) + rng.normal(0.0, 3.0, size=(n, D + 1, len(ATOMS)))
    scen = ScenarioSet(netload, rng.choice(atoms, size=(n, D + 1)))
    return {
        "cfg": cfg, "classmap": classmap, "price_laws": price_laws, "scen": scen, "D": D,
        "modes": (("price", ptab, lower), ("resource", rtab, upper)),
    }


# ---------------------------------------------------------------- selectors


def test_select_price_no_battery_ties_to_zero(dear):
    pi = select_price(
        0.0, 0.0, 0, dear["ptab"], dear["lower"], dear["price_laws"], dear["cfg"]
    )
    assert pi == 0.0


def test_select_price_single_point_grid(dear):
    cfg = dear["cfg"]
    ptab1 = compute_intraday(
        PRICE, cfg, point_laws(ATOMS), np.array([0.0, 50.0]), np.array([0.07]),
        n_soc=N_SOC, n_controls=N_CONTROLS,
    )
    classmap = build_periodicity_classes(D_SMALL, 1)
    lower = price_bellman_recursion(
        {1: ptab1}, classmap, dear["price_laws"], cfg,
        np.linspace(0.0, 200.0, 5), np.array([0.0, 50.0]), D_SMALL,
    )
    pi = select_price(100.0, 50.0, 0, ptab1, lower, dear["price_laws"], cfg)
    assert pi == 0.07


def test_select_resource_constant_row_keeps_health(dear):
    # at c = 0 the intraday row is flat in the budget: tie rule keeps all health
    target = select_resource(
        100.0, 0.0, 0, dear["rtab"], dear["upper"], dear["price_laws"], dear["cfg"]
    )
    assert target == 100.0


def test_select_resource_last_day_uses_max_aging(cheap):
    # K = 0 and last day: any aging is free, strictly decreasing row spends it
    D = cheap["D"]
    target = select_resource(
        200.0, 50.0, D, cheap["rtab"], cheap["upper"], cheap["price_laws"], cheap["cfg"]
    )
    row = cheap["rtab"].table.values[1, :]
    assert np.all(np.diff(row) <= 1e-9)
    # enough budget headroom that the best entry is the largest one on the row
    best_dh = cheap["rtab"].axis[int(np.argmin(row))]
    assert target == pytest.approx(200.0 - best_dh)


@pytest.mark.parametrize("select", [select_price, select_resource])
def test_select_at_one_capacity_per_health_equals_scalar_calls(two_sizes, select):
    w = two_sizes
    _, tab, values = w["modes"][0 if select is select_price else 1]
    h = np.array([0.0, 0.0, 130.0, 200.0, 60.0, 400.0, 275.0])
    c = np.array([0.0, 50.0, 50.0, 50.0, 100.0, 100.0, 100.0])
    for d in range(w["D"] + 1):
        args = (d, tab, values, w["price_laws"], w["cfg"])
        many = select(h, c, *args)
        alone = [select(float(hs), float(cs), *args) for hs, cs in zip(h, c)]
        assert many.tolist() == alone, d
        # a scalar capacity still applies to every health value
        assert select(h[4:], 100.0, *args).tolist() == alone[4:], d


def _dense_first_argmin(h, c, d, table, values, price_laws, cfg):
    """Per health value, the budget at the first argmin of the dense
    resource objective over the whole day axis, and the health target it
    leaves."""
    h_grid, c_grid = values.grid.axes
    law = (price_laws.support[d], price_laws.probs[d])
    cont = _ref_continuation(values.values[d + 1], law, cfg, renewal_states(h_grid, c_grid, cfg))
    dh = []
    for hv, cv in zip(h, c):
        ci = [int(np.searchsorted(c_grid, cv))]
        obj = _dense_resource_objective(table, [hv], h_grid, ADMISS_TOL, ci, cont)
        dh.append(float(table.axis[np.argmin(obj[0, 0])]))
    return dh, np.maximum(h - np.array(dh), 0.0).tolist()


@pytest.mark.parametrize("world", ["cheap", "two_sizes"])
def test_select_resource_equals_the_dense_first_argmin(request, world):
    w = request.getfixturevalue(world)
    if world == "cheap":
        tab, values = w["rtab"], w["upper"]
    else:
        _, tab, values = w["modes"][1]
    h_grid, c_grid = values.grid.axes
    # grid points, points between them and past the end, a health within the
    # tolerance below 0 and one below it, which has no feasible budget
    h = np.concatenate([h_grid, h_grid[:-1] + 0.37 * np.diff(h_grid), [h_grid[-1] + 5.0, -1e-7, -1.0]])
    # one capacity for every health value, or the capacities taken in turn
    for c in [np.full(len(h), cv) for cv in c_grid] + [np.resize(c_grid, len(h))]:
        for d in range(w["D"] + 1):
            args = (d, tab, values, w["price_laws"], w["cfg"])
            dh, target = _dense_first_argmin(h, c, *args)
            assert _best_on_axis(h, c, *args).tolist() == dh, (c, d)
            assert select_resource(h, c, *args).tolist() == target, (c, d)
            # a health with no feasible budget takes the first point of the axis
            assert dh[-1] == tab.axis[0]


# ---------------------------------------------------------------- simulation


def test_zero_netload_costs_nothing(idle):
    for mode, tab, values in (
        ("price", idle["ptab"], idle["lower"]),
        ("resource", idle["rtab"], idle["upper"]),
    ):
        records, stats = simulate_policy(
            idle["scen"], mode, {1: tab}, values, idle["price_laws"],
            idle["classmap"], idle["cfg"],
        )
        assert stats.mean == 0.0
        for rec in records:
            assert rec.total_cost == 0.0
            assert rec.renewals == ()
            assert all(b == 0.0 for b in rec.daily_bills)


def test_simulation_reproducible(cheap):
    a, _ = simulate_policy(
        cheap["scen"], "price", {1: cheap["ptab"]}, cheap["lower"],
        cheap["price_laws"], cheap["classmap"], cheap["cfg"],
    )
    b, _ = simulate_policy(
        cheap["scen"], "price", {1: cheap["ptab"]}, cheap["lower"],
        cheap["price_laws"], cheap["classmap"], cheap["cfg"],
    )
    for ra, rb in zip(a, b):
        assert ra.total_cost == rb.total_cost
        assert np.array_equal(ra.states, rb.states)
        assert ra.renewals == rb.renewals
        assert np.array_equal(ra.daily_bills, rb.daily_bills)


@pytest.mark.parametrize("mode", ["price", "resource"])
def test_trajectories_admissible_and_renewals_wellformed(cheap, mode):
    tab = cheap["ptab"] if mode == "price" else cheap["rtab"]
    values = cheap["lower"] if mode == "price" else cheap["upper"]
    records, stats = simulate_policy(
        cheap["scen"], mode, {1: tab}, values, cheap["price_laws"],
        cheap["classmap"], cheap["cfg"],
    )
    cfg = cheap["cfg"]
    saw_renewal = False
    for rec in records:
        renewal_days = dict(rec.renewals)
        for state in rec.states:
            check_state_bounds(state, cfg, tol=1e-6)
        for d in range(len(rec.states) - 1):
            (_, h0, c0), (soc1, h1, c1) = rec.states[d], rec.states[d + 1]
            if d in renewal_days:
                r = renewal_days[d]
                saw_renewal = True
                assert r in cfg.renewal_grid and r > 0
                assert soc1 == 0.0
                assert h1 == cfg.cycle_multiple * r
                assert c1 == r
            else:
                assert h1 <= h0 + 1e-9
                assert c1 == c0
    # the cheap-battery world must actually trigger a purchase
    assert saw_renewal
    assert stats.mean > 0.0


def test_simulation_beats_no_battery_bill(cheap):
    # with a cheap battery the policies cost less than never buying one
    cfg = cheap["cfg"]
    base = cheap["rtab"].table.values[0, 0]
    no_battery = base * sum(cfg.gamma**k for k in range(cheap["D"] + 1))
    for mode, tab, values in (
        ("price", cheap["ptab"], cheap["lower"]),
        ("resource", cheap["rtab"], cheap["upper"]),
    ):
        _, stats = simulate_policy(
            cheap["scen"], mode, {1: tab}, values, cheap["price_laws"],
            cheap["classmap"], cheap["cfg"],
        )
        assert stats.mean < no_battery


def test_simulation_cost_at_least_lower_bound(cheap):
    lower0 = cheap["lower"].values[0, 0, 0]
    for mode, tab, values in (
        ("price", cheap["ptab"], cheap["lower"]),
        ("resource", cheap["rtab"], cheap["upper"]),
    ):
        _, stats = simulate_policy(
            cheap["scen"], mode, {1: tab}, values, cheap["price_laws"],
            cheap["classmap"], cheap["cfg"],
        )
        assert stats.mean >= lower0 - 3 * stats.stderr - 1e-9


def test_simulation_errors(cheap):
    short = ScenarioSet(
        cheap["scen"].netload[:, : cheap["D"]], cheap["scen"].battery_price[:, : cheap["D"]]
    )
    with pytest.raises(ValueError, match="horizon"):
        simulate_policy(
            short, "price", {1: cheap["ptab"]}, cheap["lower"],
            cheap["price_laws"], cheap["classmap"], cheap["cfg"],
        )
    with pytest.raises(ValueError, match="mode"):
        simulate_policy(
            cheap["scen"], "oracle", {1: cheap["ptab"]}, cheap["lower"],
            cheap["price_laws"], cheap["classmap"], cheap["cfg"],
        )


@pytest.fixture(scope="module")
def few_controls(tmp_path_factory):
    """Tables and bounds built on 5 controls; a replay on another grid broke
    the certificate (resource mean 131.10 +- 0.67 below lower 138.81)."""
    cfg = RunConfig(
        D=10, n_slots=12, n_classes=1, c_max=200.0, n_controls=5,
        price_forecast=(0.02, 0.02),
    )
    out = tmp_path_factory.mktemp("few_controls")
    stage_fit(cfg, out)
    stage_intraday(cfg, out)
    stage_bellman(cfg, out)
    return cfg, out


def test_simulate_stage_replays_on_the_configured_control_grid(few_controls):
    cfg, out = few_controls
    sims = stage_simulate(cfg, out)
    lower = stage_report(cfg, out)["lower_at_x0_day0"]
    for mode in ("price", "resource"):
        assert sims[mode]["mean"] >= lower - 3.0 * sims[mode]["stderr"], mode


# sha256 of the few-controls replay's files, recorded before the price and
# resource policies shared one slot loop; both policies own batteries here
FEW_CONTROLS_REPLAY = {
    "sim_price.csv": "ff0f6e9d1c44aeb62ccdee098daeb5ad321209ac9d4893378da3b3f1f6e02428",
    "sim_price_stats.json": "2a275782da12635ce0e7bf50f9796348d18a9196bb4dde6b7bc7602d57c1d385",
    "sim_resource.csv": "2920f7375515dcf0f8925e5b3d56d97c2980bf0cdbc8456ee9f592a3369e51db",
    "sim_resource_stats.json": "e81f249c5003220235f18ed94a36aa9c698ae6eb72a077244c59faf7c3b3ad4f",
}


def test_few_controls_replay_is_pinned(few_controls):
    cfg, out = few_controls
    stage_simulate(cfg, out)
    for name, want in FEW_CONTROLS_REPLAY.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want, name
    for mode in ("price", "resource"):
        renewals = [row.split(",")[2] for row in (out / f"sim_{mode}.csv").read_text().split()]
        assert any(renewals[1:]), mode


def test_replay_defaults_to_the_tables_control_grid(few_controls):
    cfg, out = few_controls
    laws, price_laws = _load_fit(cfg, out)
    scen = white_noise_resample(
        laws, price_laws, cfg.classmap, cfg.scenarios, cfg.seed, cfg.D + 1
    )
    lower = load_value_seq(cfg, out, "price-lower").values[0, 0, 0]
    for dec in (PRICE, RESOURCE):
        tabs = _load_tables(cfg, out, dec, with_fast=True)
        values = load_value_seq(cfg, out, dec.kind)
        _, stats = simulate_policy(
            scen, dec.mode, tabs, values, price_laws, cfg.classmap, cfg.battery_config()
        )
        assert stats.mean >= lower - 3.0 * stats.stderr, dec.mode


def test_simulate_record_holds_the_share_of_battery_days_carrying_soc(few_controls):
    cfg, out = few_controls
    stage_simulate(cfg, out)
    rec = json.loads((out / "manifest.json").read_text())["stages"]["simulate"]
    scen, runs, *rest = _pipeline_world(cfg, out)
    for mode, (records, _) in simulate_policies(scen, runs, *rest).items():
        # the soc of every scenario-day that starts with a battery
        owned = [soc for r in records for soc, _, c in r.states[: cfg.D + 1] if c > 0.0]
        share = sum(soc > 0.0 for soc in owned) / len(owned)
        assert 0.0 < rec[mode]["soc_carry_share"] == share, mode


def _replayed_together_and_alone(scen, args):
    """Replay every scenario together, then each alone: the records must be
    equal bit for bit.  Returns the joint records."""
    mode = args[0]
    together, _ = simulate_policy(scen, *args)
    for s, rec in enumerate(together):
        alone, _ = simulate_policy(
            ScenarioSet(scen.netload[s : s + 1], scen.battery_price[s : s + 1]), *args
        )
        a = alone[0]
        assert rec.total_cost == a.total_cost, (mode, s)
        assert np.array_equal(rec.states, a.states), (mode, s)
        assert rec.renewals == a.renewals, (mode, s)
        assert np.array_equal(rec.daily_bills, a.daily_bills), (mode, s)
        assert rec.clamp_count == a.clamp_count, (mode, s)
    return together


def test_scenarios_replayed_together_match_each_replayed_alone(few_controls):
    cfg, out = few_controls
    laws, price_laws = _load_fit(cfg, out)
    scen = white_noise_resample(laws, price_laws, cfg.classmap, 12, cfg.seed, cfg.D + 1)
    for dec in (PRICE, RESOURCE):
        mode, tabs = dec.mode, _load_tables(cfg, out, dec, with_fast=True)
        values = load_value_seq(cfg, out, dec.kind)
        args = (mode, tabs, values, price_laws, cfg.classmap, cfg.battery_config())
        together = _replayed_together_and_alone(scen, args)
        capacities = {tuple(rec.states[d, 2] for rec in together) for d in range(cfg.D + 2)}
        assert any(len(set(caps)) > 1 for caps in capacities), "no day mixes capacities"


def _capacity_on(rec, d):
    """The battery size a record holds during day d: its last renewal before d."""
    return max(((day, r) for day, r in rec.renewals if day < d), default=(-1, 0.0))[1]


def test_days_holding_two_sizes_replay_as_each_scenario_alone(two_sizes):
    w = two_sizes
    for mode, tab, values in w["modes"]:
        args = (mode, {1: tab}, values, w["price_laws"], w["classmap"], w["cfg"])
        together = _replayed_together_and_alone(w["scen"], args)
        sizes = [{_capacity_on(rec, d) for rec in together} for d in range(w["D"] + 1)]
        assert any({50.0, 100.0} <= held for held in sizes), "no day holds both sizes"


def test_a_row_of_inf_falls_back_to_the_first_feasible_control():
    # every replay entry is +inf, so every feasible control reads +inf; from
    # an empty battery the discharging controls 0 and 1 are infeasible, and
    # the first feasible control is u = 0
    cfg = small_battery_config()
    c_grid, axis = np.array([0.0, 50.0]), np.array([0.0])
    fast = np.full((1, len(cfg.rates) + 1, N_SOC, 1), INF)
    table = IntradayTable(PRICE, GridValueFn(Grid([c_grid, axis]), np.zeros((2, 1))), 5, fast)
    steps = _soc_steps(table, cfg)
    controls = control_grid(cfg, 5)
    netload = np.array([[10.0, -8.0, 6.0, 12.0]])
    bill, soc, h, clamped, fallbacks = _replay_day(
        netload, np.zeros(1), np.full(1, 200.0), np.array([50.0]),
        [(table, np.array([0.0]), steps)], controls, cfg,
    )
    plain = sum(battery.stage_cost(0.0, w, rate) for w, rate in zip(netload[0], cfg.rates))
    assert bill[0] == plain
    assert soc[0] == 0.0 and h[0] == 200.0
    assert clamped[0] == 0
    assert fallbacks[0] == len(cfg.rates)


@pytest.fixture(scope="module")
def criterion_10(tmp_path_factory):
    """The criterion-10 run: its price policy buys a battery on day 0 or 1,
    its resource policy never does."""
    cfg = CRITERION_10
    out = tmp_path_factory.mktemp("criterion_10")
    stage_fit(cfg, out)
    stage_intraday(cfg, out)
    stage_bellman(cfg, out)
    return cfg, out


def _pipeline_world(cfg, out):
    laws, price_laws = _load_fit(cfg, out)
    scen = white_noise_resample(laws, price_laws, cfg.classmap, cfg.scenarios, cfg.seed, cfg.D + 1)
    runs = {
        dec.mode: (_load_tables(cfg, out, dec, with_fast=True), load_value_seq(cfg, out, dec.kind))
        for dec in (PRICE, RESOURCE)
    }
    return scen, runs, price_laws, cfg.classmap, cfg.battery_config()


def _assert_same_records(got, want, what):
    (records, stats), (want_records, want_stats) = got, want
    assert stats == want_stats, what
    assert len(records) == len(want_records), what
    for rec, other in zip(records, want_records):
        assert rec.scenario_id == other.scenario_id, what
        assert rec.states.tobytes() == other.states.tobytes(), (what, rec.scenario_id)
        assert rec.renewals == other.renewals, (what, rec.scenario_id)
        assert repr(rec.total_cost) == repr(other.total_cost), (what, rec.scenario_id)
        assert rec.daily_bills.tobytes() == other.daily_bills.tobytes(), (what, rec.scenario_id)
        assert rec.clamp_count == other.clamp_count, (what, rec.scenario_id)
        assert rec.inf_fallbacks == other.inf_fallbacks, (what, rec.scenario_id)


def _owners_per_day(records, D):
    """Per day 0..D, how many scenarios start it with a battery."""
    return [sum(rec.states[d, 2] > 0.0 for rec in records) for d in range(D + 1)]


@pytest.mark.parametrize("world", ["few_controls", "two_sizes", "criterion_10"])
def test_both_modes_in_one_loop_equal_each_mode_alone(request, world):
    w = request.getfixturevalue(world)
    if world == "two_sizes":
        runs = {mode: ({1: tab}, values) for mode, tab, values in w["modes"]}
        scen, rest, D = w["scen"], (w["price_laws"], w["classmap"], w["cfg"]), w["D"]
    else:
        scen, runs, *rest = _pipeline_world(*w)
        D = w[0].D
    both = simulate_policies(scen, runs, *rest)
    assert list(both) == ["price", "resource"]
    for mode, (tables, values) in runs.items():
        alone = simulate_policy(scen, mode, tables, values, *rest)
        _assert_same_records(both[mode], alone, (world, mode))
    # the order of the modes changes nothing either
    swapped = simulate_policies(scen, dict(reversed(runs.items())), *rest)
    for mode in runs:
        _assert_same_records(swapped[mode], both[mode], (world, mode, "swapped"))
    if world == "criterion_10":
        owners = {mode: _owners_per_day(both[mode][0], D) for mode in runs}
        assert any(p > 0 and r == 0 for p, r in zip(owners["price"], owners["resource"])), owners


def test_simulate_policies_refuses_modes_of_two_horizons(few_controls, criterion_10):
    # D = 10 and D = 30: one day loop cannot cover both
    _, runs, *rest = _pipeline_world(*few_controls)
    scen, other, *_ = _pipeline_world(*criterion_10)
    mixed = {"price": runs["price"], "resource": other["resource"]}
    with pytest.raises(ValueError, match="horizons"):
        simulate_policies(scen, mixed, *rest)
