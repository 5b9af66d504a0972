"""Online policy synthesis and Monte Carlo replay."""

from __future__ import annotations

import numpy as np
import pytest

from twoscale.battery import ScenarioSet, white_noise_resample
from twoscale.config import RunConfig
from twoscale.core import DiscreteDist
from twoscale.intraday import (
    PRICE,
    RESOURCE,
    build_periodicity_classes,
    compute_price_intraday,
    compute_resource_intraday,
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
from twoscale.policy import select_price, select_resource, simulate_policy
from twoscale.slowscale import price_bellman_recursion, resource_bellman_recursion

from conftest import D_SMALL, N_CONTROLS, N_SOC, point_laws, small_battery_config

ATOMS = (10.0, -8.0, 6.0, 12.0)


def point(v):
    return DiscreteDist(np.array([float(v)]), np.array([1.0]))


def make_world(price, netload_atoms=ATOMS, D=D_SMALL):
    cfg = small_battery_config()
    slot_laws = point_laws(netload_atoms)
    c_grid = np.array([0.0, 50.0])
    dh_grid = np.linspace(0.0, 100.0, 5)
    pi_grid = np.array([0.0, 0.05, 0.10])
    h_grid = np.linspace(0.0, 200.0, 5)
    classmap = build_periodicity_classes(D, 1)
    price_laws = [point(price)] * (D + 1)
    rtab = compute_resource_intraday(
        1, cfg, slot_laws, c_grid, dh_grid, n_soc=N_SOC, n_controls=N_CONTROLS
    )
    ptab = compute_price_intraday(
        1, cfg, slot_laws, c_grid, pi_grid, n_soc=N_SOC, n_controls=N_CONTROLS
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


# ---------------------------------------------------------------- selectors


def test_select_price_no_battery_ties_to_zero(dear):
    pi = select_price(
        0.0, 0.0, 0, dear["ptab"], dear["lower"], dear["price_laws"][0], dear["cfg"]
    )
    assert pi == 0.0


def test_select_price_single_point_grid(dear):
    cfg = dear["cfg"]
    ptab1 = compute_price_intraday(
        1, cfg, point_laws(ATOMS), np.array([0.0, 50.0]), np.array([0.07]),
        n_soc=N_SOC, n_controls=N_CONTROLS,
    )
    classmap = build_periodicity_classes(D_SMALL, 1)
    lower = price_bellman_recursion(
        {1: ptab1}, classmap, dear["price_laws"], cfg,
        np.linspace(0.0, 200.0, 5), np.array([0.0, 50.0]), D_SMALL,
    )
    pi = select_price(100.0, 50.0, 0, ptab1, lower, dear["price_laws"][0], cfg)
    assert pi == 0.07


def test_select_resource_constant_row_keeps_health(dear):
    # at c = 0 the intraday row is flat in the budget: tie rule keeps all health
    target = select_resource(
        100.0, 0.0, 0, dear["rtab"], dear["upper"], dear["price_laws"][0], dear["cfg"]
    )
    assert target == 100.0


def test_select_resource_last_day_uses_max_aging(cheap):
    # K = 0 and last day: any aging is free, strictly decreasing row spends it
    D = cheap["D"]
    target = select_resource(
        200.0, 50.0, D, cheap["rtab"], cheap["upper"], cheap["price_laws"][D], cheap["cfg"]
    )
    row = cheap["rtab"].table.values[1, :]
    assert np.all(np.diff(row) <= 1e-9)
    # enough budget headroom that the best entry is the largest one on the row
    best_dh = cheap["rtab"].axis[int(np.argmin(row))]
    assert target == pytest.approx(200.0 - best_dh)


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
        assert ra.states == rb.states
        assert ra.renewals == rb.renewals
        assert ra.daily_bills == rb.daily_bills


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
        for d, state in enumerate(rec.states):
            state.check_bounds(cfg, tol=1e-6)
        for d in range(len(rec.states) - 1):
            x0, x1 = rec.states[d], rec.states[d + 1]
            if d in renewal_days:
                r = renewal_days[d]
                saw_renewal = True
                assert r in cfg.renewal_grid and r > 0
                assert x1.soc == 0.0
                assert x1.health == cfg.cycle_multiple * r
                assert x1.capacity == r
            else:
                assert x1.health <= x0.health + 1e-9
                assert x1.capacity == x0.capacity
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


def test_scenarios_replayed_together_match_each_replayed_alone(few_controls):
    cfg, out = few_controls
    laws, price_laws = _load_fit(cfg, out)
    scen = white_noise_resample(laws, price_laws, cfg.classmap, 12, cfg.seed, cfg.D + 1)
    for dec in (PRICE, RESOURCE):
        mode, tabs = dec.mode, _load_tables(cfg, out, dec, with_fast=True)
        values = load_value_seq(cfg, out, dec.kind)
        args = (mode, tabs, values, price_laws, cfg.classmap, cfg.battery_config())
        together, _ = simulate_policy(scen, *args)
        capacities = {tuple(rec.states[d].capacity for rec in together) for d in range(cfg.D + 2)}
        assert any(len(set(caps)) > 1 for caps in capacities), "no day mixes capacities"
        for s, rec in enumerate(together):
            alone, _ = simulate_policy(
                ScenarioSet(scen.netload[s : s + 1], scen.battery_price[s : s + 1]), *args
            )
            a = alone[0]
            assert rec.total_cost == a.total_cost, (mode, s)
            assert rec.states == a.states, (mode, s)
            assert rec.renewals == a.renewals, (mode, s)
            assert rec.daily_bills == a.daily_bills, (mode, s)
            assert rec.clamp_count == a.clamp_count, (mode, s)
