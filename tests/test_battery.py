"""Battery case study: dynamics, tariff, costs, fitting and scenario generation."""

from __future__ import annotations

import numpy as np
import pytest

from twoscale.battery import (
    OFF_PEAK_RATE,
    PEAK_RATE,
    SHOULDER_RATE,
    BatteryConfig,
    BatteryState,
    ScenarioSet,
    battery_price_laws,
    control_effect,
    default_tariff,
    fast_dynamics,
    fit_netload_distributions,
    interp_price_forecast,
    kmeans_1d,
    load_netload_csv,
    load_price_csv,
    renewal_dynamics,
    stage_cost,
    synthetic_netload_scenarios,
    tariff_for_slots,
    white_noise_resample,
)
from twoscale.core import DiscreteDist
from twoscale.intraday import build_periodicity_classes

from conftest import small_battery_config


def unit_cfg(**kw):
    return small_battery_config(charge_eff=1.0, discharge_eff=1.0, **kw)


# ---------------------------------------------------------------- dynamics


def step(x: BatteryState, u: float, cfg) -> BatteryState:
    """The array transition applied to one state and one control."""
    soc, health = fast_dynamics(x.soc, x.health, control_effect(u, cfg))
    return BatteryState(float(soc), float(health), x.capacity)


def renew(x: BatteryState, r: float, cfg) -> BatteryState:
    """The array renewal applied to one state and one size."""
    return BatteryState(*(float(v) for v in renewal_dynamics(x.soc, x.health, x.capacity, r, cfg)))


def test_fast_dynamics_examples():
    cfg = unit_cfg()
    x = BatteryState(0.0, 10.0, 100.0)
    y = step(x, 2.0, cfg)
    assert (y.soc, y.health, y.capacity) == (2.0, 8.0, 100.0)
    x = BatteryState(5.0, 10.0, 100.0)
    y = step(x, -2.0, cfg)
    assert (y.soc, y.health, y.capacity) == (3.0, 8.0, 100.0)
    assert step(x, 0.0, cfg) == x


def test_fast_dynamics_efficiencies():
    cfg = small_battery_config()  # 0.95 / 0.95
    y = step(BatteryState(10.0, 50.0, 50.0), 10.0, cfg)
    assert y.soc == pytest.approx(10.0 + 0.95 * 10.0)
    assert y.health == pytest.approx(40.0)
    y = step(BatteryState(10.0, 50.0, 50.0), -10.0, cfg)
    assert y.soc == pytest.approx(10.0 - 0.95 * 10.0)
    assert y.health == pytest.approx(40.0)


def test_health_strictly_decreases_iff_control_nonzero():
    cfg = unit_cfg()
    x = BatteryState(5.0, 10.0, 100.0)
    assert step(x, 0.0, cfg).health == x.health
    for u in (-3.0, -0.5, 0.5, 3.0):
        y = step(x, u, cfg)
        assert y.health < x.health
        assert y.capacity == x.capacity


@pytest.mark.parametrize("effs", [(1.0, 1.0), (0.95, 0.95), (0.9, 0.8), (0.7, 0.93)])
def test_array_transition_equals_the_elementwise_definition(effs):
    # a control never both charges and discharges, so the two operation
    # orders (s + a u+) - b u-, (h - u+) - u- and s + (a u+ - b u-), h - (u+ + u-)
    # give the same doubles; the array transition must equal both, bit for bit
    a, b = effs
    cfg = small_battery_config(charge_eff=a, discharge_eff=b)
    rng = np.random.default_rng(17)
    controls = np.concatenate([np.linspace(-25.0, 25.0, 11), rng.uniform(-25.0, 25.0, 40)])
    soc = np.concatenate([np.linspace(0.0, 40.0, 9), rng.uniform(0.0, 40.0, 60)])
    health = np.concatenate([np.linspace(0.0, 200.0, 9), rng.uniform(0.0, 200.0, 60)])
    effect = control_effect(controls[:, None], cfg)
    soc_next, h_next = fast_dynamics(soc[None, :], health[None, :], effect)
    assert soc_next.shape == h_next.shape == (len(controls), len(soc))
    for i, u in enumerate(controls):
        up, um = max(float(u), 0.0), max(-float(u), 0.0)
        for j, (s, h) in enumerate(zip(soc, health)):
            s, h = float(s), float(h)
            for want_soc, want_h in (
                ((s + a * up) - b * um, (h - up) - um),
                (s + (a * up - b * um), h - (up + um)),
            ):
                assert soc_next[i, j].tobytes() == np.float64(want_soc).tobytes()
                assert h_next[i, j].tobytes() == np.float64(want_h).tobytes()


def test_renewal_dynamics_examples():
    cfg = BatteryConfig()
    y = renew(BatteryState(3.0, 8.0, 100.0), 100.0, cfg)
    assert (y.soc, y.health, y.capacity) == (0.0, 400.0, 100.0)
    x = BatteryState(3.0, 8.0, 100.0)
    assert renew(x, 0.0, cfg) == x
    y = renew(x, 1500.0, cfg)
    assert (y.soc, y.health, y.capacity) == (0.0, 6000.0, 1500.0)


def test_renewal_requires_grid_size():
    cfg = BatteryConfig()
    with pytest.raises(ValueError):
        renewal_dynamics(0.0, 0.0, 0.0, 150.0, cfg)


def test_renewal_idempotent_for_zero():
    cfg = BatteryConfig()
    x = BatteryState(1.0, 2.0, 100.0)
    assert renew(renew(x, 0.0, cfg), 0.0, cfg) == x


def test_state_bounds_check():
    cfg = BatteryConfig()
    BatteryState(0.0, 400.0, 100.0).check_bounds(cfg)
    with pytest.raises(ValueError):
        BatteryState(90.0, 400.0, 100.0).check_bounds(cfg)  # soc > 0.8 * c
    with pytest.raises(ValueError):
        BatteryState(0.0, 500.0, 100.0).check_bounds(cfg)  # h > 4 * c
    with pytest.raises(ValueError):
        BatteryState(0.0, 0.0, 2000.0).check_bounds(cfg)


# ---------------------------------------------------------------- tariff and cost


def test_tariff_rate_examples():
    tariff = default_tariff()
    assert tariff.rate(46) == OFF_PEAK_RATE  # 23:00
    assert tariff.rate(24) == SHOULDER_RATE  # 12:00
    assert tariff.rate(36) == PEAK_RATE  # 18:00
    with pytest.raises(ValueError):
        tariff.rate(48)
    with pytest.raises(ValueError):
        tariff.rate(-1)


def test_tariff_day_integral_identity():
    # constant 1 kW over the whole day: 0.5 kWh per half-hour slot
    total = sum(default_tariff().rate(m) * 0.5 for m in range(48))
    expected = 9 * OFF_PEAK_RATE + 10 * SHOULDER_RATE + 5 * PEAK_RATE
    assert total == pytest.approx(expected, abs=1e-12)


def test_tariff_for_other_slot_counts():
    t = tariff_for_slots(24)  # hourly
    assert t.rate(0) == OFF_PEAK_RATE
    assert t.rate(7) == SHOULDER_RATE
    assert t.rate(17) == PEAK_RATE
    assert t.rate(22) == OFF_PEAK_RATE
    assert t.n_slots == 24


def test_stage_cost_examples():
    t = default_tariff()
    assert stage_cost(0.0, 1.0, t.rate(36)) == PEAK_RATE
    assert stage_cost(0.0, -5.0, t.rate(10)) == 0.0
    assert stage_cost(-1.0, 1.0, t.rate(0)) == 0.0


def test_stage_cost_nonneg_nondecreasing_in_netload():
    t = default_tariff()
    ws = np.linspace(-5.0, 5.0, 21)
    for u in (-2.0, 0.0, 2.0):
        costs = list(stage_cost(u, ws, t.rate(20)))
        assert min(costs) >= 0.0
        assert all(b >= a for a, b in zip(costs, costs[1:]))


# ---------------------------------------------------------------- clustering


def test_kmeans_two_cluster_example():
    law = kmeans_1d(np.array([0.0, 0.0, 10.0, 10.0]), 2)
    assert law.support.tolist() == [0.0, 10.0]
    assert law.probs.tolist() == [0.5, 0.5]


def test_kmeans_single_cluster_is_mean():
    data = np.array([1.0, 2.0, 6.0])
    law = kmeans_1d(data, 1)
    assert law.support.tolist() == [pytest.approx(3.0)]
    assert law.probs.tolist() == [1.0]


def test_kmeans_deterministic_and_validated():
    data = np.random.default_rng(11).standard_normal(200)
    a = kmeans_1d(data, 5)
    b = kmeans_1d(data, 5)
    assert np.array_equal(a.support, b.support)
    assert np.array_equal(a.probs, b.probs)
    with pytest.raises(ValueError):
        kmeans_1d(np.array([1.0]), 3)
    with pytest.raises(ValueError):
        kmeans_1d(data, 0)


def test_fit_netload_distributions_shape_and_bounds():
    classmap = build_periodicity_classes(9, 1)
    netload = synthetic_netload_scenarios(4, 10, 8, seed=3)
    prices = np.ones((4, 10))
    scen = ScenarioSet(netload, prices)
    laws = fit_netload_distributions(scen, classmap, k=3)
    assert sorted(laws) == [1]
    assert len(laws[1]) == 8
    for m, law in enumerate(laws[1]):
        obs = netload[:, :, m]
        assert abs(law.probs.sum() - 1.0) < 1e-12
        assert law.support.min() >= obs.min() - 1e-12
        assert law.support.max() <= obs.max() + 1e-12


def test_fit_netload_insufficient_data():
    classmap = build_periodicity_classes(0, 1)
    scen = ScenarioSet(np.zeros((1, 1, 2)), np.ones((1, 1)))
    with pytest.raises(ValueError, match=r"\(class, slot\)"):
        fit_netload_distributions(scen, classmap, k=5)


# ---------------------------------------------------------------- prices


def test_interp_price_forecast():
    daily = interp_price_forecast([1.0, 2.0], 366)
    assert daily[0] == 1.0
    assert daily[365] == 2.0
    assert daily[100] == pytest.approx(1.0 + 100 / 365.0)
    with pytest.raises(ValueError):
        interp_price_forecast([1.0, 2.0], 1000)


def test_battery_price_laws_are_valid_distributions():
    laws = battery_price_laws([0.4, 0.2], sigma=0.05, n_days=200, floor=0.01, n_atoms=5)
    assert len(laws) == 200
    for law in laws:
        assert abs(law.probs.sum() - 1.0) < 1e-12
        assert law.support.min() >= 0.01
        assert np.all(np.diff(law.support) > 0)
    # sigma 0 collapses to the forecast point
    laws0 = battery_price_laws([0.4, 0.2], sigma=0.0, n_days=10, n_atoms=5)
    assert all(len(l) == 1 for l in laws0)


# ---------------------------------------------------------------- scenarios


def test_scenario_set_validation():
    with pytest.raises(ValueError):
        ScenarioSet(np.zeros((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        ScenarioSet(np.zeros((2, 3, 4)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        ScenarioSet(np.zeros((2, 3, 4)), np.zeros((2, 3)))


def test_synthetic_netload_deterministic():
    a = synthetic_netload_scenarios(2, 5, 48, seed=4)
    b = synthetic_netload_scenarios(2, 5, 48, seed=4)
    assert a.shape == (2, 5, 48)
    assert np.array_equal(a, b)
    c = synthetic_netload_scenarios(2, 5, 48, seed=5)
    assert not np.array_equal(a, c)


def test_white_noise_resample_single_atom_is_constant():
    classmap = build_periodicity_classes(4, 1)
    laws = {1: [DiscreteDist(np.array([2.0]), np.array([1.0])) for _ in range(3)]}
    price_laws = [DiscreteDist(np.array([5.0]), np.array([1.0])) for _ in range(5)]
    scen = white_noise_resample(laws, price_laws, classmap, n=3, seed=0, n_days=5)
    assert np.all(scen.netload == 2.0)
    assert np.all(scen.battery_price == 5.0)


def test_white_noise_resample_matches_law_statistics():
    classmap = build_periodicity_classes(4999, 1)
    law = DiscreteDist(np.array([-1.0, 0.0, 2.0]), np.array([0.25, 0.5, 0.25]))
    laws = {1: [law, law]}
    price_laws = [DiscreteDist(np.array([1.0]), np.array([1.0]))] * 5000
    scen = white_noise_resample(laws, price_laws, classmap, n=2, seed=42, n_days=5000)
    mean = float(np.dot(law.probs, law.support))
    std = float(np.sqrt(np.dot(law.probs, (law.support - mean) ** 2)))
    for m in range(2):
        samples = scen.netload[:, :, m].ravel()
        stderr = std / np.sqrt(len(samples))
        assert abs(samples.mean() - mean) < 3 * stderr


def test_white_noise_resample_reproducible():
    classmap = build_periodicity_classes(9, 1)
    law = DiscreteDist(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    laws = {1: [law] * 4}
    price_laws = [DiscreteDist(np.array([1.0, 2.0]), np.array([0.5, 0.5]))] * 10
    a = white_noise_resample(laws, price_laws, classmap, n=4, seed=7, n_days=10)
    b = white_noise_resample(laws, price_laws, classmap, n=4, seed=7, n_days=10)
    assert np.array_equal(a.netload, b.netload)
    assert np.array_equal(a.battery_price, b.battery_price)
    # first scenarios coincide when only the count grows (per-scenario RNG)
    c = white_noise_resample(laws, price_laws, classmap, n=6, seed=7, n_days=10)
    assert np.array_equal(c.netload[:4], a.netload)


# ---------------------------------------------------------------- csv ingestion


NETLOAD_HEADER = "scenario,day,slot,netload_kwh\n"


def netload_rows(n, days, slots, skip=()):
    """Complete netload CSV rows, value 100 s + 10 d + m, minus ``skip``."""
    return "".join(
        f"{s},{d},{m},{100 * s + 10 * d + m}\n"
        for s in range(n) for d in range(days) for m in range(slots)
        if (s, d, m) not in skip
    )


def test_csv_roundtrip(tmp_path):
    npath = tmp_path / "netload.csv"
    given = "0,0,0,1.5\n0,0,1,-2.0\n1,1,0,3.0\n"
    npath.write_text(
        NETLOAD_HEADER + given + netload_rows(2, 2, 2, skip={(0, 0, 0), (0, 0, 1), (1, 1, 0)})
    )
    arr = load_netload_csv(npath, n_slots=2)
    assert arr.shape == (2, 2, 2)
    assert arr[0, 0, 0] == 1.5 and arr[0, 0, 1] == -2.0 and arr[1, 1, 0] == 3.0
    assert arr[1, 0, 1] == 101.0
    ppath = tmp_path / "prices.csv"
    ppath.write_text("scenario,day,price_usd_per_kwh\n0,0,0.3\n0,1,0.3\n1,0,0.3\n1,1,0.25\n")
    prices = load_price_csv(ppath)
    assert prices.shape == (2, 2)
    assert prices[1, 1] == 0.25
    empty = tmp_path / "empty.csv"
    empty.write_text("scenario,day,slot,netload_kwh\n")
    with pytest.raises(ValueError):
        load_netload_csv(empty)


def test_csv_missing_row_rejected(tmp_path):
    path = tmp_path / "netload.csv"
    path.write_text(NETLOAD_HEADER + netload_rows(2, 3, 2, skip={(1, 2, 0)}))
    with pytest.raises(ValueError, match=r"1 of 12 rows missing, first \{'scenario': 1, 'day': 2"):
        load_netload_csv(path, n_slots=2)


def test_csv_duplicate_row_rejected(tmp_path):
    path = tmp_path / "netload.csv"
    path.write_text(NETLOAD_HEADER + netload_rows(1, 2, 2) + "0,1,0,7.0\n")
    with pytest.raises(ValueError, match="duplicate row"):
        load_netload_csv(path, n_slots=2)


def test_csv_slot_out_of_range_rejected(tmp_path):
    path = tmp_path / "netload.csv"
    path.write_text(NETLOAD_HEADER + netload_rows(1, 1, 2) + "0,0,2,1.0\n")
    with pytest.raises(ValueError, match=r"slot 2 outside \[0, 1\]"):
        load_netload_csv(path, n_slots=2)
