"""Battery case study: dynamics, tariff, costs, fitting and scenario generation."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from twoscale import battery
from twoscale.battery import (
    OFF_PEAK_RATE,
    PEAK_RATE,
    SHOULDER_RATE,
    BatteryConfig,
    ScenarioSet,
    battery_price_laws,
    control_effect,
    fast_dynamics,
    fit_netload_distributions,
    interp_price_forecast,
    kmeans_1d,
    load_netload_csv,
    renewal_dynamics,
    stage_cost,
    synthetic_netload_scenarios,
    tariff_for_slots,
    white_noise_resample,
)
from twoscale.config import RunConfig
from twoscale.intraday import build_periodicity_classes

from conftest import (
    _white_noise_resample_reference,
    check_state_bounds,
    law_table,
    point_laws,
    point_table,
    small_battery_config,
)

# the battery of a default run: sizes 0..1500 kWh in steps of 100, 48 slots
DEFAULT = RunConfig().battery_config()


def unit_cfg(**kw):
    return small_battery_config(charge_eff=1.0, discharge_eff=1.0, **kw)


# ---------------------------------------------------------------- parameters


def test_run_config_fills_every_battery_field():
    cfg = RunConfig(
        n_slots=24, c_step=50.0, c_max=200.0, charge_eff=0.9, discharge_eff=0.85,
        u_max=70.0, soc_fraction=0.7, cycle_multiple=3, gamma=0.995,
    )
    bat = cfg.battery_config()
    fields = dataclasses.fields(BatteryConfig)
    names = [f.name for f in fields]
    assert names == [
        "charge_eff", "discharge_eff", "u_max", "soc_fraction", "cycle_multiple", "gamma",
        "renewal_grid", "rates",
    ]
    assert all(f.default is f.default_factory is dataclasses.MISSING for f in fields)
    for name in names[:-2]:
        assert getattr(bat, name) == getattr(cfg, name), name
    assert bat.renewal_grid == tuple(cfg.c_grid()) == (0.0, 50.0, 100.0, 150.0, 200.0)
    assert bat.rates == tariff_for_slots(cfg.n_slots)
    assert len(bat.rates) == 24
    with pytest.raises(TypeError):
        BatteryConfig()


# ---------------------------------------------------------------- dynamics


def step(x: tuple, u: float, cfg) -> tuple:
    """The array transition applied to one (soc, health, capacity) state and
    one control."""
    soc, health, capacity = x
    soc, health = fast_dynamics(soc, health, control_effect(u, cfg))
    return float(soc), float(health), capacity


def renew(x: tuple, r: float, cfg) -> tuple:
    """The array renewal applied to one (soc, health, capacity) state and one
    size."""
    return tuple(float(v) for v in renewal_dynamics(*x, r, cfg))


def test_fast_dynamics_examples():
    cfg = unit_cfg()
    x = (0.0, 10.0, 100.0)
    assert step(x, 2.0, cfg) == (2.0, 8.0, 100.0)
    x = (5.0, 10.0, 100.0)
    assert step(x, -2.0, cfg) == (3.0, 8.0, 100.0)
    assert step(x, 0.0, cfg) == x


def test_fast_dynamics_efficiencies():
    cfg = small_battery_config()  # 0.95 / 0.95
    soc, health, _ = step((10.0, 50.0, 50.0), 10.0, cfg)
    assert soc == pytest.approx(10.0 + 0.95 * 10.0)
    assert health == pytest.approx(40.0)
    soc, health, _ = step((10.0, 50.0, 50.0), -10.0, cfg)
    assert soc == pytest.approx(10.0 - 0.95 * 10.0)
    assert health == pytest.approx(40.0)


def test_health_strictly_decreases_iff_control_nonzero():
    cfg = unit_cfg()
    x = (5.0, 10.0, 100.0)
    assert step(x, 0.0, cfg)[1] == x[1]
    for u in (-3.0, -0.5, 0.5, 3.0):
        _, health, capacity = step(x, u, cfg)
        assert health < x[1]
        assert capacity == x[2]


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
    cfg = DEFAULT
    assert renew((3.0, 8.0, 100.0), 100.0, cfg) == (0.0, 400.0, 100.0)
    x = (3.0, 8.0, 100.0)
    assert renew(x, 0.0, cfg) == x
    assert renew(x, 1500.0, cfg) == (0.0, 6000.0, 1500.0)


def test_renewal_requires_grid_size():
    cfg = DEFAULT
    with pytest.raises(ValueError):
        renewal_dynamics(0.0, 0.0, 0.0, 150.0, cfg)


def test_renewal_idempotent_for_zero():
    cfg = DEFAULT
    x = (1.0, 2.0, 100.0)
    assert renew(renew(x, 0.0, cfg), 0.0, cfg) == x


def test_state_bounds_check():
    cfg = DEFAULT
    check_state_bounds((0.0, 400.0, 100.0), cfg)
    with pytest.raises(ValueError):
        check_state_bounds((90.0, 400.0, 100.0), cfg)  # soc > 0.8 * c
    with pytest.raises(ValueError):
        check_state_bounds((0.0, 500.0, 100.0), cfg)  # h > 4 * c
    with pytest.raises(ValueError):
        check_state_bounds((0.0, 0.0, 2000.0), cfg)


# ---------------------------------------------------------------- tariff and cost


def test_tariff_rate_examples():
    rates = tariff_for_slots(48)
    assert rates[46] == OFF_PEAK_RATE  # 23:00
    assert rates[24] == SHOULDER_RATE  # 12:00
    assert rates[36] == PEAK_RATE  # 18:00


def test_tariff_day_integral_identity():
    # constant 1 kW over the whole day: 0.5 kWh per half-hour slot
    total = sum(rate * 0.5 for rate in tariff_for_slots(48))
    expected = 9 * OFF_PEAK_RATE + 10 * SHOULDER_RATE + 5 * PEAK_RATE
    assert total == pytest.approx(expected, abs=1e-12)


def test_tariff_for_other_slot_counts():
    t = tariff_for_slots(24)  # hourly
    assert t[0] == OFF_PEAK_RATE
    assert t[7] == SHOULDER_RATE
    assert t[17] == PEAK_RATE
    assert t[22] == OFF_PEAK_RATE
    assert len(t) == 24


def test_stage_cost_examples():
    t = tariff_for_slots(48)
    assert stage_cost(0.0, 1.0, t[36]) == PEAK_RATE
    assert stage_cost(0.0, -5.0, t[10]) == 0.0
    assert stage_cost(-1.0, 1.0, t[0]) == 0.0


def test_stage_cost_nonneg_nondecreasing_in_netload():
    t = tariff_for_slots(48)
    ws = np.linspace(-5.0, 5.0, 21)
    for u in (-2.0, 0.0, 2.0):
        costs = list(stage_cost(u, ws, t[20]))
        assert min(costs) >= 0.0
        assert all(b >= a for a, b in zip(costs, costs[1:]))


# ---------------------------------------------------------------- clustering


def test_kmeans_two_cluster_example():
    support, probs = kmeans_1d(np.array([0.0, 0.0, 10.0, 10.0]), 2)
    assert support.tolist() == [0.0, 10.0]
    assert probs.tolist() == [0.5, 0.5]


def test_kmeans_single_cluster_is_mean():
    data = np.array([1.0, 2.0, 6.0])
    support, probs = kmeans_1d(data, 1)
    assert support.tolist() == [pytest.approx(3.0)]
    assert probs.tolist() == [1.0]


def test_kmeans_deterministic_and_validated():
    data = np.random.default_rng(11).standard_normal(200)
    a = kmeans_1d(data, 5)
    b = kmeans_1d(data, 5)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    with pytest.raises(ValueError):
        kmeans_1d(np.array([1.0]), 3)
    with pytest.raises(ValueError):
        kmeans_1d(data, 0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            kmeans_1d(np.array([1.0, bad, 2.0, 3.0]), 2)


def _dense_kmeans_reference(data, k, max_iter=200):
    """The dense Lloyd loop kmeans_1d replaced, and its number of steps: an
    (n, k) distance argmin per step, then one mask per cluster."""
    data = np.asarray(data, dtype=float).ravel()
    centers = np.quantile(np.sort(data), (np.arange(k) + 0.5) / k)
    assign, steps = None, 0
    for steps in range(1, max_iter + 1):
        dist = np.abs(data[:, None] - centers[None, :])
        new_assign = np.argmin(dist, axis=1)
        for j in range(k):
            mask = new_assign == j
            if mask.any():
                centers[j] = data[mask].mean()
            else:
                far = int(np.argmax(np.abs(data - centers[new_assign])))
                centers[j] = data[far]
                new_assign[far] = j
        if assign is not None and np.array_equal(assign, new_assign):
            break
        assign = new_assign
    order = np.argsort(centers)
    centers = centers[order]
    counts = np.bincount(order.argsort()[assign], minlength=k)
    probs = counts / counts.sum()
    keep = probs > 0
    return (centers[keep], probs[keep] / probs[keep].sum()), steps


@pytest.fixture()
def dense_calls(monkeypatch):
    """Counts the Lloyd steps that fall back to the dense assignment."""
    calls = []
    dense = battery._dense_assign

    def counted(data, centers):
        calls.append(len(data))
        return dense(data, centers)

    monkeypatch.setattr(battery, "_dense_assign", counted)
    return calls


def assert_matches_dense_reference(data, k):
    (support, probs), steps = battery._kmeans_1d(data, k)
    (ref_support, ref_probs), ref_steps = _dense_kmeans_reference(data, k)
    assert support.tobytes() == ref_support.tobytes()
    assert probs.tobytes() == ref_probs.tobytes()
    assert steps == ref_steps


def test_interval_edges_equal_the_dense_argmin_at_the_midpoints():
    # points within a few ulps of each midpoint, where rounding decides the
    # label and the midpoint guess must move in both directions
    rng = np.random.default_rng(1)
    moved = set()
    for _ in range(300):
        k = int(rng.integers(2, 6))
        centers = np.sort(rng.uniform(-10, 10, k)) * 10.0 ** rng.integers(-3, 4)
        mids = centers[:-1] + (centers[1:] - centers[:-1]) / 2
        xs = np.sort(np.concatenate(
            [m + rng.integers(-40, 40, 30) * np.spacing(m) for m in mids]
        ))
        edges = battery._interval_edges(xs, centers)
        labels = np.repeat(np.arange(k), edges[1:] - edges[:-1])
        assert np.array_equal(labels, battery._dense_assign(xs, centers))
        guess = np.searchsorted(xs, mids)
        moved.update(np.sign(edges[1:-1] - guess).tolist())
    assert moved == {-1, 0, 1}


def test_kmeans_on_desk_columns_equals_the_dense_loop(dense_calls):
    # the netload columns the desk-tables benchmark fits: configs/desk.json, one class
    desk = json.loads((Path(__file__).resolve().parents[1] / "configs/desk.json").read_text())
    cfg = RunConfig.from_dict({**desk, "n_classes": 1})
    netload = synthetic_netload_scenarios(
        cfg.fit_scenarios, cfg.D + 1, cfg.n_slots, cfg.seed, base_kw=cfg.netload_base_kw
    )
    days = np.flatnonzero(cfg.classmap.day_to_class[: cfg.D + 1] == 1)
    assert len(days) == cfg.D + 1
    for m in range(cfg.n_slots):
        assert_matches_dense_reference(netload[:, days, m].ravel(), cfg.fit_k)
    assert dense_calls == []


@pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e1, 1e3])
def test_kmeans_on_random_data_equals_the_dense_loop(scale):
    rng = np.random.default_rng(int(scale * 1e3))
    for n, k in ((50, 3), (400, 10), (2000, 10), (997, 17)):
        data = scale * rng.standard_normal(n)
        assert_matches_dense_reference(data, k)
        assert_matches_dense_reference(scale * rng.exponential(size=n) + 100.0 * scale, k)


def test_kmeans_on_tied_data_equals_the_dense_loop():
    rng = np.random.default_rng(5)
    for decimals in (0, 1, 2):
        for k in (2, 5, 10):
            assert_matches_dense_reference(np.round(rng.standard_normal(600), decimals), k)


def test_kmeans_edge_cluster_counts_equal_the_dense_loop(dense_calls):
    rng = np.random.default_rng(9)
    data = rng.standard_normal(40)
    assert_matches_dense_reference(data, 1)
    assert_matches_dense_reference(data, len(data))
    assert_matches_dense_reference(data[:7], 7)
    # more clusters than distinct values: clusters empty out and are re-seeded
    assert_matches_dense_reference(np.repeat([0.0, 1.0, 2.0], [5, 3, 2]), 5)
    assert_matches_dense_reference(np.round(rng.standard_normal(200)), 12)


def test_kmeans_nearly_coincident_centers_take_the_dense_path(dense_calls):
    # a cluster of values a few ulps apart plus far points: the quantile
    # centres sit ulps apart, so a far point's distances to them round to a
    # tie that only the dense argmin breaks the dense way
    rng = np.random.default_rng(2)
    for base in (1.0, -3.5e3, 1e-3):
        for n_far in (1, 3, 10):
            near = base + rng.integers(0, 24, 300) * np.spacing(base)
            data = np.concatenate([near, np.full(n_far, 1e3 * base)])
            for k in (2, 3, 4):
                assert_matches_dense_reference(data, k)
    assert dense_calls


def test_fit_netload_distributions_shape_and_bounds():
    classmap = build_periodicity_classes(9, 1)
    netload = synthetic_netload_scenarios(4, 10, 8, seed=3, base_kw=40.0)
    laws, _ = fit_netload_distributions(netload, classmap, k=3)
    assert sorted(laws) == [1]
    assert laws[1].probs.shape == (8, 3)
    for m in range(8):
        obs = netload[:, :, m]
        assert abs(laws[1].probs[m].sum() - 1.0) < 1e-12
        assert laws[1].support[m].min() >= obs.min() - 1e-12
        assert laws[1].support[m].max() <= obs.max() + 1e-12


def test_fit_netload_insufficient_data():
    classmap = build_periodicity_classes(0, 1)
    with pytest.raises(ValueError, match=r"\(class, slot\)"):
        fit_netload_distributions(np.zeros((1, 1, 2)), classmap, k=5)


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
    assert laws.probs.shape == laws.support.shape == (200, 5)
    for support, probs in zip(laws.support, laws.probs):
        assert abs(probs.sum() - 1.0) < 1e-12
        assert support.min() >= 0.01
        assert np.all(np.diff(support) > 0)
    # sigma 0 collapses to the forecast point
    laws0 = battery_price_laws([0.4, 0.2], sigma=0.0, n_days=10, floor=0.01, n_atoms=5)
    assert laws0.probs.shape == (10, 1)


def test_battery_price_laws_pad_merged_atoms_with_the_last_at_probability_0():
    # the floor merges 2 of 5 atoms from day 174 on: a ragged table
    laws = battery_price_laws([0.03, 0.01], sigma=0.02, n_days=200, floor=0.01, n_atoms=5)
    assert laws.probs.shape == (200, 5)
    sizes = np.count_nonzero(laws.probs > 0.0, axis=1)
    assert sizes.tolist() == [5] * 174 + [4] * 26
    for d in range(174, 200):
        support, probs = laws.support[d], laws.probs[d]
        assert probs[4] == 0.0 and support[4] == support[3]
        assert np.all(np.diff(support[:4]) > 0) and support[0] == 0.01
        assert probs[0] == pytest.approx(0.4, rel=1e-15)


# ---------------------------------------------------------------- scenarios


def test_scenario_set_validation():
    with pytest.raises(ValueError):
        ScenarioSet(np.zeros((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        ScenarioSet(np.zeros((2, 3, 4)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        ScenarioSet(np.zeros((2, 3, 4)), np.zeros((2, 3)))


def test_synthetic_netload_deterministic():
    a = synthetic_netload_scenarios(2, 5, 48, seed=4, base_kw=40.0)
    b = synthetic_netload_scenarios(2, 5, 48, seed=4, base_kw=40.0)
    assert a.shape == (2, 5, 48)
    assert np.array_equal(a, b)
    c = synthetic_netload_scenarios(2, 5, 48, seed=5, base_kw=40.0)
    assert not np.array_equal(a, c)


def test_white_noise_resample_single_atom_is_constant():
    classmap = build_periodicity_classes(4, 1)
    laws = {1: point_laws([2.0] * 3)}
    price_laws = point_table(5.0, 5)
    scen = white_noise_resample(laws, price_laws, classmap, n=3, seed=0, n_days=5)
    assert np.all(scen.netload == 2.0)
    assert np.all(scen.battery_price == 5.0)


def test_white_noise_resample_matches_law_statistics():
    classmap = build_periodicity_classes(4999, 1)
    support, probs = np.array([-1.0, 0.0, 2.0]), np.array([0.25, 0.5, 0.25])
    laws = {1: law_table([(support, probs)] * 2)}
    price_laws = point_table(1.0, 5000)
    scen = white_noise_resample(laws, price_laws, classmap, n=2, seed=42, n_days=5000)
    mean = float(np.dot(probs, support))
    std = float(np.sqrt(np.dot(probs, (support - mean) ** 2)))
    for m in range(2):
        samples = scen.netload[:, :, m].ravel()
        stderr = std / np.sqrt(len(samples))
        assert abs(samples.mean() - mean) < 3 * stderr


@pytest.mark.parametrize("n_classes", [1, 4])
def test_white_noise_resample_equals_the_per_scenario_day_loop(n_classes):
    # price laws of 1 to 5 atoms and netload laws of 1 to 3 atoms, some with
    # a cumulative sum that ends below 1.0, draw every day's prices for all
    # scenarios in one lookup and each slot from its padded table row
    n_days, rng = 400, np.random.default_rng(3)
    classmap = build_periodicity_classes(n_days - 1, n_classes)

    def random_law(k, shift):
        probs = rng.random(k) + 0.1
        return np.sort(rng.random(k)) + shift, probs / probs.sum()

    laws = {
        cls: [random_law(1 + m % 3, -0.5) for m in range(6)]
        for cls in sorted(classmap.representatives)
    }
    price_laws = [random_law(1 + d % 5, d) for d in range(n_days)]
    tables = {cls: law_table(slot_laws) for cls, slot_laws in laws.items()}
    for n, seed in ((1, 0), (7, 11), (30, 1234)):
        args = (laws, price_laws, classmap, n, seed, n_days)
        # the laws of fewer atoms than the widest padded in one table
        got = white_noise_resample(tables, law_table(price_laws), *args[2:])
        want = _white_noise_resample_reference(*args)
        assert got.netload.tobytes() == want.netload.tobytes()
        assert got.battery_price.tobytes() == want.battery_price.tobytes()


def test_white_noise_resample_reproducible():
    classmap = build_periodicity_classes(9, 1)
    laws = {1: law_table([([0.0, 1.0], [0.5, 0.5])] * 4)}
    price_laws = law_table([([1.0, 2.0], [0.5, 0.5])] * 10)
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
    empty = tmp_path / "empty.csv"
    empty.write_text("scenario,day,slot,netload_kwh\n")
    with pytest.raises(ValueError):
        load_netload_csv(empty, n_slots=2)


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


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
def test_csv_non_finite_value_rejected(tmp_path, bad):
    path = tmp_path / "netload.csv"
    path.write_text(NETLOAD_HEADER + netload_rows(1, 2, 2, skip={(0, 1, 0)}) + f"0,1,0,{bad}\n")
    with pytest.raises(ValueError, match=r"netload\.csv:5: netload_kwh .* is not finite"):
        load_netload_csv(path, n_slots=2)


def test_csv_slot_out_of_range_rejected(tmp_path):
    path = tmp_path / "netload.csv"
    path.write_text(NETLOAD_HEADER + netload_rows(1, 1, 2) + "0,0,2,1.0\n")
    with pytest.raises(ValueError, match=r"slot 2 outside \[0, 1\]"):
        load_netload_csv(path, n_slots=2)
