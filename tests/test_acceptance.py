"""Release acceptance suite: one test per criterion.

Criteria 1-4 cross-check the decomposition algorithms against brute-force
oracles on seeded tiny instances.  Criteria 5-8 run the bundled synthetic
battery instance at desk scale (a one-year horizon).  Criteria 9-11 cover
the complexity calculator, artifact determinism and the performance budget.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from twoscale.battery import white_noise_resample
from twoscale.config import RunConfig
from twoscale.intraday import PRICE, RESOURCE, compute_intraday
from twoscale.oracle import (
    TinyProblem,
    _fields,
    complexity_estimate,
    enumerate_tree,
    flat_dp_solve,
    random_tiny_problem,
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
from twoscale.policy import simulate_policy
from twoscale.slowscale import (
    block_bellman_solve,
    generic_price_recursion,
    generic_resource_recursion,
)

from conftest import check_state_bounds, point_laws, small_battery_config

REPO = Path(__file__).resolve().parents[1]
N_INSTANCES = 50


def run_all_stages(cfg: RunConfig, out: Path) -> None:
    stage_fit(cfg, out)
    stage_intraday(cfg, out)
    stage_bellman(cfg, out)
    stage_simulate(cfg, out)
    stage_report(cfg, out)


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """Full pipeline on the bundled synthetic instance (configs/desk.json)."""
    cfg = RunConfig.from_json(REPO / "configs" / "desk.json")
    out = tmp_path_factory.mktemp("desk")
    run_all_stages(cfg, out)
    return cfg, out


def test_criterion_01_flat_dp_equals_tree_enumeration():
    t0 = time.perf_counter()
    for seed in range(N_INSTANCES):
        p = random_tiny_problem(seed)
        flat = flat_dp_solve(p)
        tree = enumerate_tree(p, float(p.states[0]))
        assert abs(flat[0] - tree) <= 1e-9, f"seed {seed}"
    assert time.perf_counter() - t0 < 60.0


def test_criterion_02_time_block_decomposition_equals_flat_dp():
    for seed in range(N_INSTANCES):
        p = random_tiny_problem(seed)
        flat = flat_dp_solve(p)
        block = block_bellman_solve(p).values[0]
        assert np.max(np.abs(flat - block)) <= 1e-9, f"seed {seed}"


def test_criterion_03_dynamic_monotonicity():
    for seed in range(N_INSTANCES):
        p = random_tiny_problem(seed, monotone=True)
        eq = flat_dp_solve(p)
        iq = flat_dp_solve(TinyProblem(**{**_fields(p), "inequality": True}))
        assert np.max(np.abs(eq - iq)) <= 1e-9, f"seed {seed}: relaxation not tight"
    for seed in range(N_INSTANCES):
        p = random_tiny_problem(seed)
        eq = flat_dp_solve(p)
        iq = flat_dp_solve(TinyProblem(**{**_fields(p), "inequality": True}))
        assert np.max(iq - eq) <= 1e-9, f"seed {seed}: relaxed value above exact"


def test_criterion_04_price_resource_sandwich_on_tiny_instances():
    prices = np.array([-2.0, -1.0, -0.5, 0.0])
    for seed in range(N_INSTANCES):
        p = random_tiny_problem(seed, monotone=True)
        p_rel = TinyProblem(**{**_fields(p), "inequality": True})
        exact = flat_dp_solve(p_rel)
        upper = generic_resource_recursion(p_rel).values[0]
        lower = generic_price_recursion(p_rel, prices).values[0]
        assert np.max(lower - exact) <= 1e-9, f"seed {seed}: lower bound above exact"
        assert np.max(exact - upper) <= 1e-9, f"seed {seed}: upper bound below exact"


def test_criterion_05_same_class_days_share_bitexact_tables():
    # two days of the same periodicity class reuse one set of slot laws, so
    # independent recomputations of their tables must serialize identically
    cfg = small_battery_config()
    laws = point_laws((10.0, -8.0, 6.0, 12.0))
    c_grid = np.array([0.0, 50.0])
    dh_grid = np.linspace(0.0, 100.0, 5)
    pi_grid = np.array([0.0, 0.05, 0.10])

    def blob(tab):
        return json.dumps(
            tab.table.to_jsonable(), sort_keys=True, separators=(",", ":")
        ).encode()

    r_day0 = compute_intraday(RESOURCE, cfg, laws, c_grid, dh_grid, 5, 5)
    r_day365 = compute_intraday(RESOURCE, cfg, laws, c_grid, dh_grid, 5, 5)
    p_day0 = compute_intraday(PRICE, cfg, laws, c_grid, pi_grid, 5, 5)
    p_day365 = compute_intraday(PRICE, cfg, laws, c_grid, pi_grid, 5, 5)
    assert blob(r_day0) == blob(r_day365)
    assert blob(p_day0) == blob(p_day365)
    assert r_day0.fast.tobytes() == r_day365.fast.tobytes()


def test_criterion_06_desk_values_nonincreasing_in_health(desk_run):
    cfg, out = desk_run
    for kind in ("price-lower", "resource-upper"):
        seq = load_value_seq(cfg, out, kind)
        worst = float(np.max(np.diff(seq.values, axis=1)))
        assert worst <= 1e-9, f"{kind}: health monotonicity violated by {worst}"


def test_criterion_07_desk_sandwich_gap_within_threshold(desk_run):
    _, out = desk_run
    report = json.loads((out / "report.json").read_text())
    assert report["violations"] == 0
    lower = report["lower_at_x0_day0"]
    upper = report["upper_at_x0_day0"]
    assert 0.0 < lower <= upper
    rel_gap = (upper - lower) / lower
    assert rel_gap <= 0.15, f"relative gap at the origin is {rel_gap:.4f}"


def test_criterion_08_simulation_consistency(desk_run):
    cfg, out = desk_run
    lower0 = json.loads((out / "report.json").read_text())["lower_at_x0_day0"]
    for mode in ("price", "resource"):
        stats = json.loads((out / f"sim_{mode}_stats.json").read_text())
        assert stats["scenarios"] == cfg.scenarios
        assert stats["mean"] >= lower0 - 3.0 * stats["stderr"], mode

    # replay a scenario subset in process to inspect the trajectories; the
    # simulator itself raises on any admissibility violation, so the stage
    # completing above already covers all scenarios
    laws, price_laws = _load_fit(cfg, out)
    bat = cfg.battery_config()
    scen = white_noise_resample(laws, price_laws, cfg.classmap, 10, cfg.seed, cfg.D + 1)
    for dec in (PRICE, RESOURCE):
        mode, tabs = dec.mode, _load_tables(cfg, out, dec, with_fast=True)
        values = load_value_seq(cfg, out, dec.kind)
        records, _ = simulate_policy(scen, mode, tabs, values, price_laws, cfg.classmap, bat)
        for rec in records:
            renewal_days = dict(rec.renewals)
            for state in rec.states:
                check_state_bounds(state, bat, tol=1e-6)
            for d in range(len(rec.states) - 1):
                (_, h_now, c_now), (soc_next, h_next, c_next) = rec.states[d], rec.states[d + 1]
                if d in renewal_days:
                    r = renewal_days[d]
                    assert soc_next == 0.0
                    assert h_next == bat.cycle_multiple * r
                    assert c_next == r
                else:
                    assert h_next <= h_now + 1e-9
                    assert c_next == c_now


def test_criterion_09_complexity_reference_ratios():
    assert complexity_estimate(7300, 48, 4)["ratio_R"] == pytest.approx(1 / 50, rel=0.10)
    assert complexity_estimate(1040, 336, 4)["ratio_R"] == pytest.approx(1 / 150, rel=0.10)


def test_criterion_10_pipeline_determinism(tmp_path):
    cfg = RunConfig(
        D=30, n_slots=12, n_classes=1, c_step=100.0, c_max=200.0,
        dh_points=5, dh_cap=400.0, pi_values=(0.0, 0.1), n_soc=9,
        n_controls=5, h_points=9, price_atoms=3, fit_scenarios=3,
        fit_k=3, scenarios=5, seed=11,
    )
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        run_all_stages(cfg, out)
    names = sorted(
        p.name for p in outs[0].iterdir() if p.is_file() and p.name != "manifest.json"
    )
    assert any(n.startswith("bellman_") for n in names)
    assert any(n.startswith("sim_") for n in names)
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_criterion_11_desk_pipeline_within_budget(tmp_path):
    cfg = RunConfig()
    t0 = time.perf_counter()
    run_all_stages(cfg, tmp_path / "perf")
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0, f"desk pipeline took {elapsed:.0f}s"


def test_criterion_11b_intraday_thread_scaling(tmp_path):
    cores = os.cpu_count() or 1
    if cores < 8:
        pytest.skip(f"thread-scaling check needs 8 cores, host has {cores}")
    base = dict(
        D=30, n_classes=4, fit_scenarios=3, fit_k=5, scenarios=5, seed=11
    )
    times = {}
    for threads in (1, 8):
        cfg = RunConfig(**base, threads=threads)
        out = tmp_path / f"t{threads}"
        stage_fit(cfg, out)
        t0 = time.perf_counter()
        stage_intraday(cfg, out)
        times[threads] = time.perf_counter() - t0
    assert times[1] / times[8] >= 3.0, f"speedup {times[1] / times[8]:.2f}x"
