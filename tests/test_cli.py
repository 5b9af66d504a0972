"""Command-line interface: stage wiring, exit codes and artifact determinism."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from twoscale import pipeline
from twoscale.cli import main
from twoscale.config import STAGE_KEYS, UPSTREAM

from conftest import rewrite_npz

TINY = {
    "D": 5,
    "n_slots": 6,
    "n_classes": 1,
    "c_step": 100.0,
    "c_max": 200.0,
    "dh_points": 5,
    "dh_cap": 400.0,
    "pi_values": [0.0, 0.1],
    "n_soc": 7,
    "n_controls": 5,
    "h_points": 9,
    "price_atoms": 3,
    "fit_scenarios": 3,
    "fit_k": 3,
    "scenarios": 3,
    "seed": 7,
}


@pytest.fixture()
def runner():
    return CliRunner()


def write_config(tmp_path: Path, obj: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in out.iterdir()}


def run_pipeline(runner, cfg_path: str, out: Path) -> None:
    for stage in ("fit", "intraday", "bellman", "simulate", "report"):
        res = runner.invoke(main, [stage, "--config", cfg_path, "--out", str(out)])
        assert res.exit_code == 0, f"{stage}: {res.output}"


def test_missing_dependency_exit_code(runner, tmp_path):
    cfg = write_config(tmp_path, TINY)
    res = runner.invoke(main, ["bellman", "--config", cfg, "--out", str(tmp_path / "r")])
    assert res.exit_code == 3


def test_unknown_config_key_exit_code(runner, tmp_path):
    cfg = write_config(tmp_path, {**TINY, "warp_factor": 9})
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(tmp_path / "r")])
    assert res.exit_code == 2


def test_invalid_config_value_exit_code(runner, tmp_path):
    cfg = write_config(tmp_path, {**TINY, "threads": 0})
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(tmp_path / "r")])
    assert res.exit_code == 2


def test_off_grid_renewal_states_rejected_at_load(runner, tmp_path):
    # renewal states (4 r, r) must lie on the (h, c) grid; 8 health points miss h = 400
    cfg = write_config(tmp_path, {**TINY, "h_points": 8})
    out = tmp_path / "r"
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2
    assert "not on the (h, c) grid" in res.output
    assert not out.exists()


@pytest.mark.parametrize(
    "bad",
    [
        {"class_scheme": "custom"},
        {"class_scheme": "weekly"},
        {"n_classes": 3},
        {"gamma": 1.5},
        {"charge_eff": 1.5},
        {"u_max": -3.0},
        {"soc_fraction": 0.0},
        {"price_forecast": [0.3], "D": 365},
        {"fit_scenarios": 0},
        {"h_points": 1},
        {"cycle_multiple": 0},
        {"n_soc": 0},
        {"n_soc": 1},
        {"n_controls": 0},
        {"n_controls": 1},
        {"dh_points": 0},
        {"dh_points": 1},
        # a wide noise floors atoms, and simulate refuses a price <= 0
        {"price_floor": 0.0, "price_sigma": 1.0},
        {"price_floor": -0.5, "price_sigma": 1.0},
    ],
)
def test_bad_config_rejected_at_load(runner, tmp_path, bad):
    # rejected by the config, before fit creates the output directory
    cfg = write_config(tmp_path, {**TINY, **bad})
    out = tmp_path / "r"
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert not out.exists()


def test_capacity_grid_without_a_battery_size_rejected_at_load(runner, tmp_path):
    # c_step 500 over c_max 200 leaves the grid [0]
    cfg = write_config(tmp_path, {**TINY, "c_step": 500.0})
    out = tmp_path / "r"
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2
    assert "no positive size" in res.output
    assert not out.exists()


@pytest.mark.parametrize("c_step", [300.0, 150.0])
def test_capacity_grid_past_c_max_rejected_at_load(runner, tmp_path, c_step):
    # 200 is no multiple of 300 (grid [0, 300]) or of 150 (grid [0, 150], h_grid to 800)
    cfg = write_config(tmp_path, {**TINY, "c_step": c_step})
    out = tmp_path / "r"
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2
    assert f"c_max {TINY['c_max']}" in res.output
    assert f"c_step {c_step}" in res.output
    assert not out.exists()


def test_rerun_stage_drops_the_records_downstream(runner, tmp_path):
    # a fit under config B must not leave config A's bounds passing as B's
    out = tmp_path / "r"
    cfg_a = write_config(tmp_path, TINY)
    for stage in ("fit", "intraday", "bellman", "report"):
        res = runner.invoke(main, [stage, "--config", cfg_a, "--out", str(out)])
        assert res.exit_code == 0, f"{stage}: {res.output}"
    cfg_b = str(tmp_path / "b.json")
    Path(cfg_b).write_text(json.dumps({**TINY, "seed": 8, "netload_base_kw": 80.0}))
    res = runner.invoke(main, ["fit", "--config", cfg_b, "--out", str(out)])
    assert res.exit_code == 0, res.output
    before = _files(out)
    for stage in ("report", "simulate", "bellman"):
        res = runner.invoke(main, [stage, "--config", cfg_b, "--out", str(out)])
        assert res.exit_code == 2, f"{stage}: {res.output}"
        assert "rerun intraday" in res.output
        assert _files(out) == before, stage
    # the records stay, each with the inputs it was built from
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["stages"]) == ["bellman", "fit", "intraday", "report"]
    assert manifest["stages"]["fit"]["inputs"]["seed"] == 8
    assert manifest["stages"]["intraday"]["inputs"]["seed"] == TINY["seed"]
    res = runner.invoke(main, ["intraday", "--config", cfg_b, "--out", str(out)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["report", "--config", cfg_b, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "rerun bellman" in res.output


def test_report_without_the_resource_bound_exit_code(runner, tmp_path):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "r"
    for stage in ("fit", "intraday", "bellman"):
        res = runner.invoke(main, [stage, "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, f"{stage}: {res.output}"
    (out / "bellman_R.npz").unlink()
    res = runner.invoke(main, ["report", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 3
    assert "bellman_R.npz" in res.output


def test_forced_report_on_another_horizon_exit_code(runner, tmp_path):
    out = tmp_path / "r"
    cfg = write_config(tmp_path, TINY)
    for stage in ("fit", "intraday", "bellman"):
        res = runner.invoke(main, [stage, "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, f"{stage}: {res.output}"
    before = _files(out)
    cfg = write_config(tmp_path, {**TINY, "D": TINY["D"] + 1})
    res = runner.invoke(main, ["report", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2
    assert "rerun fit" in res.output
    assert _files(out) == before


@pytest.mark.parametrize(
    "stage, change",
    [("simulate", {"n_controls": 7}), ("bellman", {"c_max": 300.0, "h_points": 13})],
)
def test_forced_stage_on_other_intraday_grids_exit_code(runner, tmp_path, stage, change):
    out = tmp_path / "r"
    cfg = write_config(tmp_path, TINY)
    for done in ("fit", "intraday", "bellman"):
        res = runner.invoke(main, [done, "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, f"{done}: {res.output}"
    before = _files(out)
    cfg = write_config(tmp_path, {**TINY, **change})
    res = runner.invoke(main, [stage, "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "rerun intraday" in res.output
    assert not list(out.glob("sim_*"))
    assert _files(out) == before


def test_forced_intraday_on_more_classes_than_fit_exit_code(runner, tmp_path):
    # at D 120 the four-class map has classes 1 and 2, the fit laws only class 1
    out = tmp_path / "r"
    cfg = write_config(tmp_path, {**TINY, "D": 120})
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    before = _files(out)
    cfg = write_config(tmp_path, {**TINY, "D": 120, "n_classes": 4})
    res = runner.invoke(main, ["intraday", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "rerun fit" in res.output
    assert _files(out) == before


def test_forced_bellman_on_a_longer_horizon_than_fit_exit_code(runner, tmp_path):
    out = tmp_path / "r"
    cfg = write_config(tmp_path, TINY)
    for stage in ("fit", "intraday"):
        res = runner.invoke(main, [stage, "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, f"{stage}: {res.output}"
    before = _files(out)
    cfg = write_config(tmp_path, {**TINY, "D": 2 * TINY["D"]})
    res = runner.invoke(main, ["bellman", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "rerun fit" in res.output
    assert _files(out) == before


def test_bad_netload_csv_exit_code(runner, tmp_path):
    csv_path = tmp_path / "netload.csv"
    csv_path.write_text("scenario,day,slot,netload_kwh\n0,0,0,1.0\n")
    cfg = write_config(tmp_path, {**TINY, "netload_csv": str(csv_path)})
    out = tmp_path / "r"
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2
    assert "rows missing" in res.output
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_netload_csv_exit_code(runner, tmp_path, bad):
    csv_path = tmp_path / "netload.csv"
    _netload_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    lines[4] = lines[4].rsplit(",", 1)[0] + f",{bad}"
    csv_path.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, {**TINY, "netload_csv": str(csv_path)})
    out = tmp_path / "r"
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert f"netload.csv:5: netload_kwh {float(bad)} is not finite" in res.output
    assert not out.exists()


def test_netload_csv_shorter_than_the_horizon_exit_code(runner, tmp_path):
    # the CSV holds days 0..5, the horizon D + 1 = 8 days
    csv_path = tmp_path / "netload.csv"
    cfg = write_config(tmp_path, {**TINY, "D": 7, "netload_csv": _netload_csv(csv_path)})
    out = tmp_path / "r"
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert f"{csv_path}: 6 days, not D+1 = 8" in res.output
    assert not out.exists()


def test_negative_seed_with_a_netload_csv_rejected_at_load(runner, tmp_path):
    # the CSV leaves the seed to simulate's resample alone, which would crash
    csv_path = tmp_path / "netload.csv"
    cfg = write_config(tmp_path, {**TINY, "seed": -1, "netload_csv": _netload_csv(csv_path)})
    out = tmp_path / "r"
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "seed must be >= 0, not -1" in res.output
    assert not out.exists()


def test_too_few_observations_per_class_and_slot_exit_code(runner, tmp_path):
    # 2 scenarios of 2 days give each (class, slot) 4 observations for 5 atoms
    cfg = write_config(tmp_path, {**TINY, "D": 1, "fit_scenarios": 2, "fit_k": 5})
    out = tmp_path / "r"
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "insufficient data (< 5 observations)" in res.output
    assert not out.exists()


@pytest.mark.parametrize("field", ["support", "probs"])
# the ids name the JSON files these tables were stored in before laws.npz
@pytest.mark.parametrize("law", ["netload", "price"], ids=["noise_laws.json", "price_laws.json"])
def test_fit_laws_holding_a_nan_exit_code(runner, tmp_path, law, field):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "r"
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    member = f"price_{field}" if law == "price" else f"netload_{field}_1"
    rewrite_npz(out / "laws.npz", lambda arrays: np.put(arrays[member], 0, np.nan))
    before = _files(out)
    res = runner.invoke(main, ["intraday", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert f"{member} holds a NaN: rerun fit" in res.output
    assert _files(out) == before


def test_stage_prints_json(runner, tmp_path):
    cfg = write_config(tmp_path, TINY)
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(tmp_path / "r")])
    assert res.exit_code == 0
    printed = json.loads(res.stdout)
    assert sorted(printed) == ["classes", "k", "laws_s", "lloyd_iterations"]
    assert printed["classes"] == [1] and printed["k"] == TINY["fit_k"]


def test_malformed_config_file_exit_code(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    res = runner.invoke(main, ["fit", "--config", str(path), "--out", str(tmp_path / "r")])
    assert res.exit_code == 2


def test_config_hash_mismatch_exit_code(runner, tmp_path):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "r"
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0
    res = runner.invoke(
        main, ["intraday", "--config", cfg, "--out", str(out), "--seed", "99"]
    )
    assert res.exit_code == 2
    assert "rerun fit" in res.output


def test_threads_override_keeps_the_config_hash(runner, tmp_path):
    # threads belongs to no stage: it never changes an artifact
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "r"
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0
    res = runner.invoke(main, ["intraday", "--config", cfg, "--out", str(out), "--threads", "2"])
    assert res.exit_code == 0, res.output


def test_scenarios_override_keeps_the_config_hash(runner, tmp_path):
    # only simulate reads scenarios and no stage reads simulate's output;
    # the seed drives the fit, so changing it makes the fit record stale
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "r"
    for stage in ("fit", "intraday", "bellman"):
        res = runner.invoke(main, [stage, "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, f"{stage}: {res.output}"
    args = ["simulate", "--config", cfg, "--out", str(out)]
    res = runner.invoke(main, args + ["--scenarios", "7"])
    assert res.exit_code == 0, res.output
    assert json.loads((out / "sim_price_stats.json").read_text())["scenarios"] == 7
    res = runner.invoke(main, ["report", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, args + ["--seed", "99"])
    assert res.exit_code == 2
    assert "rerun fit" in res.output


def test_force_is_a_usage_error(runner, tmp_path):
    # neither --force nor a per-stage --mode is an option any more
    cfg = write_config(tmp_path, TINY)
    for args in (["intraday", "--force"], ["bellman", "--mode", "price"],
                 ["simulate", "--mode", "both"]):
        res = runner.invoke(main, args + ["--config", cfg, "--out", str(tmp_path / "r")])
        assert res.exit_code == 2, args
        assert "No such option" in res.output, args


def _run(runner, stages, cfg: str, out: Path) -> None:
    for stage in stages:
        res = runner.invoke(main, [stage, "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, f"{stage}: {res.output}"


@pytest.mark.parametrize(
    "done, change, stage",
    [
        (("fit",), {"pi_values": [0.0, 0.2]}, "intraday"),
        (("fit", "intraday"), {"h_points": 17}, "bellman"),
        (("fit", "intraday", "bellman"), {"scenarios": 4}, "simulate"),
    ],
)
def test_key_of_a_later_stage_keeps_the_record_valid(runner, tmp_path, done, change, stage):
    out = tmp_path / "r"
    _run(runner, done, write_config(tmp_path, TINY), out)
    _run(runner, [stage], write_config(tmp_path, {**TINY, **change}), out)


@pytest.mark.parametrize(
    "done, change, stage",
    [
        (("fit",), {"fit_k": 2}, "intraday"),
        (("fit", "intraday"), {"charge_eff": 0.9}, "bellman"),
        (("fit", "intraday", "bellman"), {"gamma": 0.999}, "simulate"),
    ],
)
def test_key_a_stage_reads_makes_the_next_stage_exit_code(runner, tmp_path, done, change, stage):
    out = tmp_path / "r"
    _run(runner, done, write_config(tmp_path, TINY), out)
    before = _files(out)
    cfg = write_config(tmp_path, {**TINY, **change})
    res = runner.invoke(main, [stage, "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2, res.output
    (key,) = change
    assert f"{key} = " in res.output and f"rerun {done[-1]}" in res.output
    assert _files(out) == before


def test_partial_bellman_on_other_inputs_leaves_no_stale_bound(runner, tmp_path, monkeypatch):
    # a bellman rerun under another gamma that fails after writing the new
    # lower bound must not leave the old upper bound beside it for report
    out = tmp_path / "r"
    _run(runner, ("fit", "intraday", "bellman"), write_config(tmp_path, TINY), out)
    cfg = write_config(tmp_path, {**TINY, "gamma": 0.999})

    def fails_after_the_price_bound(*args):
        assert (out / "bellman_P.npz").exists()
        raise RuntimeError("resource recursion failed")

    monkeypatch.setattr(pipeline, "resource_bellman_recursion", fails_after_the_price_bound)
    res = runner.invoke(main, ["bellman", "--config", cfg, "--out", str(out)])
    assert isinstance(res.exception, RuntimeError), res.output
    monkeypatch.undo()
    # the new lower bound is written, the old upper bound is gone and report
    # stops on the missing bellman record before it reads either
    assert (out / "bellman_P.npz").exists() and not (out / "bellman_R.npz").exists()
    res = runner.invoke(main, ["report", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert "run the bellman stage" in res.output


def _netload_csv(path: Path, value: float = 1.0) -> str:
    rows = ["scenario,day,slot,netload_kwh"] + [
        f"{i},{d},{m},{value + m}"
        for i in range(2) for d in range(TINY["D"] + 1) for m in range(TINY["n_slots"])
    ]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_edited_netload_csv_makes_intraday_exit_code(runner, tmp_path):
    out, csv_path = tmp_path / "r", tmp_path / "netload.csv"
    cfg = write_config(tmp_path, {**TINY, "netload_csv": _netload_csv(csv_path)})
    _run(runner, ["fit"], cfg, out)
    _netload_csv(csv_path, value=2.0)
    before = _files(out)
    res = runner.invoke(main, ["intraday", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "netload_csv_sha256" in res.output and "rerun fit" in res.output
    assert _files(out) == before


def test_unreadable_csv_at_check_time_exit_code(runner, tmp_path):
    out, csv_path = tmp_path / "r", tmp_path / "netload.csv"
    cfg = write_config(tmp_path, {**TINY, "netload_csv": _netload_csv(csv_path)})
    _run(runner, ["fit"], cfg, out)
    csv_path.unlink()
    before = _files(out)
    res = runner.invoke(main, ["intraday", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "cannot read netload_csv" in res.output
    assert _files(out) == before


def test_readme_options_are_cli_options():
    # every --option the README's command-line section names must exist
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    options = {opt for cmd in main.commands.values() for p in cmd.params for opt in p.opts}
    assert documented and documented <= options, sorted(documented - options)


@pytest.mark.parametrize(
    "change",
    [
        {"pi_values": 0.1},
        {"D": 10.5},
        {"fit_k": 2.0},
        {"netload_csv": 5},
        {"n_soc": 2.5},
        {"pi_values": [[0.0], [0.1]]},
        {"scenarios": True},
        {"gamma": "0.999"},
    ],
)
def test_badly_typed_key_rejected_at_load(runner, tmp_path, change):
    cfg = write_config(tmp_path, {**TINY, **change})
    out = tmp_path / "r"
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2, res.output
    (key,) = change
    assert f"config error: {key} must be" in res.output
    assert not out.exists()


def test_simulate_without_the_price_bound_exit_code(runner, tmp_path):
    # simulate reads the lower bound of z_lower off bellman_P.npz
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "r"
    _run(runner, ("fit", "intraday", "bellman"), cfg, out)
    (out / "bellman_P.npz").unlink()
    res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert "bellman_P.npz" in res.output


@pytest.mark.parametrize("pi_values", [[-0.1, 0.1], [0.1, 0.0]])
def test_bad_pi_grid_rejected_at_load(runner, tmp_path, pi_values):
    cfg = write_config(tmp_path, {**TINY, "pi_values": pi_values})
    out = tmp_path / "r"
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2
    assert "pi_values" in res.output
    assert not out.exists()


def test_verify_command(runner):
    res = runner.invoke(main, ["verify", "--instances", "6", "--seed", "3"])
    assert res.exit_code == 0
    lines = [l for l in res.output.splitlines() if l.startswith("[")]
    assert len(lines) == 5
    assert all(l.startswith("[PASS]") for l in lines)


@pytest.mark.parametrize("n", ["0", "-3"])
def test_verify_refuses_fewer_than_one_instance(runner, n):
    res = runner.invoke(main, ["verify", "--instances", n])
    assert res.exit_code == 2, res.output
    assert "[PASS]" not in res.output


def test_complexity_command(runner):
    res = runner.invoke(main, ["complexity", "-D", "7300", "-M", "48", "-I", "4"])
    assert res.exit_code == 0
    assert res.output == (
        "flat_ops = 3.6505e+10\n"
        "resource_intraday_ops = 1.96e+07\n"
        "resource_recursion_ops = 7.301e+08\n"
        "price_intraday_ops = 1.96e+07\n"
        "price_recursion_ops = 7.301e+09\n"
        "ratio_R = 0.0213813\n"
        "ratio_P = 0.208881\n"
    )
    values = {}
    for line in res.output.splitlines():
        key, _, val = line.partition(" = ")
        values[key] = float(val)
    assert values["ratio_R"] == pytest.approx(4 / 7300 + 1 / 48, rel=1e-5)
    assert values["ratio_P"] == pytest.approx(4 / 7300 + 10 / 48, rel=1e-5)


STAGE_HELP = {
    "fit": "Fit netload and battery-price distributions.",
    "intraday": "Compute per-class daily cost tables.",
    "bellman": "Run the slow-scale bound recursions.",
    "simulate": "Monte Carlo policy simulation on white-noise scenarios.",
    "report": "Emit the bound-gap report.",
}


def test_stage_commands_are_the_pipeline_stages(runner):
    stages = set(main.commands) - {"verify", "complexity"}
    assert stages == set(STAGE_KEYS) == set(UPSTREAM) == set(STAGE_HELP)
    for name, line in STAGE_HELP.items():
        res = runner.invoke(main, [name, "--help"])
        assert res.exit_code == 0, res.output
        assert line in res.output
        for opt in ("--config", "--out", "--seed", "--threads", "--scenarios"):
            assert opt in res.output, (name, opt)


def test_complexity_rejects_bad_dims(runner):
    res = runner.invoke(main, ["complexity", "-D", "0", "-M", "48", "-I", "4"])
    assert res.exit_code == 2


def snapshot(out: Path) -> dict:
    """Byte content of every artifact except the timestamped manifest."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            files[str(path.relative_to(out))] = path.read_bytes()
    return files


def test_intraday_parallel_matches_serial(runner, tmp_path):
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    for out, threads in ((out1, 1), (out2, 2)):
        cfg = write_config(tmp_path, {**TINY, "threads": threads})
        for stage in ("fit", "intraday"):
            res = runner.invoke(main, [stage, "--config", cfg, "--out", str(out)])
            assert res.exit_code == 0, f"{stage}: {res.output}"
    paths = sorted(out1.glob("intraday_*.npz"))
    assert [path.name for path in paths] == ["intraday_P.npz", "intraday_R.npz"]
    for path in paths:
        assert path.read_bytes() == (out2 / path.name).read_bytes(), path.name


def test_tiny_pipeline_end_to_end_and_deterministic(runner, tmp_path):
    cfg = write_config(tmp_path, TINY)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    run_pipeline(runner, cfg, out1)
    run_pipeline(runner, cfg, out2)

    report = json.loads((out1 / "report.json").read_text())
    assert report["violations"] == 0
    assert (out1 / "gaps.csv").exists()
    stats = json.loads((out1 / "sim_price_stats.json").read_text())
    assert stats["scenarios"] == TINY["scenarios"]
    assert stats["mean"] >= 0.0

    a, b = snapshot(out1), snapshot(out2)
    assert set(a) == set(b)
    for name in a:
        assert a[name] == b[name], f"artifact differs: {name}"


def test_run_directory_without_laws_npz_exit_code(runner, tmp_path):
    # a run directory from before laws.npz holds the fit laws as JSON files
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "r"
    _run(runner, ("fit",), cfg, out)
    (out / "laws.npz").rename(out / "noise_laws.json")
    res = runner.invoke(main, ["intraday", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert "laws.npz: run the fit stage" in res.output


# the files older versions of these stages wrote (fit before laws.npz,
# intraday and bellman before their npz files), each of which a rerun deletes
OLD_FILES = {
    "fit": ("noise_laws.json", "price_laws.json"),
    "intraday": ("intraday_R_class1.json", "intraday_P_class1.json"),
    "bellman": ("bellman_R_d0.json", "bellman_P_d6.json"),
}


@pytest.mark.parametrize("stage", list(OLD_FILES))
def test_rerun_stage_deletes_what_older_versions_wrote(runner, tmp_path, stage):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "r"
    stages = ("fit", "intraday", "bellman")
    out.mkdir()
    _run(runner, stages[: stages.index(stage)], cfg, out)
    for name in OLD_FILES[stage]:
        (out / name).write_text("{}")
    _run(runner, (stage,), cfg, out)
    assert not [name for name in OLD_FILES[stage] if (out / name).exists()]


@pytest.mark.parametrize(
    "name, change, why, stage",
    [
        ("bellman_P.npz", lambda a: np.put(a["values"], 3, np.nan), "values holds a NaN", "report"),
        ("bellman_R.npz", lambda a: a.pop("values"), "missing member values", "report"),
        ("intraday_P.npz", lambda a: np.put(a["fast_1"], 3, np.nan), "fast_1 holds a NaN",
         "simulate"),
    ],
    ids=["nan-bellman_P", "no-values-bellman_R", "nan-intraday_P"],
)
def test_spoiled_npz_member_exit_code(runner, tmp_path, name, change, why, stage):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "r"
    _run(runner, ("fit", "intraday", "bellman"), cfg, out)
    rewrite_npz(out / name, change)
    res = runner.invoke(main, [stage, "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert f"{name}: {why}: rerun {name.split('_')[0]}" in res.output


def test_neg_inf_replay_table_makes_simulate_exit_code(runner, tmp_path):
    # a value is a real cost or +inf: -inf in a replay table is refused at load
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "r"
    _run(runner, ("fit", "intraday", "bellman"), cfg, out)
    rewrite_npz(out / "intraday_R.npz", lambda a: np.put(a["fast_1"], 3, -np.inf))
    before = _files(out)
    res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "intraday_R.npz: fast_1 holds -inf: rerun intraday" in res.output
    assert _files(out) == before


def test_truncated_npz_exit_code(runner, tmp_path):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "r"
    _run(runner, ("fit", "intraday"), cfg, out)
    path = out / "intraday_R.npz"
    path.write_bytes(path.read_bytes()[:-100])
    res = runner.invoke(main, ["bellman", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "intraday_R.npz: cannot be read" in res.output and "rerun intraday" in res.output


@pytest.mark.parametrize(
    "spoil",
    [lambda text: text[:50], lambda text: "[]", lambda text: '{"stages": {}}'],
    ids=["truncated", "not-a-table", "no-metadata"],
)
@pytest.mark.parametrize("stage", ["report", "fit"])
def test_corrupt_manifest_exit_code(runner, tmp_path, spoil, stage):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "r"
    _run(runner, ("fit", "intraday", "bellman"), cfg, out)
    path = out / "manifest.json"
    path.write_text(spoil(path.read_text()))
    before = _files(out)
    res = runner.invoke(main, [stage, "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "manifest.json is not a readable manifest" in res.output
    assert "delete it and rerun every stage from fit" in res.output
    assert _files(out) == before


# 4 controls leave out u = 0: the upper bound alone is +inf at some points
FOUR_CONTROLS = {
    "D": 40, "n_slots": 12, "n_classes": 1, "c_max": 300.0, "n_controls": 4, "h_points": 13,
    "price_forecast": [0.05, 0.05], "scenarios": 8,
}


def test_every_stage_prints_strict_json(runner, tmp_path):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    cfg, out = write_config(tmp_path, FOUR_CONTROLS), tmp_path / "r"
    printed = {}
    for stage in ("fit", "intraday", "bellman", "simulate", "report"):
        if stage == "report":
            # the upper bound at the origin spoiled to +inf on day 0
            rewrite_npz(out / "bellman_R.npz", lambda a: np.put(a["values"], 0, np.inf))
        res = runner.invoke(main, [stage, "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, f"{stage}: {res.output}"
        printed[stage] = json.loads(res.stdout, parse_constant=refuse)
    # spelled as report.json spells it
    report = json.loads((out / "report.json").read_text())
    assert printed["report"]["upper_at_x0_day0"] == report["upper_at_x0_day0"] == "inf"
    # the points where the upper bound alone is +inf are left out of the max
    assert printed["report"]["max_rel_gap"] == report["max_rel_gap"] < np.inf
    assert printed["report"]["max_gap_excluded"] > 0
