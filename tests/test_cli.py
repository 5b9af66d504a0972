"""Command-line interface: stage wiring, exit codes and artifact determinism."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from twoscale.cli import main

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
    for stage in ("report", "simulate", "bellman"):
        res = runner.invoke(main, [stage, "--config", cfg_b, "--out", str(out)])
        assert res.exit_code == 3, f"{stage}: {res.output}"
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["stages"]) == ["fit"]
    assert sorted(manifest["metadata"]["timestamps"]) == ["fit"]
    res = runner.invoke(main, ["intraday", "--config", cfg_b, "--out", str(out)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["report", "--config", cfg_b, "--out", str(out)])
    assert res.exit_code == 3, res.output


def test_report_without_the_resource_bound_exit_code(runner, tmp_path):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "r"
    for args in (["fit"], ["intraday"], ["bellman", "--mode", "price"]):
        res = runner.invoke(main, args + ["--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, f"{args}: {res.output}"
    res = runner.invoke(main, ["report", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 3
    assert "bellman_R.npz" in res.output


def test_forced_report_on_another_horizon_exit_code(runner, tmp_path):
    out = tmp_path / "r"
    cfg = write_config(tmp_path, TINY)
    for stage in ("fit", "intraday", "bellman"):
        res = runner.invoke(main, [stage, "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, f"{stage}: {res.output}"
    cfg = write_config(tmp_path, {**TINY, "D": TINY["D"] + 1})
    res = runner.invoke(main, ["report", "--config", cfg, "--out", str(out), "--force"])
    assert res.exit_code == 2
    assert "rerun bellman" in res.output


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
    cfg = write_config(tmp_path, {**TINY, **change})
    res = runner.invoke(main, [stage, "--config", cfg, "--out", str(out), "--force"])
    assert res.exit_code == 2, res.output
    assert "rerun intraday" in res.output
    assert not list(out.glob("sim_*"))


def _files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in out.iterdir()}


def test_forced_intraday_on_more_classes_than_fit_exit_code(runner, tmp_path):
    # at D 120 the four-class map has classes 1 and 2, the fit laws only class 1
    out = tmp_path / "r"
    cfg = write_config(tmp_path, {**TINY, "D": 120})
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    before = _files(out)
    cfg = write_config(tmp_path, {**TINY, "D": 120, "n_classes": 4})
    res = runner.invoke(main, ["intraday", "--config", cfg, "--out", str(out), "--force"])
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
    res = runner.invoke(main, ["bellman", "--config", cfg, "--out", str(out), "--force"])
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


def test_stage_prints_json(runner, tmp_path):
    cfg = write_config(tmp_path, TINY)
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(tmp_path / "r")])
    assert res.exit_code == 0
    assert json.loads(res.stdout) == {"classes": [1], "k": TINY["fit_k"]}


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


def test_threads_override_keeps_the_config_hash(runner, tmp_path):
    # threads never changes an artifact, so the README flow must not need --force
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "r"
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0
    res = runner.invoke(main, ["intraday", "--config", cfg, "--out", str(out), "--threads", "2"])
    assert res.exit_code == 0, res.output


def test_scenarios_override_keeps_the_config_hash(runner, tmp_path):
    # only simulate reads scenarios and no stage reads simulate's output;
    # the seed drives the fit, so changing it still needs --force
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "r"
    for stage in ("fit", "intraday", "bellman"):
        res = runner.invoke(main, [stage, "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, f"{stage}: {res.output}"
    args = ["simulate", "--config", cfg, "--out", str(out), "--mode", "price"]
    res = runner.invoke(main, args + ["--scenarios", "7"])
    assert res.exit_code == 0, res.output
    assert json.loads((out / "sim_price_stats.json").read_text())["scenarios"] == 7
    res = runner.invoke(main, ["report", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, args + ["--seed", "99"])
    assert res.exit_code == 2
    assert "config hash differs" in res.output


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


def test_complexity_command(runner):
    res = runner.invoke(main, ["complexity", "-D", "7300", "-M", "48", "-I", "4"])
    assert res.exit_code == 0
    values = {}
    for line in res.output.splitlines():
        key, _, val = line.partition(" = ")
        values[key] = float(val)
    assert values["ratio_R"] == pytest.approx(4 / 7300 + 1 / 48, rel=1e-5)
    assert values["ratio_P"] == pytest.approx(4 / 7300 + 10 / 48, rel=1e-5)


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
