"""Stage artifacts: the fit laws, the intraday and value-function files, the
gap report, and atomic writes."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from twoscale.config import RunConfig
from twoscale.intraday import PRICE, RESOURCE, compute_intraday
from twoscale.pipeline import (
    HashMismatch,
    _load_fit,
    _load_tables,
    load_value_seq,
    stage_bellman,
    stage_fit,
    stage_intraday,
    stage_report,
)
from twoscale.slowscale import price_bellman_recursion, resource_bellman_recursion

from conftest import CRITERION_10 as CFG


@pytest.fixture(scope="module")
def bellman_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bellman")
    stage_fit(CFG, out)
    stage_intraday(CFG, out)
    stage_bellman(CFG, out)
    return out


def test_fit_laws_in_one_file(bellman_run):
    names = {p.name for p in bellman_run.iterdir() if p.name.endswith("laws.json")}
    assert names == {"noise_laws.json", "price_laws.json"}
    assert not list(bellman_run.glob("noise_class*"))
    stored = json.loads((bellman_run / "noise_laws.json").read_text())
    laws, _ = _load_fit(CFG, bellman_run)
    assert sorted(stored) == [str(cls) for cls in sorted(laws)] == ["1"]
    for cls, slot_laws in laws.items():
        assert len(slot_laws) == CFG.n_slots
        for law, rec in zip(slot_laws, stored[str(cls)]):
            assert law.support.tolist() == rec["support"]
            assert law.probs.tolist() == rec["probs"]


def test_intraday_file_holds_one_npz_per_decomposition(bellman_run):
    names = sorted(
        p.name for p in bellman_run.iterdir() if p.name.startswith(("intraday_", "fast_"))
    )
    assert names == ["intraday_P.npz", "intraday_R.npz"]
    n_c = len(CFG.c_grid())
    for dec, axis in ((PRICE, CFG.pi_grid()), (RESOURCE, CFG.dh_grid())):
        with np.load(bellman_run / f"intraday_{dec.letter}.npz") as npz:
            assert sorted(npz.files) == ["axis", "c", "fast_1", "n_controls", "table_1"]
            assert np.array_equal(npz["c"], CFG.c_grid())
            assert np.array_equal(npz["axis"], axis)
            assert int(npz["n_controls"]) == CFG.n_controls
            table, fast = npz["table_1"], npz["fast_1"]
        assert table.shape == (n_c, len(axis))
        assert fast.shape == (n_c - 1, CFG.n_slots + 1, CFG.n_soc, len(axis))
        # a capacity's day-table row is the day-start (soc = 0) row of its replay tables
        assert np.array_equal(table[1:], fast[:, 0, 0, :])


def test_intraday_tables_round_trip_bit_equal(bellman_run):
    laws, _ = _load_fit(CFG, bellman_run)
    bat = CFG.battery_config()
    for dec, axis in ((PRICE, CFG.pi_grid()), (RESOURCE, CFG.dh_grid())):
        ref = compute_intraday(
            dec, 1, bat, laws[1], CFG.c_grid(), axis, CFG.n_soc, CFG.n_controls
        )
        short = _load_tables(CFG, bellman_run, dec)
        full = _load_tables(CFG, bellman_run, dec, with_fast=True)
        for tabs in (short, full):
            assert sorted(tabs) == [1]
            tab = tabs[1]
            assert tab.decomposition == dec and tab.n_controls == CFG.n_controls
            assert tab.table.grid == ref.table.grid
            assert tab.table.values.tobytes() == ref.table.values.tobytes()
        assert short[1].fast is None
        assert full[1].fast.tobytes() == ref.fast.tobytes()


@pytest.mark.parametrize(
    "change",
    [{"n_controls": 7}, {"c_max": 300.0, "h_points": 13}, {"pi_values": (0.0, 0.2)}, {"n_soc": 11}],
)
def test_intraday_file_of_another_config_is_rejected(bellman_run, change):
    other = RunConfig(**{**CFG.to_dict(), **change})
    for dec in (PRICE,) if "pi_values" in change else (PRICE, RESOURCE):
        for with_fast in (False, True):
            with pytest.raises(HashMismatch, match="rerun intraday"):
                _load_tables(other, bellman_run, dec, with_fast)


def test_value_files_round_trip_bit_equal(bellman_run):
    out = bellman_run
    _, price_laws = _load_fit(CFG, out)
    bat = CFG.battery_config()
    for dec, recursion in ((RESOURCE, resource_bellman_recursion), (PRICE, price_bellman_recursion)):
        tables = _load_tables(CFG, out, dec)
        ref = recursion(tables, CFG.classmap, price_laws, bat, CFG.h_grid(), CFG.c_grid(), CFG.D)
        seq = load_value_seq(CFG, out, dec.kind)
        assert seq.kind == dec.kind
        assert seq.grid == ref.grid
        assert seq.values.shape == (CFG.D + 2,) + seq.grid.shape
        assert seq.values.tobytes() == ref.values.tobytes()
        assert not seq.values.flags.writeable
        with pytest.raises(ValueError):
            seq.values[0, 0, 0] = 0.0


def test_value_file_holds_one_array_per_decomposition(bellman_run):
    names = sorted(p.name for p in bellman_run.iterdir() if p.name.startswith("bellman_"))
    assert names == ["bellman_P.npz", "bellman_R.npz"]
    with np.load(bellman_run / "bellman_R.npz") as npz:
        assert sorted(npz.files) == ["c", "h", "values"]
        assert npz["values"].shape == (CFG.D + 2, len(CFG.h_grid()), len(CFG.c_grid()))


def test_value_file_of_another_config_is_rejected(bellman_run):
    for other in (
        RunConfig(**{**CFG.to_dict(), "D": CFG.D - 1}),
        RunConfig(**{**CFG.to_dict(), "h_points": 17}),
    ):
        with pytest.raises(HashMismatch, match="rerun bellman"):
            load_value_seq(other, bellman_run, "price-lower")


def test_interrupted_write_keeps_the_previous_file(bellman_run, monkeypatch):
    def broken_savez(fh, **arrays):
        fh.write(b"partial")
        raise OSError("disk full")

    for stage, name in ((stage_bellman, "bellman_P.npz"), (stage_intraday, "intraday_P.npz")):
        path = bellman_run / name
        before = path.read_bytes()
        monkeypatch.setattr(np, "savez", broken_savez)
        with pytest.raises(OSError, match="disk full"):
            stage(CFG, bellman_run)
        monkeypatch.undo()
        assert path.read_bytes() == before, name
        assert not list(bellman_run.glob("*.tmp")), name

    # a JSON artifact, then the manifest, which is written last
    monkeypatch.undo()
    stage_report(CFG, bellman_run)
    real_dump = json.dump
    for name in ("report.json", "manifest.json"):
        before = {p.name: p.read_bytes() for p in bellman_run.iterdir()}

        def broken_dump(obj, fh, **kw):
            if name in fh.name:
                fh.write("partial")
                raise OSError("disk full")
            real_dump(obj, fh, **kw)

        monkeypatch.setattr(json, "dump", broken_dump)
        with pytest.raises(OSError, match="disk full"):
            stage_report(CFG, bellman_run)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in bellman_run.iterdir()} == before, name


def test_gaps_csv_holds_plain_floats(bellman_run):
    summary = stage_report(CFG, bellman_run)
    with open(bellman_run / "gaps.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["day", "max_rel_gap", "gap_at_x0", "lower_at_x0", "upper_at_x0"]
    assert [int(row[0]) for row in rows] == list(range(CFG.D + 2))
    for row in rows:
        for cell in row[1:]:
            assert repr(float(cell)) == cell
    assert float(rows[0][3]) == summary["lower_at_x0_day0"]


def test_manifest_records_recursion_and_check_times(bellman_run):
    stage_bellman(CFG, bellman_run)
    info = stage_report(CFG, bellman_run)
    stages = json.loads((bellman_run / "manifest.json").read_text())["stages"]
    bellman, report = stages["bellman"], stages["report"]
    assert bellman["days"] == CFG.D + 1
    for mode in ("price", "resource"):
        assert 0.0 <= bellman[f"{mode}_recursion_s"] <= bellman["seconds"]
    assert 0.0 <= report["check_sandwich_s"] <= report["seconds"]
    # the timing stays in the record: report.json holds the summary alone
    summary = json.loads((bellman_run / "report.json").read_text())
    assert "check_sandwich_s" not in summary
    assert summary == {k: v for k, v in report.items() if k not in ("check_sandwich_s", "seconds")}
    assert info == {k: v for k, v in report.items() if k != "seconds"}


@pytest.mark.parametrize("h_points", [13, 10])
def test_fractional_capacity_steps(tmp_path, h_points):
    # 0.3 / 0.1 is 2.9999999999999996; with 10 health points the renewal
    # health 4 * 0.1 = 0.39999999999999997 is one ulp off the grid's 0.4
    cfg = RunConfig(**{
        **CFG.to_dict(), "c_step": 0.1, "c_max": 0.3, "h_points": h_points, "dh_cap": 0.6,
        "u_max": 0.1,
    })
    assert cfg.c_grid()[-1] == 0.3
    stage_fit(cfg, tmp_path)
    stage_intraday(cfg, tmp_path)
    stage_bellman(cfg, tmp_path)
    report = stage_report(cfg, tmp_path)
    assert report["violations"] == 0
    assert 0.0 < report["lower_at_x0_day0"] <= report["upper_at_x0_day0"]
