"""Stage artifacts: the fit laws, the intraday and value-function files, the
gap report, and atomic writes."""

from __future__ import annotations

import csv
import dataclasses
import fnmatch
import hashlib
import inspect
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from twoscale import pipeline
from twoscale.battery import _kmeans_1d, synthetic_netload_scenarios
from twoscale.config import STAGE_KEYS, ConfigError, RunConfig
from twoscale.core import INF
from twoscale.intraday import FEAS_TOL, PRICE, RESOURCE, _cell_model, compute_intraday
from twoscale.pipeline import (
    HashMismatch,
    MissingArtifact,
    _dump_json,
    _load_fit,
    _load_tables,
    load_value_seq,
    stage_bellman,
    stage_fit,
    stage_intraday,
    stage_report,
    stage_simulate,
)
from twoscale.slowscale import price_bellman_recursion, resource_bellman_recursion

from conftest import CRITERION_10 as CFG, rewrite_npz


@pytest.fixture(scope="module")
def bellman_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bellman")
    stage_fit(CFG, out)
    stage_intraday(CFG, out)
    stage_bellman(CFG, out)
    return out


@pytest.fixture(scope="module")
def simulate_run(bellman_run, tmp_path_factory):
    out = tmp_path_factory.mktemp("simulate") / "run"
    shutil.copytree(bellman_run, out)
    stage_simulate(CFG, out)
    return out


def _sim_rows(out, mode):
    """The rows of sim_{mode}.csv as (total_cost, renewals) pairs."""
    with open(out / f"sim_{mode}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["scenario_id"]) for row in rows] == list(range(len(rows)))
    return [
        (
            float(row["total_cost"]),
            [
                (int(d), float(r))
                for d, r in zip(row["renewal_days"].split(";"), row["renewal_sizes"].split(";"))
                if d
            ],
        )
        for row in rows
    ]


# per mode and scenario, the criterion-10 replay's (total_cost, renewals)
# before the battery sizes of a day shared one slot loop
CRITERION_10_REPLAY = {
    "price": [
        (489.2094475619612, [(0, 200.0)]),
        (494.13494051180703, [(0, 200.0)]),
        (492.6785981234115, [(1, 200.0)]),
        (499.53070676188224, [(1, 200.0)]),
        (501.3646150028563, [(0, 200.0)]),
    ],
    "resource": [
        (441.72553299712655, []),
        (446.7069528120923, []),
        (445.71928978784166, []),
        (451.54767300937397, []),
        (445.0586378398778, []),
    ],
}


def test_criterion_10_replay_is_pinned(simulate_run):
    for mode, want in CRITERION_10_REPLAY.items():
        got = _sim_rows(simulate_run, mode)
        assert len(got) == len(want) == CFG.scenarios
        for s, ((total, renewals), (want_total, want_renewals)) in enumerate(zip(got, want)):
            assert renewals == want_renewals, (mode, s)
            assert total == pytest.approx(want_total, rel=1e-12, abs=0.0), (mode, s)


# sha256 of the criterion-10 value files' ``values.tobytes()``, recorded
# before the resource objective was packed to its feasible (h, dh) pairs
CRITERION_10_BELLMAN = {
    "R": "39ced20ec8f29b9f9a264fac7cd76cca46d2a6cf68d2c7b6eb4b1d88e2131153",
    "P": "f97b1236f305bb872bdb9e06c4952b55c89df5f5da5f7397b377c1ebd81a5ea4",
}


def test_criterion_10_bellman_is_pinned(bellman_run):
    for letter, want in CRITERION_10_BELLMAN.items():
        with np.load(bellman_run / f"bellman_{letter}.npz") as npz:
            assert hashlib.sha256(npz["values"].tobytes()).hexdigest() == want, letter


def test_simulate_record_counts_days_clamps_renewals_and_z(simulate_run):
    stages = json.loads((simulate_run / "manifest.json").read_text())["stages"]
    lower = stages["bellman"]["lower_at_origin"]
    for mode in ("price", "resource"):
        rec = stages["simulate"][mode]
        stats = json.loads((simulate_run / f"sim_{mode}_stats.json").read_text())
        rows = _sim_rows(simulate_run, mode)
        n = len(rows)
        assert rec["scenario_days"] == n * (CFG.D + 1) == stats["scenarios"] * (CFG.D + 1)
        assert rec["clamps"] == sum(stats["clamp_counts"])
        renewals = sum(len(r) for _, r in rows)
        assert rec["renewals_per_scenario_year"] == renewals / (n * (CFG.D + 1) / 365.0)
        assert stats["stderr"] > 0.0
        assert rec["z_lower"] == (stats["mean"] - lower) / stats["stderr"]


def test_simulate_record_holds_the_draw_and_replay_times(simulate_run):
    rec = json.loads((simulate_run / "manifest.json").read_text())["stages"]["simulate"]
    assert 0.0 <= rec["resample_s"] and 0.0 < rec["replay_s"] <= rec["seconds"]


def test_simulate_record_counts_inf_fallbacks(simulate_run):
    # no table row of the criterion-10 run is +inf at every feasible control
    stages = json.loads((simulate_run / "manifest.json").read_text())["stages"]
    assert [stages["simulate"][m]["inf_fallbacks"] for m in ("price", "resource")] == [0, 0]


@pytest.mark.parametrize("threads", [1, 2])
def test_intraday_record_holds_cell_time_and_inf_share(tmp_path, threads):
    # controls -30, -10, 10, 30: every one of the 12 slots uses at least 10
    # kWh of aging budget, so the 12 budgets below 120 kWh on the 10-kWh
    # budget grid are +inf in each battery row of the resource table
    cfg = dataclasses.replace(
        CFG, n_controls=4, u_max=30.0, dh_cap=240.0, dh_points=25, threads=threads
    )
    stage_fit(cfg, tmp_path)
    info = stage_intraday(cfg, tmp_path)
    rec = json.loads((tmp_path / "manifest.json").read_text())["stages"]["intraday"]
    assert rec["cell_s"] == info["cell_s"] and rec["inf_share"] == info["inf_share"]
    assert sorted(rec["cell_s"]) == sorted(rec["inf_share"]) == ["P", "R"]
    assert all(0.0 < s for s in rec["cell_s"].values())
    if threads == 1:
        assert sum(rec["cell_s"].values()) <= rec["seconds"]
    for dec in (PRICE, RESOURCE):
        days = [tab.table.values for tab in _load_tables(cfg, tmp_path, dec).values()]
        inf = sum(int(np.isposinf(t).sum()) for t in days)
        assert rec["inf_share"][dec.letter] == inf / sum(t.size for t in days)
    n_c = len(cfg.c_grid())
    assert rec["inf_share"]["R"] == (n_c - 1) * 12 / (n_c * cfg.dh_points)
    assert rec["inf_share"]["P"] == 0.0
    assert rec["live_controls"] == info["live_controls"] == {"P": 1.0, "R": 1.0}


def test_intraday_record_holds_the_share_of_live_controls(tmp_path):
    # u_max 100: controls +-100 move the soc by 95 kWh or more, which leaves
    # the 80-kWh soc box of c = 100 from every soc and not the 160-kWh box
    # of c = 200
    cfg = dataclasses.replace(CFG, u_max=100.0, n_controls=7)
    bat = cfg.battery_config()
    stage_fit(cfg, tmp_path)
    laws, _ = _load_fit(cfg, tmp_path)
    info = stage_intraday(cfg, tmp_path)
    rec = json.loads((tmp_path / "manifest.json").read_text())["stages"]["intraday"]
    assert rec["live_controls"] == info["live_controls"]
    for dec, axis in ((PRICE, cfg.pi_grid()), (RESOURCE, cfg.dh_grid())):
        kept = [
            np.count_nonzero(~(model.stages[0].fixed == INF).all(axis=1))
            for model, _ in (
                _cell_model(bat, laws[1], c, axis, cfg.n_soc, cfg.n_controls, dec.budget_axis)
                for c in cfg.c_grid()[1:]
            )
        ]
        assert kept == [5, 7]
        assert rec["live_controls"][dec.letter] == pytest.approx(12 / 14, rel=1e-15)


def test_fit_laws_in_one_file(bellman_run):
    assert not list(bellman_run.glob("*laws.json")) and not list(bellman_run.glob("noise_class*"))
    with np.load(bellman_run / "laws.npz") as npz:
        stored = {name: npz[name] for name in npz.files}
    assert sorted(stored) == [
        "netload_probs_1", "netload_support_1", "price_probs", "price_support",
    ]
    laws, _ = _load_fit(CFG, bellman_run)
    assert sorted(laws) == [1]
    support, probs = stored["netload_support_1"], stored["netload_probs_1"]
    assert support.shape == probs.shape == (CFG.n_slots, CFG.fit_k)
    assert laws[1].support.tobytes() == support.tobytes()
    assert laws[1].probs.tobytes() == probs.tobytes()
    for xs, ps in zip(support.tolist(), probs.tolist()):
        # each row holds its slot's atoms, then its last atom again at probability 0
        n = ps.index(0.0) if 0.0 in ps else len(ps)
        assert xs[n:] == [xs[n - 1]] * (CFG.fit_k - n) and ps[n:] == [0.0] * (CFG.fit_k - n)


def test_netload_laws_load_bit_equal_to_the_fitted_ones(tmp_path):
    # slot 0 is constant: its law has 2 of the 3 atoms, and the stored row
    # pads it with its last atom at probability 0
    netload = np.ones((2, 2, 2))
    netload[..., 1] = np.arange(4.0).reshape(2, 2)
    csv_path = tmp_path / "netload.csv"
    rows = [f"{i},{d},{m},{netload[i, d, m]}" for i, d, m in np.ndindex(*netload.shape)]
    csv_path.write_text("scenario,day,slot,netload_kwh\n" + "\n".join(rows) + "\n")
    cfg = dataclasses.replace(CFG, D=1, n_slots=2, fit_k=3, netload_csv=str(csv_path))
    out = tmp_path / "r"
    stage_fit(cfg, out)
    fitted, _ = pipeline.fit_netload_distributions(netload, cfg.classmap, cfg.fit_k)
    assert np.count_nonzero(fitted[1].probs, axis=1).tolist() == [2, 3]
    with np.load(out / "laws.npz") as npz:
        support, probs = npz["netload_support_1"][0].tolist(), npz["netload_probs_1"][0].tolist()
    assert support[2] == support[1] and probs[2] == 0.0
    laws, _ = _load_fit(cfg, out)
    assert sorted(laws) == sorted(fitted) == [1]
    assert laws[1].support.tobytes() == fitted[1].support.tobytes()
    assert laws[1].probs.tobytes() == fitted[1].probs.tobytes()


def test_price_laws_load_as_one_table_of_the_stored_rows(tmp_path):
    # a price low enough that the floor merges atoms from day 13 on: each day
    # holds its own atoms, padded with its last one at probability 0
    cfg = dataclasses.replace(CFG, price_forecast=(0.032, 0.001), price_atoms=5)
    stage_fit(cfg, tmp_path)
    with np.load(tmp_path / "laws.npz") as npz:
        support, probs = npz["price_support"], npz["price_probs"]
    assert np.count_nonzero(probs > 0.0, axis=1).tolist() == [5] * 13 + [4] * (CFG.D + 1 - 13)
    _, table = _load_fit(cfg, tmp_path)
    assert table.support.shape == table.probs.shape == (CFG.D + 1, 5)
    assert table.support.tobytes() == support.tobytes() and table.probs.tobytes() == probs.tobytes()
    ref = pipeline.battery_price_laws(
        cfg.price_forecast, cfg.price_sigma, cfg.D + 1, cfg.price_floor, cfg.price_atoms
    )
    assert table.support.tobytes() == ref.support.tobytes()
    assert table.probs.tobytes() == ref.probs.tobytes()
    for row_support, row_probs in zip(table.support.tolist()[13:], table.probs.tolist()[13:]):
        assert row_support[4] == row_support[3] and row_probs[4] == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["support", "probs"])
# the ids name the JSON files these tables were stored in before laws.npz
@pytest.mark.parametrize("law", ["netload", "price"], ids=["noise_laws.json", "price_laws.json"])
def test_fit_laws_holding_a_non_finite_value_are_rejected(bellman_run, tmp_path, law, field, bad):
    out = tmp_path / "r"
    shutil.copytree(bellman_run, out)
    member = f"price_{field}" if law == "price" else f"netload_{field}_1"

    def spoil(arrays):
        arrays[member][3 if law == "price" else 2, -1] = bad

    rewrite_npz(out / "laws.npz", spoil)
    match = f"{member} holds a NaN: rerun fit" if np.isnan(bad) else "finite.*rerun fit"
    with pytest.raises(HashMismatch, match=match):
        _load_fit(CFG, out)


@pytest.mark.parametrize("indent", [None, 1])
def test_dump_json_writes_the_bytes_of_json_dump(tmp_path, indent):
    obj = {"b": [0.1, 1e-300, -2.5, 3], "a": {"z": None, "y": "s", "x": [True, 1e16]}, "c": []}
    path = tmp_path / "obj.json"
    _dump_json(obj, path, indent=indent)
    with open(tmp_path / "want.json", "w") as fh:
        separators = (",", ":") if indent is None else None
        json.dump(obj, fh, sort_keys=True, indent=indent, separators=separators)
    assert path.read_bytes() == (tmp_path / "want.json").read_bytes()


def test_fit_record_holds_law_time_and_lloyd_steps(bellman_run):
    fit = json.loads((bellman_run / "manifest.json").read_text())["stages"]["fit"]
    assert 0.0 <= fit["laws_s"] <= fit["seconds"]
    netload = synthetic_netload_scenarios(
        CFG.fit_scenarios, CFG.D + 1, CFG.n_slots, CFG.seed, base_kw=CFG.netload_base_kw
    )
    # one class: each slot's law pools every scenario-day
    assert fit["lloyd_iterations"] == sum(
        _kmeans_1d(netload[:, :, m], CFG.fit_k)[1] for m in range(CFG.n_slots)
    )


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
            dec, bat, laws[1], CFG.c_grid(), axis, CFG.n_soc, CFG.n_controls
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


@pytest.mark.parametrize("member", ["table_1", "fast_1"])
def test_intraday_file_holding_a_nan_is_rejected(bellman_run, tmp_path, member):
    out = tmp_path / "r"
    shutil.copytree(bellman_run, out)
    path = out / "intraday_R.npz"
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays[member] = arrays[member].copy()
    arrays[member].flat[1] = np.nan
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    for with_fast in (True, False) if member == "table_1" else (True,):
        with pytest.raises(HashMismatch, match="NaN: rerun intraday"):
            _load_tables(CFG, out, RESOURCE, with_fast)
    _load_tables(CFG, out, PRICE, with_fast=True)


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


@pytest.mark.parametrize(
    "change, why",
    [
        (lambda a: a.update(h=2.0 * a["h"]), "h differs from the config's"),
        (
            lambda a: a.update(values=a["values"][1:]),
            r"values has shape \(31, 9, 3\), not \(32, 9, 3\)",
        ),
        (lambda a: a.update(extra=np.zeros(1)), "unexpected member extra"),
        (lambda a: a.pop("c"), "missing member c"),
    ],
    ids=["other-h", "short-values", "extra-member", "no-c"],
)
def test_value_file_off_the_config_names_the_member(bellman_run, tmp_path, change, why):
    out = tmp_path / "r"
    shutil.copytree(bellman_run, out)
    rewrite_npz(out / "bellman_P.npz", change)
    with pytest.raises(HashMismatch, match=f"bellman_P.npz: {why}: rerun bellman"):
        load_value_seq(CFG, out, "price-lower")
    load_value_seq(CFG, out, "resource-upper")


@pytest.mark.parametrize("keep", [0, 10])
def test_unreadable_npz_is_rejected(bellman_run, tmp_path, keep):
    out = tmp_path / "r"
    shutil.copytree(bellman_run, out)
    path = out / "intraday_R.npz"
    path.write_bytes(path.read_bytes()[:keep])
    for with_fast in (False, True):
        with pytest.raises(HashMismatch, match="intraday_R.npz: cannot be read .*: rerun intraday"):
            _load_tables(CFG, out, RESOURCE, with_fast)


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
    real_write = Path.write_text
    for name in ("report.json", "manifest.json"):
        before = {p.name: p.read_bytes() for p in bellman_run.iterdir()}

        def broken_write(path, text, *args, **kw):
            if name in path.name:
                real_write(path, "partial")
                raise OSError("disk full")
            return real_write(path, text, *args, **kw)

        monkeypatch.setattr(Path, "write_text", broken_write)
        with pytest.raises(OSError, match="disk full"):
            stage_report(CFG, bellman_run)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in bellman_run.iterdir()} == before, name


def test_failed_rerun_on_other_inputs_leaves_no_record(bellman_run, tmp_path, monkeypatch):
    # intraday_P.npz is rewritten under charge_eff 0.9, then intraday_R.npz fails:
    # the intraday record must not vouch for the mixed pair under the old config
    out = tmp_path / "r"
    shutil.copytree(bellman_run, out)
    real_savez, calls = np.savez, []

    def second_fails(fh, **arrays):
        calls.append(fh)
        if len(calls) == 2:
            raise OSError("disk full")
        real_savez(fh, **arrays)

    monkeypatch.setattr(np, "savez", second_fails)
    with pytest.raises(OSError, match="disk full"):
        stage_intraday(dataclasses.replace(CFG, charge_eff=0.9), out)
    monkeypatch.undo()
    assert (out / "intraday_P.npz").read_bytes() != (bellman_run / "intraday_P.npz").read_bytes()
    with pytest.raises(MissingArtifact, match="run the intraday stage"):
        stage_bellman(CFG, out)


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


# 4 controls leave out u = 0: both bounds are +inf at some points, where the
# gap is 0, and the upper one alone at others, which max_rel_gap leaves out
FOUR_CONTROLS = RunConfig(
    D=40, n_slots=12, n_classes=1, c_max=300.0, n_controls=4, h_points=13,
    price_forecast=(0.05, 0.05), scenarios=8,
)


@pytest.fixture(scope="module")
def four_control_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("four_controls")
    for stage in (stage_fit, stage_intraday, stage_bellman):
        stage(FOUR_CONTROLS, out)
    return out


def test_report_on_infinite_bounds_holds_no_nan(four_control_run):
    cfg, out = FOUR_CONTROLS, four_control_run
    lower = load_value_seq(cfg, out, "price-lower").values
    upper = load_value_seq(cfg, out, "resource-upper").values
    assert (np.isposinf(lower) & np.isposinf(upper)).any()
    up_alone = np.isposinf(upper) & (lower < np.inf)
    assert up_alone[:-1].any(axis=(1, 2)).all()
    summary = stage_report(cfg, out)
    assert "nan" not in (out / "gaps.csv").read_text()
    assert summary["violations"] == 0
    # every day's max is over the points but those where the upper bound
    # alone is +inf, and the record counts them
    with np.errstate(invalid="ignore"):
        gap = (upper - lower) / np.maximum(np.abs(lower), 1e-9)
    gap[np.isposinf(lower) & np.isposinf(upper)] = 0.0
    want = np.where(up_alone, -np.inf, gap).max(axis=(1, 2))
    assert np.isfinite(want).all()
    assert summary["max_rel_gap"] == want.max()
    assert summary["max_gap_excluded"] == np.count_nonzero(up_alone)
    with open(out / "gaps.csv") as fh:
        column = [float(row["max_rel_gap"]) for row in csv.DictReader(fh)]
    assert column == want.tolist()


def test_infinite_summaries_are_written_as_strict_json(four_control_run, tmp_path):
    # the upper bound at the origin spoiled to +inf on day 0: its gap is +inf
    out = tmp_path / "run"
    shutil.copytree(four_control_run, out)
    rewrite_npz(out / "bellman_R.npz", lambda a: np.put(a["values"], 0, np.inf))
    summary = stage_report(FOUR_CONTROLS, out)
    assert summary["upper_at_x0_day0"] == summary["gap_at_x0_day0"] == np.inf

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    report, manifest = (
        json.loads((out / name).read_text(), parse_constant=refuse)
        for name in ("report.json", "manifest.json")
    )
    # the spelling of the GridValueFn codec, in the file and in the record
    infinite = ("upper_at_x0_day0", "gap_at_x0_day0")
    for key in infinite:
        assert report[key] == manifest["stages"]["report"][key] == "inf"
    finite = {
        k: v for k, v in summary.items()
        if k not in infinite + ("max_gap_excluded", "check_sandwich_s")
    }
    assert {k: v for k, v in report.items() if k not in infinite} == finite


def test_dump_json_spells_infinities_and_refuses_nan(tmp_path):
    path = tmp_path / "obj.json"
    obj = {"a": [np.inf, -np.inf, np.float64(np.inf), 1.5], "b": (np.inf, {"c": -np.inf})}
    _dump_json(obj, path)
    assert path.read_text() == '{"a":["inf","-inf","inf",1.5],"b":["inf",{"c":"-inf"}]}'
    with pytest.raises(ValueError, match="JSON compliant"):
        _dump_json({"a": np.nan}, tmp_path / "nan.json")
    assert not (tmp_path / "nan.json").exists()


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
    assert report["max_gap_excluded"] == 0
    assert summary == {
        k: v for k, v in report.items()
        if k not in ("max_gap_excluded", "check_sandwich_s", "seconds", "inputs")
    }
    assert info == {k: v for k, v in report.items() if k not in ("seconds", "inputs")}
    assert report["inputs"] == CFG.inputs("report")


def test_bellman_record_counts_resource_pairs(bellman_run):
    bellman = json.loads((bellman_run / "manifest.json").read_text())["stages"]["bellman"]
    h, dh, c = CFG.h_grid(), CFG.dh_grid(), CFG.c_grid()
    feasible = h[:, None] - dh[None, :] >= -FEAS_TOL
    # per capacity, the feasible budgets less those that cost what the next
    # smaller one does
    costs = _load_tables(CFG, bellman_run, RESOURCE)[1].table.values
    dominated = np.zeros(costs.shape, dtype=bool)
    dominated[:, 1:] = costs[:, 1:] == costs[:, :-1]
    triples = sum(np.count_nonzero(feasible & ~flat[None, :]) for flat in dominated)
    assert bellman["resource_pairs"] == {
        "per_day": triples, "share": round(triples / (len(c) * len(h) * len(dh)), 4),
    }
    assert len(c) < triples < len(c) * np.count_nonzero(feasible)


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


def test_every_key_but_threads_belongs_to_one_stage():
    listed = [key for keys in STAGE_KEYS.values() for key in keys]
    fields = {f.name for f in dataclasses.fields(RunConfig)} - {"threads"}
    assert sorted(listed) == sorted(fields)


@pytest.mark.parametrize("change", [{"fit_k": np.int64(3)}, {"gamma": np.float32(0.99)}])
def test_a_key_the_manifest_cannot_write_is_a_config_error(change):
    # a numpy scalar would get through the fit's work and fail on the manifest write
    (key,) = change
    with pytest.raises(ConfigError, match=f"{key} must be"):
        dataclasses.replace(CFG, **change)


def test_every_stage_takes_only_the_config_and_the_output_directory():
    # the CLI and perfbench both call a stage as stage_<name>(cfg, out)
    stages = {name: fn for name, fn in vars(pipeline).items() if name.startswith("stage_")}
    assert sorted(stages) == sorted(f"stage_{s}" for s in STAGE_KEYS)
    for name, fn in stages.items():
        params = inspect.signature(fn).parameters.values()
        assert [(p.name, p.kind, p.default) for p in params] == [
            (arg, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
            for arg in ("cfg", "out")
        ], name


# another valid value, on CFG, of every key a stage after fit reads
OTHER_VALUES = {
    "c_step": 50.0, "c_max": 400.0, "n_soc": 5, "n_controls": 7, "dh_points": 7,
    "dh_cap": 500.0, "pi_values": (0.0, 0.05, 0.1), "charge_eff": 0.9, "discharge_eff": 0.9,
    "u_max": 100.0, "soc_fraction": 0.7, "h_points": 17, "gamma": 0.999, "cycle_multiple": 3,
    "scenarios": 6,
}
STAGE_FNS = {
    "fit": stage_fit,
    "intraday": stage_intraday,
    "bellman": stage_bellman,
    "simulate": stage_simulate,
    "report": stage_report,
}


def test_every_file_a_stage_adds_matches_its_outputs(tmp_path):
    # _open_stage deletes a stage's stale artifacts by these globs
    for stage, fn in STAGE_FNS.items():
        before = {p.name for p in tmp_path.iterdir()}
        fn(CFG, tmp_path)
        added = {p.name for p in tmp_path.iterdir()} - before - {"manifest.json"}
        globs = pipeline.OUTPUTS[stage]
        for name in added:
            assert any(fnmatch.fnmatchcase(name, g) for g in globs), (stage, name)
        for g in globs:
            assert fnmatch.filter(added, g), (stage, g)


@pytest.mark.parametrize("stage", ["fit", "intraday", "bellman"])
def test_a_stage_reads_no_key_of_a_later_stage(tmp_path, stage):
    # a key assigned to too late a stage would change that stage's artifacts
    order = list(STAGE_KEYS)
    for done in order[: order.index(stage) + 1]:
        STAGE_FNS[done](CFG, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name != "manifest.json"}
    later = [key for s in order[order.index(stage) + 1:] for key in STAGE_KEYS[s]]
    assert later
    for key in later:
        STAGE_FNS[stage](dataclasses.replace(CFG, **{key: OTHER_VALUES[key]}), tmp_path)
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name != "manifest.json"}
        assert after == before, key
        stages = json.loads((tmp_path / "manifest.json").read_text())["stages"]
        assert stages[stage]["inputs"] == manifest["stages"][stage]["inputs"], key
