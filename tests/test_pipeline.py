"""Stage artifacts: the fit laws, the value-function files of the bellman
stage, and atomic writes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from twoscale.config import RunConfig
from twoscale.intraday import PRICE, RESOURCE
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

# the pipeline config of acceptance criterion 10
CFG = RunConfig(
    D=30, n_slots=12, n_classes=1, c_step=100.0, c_max=200.0,
    dh_points=5, dh_cap=400.0, pi_values=(0.0, 0.1), n_soc=9,
    n_controls=5, h_points=9, price_atoms=3, fit_scenarios=3,
    fit_k=3, scenarios=5, seed=11,
)


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
    classmap, laws, _ = _load_fit(CFG, bellman_run)
    assert sorted(stored) == [str(cls) for cls in sorted(laws)] == ["1"]
    for cls, slot_laws in laws.items():
        assert len(slot_laws) == CFG.n_slots
        for law, rec in zip(slot_laws, stored[str(cls)]):
            assert law.support.tolist() == rec["support"]
            assert law.probs.tolist() == rec["probs"]


def test_value_files_round_trip_bit_equal(bellman_run):
    out = bellman_run
    classmap, _, price_laws = _load_fit(CFG, out)
    bat = CFG.battery_config()
    for dec, recursion in ((RESOURCE, resource_bellman_recursion), (PRICE, price_bellman_recursion)):
        tables = _load_tables(CFG, out, dec, classmap)
        ref = recursion(tables, classmap, price_laws, bat, CFG.h_grid(), CFG.c_grid(), CFG.D)
        seq = load_value_seq(CFG, out, dec.kind)
        assert seq.kind == dec.kind
        assert len(seq.days) == CFG.D + 2
        for got, want in zip(seq.days, ref.days):
            assert got.grid == want.grid
            assert got.grid is seq.days[0].grid
            assert got.values.tobytes() == want.values.tobytes()
            assert not got.values.flags.writeable
            with pytest.raises(ValueError):
                got.values[0, 0] = 0.0


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
    path = bellman_run / "bellman_P.npz"
    before = path.read_bytes()

    def broken_savez(fh, **arrays):
        fh.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", broken_savez)
    with pytest.raises(OSError, match="disk full"):
        stage_bellman(CFG, bellman_run, mode="price")
    assert path.read_bytes() == before
    assert not list(bellman_run.glob("*.tmp"))

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
