"""Pipeline stages and artifact persistence.

Every stage reads/writes under one output directory and updates manifest.json
with its inputs, outputs and timing, after its artifacts are in place; a
stage's record drops the records of the stages downstream of it, which must
then run again.  Every file is written whole or not at all (:func:`_atomic`).
Timestamps live only in the manifest's metadata block, so all other
artifacts are byte-reproducible for a given config and seed.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .core import DiscreteDist, Grid, GridValueFn
from .battery import (
    ScenarioSet,
    battery_price_laws,
    fit_netload_distributions,
    interp_price_forecast,
    load_netload_csv,
    load_price_csv,
    synthetic_netload_scenarios,
    white_noise_resample,
)
from .config import ConfigError, RunConfig
from .intraday import (
    DECOMPOSITIONS,
    PRICE,
    RESOURCE,
    IntradayTable,
    _fast_cell,
    compute_intraday,
    decomposition,
)
from .policy import simulate_policy
from .slowscale import (
    SlowValueSeq,
    check_sandwich,
    price_bellman_recursion,
    resource_bellman_recursion,
)


class MissingArtifact(FileNotFoundError):
    pass


class HashMismatch(RuntimeError):
    """Artifacts or the manifest were made under another config."""


# the stages that consume each stage's artifacts, directly or not
DOWNSTREAM = {
    "fit": ("intraday", "bellman", "simulate", "report"),
    "intraday": ("bellman", "simulate", "report"),
    "bellman": ("simulate", "report"),
}


@contextmanager
def _atomic(path: Path):
    """Yield a temporary name in ``path``'s directory to write to; when the
    block ends without error the file moves into place, so ``path`` is never a
    partial file.  The temporary file is removed if the block fails."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _dump_json(obj, path: Path, indent: int | None = None) -> None:
    """Key-sorted JSON, compact unless ``indent`` is given."""
    separators = (",", ":") if indent is None else None
    with _atomic(path) as tmp, open(tmp, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=indent, separators=separators)


def _load_json(path: Path):
    if not path.exists():
        raise MissingArtifact(f"missing artifact: {path}")
    with open(path) as fh:
        return json.load(fh)


def load_manifest(out: Path) -> dict:
    path = out / "manifest.json"
    if not path.exists():
        return {"config_hash": None, "stages": {}, "metadata": {"timestamps": {}}}
    return _load_json(path)


def _update_manifest(out: Path, cfg: RunConfig, stage: str, info: dict, elapsed: float):
    manifest = load_manifest(out)
    manifest["config_hash"] = cfg.config_hash()
    manifest["config"] = cfg.to_dict()
    info = dict(info)
    info["seconds"] = round(elapsed, 3)
    stages = manifest.setdefault("stages", {})
    stamps = manifest.setdefault("metadata", {}).setdefault("timestamps", {})
    for later in DOWNSTREAM.get(stage, ()):
        stages.pop(later, None)
        stamps.pop(later, None)
    stages[stage] = info
    stamps[stage] = time.strftime("%Y-%m-%dT%H:%M:%S")
    _dump_json(manifest, out / "manifest.json", indent=1)


def check_stage_inputs(out: Path, cfg: RunConfig, needed: list[str], force: bool = False):
    """Dependent stages must find their inputs and a matching config hash."""
    manifest = load_manifest(out)
    for stage in needed:
        if stage not in manifest.get("stages", {}):
            raise MissingArtifact(f"{stage} artifacts missing: run the {stage} stage first")
    if manifest.get("config_hash") not in (None, cfg.config_hash()) and not force:
        raise HashMismatch(
            "config hash differs from the one in manifest.json (use --force to override)"
        )


def _dist_jsonable(d: DiscreteDist) -> dict:
    return {"support": d.support.tolist(), "probs": d.probs.tolist()}


def _dist_from_jsonable(obj: dict) -> DiscreteDist:
    return DiscreteDist(np.array(obj["support"]), np.array(obj["probs"]))


def stage_fit(cfg: RunConfig, out: Path) -> dict:
    """Fit per (class, slot) netload laws and daily battery price laws."""
    t0 = time.perf_counter()
    try:
        netload = load_netload_csv(cfg.netload_csv, cfg.n_slots) if cfg.netload_csv else None
        prices = load_price_csv(cfg.price_csv) if cfg.price_csv else None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad input data: {exc}") from exc
    out.mkdir(parents=True, exist_ok=True)
    n_days = cfg.D + 1
    if netload is None:
        netload = synthetic_netload_scenarios(
            cfg.fit_scenarios, n_days, cfg.n_slots, cfg.seed, base_kw=cfg.netload_base_kw
        )
    if prices is None:
        base = np.maximum(interp_price_forecast(cfg.price_forecast, n_days), cfg.price_floor)
        prices = np.tile(base, (netload.shape[0], 1))
    raw = ScenarioSet(netload[:, :n_days], prices[:, :n_days])
    laws = fit_netload_distributions(raw, cfg.classmap, cfg.fit_k)
    price_laws = battery_price_laws(
        cfg.price_forecast, cfg.price_sigma, n_days, cfg.price_floor, cfg.price_atoms
    )
    _dump_json(
        {str(cls): [_dist_jsonable(law) for law in slot_laws] for cls, slot_laws in laws.items()},
        out / "noise_laws.json",
    )
    _dump_json([_dist_jsonable(l) for l in price_laws], out / "price_laws.json")
    info = {"classes": sorted(laws), "k": cfg.fit_k}
    _update_manifest(out, cfg, "fit", info, time.perf_counter() - t0)
    return info


def _load_fit(cfg: RunConfig, out: Path):
    """The fitted netload laws by class and the daily battery price laws;
    they must hold the config's classes, ``n_slots`` laws each, and D+1 days."""
    noise = _load_json(out / "noise_laws.json")
    prices = _load_json(out / "price_laws.json")
    classes, fitted = sorted(cfg.classmap.representatives), sorted(int(k) for k in noise)
    slots = sorted({len(slot_laws) for slot_laws in noise.values()})
    if fitted != classes or slots != [cfg.n_slots] or len(prices) != cfg.D + 1:
        raise HashMismatch(
            f"the fit laws in {out} hold classes {fitted} of {slots} slots and {len(prices)}"
            f" days, not the config's classes {classes} of {cfg.n_slots} slots and"
            f" {cfg.D + 1} days: rerun fit"
        )
    laws = {cls: [_dist_from_jsonable(o) for o in noise[str(cls)]] for cls in classes}
    return laws, [_dist_from_jsonable(o) for o in prices]


def _cell_job(args):
    return _fast_cell(*args)


def _chosen(mode: str) -> list:
    """The decompositions a stage's ``mode`` (price, resource or both) runs."""
    return [dec for dec in DECOMPOSITIONS if mode in (dec.mode, "both")]


def _intraday_path(out: Path, dec) -> Path:
    return out / f"intraday_{dec.letter}.npz"


def stage_intraday(cfg: RunConfig, out: Path, force: bool = False) -> dict:
    """Compute per-class resource and price intraday tables (parallel cells);
    writes ``intraday_{R,P}.npz``, one per decomposition: the axes ``c`` and
    ``axis``, ``n_controls``, and per class ``table_<cls>`` and ``fast_<cls>``."""
    t0 = time.perf_counter()
    check_stage_inputs(out, cfg, ["fit"], force)
    laws, _ = _load_fit(cfg, out)
    bat = cfg.battery_config()
    c_grid = cfg.c_grid()
    axes = {PRICE: cfg.pi_grid(), RESOURCE: cfg.dh_grid()}
    classes = sorted(laws)
    jobs = {
        (dec, cls, c): (bat, laws[cls], c, axes[dec], cfg.n_soc, cfg.n_controls, dec.budget_axis)
        for cls in classes
        for c in c_grid[1:]
        for dec in DECOMPOSITIONS
    }
    if cfg.threads > 1:
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            done = list(pool.map(_cell_job, jobs.values(), chunksize=1))
    else:
        done = [_cell_job(j) for j in jobs.values()]
    cells = dict(zip(jobs, done))
    for dec in DECOMPOSITIONS:
        arrays = {"c": c_grid, "axis": axes[dec], "n_controls": cfg.n_controls}
        for cls in classes:
            tab = compute_intraday(
                dec, cls, bat, laws[cls], c_grid, axes[dec], cfg.n_soc, cfg.n_controls,
                fast=np.stack([cells.pop((dec, cls, c)) for c in c_grid[1:]]),
            )
            arrays[f"table_{cls}"], arrays[f"fast_{cls}"] = tab.table.values, tab.fast
        # a file handle keeps np.savez from appending .npz to the temporary name
        with _atomic(_intraday_path(out, dec)) as tmp, open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
    info = {"cells": len(jobs), "threads": cfg.threads}
    _update_manifest(out, cfg, "intraday", info, time.perf_counter() - t0)
    return info


def _npy_shape(npz, name: str) -> tuple:
    """Shape of an npz member, read from its header alone (np.save writes
    a version 1.0 header for a float array)."""
    with npz.zip.open(name + ".npy") as fh:
        np.lib.format.read_magic(fh)
        return np.lib.format.read_array_header_1_0(fh)[0]


def _load_tables(cfg: RunConfig, out: Path, dec, with_fast: bool = False) -> dict:
    """One decomposition's intraday tables by class, with the control count
    they were built on; the replay tables only ``with_fast``."""
    path = _intraday_path(out, dec)
    if not path.exists():
        raise MissingArtifact(f"missing artifact: {path}: run the intraday stage")
    c_grid, axis = cfg.c_grid(), cfg.dh_grid() if dec.budget_axis else cfg.pi_grid()
    classes = sorted(cfg.classmap.representatives)
    members = {"c", "axis", "n_controls"} | {f"{k}_{i}" for k in ("table", "fast") for i in classes}
    with np.load(path) as npz:
        c, ax, n_controls = npz["c"], npz["axis"], int(npz["n_controls"])
        fast_shape = (len(c_grid) - 1, cfg.n_slots + 1, cfg.n_soc, len(axis))
        if not (
            set(npz.files) == members and n_controls == cfg.n_controls
            and np.array_equal(c, c_grid) and np.array_equal(ax, axis)
            and all(_npy_shape(npz, f"fast_{cls}") == fast_shape for cls in classes)
        ):
            raise HashMismatch(
                f"{path} does not hold the config's classes, grids and {cfg.n_controls}"
                f" controls (it has {n_controls} controls): rerun intraday"
            )
        return {
            cls: IntradayTable(
                cls, dec, GridValueFn(Grid([c, ax]), npz[f"table_{cls}"]), n_controls,
                npz[f"fast_{cls}"] if with_fast else None,
            )
            for cls in classes
        }


def _bellman_path(out: Path, dec) -> Path:
    return out / f"bellman_{dec.letter}.npz"


def stage_bellman(cfg: RunConfig, out: Path, mode: str = "both", force: bool = False) -> dict:
    """Backward slow-scale recursions; writes one value-function file per
    decomposition, ``bellman_{R,P}.npz``: the health and capacity axes ``h``
    and ``c`` and the values of every day, shape (D+2, len(h), len(c)).  The
    record holds the days recursed and each recursion's wall time."""
    t0 = time.perf_counter()
    check_stage_inputs(out, cfg, ["fit", "intraday"], force)
    _, price_laws = _load_fit(cfg, out)
    bat = cfg.battery_config()
    h_grid, c_grid = cfg.h_grid(), cfg.c_grid()
    recursions = {PRICE: price_bellman_recursion, RESOURCE: resource_bellman_recursion}
    info = {"mode": mode, "days": cfg.D + 1}
    for dec in _chosen(mode):
        tables = _load_tables(cfg, out, dec)
        t_rec = time.perf_counter()
        seq = recursions[dec](tables, cfg.classmap, price_laws, bat, h_grid, c_grid, cfg.D)
        info[f"{dec.mode}_recursion_s"] = round(time.perf_counter() - t_rec, 3)
        # a file handle keeps np.savez from appending .npz to the temporary name
        with _atomic(_bellman_path(out, dec)) as tmp, open(tmp, "wb") as fh:
            np.savez(fh, h=h_grid, c=c_grid, values=seq.values)
        bound = "upper" if dec.budget_axis else "lower"
        info[f"{bound}_at_origin"] = float(seq.values[0, 0, 0])
    _update_manifest(out, cfg, "bellman", info, time.perf_counter() - t0)
    return info


def load_value_seq(cfg: RunConfig, out: Path, kind: str) -> SlowValueSeq:
    """One decomposition's value functions, every day on the config's grid."""
    path = _bellman_path(out, decomposition(kind))
    if not path.exists():
        raise MissingArtifact(f"missing artifact: {path}: run the bellman stage for {kind}")
    with np.load(path) as npz:
        h, c, values = npz["h"], npz["c"], npz["values"]
    h_grid, c_grid = cfg.h_grid(), cfg.c_grid()
    want = (cfg.D + 2, len(h_grid), len(c_grid))
    if values.shape != want or not (np.array_equal(h, h_grid) and np.array_equal(c, c_grid)):
        raise HashMismatch(
            f"{path} holds values of shape {values.shape} on {len(h)} health and {len(c)}"
            f" capacity points, not the config's (D+2, h, c) = {want} grid: rerun bellman"
        )
    return SlowValueSeq(kind, Grid([h, c]), values)


def stage_simulate(cfg: RunConfig, out: Path, mode: str = "both", force: bool = False) -> dict:
    """White-noise Monte Carlo replay of the synthesized policies."""
    t0 = time.perf_counter()
    check_stage_inputs(out, cfg, ["fit", "intraday", "bellman"], force)
    laws, price_laws = _load_fit(cfg, out)
    bat = cfg.battery_config()
    scen = white_noise_resample(
        laws, price_laws, cfg.classmap, cfg.scenarios, cfg.seed, cfg.D + 1
    )
    info = {}
    for dec in _chosen(mode):
        m = dec.mode
        tables = _load_tables(cfg, out, dec, with_fast=True)
        values = load_value_seq(cfg, out, dec.kind)
        records, stats = simulate_policy(scen, m, tables, values, price_laws, cfg.classmap, bat)
        with _atomic(out / f"sim_{m}.csv") as tmp, open(tmp, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["scenario_id", "total_cost", "renewal_days", "renewal_sizes"])
            for rec in records:
                days = ";".join(str(d) for d, _ in rec.renewals)
                sizes = ";".join(repr(r) for _, r in rec.renewals)
                wr.writerow([rec.scenario_id, repr(rec.total_cost), days, sizes])
        _dump_json(
            {
                "mode": m,
                "mean": stats.mean,
                "stderr": stats.stderr,
                "scenarios": cfg.scenarios,
                "clamp_counts": [rec.clamp_count for rec in records],
            },
            out / f"sim_{m}_stats.json",
        )
        info[m] = {"mean": stats.mean, "stderr": stats.stderr}
    _update_manifest(out, cfg, "simulate", info, time.perf_counter() - t0)
    return info


def stage_report(cfg: RunConfig, out: Path, force: bool = False) -> dict:
    """Bound-gap report between the price (lower) and resource (upper) values;
    ``report.json`` holds the summary, the record also the check's wall time."""
    t0 = time.perf_counter()
    check_stage_inputs(out, cfg, ["bellman"], force)
    lower = load_value_seq(cfg, out, "price-lower")
    upper = load_value_seq(cfg, out, "resource-upper")
    x0 = np.array([0.0, 0.0])
    t_check = time.perf_counter()
    rep = check_sandwich(lower, upper, x0)
    check_s = round(time.perf_counter() - t_check, 3)
    cols = (rep.max_rel_gap, rep.gap_at_x0, rep.lower_at_x0, rep.upper_at_x0)
    with _atomic(out / "gaps.csv") as tmp, open(tmp, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["day", "max_rel_gap", "gap_at_x0", "lower_at_x0", "upper_at_x0"])
        wr.writerows([d, *(repr(float(col[d])) for col in cols)] for d in range(len(cols[0])))
    summary = {
        "lower_at_x0_day0": rep.lower_at_x0[0],
        "upper_at_x0_day0": rep.upper_at_x0[0],
        "gap_at_x0_day0": rep.gap_at_x0[0],
        "max_rel_gap": float(np.max(rep.max_rel_gap)),
        "violations": rep.violations,
    }
    _dump_json(summary, out / "report.json")
    info = {**summary, "check_sandwich_s": check_s}
    _update_manifest(out, cfg, "report", info, time.perf_counter() - t0)
    return info
