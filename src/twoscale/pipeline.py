"""Pipeline stages and artifact persistence.

Every stage reads/writes under one output directory and updates manifest.json
with its inputs, outputs and timing.  Timestamps live only in the manifest's
metadata block, so all other artifacts are byte-reproducible for a given
config and seed.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .core import DiscreteDist, Grid, GridValueFn
from .battery import (
    ScenarioSet,
    battery_price_laws,
    fit_netload_distributions,
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
    PeriodicityClassMap,
    _fast_cell,
    build_periodicity_classes,
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


def _dump_json(obj, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))


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
    manifest.setdefault("stages", {})[stage] = info
    manifest.setdefault("metadata", {}).setdefault("timestamps", {})[stage] = time.strftime(
        "%Y-%m-%dT%H:%M:%S"
    )
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)


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
    classmap = build_periodicity_classes(cfg.D, cfg.n_classes, cfg.class_scheme)
    n_days = cfg.D + 1
    if netload is None:
        netload = synthetic_netload_scenarios(
            cfg.fit_scenarios, n_days, cfg.n_slots, cfg.seed, base_kw=cfg.netload_base_kw
        )
    if prices is None:
        prices = np.maximum(
            np.tile(
                np.interp(
                    np.arange(n_days) / 365.0,
                    np.arange(len(cfg.price_forecast), dtype=float),
                    cfg.price_forecast,
                ),
                (netload.shape[0], 1),
            ),
            cfg.price_floor,
        )
    raw = ScenarioSet(netload[:, :n_days], prices[:, :n_days])
    laws = fit_netload_distributions(raw, classmap, cfg.fit_k)
    price_laws = battery_price_laws(
        cfg.price_forecast, cfg.price_sigma, n_days, cfg.price_floor, cfg.price_atoms
    )
    for cls, slot_laws in laws.items():
        for m, law in enumerate(slot_laws):
            _dump_json(_dist_jsonable(law), out / f"noise_class{cls}_slot{m}.json")
    _dump_json([_dist_jsonable(l) for l in price_laws], out / "price_laws.json")
    _dump_json(
        {
            "day_to_class": classmap.day_to_class.tolist(),
            "representatives": {str(k): v for k, v in classmap.representatives.items()},
        },
        out / "classmap.json",
    )
    info = {"classes": sorted(laws), "k": cfg.fit_k}
    _update_manifest(out, cfg, "fit", info, time.perf_counter() - t0)
    return info


def _load_fit(cfg: RunConfig, out: Path):
    cm = _load_json(out / "classmap.json")
    classmap = PeriodicityClassMap(
        np.array(cm["day_to_class"], dtype=np.intp),
        {int(k): int(v) for k, v in cm["representatives"].items()},
    )
    laws = {}
    for cls in classmap.representatives:
        laws[cls] = [
            _dist_from_jsonable(_load_json(out / f"noise_class{cls}_slot{m}.json"))
            for m in range(cfg.n_slots)
        ]
    price_laws = [_dist_from_jsonable(o) for o in _load_json(out / "price_laws.json")]
    return classmap, laws, price_laws


def _cell_job(args):
    return _fast_cell(*args)


def _chosen(mode: str) -> list:
    """The decompositions a stage's ``mode`` (price, resource or both) runs."""
    return [dec for dec in DECOMPOSITIONS if mode in (dec.mode, "both")]


def stage_intraday(cfg: RunConfig, out: Path, force: bool = False) -> dict:
    """Compute per-class resource and price intraday tables (parallel cells)."""
    t0 = time.perf_counter()
    check_stage_inputs(out, cfg, ["fit"], force)
    classmap, laws, _ = _load_fit(cfg, out)
    bat = cfg.battery_config()
    c_grid = cfg.c_grid()
    axes = {PRICE: cfg.pi_grid(), RESOURCE: cfg.dh_grid()}
    classes = sorted(classmap.representatives)
    jobs = {
        (dec, cls, ci): (bat, laws[cls], c, axes[dec], cfg.n_soc, cfg.n_controls, dec.budget_axis)
        for cls in classes
        for ci, c in enumerate(c_grid)
        if c != 0.0
        for dec in DECOMPOSITIONS
    }
    if cfg.threads > 1:
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            done = list(pool.map(_cell_job, jobs.values(), chunksize=1))
    else:
        done = [_cell_job(j) for j in jobs.values()]
    cells = dict(zip(jobs, done))
    for cls in classes:
        for dec in DECOMPOSITIONS:
            tab = compute_intraday(
                dec, cls, bat, laws[cls], c_grid, axes[dec], cfg.n_soc, cfg.n_controls,
                cell_results={ci: r for (d, k, ci), r in cells.items() if (d, k) == (dec, cls)},
            )
            tab.table.save_json(out / f"intraday_{dec.letter}_class{cls}.json")
            np.save(
                out / f"fast_{dec.letter}_class{cls}.npy",
                np.stack([np.stack(tab.fast_values[ci]) for ci in range(1, len(c_grid))]),
            )
    info = {"cells": len(jobs), "threads": cfg.threads}
    _update_manifest(out, cfg, "intraday", info, time.perf_counter() - t0)
    return info


def _load_tables(cfg: RunConfig, out: Path, dec, classmap, with_fast: bool = False) -> dict:
    """One decomposition's intraday tables by class; the replay tables only
    ``with_fast``."""
    n_c = len(cfg.c_grid())
    tables = {}
    for cls in sorted(classmap.representatives):
        fast = dict.fromkeys(range(n_c))
        if with_fast:
            arr = np.load(out / f"fast_{dec.letter}_class{cls}.npy")
            fast.update({ci: list(arr[ci - 1]) for ci in range(1, n_c)})
        table = GridValueFn.load_json(out / f"intraday_{dec.letter}_class{cls}.json")
        tables[cls] = IntradayTable(cls, dec, table, cfg.n_controls, fast)
    return tables


def _load_intraday(cfg: RunConfig, out: Path, with_fast: bool = False):
    """Classmap, battery price laws, then the resource and the price tables."""
    classmap, _, price_laws = _load_fit(cfg, out)
    rtabs, ptabs = (_load_tables(cfg, out, dec, classmap, with_fast) for dec in (RESOURCE, PRICE))
    return classmap, price_laws, rtabs, ptabs


def _bellman_path(out: Path, dec) -> Path:
    return out / f"bellman_{dec.letter}.npz"


def _save_npz(path: Path, **arrays) -> None:
    """Write an uncompressed npz under a temporary name in the same directory,
    then move it into place, so ``path`` is never a partial file.  A file
    handle keeps np.savez from appending ``.npz`` to the temporary name."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def stage_bellman(cfg: RunConfig, out: Path, mode: str = "both", force: bool = False) -> dict:
    """Backward slow-scale recursions; writes one value-function file per
    decomposition, ``bellman_{R,P}.npz``: the health and capacity axes ``h``
    and ``c`` and the values of every day, shape (D+2, len(h), len(c))."""
    t0 = time.perf_counter()
    check_stage_inputs(out, cfg, ["fit", "intraday"], force)
    classmap, _, price_laws = _load_fit(cfg, out)
    bat = cfg.battery_config()
    h_grid, c_grid = cfg.h_grid(), cfg.c_grid()
    recursions = {PRICE: price_bellman_recursion, RESOURCE: resource_bellman_recursion}
    info = {"mode": mode}
    for dec in _chosen(mode):
        tables = _load_tables(cfg, out, dec, classmap)
        seq = recursions[dec](tables, classmap, price_laws, bat, h_grid, c_grid, cfg.D)
        _save_npz(_bellman_path(out, dec), h=h_grid, c=c_grid, values=seq.values)
        bound = "upper" if dec.budget_axis else "lower"
        info[f"{bound}_at_origin"] = float(seq.days[0].values[0, 0])
    _update_manifest(out, cfg, "bellman", info, time.perf_counter() - t0)
    return info


def load_value_seq(cfg: RunConfig, out: Path, kind: str) -> SlowValueSeq:
    """One decomposition's value functions, as views on one shared grid."""
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
    return SlowValueSeq.on_grid(kind, Grid([h, c]), values)


def stage_simulate(cfg: RunConfig, out: Path, mode: str = "both", force: bool = False) -> dict:
    """White-noise Monte Carlo replay of the synthesized policies."""
    t0 = time.perf_counter()
    check_stage_inputs(out, cfg, ["fit", "intraday", "bellman"], force)
    classmap, laws, price_laws = _load_fit(cfg, out)
    bat = cfg.battery_config()
    scen = white_noise_resample(
        laws, price_laws, classmap, cfg.scenarios, cfg.seed, cfg.D + 1
    )
    info = {}
    for dec in _chosen(mode):
        m = dec.mode
        tables = _load_tables(cfg, out, dec, classmap, with_fast=True)
        values = load_value_seq(cfg, out, dec.kind)
        records, stats = simulate_policy(scen, m, tables, values, price_laws, classmap, bat)
        with open(out / f"sim_{m}.csv", "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["scenario_id", "total_cost", "renewal_days", "renewal_sizes"])
            for rec in records:
                wr.writerow(
                    [
                        rec.scenario_id,
                        repr(rec.total_cost),
                        ";".join(str(d) for d, _ in rec.renewals),
                        ";".join(repr(r) for _, r in rec.renewals),
                    ]
                )
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
    """Bound-gap report between the price (lower) and resource (upper) values."""
    t0 = time.perf_counter()
    check_stage_inputs(out, cfg, ["bellman"], force)
    lower = load_value_seq(cfg, out, "price-lower")
    upper = load_value_seq(cfg, out, "resource-upper")
    x0 = np.array([0.0, 0.0])
    rep = check_sandwich(lower, upper, x0)
    with open(out / "gaps.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["day", "max_rel_gap", "gap_at_x0", "lower_at_x0", "upper_at_x0"])
        for d in range(len(rep.max_rel_gap)):
            wr.writerow(
                [
                    d,
                    repr(rep.max_rel_gap[d]),
                    repr(rep.gap_at_x0[d]),
                    repr(rep.lower_at_x0[d]),
                    repr(rep.upper_at_x0[d]),
                ]
            )
    summary = {
        "lower_at_x0_day0": rep.lower_at_x0[0],
        "upper_at_x0_day0": rep.upper_at_x0[0],
        "gap_at_x0_day0": rep.gap_at_x0[0],
        "max_rel_gap": float(np.max(rep.max_rel_gap)),
        "violations": rep.violations,
    }
    _dump_json(summary, out / "report.json")
    _update_manifest(out, cfg, "report", summary, time.perf_counter() - t0)
    return summary
