"""Pipeline stages and artifact persistence.

Every stage reads/writes under one output directory and updates manifest.json
with its inputs, outputs and timing.  Timestamps live only in the manifest's
metadata block, so all other artifacts are byte-reproducible for a given
config and seed.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .core import DiscreteDist, Grid, GridValueFn, MULTILINEAR
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
    IntradayPriceTable,
    IntradayResourceTable,
    PeriodicityClassMap,
    _fast_cell,
    build_periodicity_classes,
    compute_price_intraday,
    compute_resource_intraday,
    soc_grid_for,
)
from .policy import simulate_policy
from .slowscale import (
    check_sandwich,
    price_bellman_recursion,
    resource_bellman_recursion,
)


class MissingArtifact(FileNotFoundError):
    pass


class HashMismatch(RuntimeError):
    pass


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
    laws = fit_netload_distributions(raw, classmap, cfg.fit_k, seed=cfg.seed)
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
    kind, cls, ci, bat, slot_laws, c, axis, n_soc, n_controls = args
    return kind, cls, ci, _fast_cell(bat, slot_laws, c, axis, n_soc, n_controls, kind == "R")


def stage_intraday(cfg: RunConfig, out: Path, force: bool = False) -> dict:
    """Compute per-class resource and price intraday tables (parallel cells)."""
    t0 = time.perf_counter()
    check_stage_inputs(out, cfg, ["fit"], force)
    classmap, laws, _ = _load_fit(cfg, out)
    bat = cfg.battery_config()
    c_grid, dh_grid, pi_grid = cfg.c_grid(), cfg.dh_grid(), cfg.pi_grid()
    jobs = []
    for cls in sorted(classmap.representatives):
        for ci, c in enumerate(c_grid):
            if c == 0.0:
                continue
            jobs.append(("R", cls, ci, bat, laws[cls], c, dh_grid, cfg.n_soc, cfg.n_controls))
            jobs.append(("P", cls, ci, bat, laws[cls], c, pi_grid, cfg.n_soc, cfg.n_controls))
    if cfg.threads > 1:
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            done = list(pool.map(_cell_job, jobs, chunksize=1))
    else:
        done = [_cell_job(j) for j in jobs]
    cells = {"R": {}, "P": {}}
    for kind, cls, ci, result in done:
        cells[kind].setdefault(cls, {})[ci] = result
    for cls in sorted(classmap.representatives):
        rtab = compute_resource_intraday(
            cls, bat, laws[cls], c_grid, dh_grid, cfg.n_soc, cfg.n_controls,
            cell_results=cells["R"].get(cls, {}),
        )
        ptab = compute_price_intraday(
            cls, bat, laws[cls], c_grid, pi_grid, cfg.n_soc, cfg.n_controls,
            cell_results=cells["P"].get(cls, {}),
        )
        rtab.table.save_json(out / f"intraday_R_class{cls}.json")
        ptab.table.save_json(out / f"intraday_P_class{cls}.json")
        rfast = np.stack(
            [np.stack(rtab.fast_values[ci]) for ci in range(1, len(c_grid))]
        )
        pfast = np.stack(
            [np.stack(ptab.fast_values[ci]) for ci in range(1, len(c_grid))]
        )
        np.save(out / f"fast_R_class{cls}.npy", rfast)
        np.save(out / f"fast_P_class{cls}.npy", pfast)
    info = {"cells": len(jobs), "threads": cfg.threads}
    _update_manifest(out, cfg, "intraday", info, time.perf_counter() - t0)
    return info


def _load_intraday(cfg: RunConfig, out: Path, with_fast: bool = False):
    classmap, _, price_laws = _load_fit(cfg, out)
    c_grid = cfg.c_grid()
    bat = cfg.battery_config()
    rtabs, ptabs = {}, {}
    for cls in sorted(classmap.representatives):
        rfn = GridValueFn.load_json(out / f"intraday_R_class{cls}.json")
        pfn = GridValueFn.load_json(out / f"intraday_P_class{cls}.json")
        soc_grids = {ci: soc_grid_for(c, bat, cfg.n_soc) for ci, c in enumerate(c_grid)}
        rfast = {0: None}
        pfast = {0: None}
        if with_fast:
            rarr = np.load(out / f"fast_R_class{cls}.npy")
            parr = np.load(out / f"fast_P_class{cls}.npy")
            for ci in range(1, len(c_grid)):
                rfast[ci] = list(rarr[ci - 1])
                pfast[ci] = list(parr[ci - 1])
        else:
            rfast.update({ci: None for ci in range(1, len(c_grid))})
            pfast.update({ci: None for ci in range(1, len(c_grid))})
        rtabs[cls] = IntradayResourceTable(
            class_id=cls, table=rfn, soc_grids=soc_grids,
            dh_grid=cfg.dh_grid(), fast_values=rfast,
        )
        ptabs[cls] = IntradayPriceTable(
            class_id=cls, table=pfn, soc_grids=soc_grids,
            pi_grid=cfg.pi_grid(), fast_values=pfast,
        )
    return classmap, price_laws, rtabs, ptabs


def stage_bellman(cfg: RunConfig, out: Path, mode: str = "both", force: bool = False) -> dict:
    """Backward slow-scale recursions; writes one value function file per day."""
    t0 = time.perf_counter()
    check_stage_inputs(out, cfg, ["fit", "intraday"], force)
    classmap, price_laws, rtabs, ptabs = _load_intraday(cfg, out)
    bat = cfg.battery_config()
    h_grid, c_grid = cfg.h_grid(), cfg.c_grid()
    info = {"mode": mode}
    if mode in ("resource", "both"):
        seq = resource_bellman_recursion(rtabs, classmap, price_laws, bat, h_grid, c_grid, cfg.D)
        for d, fn in enumerate(seq.days):
            fn.save_json(out / f"bellman_R_d{d}.json")
        info["upper_at_origin"] = float(seq.days[0].values[0, 0])
    if mode in ("price", "both"):
        seq = price_bellman_recursion(ptabs, classmap, price_laws, bat, h_grid, c_grid, cfg.D)
        for d, fn in enumerate(seq.days):
            fn.save_json(out / f"bellman_P_d{d}.json")
        info["lower_at_origin"] = float(seq.days[0].values[0, 0])
    _update_manifest(out, cfg, "bellman", info, time.perf_counter() - t0)
    return info


def load_value_seq(cfg: RunConfig, out: Path, kind: str):
    from .slowscale import SlowValueSeq

    letter = "P" if kind == "price-lower" else "R"
    days = tuple(
        GridValueFn.load_json(out / f"bellman_{letter}_d{d}.json") for d in range(cfg.D + 2)
    )
    return SlowValueSeq(kind=kind, days=days)


def stage_simulate(cfg: RunConfig, out: Path, mode: str = "both", force: bool = False) -> dict:
    """White-noise Monte Carlo replay of the synthesized policies."""
    t0 = time.perf_counter()
    check_stage_inputs(out, cfg, ["fit", "intraday", "bellman"], force)
    classmap, price_laws, rtabs, ptabs = _load_intraday(cfg, out, with_fast=True)
    _, laws, _ = _load_fit(cfg, out)
    bat = cfg.battery_config()
    scen = white_noise_resample(
        laws, price_laws, classmap, cfg.scenarios, cfg.seed, cfg.D + 1
    )
    modes = ["price", "resource"] if mode == "both" else [mode]
    info = {}
    for m in modes:
        kind = "price-lower" if m == "price" else "resource-upper"
        values = load_value_seq(cfg, out, kind)
        tabs = ptabs if m == "price" else rtabs
        records, stats = simulate_policy(
            scen, m, tabs, values, price_laws, classmap, bat, n_controls=cfg.n_controls
        )
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
