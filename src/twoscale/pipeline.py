"""Pipeline stages and artifact persistence.

Every stage reads/writes under one output directory.  Before it writes, it
checks the manifest records of the stages it reads; once its artifacts are in
place, its record holds the config values it was built from (``inputs``), its
outputs and timing.  Every file is written whole or not at all (:func:`_atomic`).
Timestamps live only in the manifest's metadata block, so all other
artifacts are byte-reproducible for a given config and seed.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import time
import zipfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .core import Grid, GridValueFn, LawTable, value_fault
from .battery import (
    battery_price_laws,
    fit_netload_distributions,
    load_netload_csv,
    synthetic_netload_scenarios,
    white_noise_resample,
)
from .config import UPSTREAM, ConfigError, RunConfig
from .intraday import (
    DECOMPOSITIONS,
    FEAS_TOL,
    PRICE,
    RESOURCE,
    IntradayTable,
    _fast_cell,
    compute_intraday,
    decomposition,
)
# perfbench's tracer wraps simulate_policy under this name
from .policy import SimulationStats, simulate_policies, simulate_policy  # noqa: F401
from .slowscale import (
    DayObjective,
    SlowValueSeq,
    check_sandwich,
    price_bellman_recursion,
    resource_bellman_recursion,
)


class MissingArtifact(FileNotFoundError):
    pass


class HashMismatch(RuntimeError):
    """Artifacts or the manifest were made under another config."""


# the files each stage writes, as glob patterns in the output directory
OUTPUTS = {
    "fit": ("laws.npz",), "intraday": ("intraday_*.npz",), "bellman": ("bellman_*.npz",),
    "simulate": ("sim_*",), "report": ("report.json", "gaps.csv"),
}
# the files older versions of a stage wrote, which its rerun deletes too: the
# JSON fit laws and the per-class intraday and per-day bellman JSON tables
OLD_OUTPUTS = {
    "fit": ("*_laws.json",), "intraday": ("intraday_*_class*.json",),
    "bellman": ("bellman_*_d*.json",),
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


def _strict(obj):
    """``obj`` with each +inf or -inf float spelled "inf" or "-inf", as the
    :class:`~twoscale.core.GridValueFn` codec spells it."""
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {key: _strict(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _dump_json(obj, path: Path, indent: int | None = None) -> None:
    """Key-sorted strict JSON, compact unless ``indent`` is given: the bytes
    of ``json.dump``, encoded by ``json.dumps``, whose C encoder runs when
    ``indent`` is None (``json.dump`` always runs the Python one).  An
    infinite float is written as a string (:func:`_strict`); a NaN raises
    ValueError."""
    separators = (",", ":") if indent is None else None
    text = json.dumps(
        _strict(obj), sort_keys=True, indent=indent, separators=separators, allow_nan=False
    )
    with _atomic(path) as tmp:
        tmp.write_text(text)


def load_manifest(out: Path) -> dict:
    """The manifest in ``out``, or an empty one if there is none.  A manifest
    that is not JSON of a stage record and a timestamp table raises
    HashMismatch."""
    path = out / "manifest.json"
    if not path.exists():
        return {"stages": {}, "metadata": {"timestamps": {}}}
    try:
        manifest = json.loads(path.read_text())
        if not (isinstance(manifest["stages"], dict)
                and isinstance(manifest["metadata"]["timestamps"], dict)):
            raise ValueError("stages or timestamps are not a table")
    except (ValueError, TypeError, KeyError) as exc:
        raise HashMismatch(
            f"{path} is not a readable manifest ({exc}): delete it and rerun every stage from fit"
        ) from exc
    return manifest


def _save_npz(path: Path, **arrays) -> None:
    """One uncompressed npz of ``arrays``, written whole or not at all."""
    # a file handle keeps np.savez from appending .npz to the temporary name
    with _atomic(path) as tmp, open(tmp, "wb") as fh:
        np.savez(fh, **arrays)


def _npy_shape(npz, name: str) -> tuple:
    """Shape of an npz member, read from its header alone (np.save writes
    a version 1.0 header for a float array)."""
    with npz.zip.open(name + ".npy") as fh:
        np.lib.format.read_magic(fh)
        return np.lib.format.read_array_header_1_0(fh)[0]


def _load_npz(path: Path, stage: str, want: dict, load) -> dict:
    """The members ``load`` of the npz that ``stage`` wrote at ``path``, read
    whole.  ``want`` names every member the file must hold: a tuple is the
    shape of the member's header, None matching any length, anything else the
    config's value, which the member must equal.  A missing file raises
    MissingArtifact; an unreadable file, another set of members, a member off
    its shape or value, or a NaN or -inf in a member read raises
    HashMismatch."""
    if not path.exists():
        raise MissingArtifact(f"missing artifact: {path}: run the {stage} stage")

    def stale(why: str) -> HashMismatch:
        return HashMismatch(f"{path}: {why}: rerun {stage}")

    try:
        with np.load(path) as npz:
            odd = sorted(set(want) ^ set(npz.files))
            if odd:
                raise stale(f"{'missing' if odd[0] in want else 'unexpected'} member {odd[0]}")
            for name, spec in want.items():
                if isinstance(spec, tuple):
                    got = _npy_shape(npz, name)
                    if len(got) != len(spec) or any(w not in (g, None) for g, w in zip(got, spec)):
                        raise stale(f"{name} has shape {got}, not {spec}")
                elif not np.array_equal(npz[name], spec):
                    raise stale(f"{name} differs from the config's")
            arrays = {name: npz[name] for name in load}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise stale(f"cannot be read ({exc})") from exc
    for name, a in arrays.items():
        fault = value_fault(a)
        if fault:
            raise stale(f"{name} holds {fault}")
    return arrays


def _open_stage(out: Path, cfg: RunConfig, stage: str) -> dict:
    """Check ``stage``'s upstream records in pipeline order: a missing one
    raises MissingArtifact, the first built from other inputs HashMismatch.
    A record from other inputs of the stage itself is dropped with its files,
    so a failed or partial run leaves none that look valid.  Returns the
    inputs the new record will hold."""
    manifest = load_manifest(out)
    stages = manifest["stages"]
    for up in UPSTREAM[stage]:
        if up not in stages:
            raise MissingArtifact(f"{up} artifacts missing: run the {up} stage first")
        want, have = cfg.inputs(up), stages[up].get("inputs", {})
        for key in want:
            if key not in have or have[key] != want[key]:
                raise HashMismatch(
                    f"the {up} artifacts in {out} were built with {key} = {have.get(key)!r},"
                    f" not {want[key]!r}: rerun {up}"
                )
    inputs = cfg.inputs(stage)
    if stages.get(stage, {}).get("inputs") != inputs:
        if stages.pop(stage, None) is not None:
            manifest["metadata"]["timestamps"].pop(stage, None)
            _dump_json(manifest, out / "manifest.json", indent=1)
        patterns = OUTPUTS[stage] + OLD_OUTPUTS.get(stage, ())
        for path in [p for pattern in patterns for p in out.glob(pattern)]:
            path.unlink()
    return inputs


def _close_stage(out: Path, stage: str, inputs: dict, info: dict, t0: float) -> dict:
    """Record a stage begun at perf_counter ``t0``, its artifacts in place,
    in place of any earlier record of it.  Returns ``info``."""
    manifest = load_manifest(out)
    seconds = round(time.perf_counter() - t0, 3)
    manifest["stages"][stage] = {**info, "inputs": inputs, "seconds": seconds}
    manifest["metadata"]["timestamps"][stage] = time.strftime("%Y-%m-%dT%H:%M:%S")
    _dump_json(manifest, out / "manifest.json", indent=1)
    return info


def stage_fit(cfg: RunConfig, out: Path) -> dict:
    """Fit per (class, slot) netload laws and daily battery price laws into
    ``laws.npz``: the (D+1, atoms) price :class:`~twoscale.core.LawTable` as
    ``price_{support,probs}``, and per class its (n_slots, atoms) netload
    table as ``netload_{support,probs}_<cls>``.  Inputs that cannot be fitted
    are a ConfigError, raised before anything is written."""
    t0 = time.perf_counter()
    inputs = _open_stage(out, cfg, "fit")
    n_days = cfg.D + 1
    try:
        if cfg.netload_csv:
            netload = load_netload_csv(cfg.netload_csv, cfg.n_slots)
            if netload.shape[1] < n_days:
                raise ValueError(f"{cfg.netload_csv}: {netload.shape[1]} days, not D+1 = {n_days}")
        else:
            netload = synthetic_netload_scenarios(
                cfg.fit_scenarios, n_days, cfg.n_slots, cfg.seed, base_kw=cfg.netload_base_kw
            )
        t_laws = time.perf_counter()
        laws, steps = fit_netload_distributions(netload[:, :n_days], cfg.classmap, cfg.fit_k)
        laws_s = round(time.perf_counter() - t_laws, 3)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad input data: {exc}") from exc
    price_laws = battery_price_laws(
        cfg.price_forecast, cfg.price_sigma, n_days, cfg.price_floor, cfg.price_atoms
    )
    arrays = {"price_support": price_laws.support, "price_probs": price_laws.probs}
    for cls, table in laws.items():
        arrays |= {f"netload_support_{cls}": table.support, f"netload_probs_{cls}": table.probs}
    out.mkdir(parents=True, exist_ok=True)
    _save_npz(out / "laws.npz", **arrays)
    info = {"classes": sorted(laws), "k": cfg.fit_k, "laws_s": laws_s, "lloyd_iterations": steps}
    return _close_stage(out, "fit", inputs, info, t0)


def _load_fit(cfg: RunConfig, out: Path):
    """The fitted netload laws by class, each an (n_slots, atoms)
    :class:`~twoscale.core.LawTable`, and the daily battery price laws as one
    (D+1, atoms) table.  A table that does not hold valid laws raises
    HashMismatch."""
    classes = np.unique(cfg.classmap).tolist()
    want = {"price_support": (cfg.D + 1, None), "price_probs": (cfg.D + 1, None)}
    for cls in classes:
        want[f"netload_support_{cls}"] = want[f"netload_probs_{cls}"] = (cfg.n_slots, None)
    arrays = _load_npz(out / "laws.npz", "fit", want, want)
    try:
        prices = LawTable(arrays["price_support"], arrays["price_probs"])
        laws = {
            cls: LawTable(arrays[f"netload_support_{cls}"], arrays[f"netload_probs_{cls}"])
            for cls in classes
        }
    except ValueError as exc:
        raise HashMismatch(f"the fit laws in {out} are not valid laws ({exc}): rerun fit") from exc
    return laws, prices


def _cell_job(args):
    """One intraday cell, the shares of its controls kept and of its values
    computed, and its wall time."""
    t0 = time.perf_counter()
    cell, live, columns = _fast_cell(*args)
    return cell, live, columns, time.perf_counter() - t0


def stage_intraday(cfg: RunConfig, out: Path) -> dict:
    """Compute per-class resource and price intraday tables (parallel cells);
    writes ``intraday_{R,P}.npz``, one per decomposition: the axes ``c`` and
    ``axis``, ``n_controls``, and per class ``table_<cls>`` and ``fast_<cls>``.
    The record holds per decomposition letter the summed wall time of its
    cells (``cell_s``), the share of +inf entries in its day tables
    (``inf_share``), the share of (cell, control) rows the fast DP kept
    (``live_controls``) and the share of (cell, slot, axis point) values it
    computed rather than copied from a saturated axis point
    (``budget_columns``)."""
    t0 = time.perf_counter()
    inputs = _open_stage(out, cfg, "intraday")
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
        # a fork pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(cfg.threads, len(jobs))) as pool:
            done = list(pool.map(_cell_job, jobs.values(), chunksize=1))
    else:
        done = [_cell_job(j) for j in jobs.values()]
    cells = dict(zip(jobs, (cell for cell, *_ in done)))
    info = {
        "cells": len(jobs), "threads": cfg.threads, "cell_s": {}, "inf_share": {},
        "live_controls": {}, "budget_columns": {},
    }
    for dec in DECOMPOSITIONS:
        mine = [rest for key, (_, *rest) in zip(jobs, done) if key[0] == dec]
        live, columns, dt = zip(*mine)
        info["cell_s"][dec.letter] = round(sum(dt), 3)
        # every cell has n_controls rows and n_slots x n_axis values, so the
        # mean shares are the pooled ones
        info["live_controls"][dec.letter] = sum(live) / len(mine)
        info["budget_columns"][dec.letter] = sum(columns) / len(mine)
        arrays = {"c": c_grid, "axis": axes[dec], "n_controls": cfg.n_controls}
        for cls in classes:
            tab = compute_intraday(
                dec, bat, laws[cls], c_grid, axes[dec], cfg.n_soc, cfg.n_controls,
                fast=np.stack([cells.pop((dec, cls, c)) for c in c_grid[1:]]),
            )
            arrays[f"table_{cls}"], arrays[f"fast_{cls}"] = tab.table.values, tab.fast
        days = [arrays[f"table_{cls}"] for cls in classes]
        inf = sum(int(np.isposinf(t).sum()) for t in days)
        info["inf_share"][dec.letter] = inf / sum(t.size for t in days)
        _save_npz(out / f"intraday_{dec.letter}.npz", **arrays)
    return _close_stage(out, "intraday", inputs, info, t0)


def _load_tables(cfg: RunConfig, out: Path, dec, with_fast: bool = False) -> dict:
    """One decomposition's intraday tables by class, with the control count
    they were built on; the replay tables only ``with_fast``."""
    c_grid, axis = cfg.c_grid(), cfg.dh_grid() if dec.budget_axis else cfg.pi_grid()
    classes = np.unique(cfg.classmap).tolist()
    want = {"c": c_grid, "axis": axis, "n_controls": cfg.n_controls}
    for cls in classes:
        want[f"table_{cls}"] = (len(c_grid), len(axis))
        want[f"fast_{cls}"] = (len(c_grid) - 1, cfg.n_slots + 1, cfg.n_soc, len(axis))
    kinds = ("table", "fast") if with_fast else ("table",)
    load = [f"{kind}_{cls}" for kind in kinds for cls in classes]
    arrays = _load_npz(out / f"intraday_{dec.letter}.npz", "intraday", want, load)
    return {
        cls: IntradayTable(
            dec, GridValueFn(Grid([c_grid, axis]), arrays[f"table_{cls}"]), cfg.n_controls,
            arrays.get(f"fast_{cls}"),
        )
        for cls in classes
    }


def stage_bellman(cfg: RunConfig, out: Path) -> dict:
    """Backward slow-scale recursions; writes one value-function file per
    decomposition, ``bellman_{R,P}.npz``: the health and capacity axes ``h``
    and ``c`` and the values of every day, shape (D+2, len(h), len(c)).  The
    record holds the days recursed, each recursion's wall time and, for the
    resource recursion, the (c, h, dh) triples its objective evaluates per
    day, averaged over the days, and their share of the c x h x dh grid."""
    t0 = time.perf_counter()
    inputs = _open_stage(out, cfg, "bellman")
    _, price_laws = _load_fit(cfg, out)
    bat = cfg.battery_config()
    h_grid, c_grid = cfg.h_grid(), cfg.c_grid()
    recursions = {PRICE: price_bellman_recursion, RESOURCE: resource_bellman_recursion}
    info = {"days": cfg.D + 1}
    for dec in DECOMPOSITIONS:
        tables = _load_tables(cfg, out, dec)
        t_rec = time.perf_counter()
        seq = recursions[dec](tables, cfg.classmap, price_laws, bat, h_grid, c_grid, cfg.D)
        info[f"{dec.mode}_recursion_s"] = round(time.perf_counter() - t_rec, 3)
        if dec.budget_axis:
            # a class's dominated budgets depend on its table: count per class
            triples = {
                cls: len(DayObjective(tab, h_grid, h_grid, FEAS_TOL).ai)
                for cls, tab in tables.items()
            }
            per_day = sum(map(triples.get, cfg.classmap.tolist())) / (cfg.D + 1)
            grid = len(c_grid) * len(h_grid) * len(cfg.dh_grid())
            info["resource_pairs"] = {"per_day": round(per_day, 1), "share": round(per_day / grid, 4)}
        _save_npz(out / f"bellman_{dec.letter}.npz", h=h_grid, c=c_grid, values=seq.values)
        bound = "upper" if dec.budget_axis else "lower"
        info[f"{bound}_at_origin"] = float(seq.values[0, 0, 0])
    return _close_stage(out, "bellman", inputs, info, t0)


def load_value_seq(cfg: RunConfig, out: Path, kind: str) -> SlowValueSeq:
    """One decomposition's value functions, every day on the config's grid."""
    h_grid, c_grid = cfg.h_grid(), cfg.c_grid()
    want = {"h": h_grid, "c": c_grid, "values": (cfg.D + 2, len(h_grid), len(c_grid))}
    path = out / f"bellman_{decomposition(kind).letter}.npz"
    values = _load_npz(path, "bellman", want, ["values"])["values"]
    return SlowValueSeq(kind, Grid([h_grid, c_grid]), values)


def stage_simulate(cfg: RunConfig, out: Path) -> dict:
    """White-noise Monte Carlo replay of the synthesized policies, both modes
    in one :func:`~twoscale.policy.simulate_policies` call.  The record holds
    the wall times of the scenario draw (``resample_s``) and of the replay
    (``replay_s``), and per mode the mean, stderr, scenario-days, clamps,
    renewals per scenario-year, the slots that fell back from an all-+inf
    table row (inf_fallbacks), the scenario-days whose renewal read +inf for
    keeping the battery (inf_keeps), the share of battery-days that start with
    soc > 0 (soc_carry_share) and the mean's stderrs above the lower and
    the upper bound at the origin, read off ``bellman_P.npz`` (z_lower) and
    ``bellman_R.npz`` (z_upper); and the mean and stderr of the per-scenario
    price minus resource total cost (paired); and the cheaper mean's gap
    over the lower bound at the origin, relative as the report's gaps are
    (best_policy_gap).  Returns the entries by mode."""
    t0 = time.perf_counter()
    inputs = _open_stage(out, cfg, "simulate")
    laws, price_laws = _load_fit(cfg, out)
    bat = cfg.battery_config()
    t_draw = time.perf_counter()
    scen = white_noise_resample(laws, price_laws, cfg.classmap, cfg.scenarios, cfg.seed, cfg.D + 1)
    info = {"resample_s": round(time.perf_counter() - t_draw, 3)}
    runs = {
        dec.mode: (_load_tables(cfg, out, dec, with_fast=True), load_value_seq(cfg, out, dec.kind))
        for dec in DECOMPOSITIONS
    }
    lower = float(runs[PRICE.mode][1].values[0, 0, 0])
    upper = float(runs[RESOURCE.mode][1].values[0, 0, 0])
    t_replay = time.perf_counter()
    results = simulate_policies(scen, runs, price_laws, cfg.classmap, bat)
    info["replay_s"] = round(time.perf_counter() - t_replay, 3)
    for m, (records, stats) in results.items():
        with _atomic(out / f"sim_{m}.csv") as tmp, open(tmp, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["scenario_id", "total_cost", "renewal_days", "renewal_sizes"])
            for rec in records:
                days = ";".join(str(d) for d, _ in rec.renewals)
                sizes = ";".join(repr(r) for _, r in rec.renewals)
                wr.writerow([rec.scenario_id, repr(rec.total_cost), days, sizes])
        info[m] = {"mean": stats.mean, "stderr": stats.stderr}
        clamps = [rec.clamp_count for rec in records]
        _dump_json(
            {**info[m], "mode": m, "scenarios": cfg.scenarios, "clamp_counts": clamps},
            out / f"sim_{m}_stats.json",
        )
        scen_days = len(records) * (cfg.D + 1)
        renewals = sum(len(rec.renewals) for rec in records)
        # (soc, capacity) at the start of every scenario-day
        starts = np.stack([rec.states[:-1, ::2] for rec in records])
        owned = starts[..., 1] > 0.0
        carried = int(np.count_nonzero(owned & (starts[..., 0] > 0.0)))
        info[m].update(
            scenario_days=scen_days, clamps=sum(clamps),
            renewals_per_scenario_year=renewals / (scen_days / 365.0),
            inf_fallbacks=sum(rec.inf_fallbacks for rec in records),
            inf_keeps=sum(rec.inf_keeps for rec in records),
            soc_carry_share=carried / max(int(np.count_nonzero(owned)), 1),
        )
        if stats.stderr > 0.0:
            info[m]["z_lower"] = (stats.mean - lower) / stats.stderr
            info[m]["z_upper"] = (stats.mean - upper) / stats.stderr
    # the price policy's cost minus the resource policy's, scenario by scenario
    diff = np.array([
        a.total_cost - b.total_cost
        for a, b in zip(results[PRICE.mode][0], results[RESOURCE.mode][0])
    ])
    info["paired"] = dataclasses.asdict(SimulationStats.of(diff))
    # relative as the report's gaps are: over max(|lower|, 1e-9)
    best = min(info[m]["mean"] for m in results)
    info["best_policy_gap"] = (best - lower) / max(abs(lower), 1e-9)
    _close_stage(out, "simulate", inputs, info, t0)
    return {m: info[m] for m in results}


def stage_report(cfg: RunConfig, out: Path) -> dict:
    """Bound-gap report between the price (lower) and resource (upper) values;
    ``report.json`` holds the summary, the record also the grid points left
    out of max_rel_gap, where the upper bound alone is +inf
    (``max_gap_excluded``), and the check's wall time."""
    t0 = time.perf_counter()
    inputs = _open_stage(out, cfg, "report")
    lower = load_value_seq(cfg, out, "price-lower")
    upper = load_value_seq(cfg, out, "resource-upper")
    x0 = np.array([0.0, 0.0])
    t_check = time.perf_counter()
    rep = check_sandwich(lower, upper, x0)
    check_s = round(time.perf_counter() - t_check, 3)
    rows = np.column_stack(
        (rep.max_rel_gap, rep.gap_at_x0, rep.lower_at_x0, rep.upper_at_x0)
    ).tolist()
    # csv.writer's bytes: no field needs quoting, and each line ends in \r\n
    lines = ["day,max_rel_gap,gap_at_x0,lower_at_x0,upper_at_x0"]
    lines += [",".join([str(d), *map(repr, row)]) for d, row in enumerate(rows)]
    with _atomic(out / "gaps.csv") as tmp:
        tmp.write_text("\r\n".join(lines) + "\r\n", newline="")
    summary = {
        "lower_at_x0_day0": rep.lower_at_x0[0],
        "upper_at_x0_day0": rep.upper_at_x0[0],
        "gap_at_x0_day0": rep.gap_at_x0[0],
        "max_rel_gap": float(np.max(rep.max_rel_gap)),
        "violations": rep.violations,
    }
    _dump_json(summary, out / "report.json")
    info = {**summary, "max_gap_excluded": rep.max_gap_excluded, "check_sandwich_s": check_s}
    return _close_stage(out, "report", inputs, info, t0)
