"""Command-line entry points for the batch pipeline.

Stages: fit -> intraday -> bellman -> simulate -> report, plus the standalone
verify (oracle cross-checks) and complexity (operation-count calculator).
Exit codes: 0 success, 2 config error, 3 missing dependency, 4 verification
failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click

from .config import ConfigError, RunConfig
from . import pipeline
from .oracle import complexity_estimate, run_verification

EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_VERIFY = 4


def _load_config(config_path, seed, threads, scenarios) -> RunConfig:
    cfg = RunConfig.from_json(config_path) if config_path else RunConfig()
    given = {"seed": seed, "threads": threads, "scenarios": scenarios}
    overrides = {k: v for k, v in given.items() if v is not None}
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _common(func):
    func = click.option("--config", "config_path", type=click.Path(exists=False), default=None)(func)
    func = click.option("--out", type=click.Path(), default="runs/default")(func)
    func = click.option("--seed", type=int, default=None)(func)
    func = click.option("--threads", type=int, default=None)(func)
    func = click.option("--scenarios", type=int, default=None)(func)
    func = click.option("--force", is_flag=True, default=False)(func)
    return func


def _run_stage(stage_fn, config_path, out, seed, threads, scenarios, force, **kw):
    try:
        cfg = _load_config(config_path, seed, threads, scenarios)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    try:
        info = stage_fn(cfg, Path(out), **kw)
    except pipeline.MissingArtifact as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_MISSING)
    except pipeline.HashMismatch as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_CONFIG)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    click.echo(json.dumps(info, sort_keys=True))


@click.group()
def main():
    """Two-time-scale stochastic optimization pipeline."""


@main.command()
@_common
def fit(config_path, out, seed, threads, scenarios, force):
    """Fit netload and battery-price distributions."""
    _run_stage(lambda cfg, o: pipeline.stage_fit(cfg, o), config_path, out, seed, threads, scenarios, force)


@main.command()
@_common
def intraday(config_path, out, seed, threads, scenarios, force):
    """Compute per-class daily cost tables."""
    _run_stage(
        lambda cfg, o: pipeline.stage_intraday(cfg, o, force=force),
        config_path, out, seed, threads, scenarios, force,
    )


@main.command()
@_common
@click.option("--mode", type=click.Choice(["price", "resource", "both"]), default="both")
def bellman(config_path, out, seed, threads, scenarios, force, mode):
    """Run the slow-scale bound recursions."""
    _run_stage(
        lambda cfg, o: pipeline.stage_bellman(cfg, o, mode=mode, force=force),
        config_path, out, seed, threads, scenarios, force,
    )


@main.command()
@_common
@click.option("--mode", type=click.Choice(["price", "resource", "both"]), default="both")
def simulate(config_path, out, seed, threads, scenarios, force, mode):
    """Monte Carlo policy simulation on white-noise scenarios."""
    _run_stage(
        lambda cfg, o: pipeline.stage_simulate(cfg, o, mode=mode, force=force),
        config_path, out, seed, threads, scenarios, force,
    )


@main.command()
@_common
def report(config_path, out, seed, threads, scenarios, force):
    """Emit the bound-gap report."""
    _run_stage(
        lambda cfg, o: pipeline.stage_report(cfg, o, force=force),
        config_path, out, seed, threads, scenarios, force,
    )


@main.command()
@click.option("--instances", type=int, default=50)
@click.option("--seed", type=int, default=0)
def verify(instances, seed):
    """Cross-check the solvers against brute-force oracles."""
    results = run_verification(instances, seed)
    ok = True
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f" ({detail})"
        click.echo(line)
        ok = ok and passed
    if not ok:
        sys.exit(EXIT_VERIFY)


@main.command()
@click.option("--d", "-D", "D", type=int, required=True)
@click.option("--m", "-M", "M", type=int, required=True)
@click.option("--i", "-I", "I", type=int, required=True)
def complexity(D, M, I):
    """Operation counts and relevance ratios of the decomposed algorithms."""
    try:
        est = complexity_estimate(D, M, I)
    except ValueError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    for key, val in est.items():
        click.echo(f"{key} = {val:.6g}")


if __name__ == "__main__":
    main()
