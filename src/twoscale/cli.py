"""Command-line entry points for the batch pipeline.

Stages: fit -> intraday -> bellman -> simulate -> report, plus the standalone
verify (oracle cross-checks) and complexity (operation-count calculator).
Each stage records in manifest.json the config values it was built from and
refuses to run on an upstream record built from other values.
Exit codes: 0 success, 2 config error (including a stale upstream record,
named with the stage to rerun and the first key that differs), 3 missing
dependency, 4 verification failure.
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


def _common(func):
    func = click.option("--config", "config_path", type=click.Path(exists=False), default=None)(func)
    func = click.option("--out", type=click.Path(), default="runs/default")(func)
    func = click.option("--seed", type=int, default=None)(func)
    func = click.option("--threads", type=int, default=None)(func)
    func = click.option("--scenarios", type=int, default=None)(func)
    return func


def _run_stage(stage_fn, config_path, out, seed, threads, scenarios):
    given = {"seed": seed, "threads": threads, "scenarios": scenarios}
    try:
        cfg = RunConfig.from_json(config_path) if config_path else RunConfig()
        cfg = dataclasses.replace(cfg, **{k: v for k, v in given.items() if v is not None})
        info = stage_fn(cfg, Path(out))
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except (pipeline.MissingArtifact, pipeline.HashMismatch) as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_MISSING if isinstance(exc, pipeline.MissingArtifact) else EXIT_CONFIG)
    # strict JSON, an infinite float spelled as in the stage's files
    click.echo(json.dumps(pipeline._strict(info), sort_keys=True, allow_nan=False))


@click.group()
def main():
    """Two-time-scale stochastic optimization pipeline."""


STAGE_HELP = {
    "fit": "Fit netload and battery-price distributions.",
    "intraday": "Compute per-class daily cost tables.",
    "bellman": "Run the slow-scale bound recursions.",
    "simulate": "Monte Carlo policy simulation on white-noise scenarios.",
    "report": "Emit the bound-gap report.",
}


def _add_stage_command(name: str):
    def command(**opts):
        # looked up at call time, so a wrapper put on pipeline applies
        _run_stage(getattr(pipeline, f"stage_{name}"), **opts)

    main.command(name=name, help=STAGE_HELP[name])(_common(command))


for _name in STAGE_HELP:
    _add_stage_command(_name)


@main.command()
@click.option("--instances", type=click.IntRange(min=1), default=50)
@click.option("--seed", type=int, default=0)
def verify(instances, seed):
    """Cross-check the solvers against brute-force oracles."""
    results = run_verification(instances, seed)
    for name, passed, detail in results:
        click.echo(f"[{'PASS' if passed else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    if not all(passed for _, passed, _ in results):
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
