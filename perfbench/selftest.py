#!/usr/bin/env python3
"""Self-test of the benchmark on the tiny pipeline config of acceptance
criterion 10; takes seconds::

    python3 perfbench/selftest.py

It runs every workload's stage split on the tiny config, untraced and traced,
and checks that each metric listed in BENCHMARK.json is printed with its unit
and that the result line is well formed; then it injects a failing output
check and checks that the failure is counted.  Exits 1 on the first problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

TINY = dict(
    D=30, n_slots=12, n_classes=1, c_step=100.0, c_max=200.0, dh_points=5,
    dh_cap=400.0, pi_values=[0.0, 0.1], n_soc=9, n_controls=5, h_points=9,
    price_atoms=3, fit_scenarios=3, fit_k=3, scenarios=5,
)
SEED = 11


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(SEED),
                         "--seconds", "0.5", "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    if code != 0:
        raise AssertionError(f"{workload} trace {trace}: exit code {code}")
    return lines, json.loads(lines[-1])


def check_metrics(lines, result, declared, what):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    if result["attempted"] < 1:
        raise AssertionError(f"{what}: nothing attempted")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"{what}: metrics {got} differ from BENCHMARK.json {want}")
    for name, unit in want.items():
        if not any(l.startswith(name + " ") and l.endswith(" " + unit) for l in lines):
            raise AssertionError(f"{what}: {name} not printed with unit {unit}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from run.WORKLOADS")
    run.WORKLOADS = {
        name: run.Workload(None, TINY, wl.setup, wl.timed) for name, wl in run.WORKLOADS.items()
    }
    # reference.json holds the full-size workloads; the tiny config has none.
    run.load_reference = lambda workload, seed: None
    run.SETUP_SECONDS = 0.0
    for workload in sorted(run.WORKLOADS):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            what = f"{workload} trace {trace}"
            lines, result = bench(workload, trace)
            check_metrics(lines, result, declared, what)
            if result["failed"] or not result["correct"]:
                raise AssertionError(f"{what}: {result['failed']} operations failed")
            print(f"ok {what}: 0 of {result['attempted']} operations failed")

    run.load_reference = lambda workload, seed: {"lower_at_x0_day0": -1.0}
    _, broken = bench("desk-tables", 0)
    if broken["failed"] == 0 or broken["correct"]:
        raise AssertionError(f"injected failing check not counted: {broken}")
    print(f"ok injected check: {broken['failed']} of {broken['attempted']} operations failed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"selftest failed: {exc}", file=sys.stderr)
        sys.exit(1)
