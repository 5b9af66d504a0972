#!/usr/bin/env python3
"""Benchmark of the twoscale batch pipeline on three desk-scale workloads.

Each run builds its inputs from ``--seed``, calls the public
``twoscale.pipeline.stage_*`` functions in this process (one ``RunConfig``
per run, ``threads`` = 1), checks the outputs of every repetition and prints
one JSON result as the last line of standard output::

    python3 perfbench/run.py --workload desk-tables --seed 1234 --seconds 20 --trace 0

A workload splits its stages into set-up stages and timed stages.  The
set-up stages run into fresh output directories at least SETUP_REPS times
and for at least SETUP_SECONDS; their median wall time is ``setup_s``.  The
timed stages run on fresh copies of the set-up output for ``--seconds``
seconds; their median wall time is ``solve_s``.

``--trace 1`` is a separate run that reports per-layer metrics instead: it
runs the set-up stages once and the timed stages once untraced and once under
the span tracer of ``tracer.py``; the difference of the two timed runs is the
tracing overhead.

Work directories live under ``.perfbench_runs/`` at the checkout root and are
removed when the run ends; the result file (metrics plus host facts) and, for
traced runs, the span file stay there.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"
REFERENCE = HERE / "reference.json"

SETUP_REPS = 3
SETUP_SECONDS = 4.0
REL_TOL = 1e-9
REPORT_KEYS = (
    "lower_at_x0_day0",
    "upper_at_x0_day0",
    "gap_at_x0_day0",
    "max_rel_gap",
    "violations",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "origin_gap": "ratio",
}


@dataclass(frozen=True)
class Workload:
    """Config (a file under the checkout root, or RunConfig defaults, plus
    overrides) and the split of the pipeline stages it runs."""

    base: str | None
    overrides: dict
    setup: tuple
    timed: tuple

    def config(self, seed: int):
        from twoscale.config import RunConfig

        obj = json.loads((ROOT / self.base).read_text()) if self.base else {}
        obj.update(self.overrides)
        obj.update(seed=seed, threads=1)
        return RunConfig.from_dict(obj)


# The instances are cut down from the desk scale (15 capacities, 4 classes,
# 100 scenarios) so that one repetition takes a few seconds and a run holds
# several: each keeps the per-cell shape of the desk instance (48 slots,
# 51 SOC points, 21 controls, 10 netload atoms) and the layer that dominates it.
WORKLOADS = {
    # Intraday cells dominate solve_s; simulate does not run.
    "desk-tables": Workload(
        base="configs/desk.json",
        overrides={"n_classes": 1, "c_max": 200.0},
        setup=("fit",),
        timed=("intraday", "bellman", "report"),
    ),
    # Monte Carlo replay of both policies dominates solve_s; the intraday
    # work is that of desk-tables but counts in setup_s.
    "replay": Workload(
        base="configs/desk.json",
        overrides={"n_classes": 1, "c_max": 200.0, "D": 59, "scenarios": 16},
        setup=("fit", "intraday", "bellman"),
        timed=("simulate", "report"),
    ),
    # Horizon-proportional work: 2 x 3285 daily value functions written by
    # bellman and read back by report.
    "decade": Workload(
        base=None,
        overrides={"D": 3284, "n_classes": 1, "c_max": 200.0, "fit_scenarios": 1},
        setup=("fit", "intraday"),
        timed=("bellman", "report"),
    ),
}


@dataclass
class Tally:
    """Operations attempted and failed: stage calls plus output checks."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
            print(f"check failed: {message}", file=sys.stderr)


class BenchError(RuntimeError):
    pass


def load_program():
    """Import twoscale from this checkout's src/ (never from elsewhere)."""
    if not (SRC / "twoscale" / "__init__.py").is_file():
        raise BenchError(f"no twoscale package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from twoscale import pipeline

    if Path(pipeline.__file__).resolve().parent != SRC / "twoscale":
        raise BenchError(f"twoscale was imported from {pipeline.__file__}, not {SRC}")
    return pipeline


def run_stages(pipeline, cfg, out: Path, stages, tally: Tally):
    """Run ``stages`` in order into ``out``.  Returns (wall seconds, stage
    results), or None when a stage raised; the failure is counted."""
    results = {}
    t0 = time.perf_counter()
    for name in stages:
        tally.attempted += 1
        try:
            results[name] = getattr(pipeline, "stage_" + name)(cfg, out)
        except Exception:
            # A failing stage is an operation failure to report, not a crash.
            tally.failed += 1
            tally.messages.append(f"stage {name} raised")
            traceback.print_exc()
            return None
    return time.perf_counter() - t0, results


def outcome(out: Path, results: dict) -> dict:
    """The numbers a run is checked on: report.json and the simulate stats."""
    report = json.loads((out / "report.json").read_text())
    nums = {key: float(report[key]) for key in REPORT_KEYS}
    for mode, stats in sorted(results.get("simulate", {}).items()):
        nums[f"sim_{mode}_mean"] = float(stats["mean"])
        nums[f"sim_{mode}_stderr"] = float(stats["stderr"])
    return nums


def check_outcome(nums: dict, expected: dict | None, first: dict | None, tally: Tally):
    lower, upper = nums["lower_at_x0_day0"], nums["upper_at_x0_day0"]
    tally.check(nums["violations"] == 0, f"{nums['violations']:.0f} sandwich violations")
    tally.check(0.0 < lower <= upper, f"origin bounds out of order: {lower} vs {upper}")
    for mode in ("price", "resource"):
        if f"sim_{mode}_mean" in nums:
            mean, stderr = nums[f"sim_{mode}_mean"], nums[f"sim_{mode}_stderr"]
            tally.check(
                mean >= lower - 3.0 * stderr,
                f"{mode} policy mean {mean} below lower bound {lower} - 3 x {stderr}",
            )
    for key, want in (expected or {}).items():
        got = nums.get(key)
        tally.check(
            got is not None and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0),
            f"{key} = {got}, reference {want}",
        )
    if first is not None:
        tally.check(nums == first, "outputs differ between repetitions of one seed")


def tree_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def timed_rep(pipeline, cfg, wl: Workload, template: Path, out: Path, tally, expected, first):
    """One repetition of the timed stages on a fresh copy of the set-up
    output.  Returns (seconds, checked numbers, file count, bytes) or None."""
    shutil.copytree(template, out)
    gc.collect()
    try:
        run = run_stages(pipeline, cfg, out, wl.timed, tally)
        if run is None:
            return None
        seconds, results = run
        nums = outcome(out, results)
        check_outcome(nums, expected, first, tally)
        return (seconds, nums) + tree_size(out)
    finally:
        shutil.rmtree(out)


def setup_reps(pipeline, cfg, wl: Workload, work: Path, reps: int, min_seconds: float, tally):
    """Run the set-up stages into fresh directories, at least ``reps`` times
    and for at least ``min_seconds``.  Returns the wall times and the output
    of the last repetition that succeeded."""
    times, template = [], None
    start = time.perf_counter()
    i = 0
    while i < reps or time.perf_counter() - start < min_seconds:
        out = work / f"setup{i}"
        run = run_stages(pipeline, cfg, out, wl.setup, tally)
        if run is not None:
            times.append(run[0])
            if template is not None:
                shutil.rmtree(template)
            template = out
        i += 1
    if template is None:
        raise BenchError("no set-up repetition succeeded")
    return times, template


def measure(pipeline, wl: Workload, cfg, seconds: float, work: Path, tally, expected):
    """Untraced run: end-to-end metrics."""
    setup_times, template = setup_reps(pipeline, cfg, wl, work, SETUP_REPS, SETUP_SECONDS, tally)
    solve_times, first, size, origin_gap = [], None, None, None
    start = time.perf_counter()
    while True:
        rep = timed_rep(pipeline, cfg, wl, template, work / "solve", tally, expected, first)
        if rep is not None:
            t, nums, _, size = rep
            solve_times.append(t)
            first = first or nums
            origin_gap = nums["gap_at_x0_day0"]
        if time.perf_counter() - start >= seconds:
            break
    if not solve_times:
        raise BenchError("no timed repetition succeeded")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "solve_s": statistics.median(solve_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifact_mb": size / 1e6,
        "origin_gap": origin_gap,
    }
    units = dict(END_TO_END_UNITS)
    samples = {"setup_s": setup_times, "solve_s": solve_times}
    return metrics, units, samples, None


def trace(pipeline, wl: Workload, cfg, work: Path, tally, expected):
    """Traced run: per-layer metrics and the tracing overhead."""
    from tracer import Tracer

    tracer = Tracer(cfg)
    with tracer.installed():
        _, template = setup_reps(pipeline, cfg, wl, work, 1, 0.0, tally)
    plain = timed_rep(pipeline, cfg, wl, template, work / "plain", tally, expected, None)
    with tracer.installed():
        traced = timed_rep(pipeline, cfg, wl, template, work / "traced", tally, expected, None)
    if plain is None or traced is None:
        raise BenchError("a timed repetition failed")
    metrics, units = tracer.metrics()
    metrics["pipeline.files_written"], units["pipeline.files_written"] = traced[2], "count"
    metrics["trace.overhead_s"], units["trace.overhead_s"] = traced[0] - plain[0], "s"
    samples = {"untraced_solve_s": [plain[0]], "traced_solve_s": [traced[0]]}
    return metrics, units, samples, tracer.spans


def _read(path) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose is not None:
        return loose.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def host_facts() -> dict:
    import numpy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next(
        (l.split(":", 1)[1].strip() for l in cpuinfo.splitlines() if l.startswith("model name")),
        platform.processor() or None,
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level and kind and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = (_read(index / "size") or "").strip()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def load_reference(workload: str, seed: int) -> dict | None:
    """Values recorded from the seed code for this workload and seed, if any."""
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pipeline = load_program()
        wl = WORKLOADS[args.workload]
        cfg = wl.config(args.seed)
    except (BenchError, ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    host = host_facts()
    expected = load_reference(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    tally = Tally()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f" reference {'yes' if expected else 'none recorded'}", flush=True)
    try:
        if args.trace:
            metrics, units, samples, spans = trace(pipeline, wl, cfg, work, tally, expected)
        else:
            metrics, units, samples, spans = measure(
                pipeline, wl, cfg, args.seconds, work, tally, expected
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, times in samples.items():
        print(f"{name} samples {len(times)}: " + " ".join(f"{t:.4f}" for t in times))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"ops_failed {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted})")
    print("host " + json.dumps(host, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    WORK.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, host=host,
                  samples=samples, failures=tally.messages)
    (WORK / f"result-{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if spans is not None:
        (WORK / f"spans-{tag}.json").write_text(json.dumps({"host": host, "spans": spans}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
