#!/usr/bin/env python3
"""Record the reference outputs that perfbench/run.py checks its runs against.

Runs every stage of each workload once per seed and stores the report.json
numbers and the simulate means in perfbench/reference.json, merged with the
entries already there.  Record them from a commit whose outputs are trusted;
a later change to the program must reproduce them, within run.REL_TOL::

    python3 perfbench/record_reference.py --seeds 1234 4321
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def record(pipeline, workload: str, seed: int) -> dict:
    wl = run.WORKLOADS[workload]
    cfg = wl.config(seed)
    out = run.WORK / f"record-{workload}-seed{seed}"
    shutil.rmtree(out, ignore_errors=True)
    tally = run.Tally()
    try:
        done = run.run_stages(pipeline, cfg, out, wl.setup + wl.timed, tally)
        if done is None:
            raise run.BenchError(f"{workload} seed {seed}: a stage failed")
        nums = run.outcome(out, done[1])
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {k: v for k, v in nums.items() if not k.endswith("_stderr")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", choices=sorted(run.WORKLOADS),
                    default=sorted(run.WORKLOADS))
    args = ap.parse_args(argv)
    pipeline = run.load_program()
    table = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    for workload in args.workloads:
        for seed in args.seeds:
            table.setdefault(workload, {})[str(seed)] = record(pipeline, workload, seed)
            print(workload, seed, table[workload][str(seed)], flush=True)
            run.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
