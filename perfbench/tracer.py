"""Span tracer for the benchmark's traced runs.

Wraps public functions of each twoscale module (layer) in the namespace where
their callers look them up, keeps one span per call in memory (name, parent
span, start, end, plus counts taken from the arguments or the result) and
turns the spans into the per-layer metrics.  Nothing under src/ changes: the
wrappers exist only inside a ``with tracer.installed():`` block, which puts
the original functions back when it ends.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

STAGES = ("fit", "intraday", "bellman", "simulate", "report")


def _days(args, seq):
    return {"days": len(seq.days) - 1}


def _violations(args, report):
    return {"violations": report.violations}


def _replay(args, result):
    records, _ = result
    scen = args["scenarios"]
    n_days = args["values"].horizon + 1
    return {
        "mode": args["mode"],
        "scenario_days": scen.n_scenarios * n_days,
        "scenario_years": scen.n_scenarios * n_days / 365.0,
        "clamps": sum(r.clamp_count for r in records),
        "renewals": sum(len(r.renewals) for r in records),
    }


class Tracer:
    def __init__(self, cfg):
        self.pi_grid = cfg.pi_grid()
        self.dh_grid = cfg.dh_grid()
        self.spans: list[dict] = []
        self._open: list[int] = []

    def _cell(self, args, sol):
        """Decomposition of an intraday cell, read off its day axis, and the
        +inf entries of its day-start row (soc = 0), which is its column or
        row of the day table."""
        axis = args["model"].terminal_grid.axes[-1]
        if np.array_equal(axis, self.pi_grid):
            kind = "P"
        elif np.array_equal(axis, self.dh_grid):
            kind = "R"
        else:
            kind = "other"
        row = sol.values[0].values[0]
        return {"kind": kind, "inf": int(np.isposinf(row).sum()), "entries": int(row.size)}

    def _targets(self):
        """(owner, attribute, span name, attrs from (bound args, result))."""
        from twoscale import intraday, pipeline, policy
        from twoscale.core import GridValueFn

        stages = [(pipeline, f"stage_{s}", f"pipeline.{s}", None) for s in STAGES]
        return stages + [
            (pipeline, "fit_netload_distributions", "battery.fit_laws", None),
            (pipeline, "battery_price_laws", "battery.price_laws", None),
            (pipeline, "white_noise_resample", "battery.resample", None),
            (intraday, "solve_fast_dp", "intraday.cell", self._cell),
            (pipeline, "resource_bellman_recursion", "slowscale.resource_recursion", _days),
            (pipeline, "price_bellman_recursion", "slowscale.price_recursion", _days),
            (pipeline, "check_sandwich", "slowscale.check_sandwich", _violations),
            (pipeline, "simulate_policy", "policy.simulate", _replay),
            (policy, "select_price", "policy.select", None),
            (policy, "select_resource", "policy.select", None),
            (GridValueFn, "eval_many", "core.eval_many", None),
            (GridValueFn, "save_json", "core.save_json", None),
            (GridValueFn, "load_json", "core.load_json", None),
        ]

    def _wrap(self, name, fn, attrs):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else None
            self._open.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[sid] = {"name": name, "parent": parent, "start": start, "end": end}
            if attrs is not None:
                bound = signature.bind(*args, **kwargs).arguments
                self.spans[sid].update(attrs(bound, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, attrs in self._targets():
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self._wrap(name, raw.__func__, attrs))
                else:
                    wrapper = self._wrap(name, raw, attrs)
                saved.append((owner, attr, raw))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def metrics(self) -> tuple[dict, dict]:
        """Per-layer metrics over every span recorded, with their units."""
        by_name = defaultdict(list)
        for span in self.spans:
            by_name[span["name"]].append(span)

        def busy(spans):
            return sum(s["end"] - s["start"] for s in spans)

        def total(name, key):
            return sum(s[key] for s in by_name[name])

        values, units = {}, {}

        def put(name, value, unit):
            values[name], units[name] = value, unit

        for stage in STAGES:
            put(f"pipeline.{stage}_s", busy(by_name[f"pipeline.{stage}"]), "s")
        put("battery.fit_laws_s", busy(by_name["battery.fit_laws"]), "s")
        put("battery.price_laws_s", busy(by_name["battery.price_laws"]), "s")
        put("battery.resample_s", busy(by_name["battery.resample"]), "s")

        cells = by_name["intraday.cell"]
        put("intraday.cells", len(cells), "count")
        for kind in ("R", "P"):
            mine = [s for s in cells if s["kind"] == kind]
            put(f"intraday.{kind}_cell_s", busy(mine) / len(mine) if mine else 0.0, "s")
        entries = total("intraday.cell", "entries")
        put("intraday.inf_share", total("intraday.cell", "inf") / entries if entries else 0.0,
            "ratio")

        for op in ("eval_many", "save_json", "load_json"):
            put(f"core.{op}_calls", len(by_name[f"core.{op}"]), "count")
            put(f"core.{op}_s", busy(by_name[f"core.{op}"]), "s")

        put("slowscale.days", total("slowscale.resource_recursion", "days")
            + total("slowscale.price_recursion", "days"), "count")
        put("slowscale.resource_recursion_s", busy(by_name["slowscale.resource_recursion"]), "s")
        put("slowscale.price_recursion_s", busy(by_name["slowscale.price_recursion"]), "s")
        put("slowscale.check_sandwich_s", busy(by_name["slowscale.check_sandwich"]), "s")
        put("slowscale.violations", total("slowscale.check_sandwich", "violations"), "count")

        sims = by_name["policy.simulate"]
        put("policy.scenario_days", total("policy.simulate", "scenario_days"), "count")
        for mode in ("price", "resource"):
            put(f"policy.{mode}_sim_s", busy(s for s in sims if s["mode"] == mode), "s")
        put("policy.select_calls", len(by_name["policy.select"]), "count")
        put("policy.clamp_count", total("policy.simulate", "clamps"), "count")
        for mode in ("price", "resource"):
            mine = [s for s in sims if s["mode"] == mode]
            years = sum(s["scenario_years"] for s in mine)
            renewals = sum(s["renewals"] for s in mine)
            put(f"policy.renewals_per_scenario_year.{mode}", renewals / years if years else 0.0,
                "1/yr")
        return values, units
