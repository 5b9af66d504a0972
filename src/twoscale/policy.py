"""Online policy synthesis and Monte Carlo simulation.

Each day the slow decision (an aging surcharge, or a health target) is the
first argmax (price) or argmin (resource) of the bound recursion's own
:func:`~twoscale.slowscale.day_objective`; the half-hourly controls then
replay the stored intraday value tables, over (soc, axis), greedily against
the realized netloads, and the renewal decision re-optimizes against the
realized battery price at the end of the day.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscreteDist, GridValueFn, INF
from . import battery
from .battery import BatteryConfig, ScenarioSet
from .intraday import IntradayTable, PeriodicityClassMap, control_grid, decomposition, soc_grid_for
from .slowscale import SlowValueSeq, day_continuation, day_objective, day_plan, renewal_states

ADMISS_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class SimulationRecord:
    scenario_id: int
    states: np.ndarray  # (D+2, 3): (soc, health, capacity) at (d, 0) for d = 0..D+1
    renewals: tuple  # (day, size) pairs, size > 0
    total_cost: float  # discounted, money
    daily_bills: np.ndarray  # (D+1,): undiscounted energy bills per day
    clamp_count: int  # table lookups that clamped a drifted state
    inf_fallbacks: int  # slots where every feasible control read +inf


@dataclass(frozen=True)
class SimulationStats:
    mean: float
    stderr: float


def _best_on_axis(
    h, c, day: int, table: IntradayTable, values: SlowValueSeq,
    price_law: DiscreteDist, cfg: BatteryConfig,
):
    """The point of the table's day axis at the first argmax (price) or argmin
    (resource) of the day objective, per health value in h at its capacity in
    c (one per health value, or one for all)."""
    h_grid, c_grid = values.grid.axes
    h1 = np.atleast_1d(np.asarray(h, dtype=float))
    renewal = renewal_states(h_grid, c_grid, cfg)
    cont = day_continuation(values.values[day + 1], price_law, cfg, renewal)
    # the objective is elementwise per (capacity, h, axis): evaluate it on the
    # capacities in use, then take each health value's own row
    ci, at = np.unique(np.searchsorted(c_grid, c), return_inverse=True)
    plan = day_plan(table, h1, h_grid, ADMISS_TOL)
    obj = plan.unpack(day_objective(table, plan, ci, cont))
    obj = obj[np.broadcast_to(at, h1.shape), np.arange(len(h1))]
    pick = np.argmin if table.decomposition.budget_axis else np.argmax
    best = table.axis[pick(obj, axis=1)]
    return float(best[0]) if np.ndim(h) == 0 else best


def select_price(
    h, c, day: int, table: IntradayTable, values: SlowValueSeq,
    price_law: DiscreteDist, cfg: BatteryConfig,
):
    """Best aging surcharge at (h, c) per the lower-bound recursion's objective;
    ties go to the smallest surcharge.  h may be an array of health values, c
    one capacity for all of them or one per health value."""
    return _best_on_axis(h, c, day, table, values, price_law, cfg)


def select_resource(
    h, c, day: int, table: IntradayTable, values: SlowValueSeq,
    price_law: DiscreteDist, cfg: BatteryConfig,
):
    """Tomorrow's health target at (h, c) per the upper-bound recursion's
    objective; ties go to the largest target (least aging).  h may be an array
    of health values, c one capacity for all of them or one per health value."""
    target = np.maximum(h - _best_on_axis(h, c, day, table, values, price_law, cfg), 0.0)
    return float(target) if np.ndim(h) == 0 else target


def _choose_renewal(
    h_end: np.ndarray, c: np.ndarray, day: int, values: SlowValueSeq,
    price_real: np.ndarray, price_law: DiscreteDist, cfg: BatteryConfig,
) -> np.ndarray:
    """Per scenario, the renewal size minimizing the continuation, using the
    price atom nearest the realized battery price; ties keep the smaller size."""
    diffs = np.abs(price_law.support[None, :] - price_real[:, None])
    p_hat = price_law.support[np.argmin(diffs, axis=1)]
    vnext = GridValueFn(values.grid, values.values[day + 1])
    gamma = cfg.gamma
    best_r = np.zeros(len(c))
    best_v = gamma * vnext.eval_many(np.column_stack([np.maximum(h_end, 0.0), c]))
    sizes = [float(r) for r in cfg.renewal_grid if r > 0.0]
    if not sizes:
        return best_r
    fresh = vnext.eval_many(np.column_stack(battery.fresh_state(sizes, cfg)[1:]))
    for r, v_fresh in zip(sizes, fresh):
        v = p_hat * r + gamma * v_fresh
        better = v < best_v - 1e-12
        best_r = np.where(better, r, best_r)
        best_v = np.where(better, v, best_v)
    return best_r


def simulate_policy(
    scenarios: ScenarioSet,
    mode: str,
    tables: dict,
    values: SlowValueSeq,
    price_laws: list[DiscreteDist],
    classmap: PeriodicityClassMap,
    cfg: BatteryConfig,
) -> tuple[list[SimulationRecord], SimulationStats]:
    """Replay the chosen decomposition's policy on every scenario.

    mode is "price" or "resource"; ``tables`` maps class id to the matching
    intraday table; every scenario starts with no battery, at (soc, health,
    capacity) = (0, 0, 0).  The replay uses the control grid the tables were
    built on, which must be the same for every class.  Cost accounting
    matches the offline recursions: day d's bill and renewal purchase are
    weighted by gamma^d, and the battery left after day D is worth 0.

    Scenarios advance together, day by day; within a day all those with a
    battery share one slot loop over (scenario, control) arrays.  Every
    scenario sees the same floating-point operations as when replayed alone.
    A record's ``states`` and ``daily_bills`` are read-only views of one
    (D+2, scenario, 3) trajectory array and one (D+1, scenario) bill array.
    """
    dec = decomposition(mode)
    if any(tab.decomposition != dec for tab in tables.values()):
        raise ValueError(f"mode {mode!r} needs {dec.mode} intraday tables")
    if any(tab.fast is None for tab in tables.values()):
        raise ValueError("the replay needs the intraday tables' fast values")
    built = sorted({tab.n_controls for tab in tables.values()})
    if len(built) != 1:
        raise ValueError(f"intraday tables were built on {built} controls, not one grid")
    D = values.horizon
    if scenarios.n_days < D + 1:
        raise ValueError(f"scenarios cover {scenarios.n_days} days, horizon needs {D + 1}")
    select = select_resource if dec.budget_axis else select_price
    controls = control_grid(cfg, built[0])
    n = scenarios.n_scenarios
    soc, h, c = np.zeros(n), np.zeros(n), np.zeros(n)
    total = np.zeros(n)
    clamped, fallbacks = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    traj, bills = np.zeros((D + 2, n, 3)), np.empty((D + 1, n))
    renewals = [[] for _ in range(n)]
    disc = 1.0
    for d in range(D + 1):
        table = tables[int(classmap.day_to_class[d])]
        netload = scenarios.netload[:, d]
        none, own = np.flatnonzero(c == 0.0), np.flatnonzero(c > 0.0)
        if len(none):
            slots = zip(netload[none].T, cfg.rates)
            bills[d, none] = sum(battery.stage_cost(0.0, w, rate) for w, rate in slots)
        if len(own):
            decision = select(h[own], c[own], d, table, values, price_laws[d], cfg)
            bills[d, own], soc[own], h[own], clamps, stuck = _replay_day(
                netload[own], soc[own], h[own], c[own], decision, table, controls, cfg
            )
            clamped[own] += clamps
            fallbacks[own] += stuck
        # admissibility at end of day
        bad = ~(battery.in_soc_box(soc, c, cfg, ADMISS_TOL) & (h >= -ADMISS_TOL))
        if bad.any():
            s = int(np.argmax(bad))
            raise RuntimeError(f"inadmissible state (soc={soc[s]}, h={h[s]}, c={c[s]})")
        price_real = scenarios.battery_price[:, d]
        r = _choose_renewal(h, c, d, values, price_real, price_laws[d], cfg)
        total += disc * (bills[d] + price_real * r)
        disc *= cfg.gamma
        new = np.flatnonzero(r > 0.0)
        soc[new], h[new], c[new] = battery.renewal_dynamics(soc[new], h[new], c[new], r[new], cfg)
        for s in new:
            renewals[s].append((d, float(r[s])))
        traj[d + 1] = np.column_stack([soc, h, c])
    traj.setflags(write=False)
    bills.setflags(write=False)
    records = [
        SimulationRecord(
            s, traj[:, s], tuple(rs), float(total[s]), bills[:, s], int(clamped[s]),
            int(fallbacks[s]),
        )
        for s, rs in enumerate(renewals)
    ]
    stderr = float(total.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return records, SimulationStats(mean=float(total.mean()), stderr=stderr)


def _replay_day(netload, soc, h, c, decision, table, controls, cfg):
    """One day of greedy table replay for scenarios with a battery.

    netload is (scenarios, slots); soc, h, the capacity c > 0 and the day's
    decision (surcharge or health target) are per scenario; the replay
    tables are ``table.fast``, shape (capacity after c = 0, slots + 1, soc,
    axis).  A slot where every feasible control reads +inf from the table
    takes the first feasible control.  Returns the bills, the end-of-day soc
    and health, and per scenario the number of clamped moves and of such
    slots.
    """
    effect = battery.control_effect(controls, cfg)
    d_soc, usage = effect
    budget_axis = table.decomposition.budget_axis
    axis = table.axis
    if budget_axis:
        # the budget is today's gap to the health target; the table column
        # follows what is left of it
        surcharge, budget = 0.0, np.maximum(h - decision, 0.0)
        a_step = axis[1] - axis[0]
    else:
        surcharge, ai = decision[:, None], np.searchsorted(axis, decision)[:, None]
    aging_cost = surcharge * usage
    # each capacity's soc grid step, gathered per scenario
    fast, c_grid = table.fast, table.table.grid.axes[0]
    n_soc, ci = fast.shape[2], np.searchsorted(c_grid, c)
    steps = [g[1] - g[0] for g in (soc_grid_for(cv, cfg, n_soc) for cv in c_grid)]
    s_step, rows = np.array(steps)[ci][:, None], (ci - 1)[:, None]
    soc_max = battery.soc_max(c, cfg)
    # the upper edge of each scenario's soc box, as battery.in_soc_box draws it
    soc_top = soc_max[:, None] + ADMISS_TOL
    bill = np.zeros(len(soc))
    clamped, fallbacks = np.zeros(len(soc), dtype=int), np.zeros(len(soc), dtype=int)
    # each scenario's first entry in a flat (scenario, control) array
    row0 = np.arange(len(soc)) * len(controls)
    for m in range(netload.shape[1]):
        w = netload[:, m]
        rate = cfg.rates[m]
        soc_next, h_next = battery.fast_dynamics(soc[:, None], h[:, None], effect)
        feasible = (soc_next >= -ADMISS_TOL) & (soc_next <= soc_top)
        feasible &= h_next >= -ADMISS_TOL
        if budget_axis:
            b_next = budget[:, None] - usage
            feasible &= b_next >= -ADMISS_TOL
            ai = np.clip(np.round(b_next / a_step).astype(int), 0, len(axis) - 1)
        if not feasible.any(axis=1).all():
            raise RuntimeError("no admissible control")
        si = np.clip(np.round(soc_next / s_step).astype(int), 0, n_soc - 1)
        q = battery.stage_cost(controls, w[:, None], rate) + aging_cost + fast[rows, m + 1, si, ai]
        q = np.where(feasible, q, INF)
        k = np.argmin(q, axis=1)
        best = q.ravel().take(row0 + k)
        if best.max() == INF:
            stuck = best == INF
            k[stuck] = np.argmax(feasible[stuck], axis=1)
            fallbacks += stuck
        bill += battery.stage_cost(controls[k], w, rate)
        used = usage[k]
        soc_raw, h_raw = battery.fast_dynamics(soc, h, (d_soc[k], used))
        soc = np.minimum(np.maximum(soc_raw, 0.0), soc_max)
        h = np.maximum(h_raw, 0.0)
        if budget_axis:
            budget = np.maximum(budget - used, 0.0)
        clamped += (soc != soc_raw) | (h != h_raw)
    return bill, soc, h, clamped, fallbacks
