"""Online policy synthesis and Monte Carlo simulation.

Each day the slow decision (an aging surcharge, or a health target) is the
first argmax (price) or argmin (resource) of the bound recursion's own
:func:`~twoscale.slowscale.day_objective`; the half-hourly controls then
replay the stored intraday value tables, over (soc, axis), greedily against
the realized netloads, and the renewal decision re-optimizes against the
realized battery price at the end of the day.  Both policies advance in one
day loop, and each day every scenario of either policy that owns a battery
goes through one slot loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscreteDist, GridValueFn, INF
from . import battery
from .battery import BatteryConfig, ScenarioSet
from .intraday import (
    Decomposition, IntradayTable, PeriodicityClassMap, control_grid, decomposition, soc_grid_for,
)
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
    gamma = cfg.gamma
    sizes = [float(r) for r in cfg.renewal_grid if r > 0.0]
    # tomorrow's values of keeping each battery, then of each fresh one, in
    # one lookup: every point blends its own corners alone
    kept = np.column_stack([np.maximum(h_end, 0.0), c])
    fresh = np.column_stack(battery.fresh_state(sizes, cfg)[1:])
    vnext = GridValueFn(values.grid, values.values[day + 1])
    vnext = vnext.eval_many(np.concatenate([kept, fresh]))
    best_r = np.zeros(len(c))
    best_v = gamma * vnext[: len(c)]
    for r, v_fresh in zip(sizes, vnext[len(c):]):
        v = p_hat * r + gamma * v_fresh
        better = v < best_v - 1e-12
        best_r = np.where(better, r, best_r)
        best_v = np.where(better, v, best_v)
    return best_r


@dataclass(frozen=True, eq=False)
class _Mode:
    """One policy's replay inputs, with the :func:`_soc_steps` of each
    class's table, which its days share."""

    dec: Decomposition
    tables: dict
    values: SlowValueSeq
    soc_steps: dict


def _mode(name: str, tables: dict, values: SlowValueSeq, cfg: BatteryConfig) -> _Mode:
    dec = decomposition(name)
    if any(tab.decomposition != dec for tab in tables.values()):
        raise ValueError(f"mode {name!r} needs {dec.mode} intraday tables")
    if any(tab.fast is None for tab in tables.values()):
        raise ValueError("the replay needs the intraday tables' fast values")
    steps = {cls: _soc_steps(tab, cfg) for cls, tab in tables.items()}
    return _Mode(dec, tables, values, steps)


def _soc_steps(table: IntradayTable, cfg: BatteryConfig) -> np.ndarray:
    """The soc grid step of each capacity of the table."""
    grids = (soc_grid_for(cv, cfg, table.fast.shape[2]) for cv in table.table.grid.axes[0])
    return np.array([g[1] - g[0] for g in grids])


def simulate_policies(
    scenarios: ScenarioSet,
    runs: dict,
    price_laws: list[DiscreteDist],
    classmap: PeriodicityClassMap,
    cfg: BatteryConfig,
) -> dict:
    """Replay the policy of each mode in ``runs`` on every scenario.

    ``runs`` maps a mode, "price" or "resource", to its (tables, values):
    the intraday tables of that decomposition by class id and its bound's
    value functions.  Returns per mode (records, stats), one record per
    scenario.  Every scenario starts with no battery, at (soc, health,
    capacity) = (0, 0, 0).  The replay uses the control grid the tables were
    built on, which must be the same for every class and mode.  Cost
    accounting matches the offline recursions: day d's bill and renewal
    purchase are weighted by gamma^d, and the battery left after day D is
    worth 0.

    The modes advance together, day by day; within a day every (mode,
    scenario) with a battery shares one slot loop over (row, control)
    arrays.  Each sees the same floating-point operations as when its mode
    is replayed alone, and each scenario the same as when replayed alone.
    A record's ``states`` and ``daily_bills`` are read-only views of one
    (D+2, mode, scenario, 3) trajectory array and one (D+1, mode, scenario)
    bill array.
    """
    modes = [_mode(name, tables, values, cfg) for name, (tables, values) in runs.items()]
    built = sorted({tab.n_controls for mode in modes for tab in mode.tables.values()})
    if len(built) != 1:
        raise ValueError(f"intraday tables were built on {built} controls, not one grid")
    horizons = sorted({mode.values.horizon for mode in modes})
    if len(horizons) != 1:
        raise ValueError(f"the value functions cover horizons {horizons}, not one")
    D = horizons[0]
    if scenarios.n_days < D + 1:
        raise ValueError(f"scenarios cover {scenarios.n_days} days, horizon needs {D + 1}")
    controls = control_grid(cfg, built[0])
    rates = np.asarray(cfg.rates)
    shape = (len(modes), scenarios.n_scenarios)
    soc, h, c = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    total = np.zeros(shape)
    clamped, fallbacks = np.zeros(shape, dtype=int), np.zeros(shape, dtype=int)
    traj, bills = np.zeros((D + 2,) + shape + (3,)), np.empty((D + 1,) + shape)
    renewals = [[[] for _ in range(shape[1])] for _ in modes]
    disc = 1.0
    for d in range(D + 1):
        cls = int(classmap.day_to_class[d])
        netload = scenarios.netload[:, d]
        own = c > 0.0
        if not own.all():
            # the bill without a battery, summed over the slots in order; the
            # rows with one are billed below
            bills[d] = np.add.accumulate(battery.stage_cost(0.0, netload, rates), axis=1)[:, -1]
        blocks = []
        for i, mode in enumerate(modes):
            if own[i].any():
                select = select_resource if mode.dec.budget_axis else select_price
                table = mode.tables[cls]
                rows = own[i]
                decision = select(h[i, rows], c[i, rows], d, table, mode.values, price_laws[d], cfg)
                blocks.append((table, decision, mode.soc_steps[cls]))
        if blocks:
            # rows in (mode, scenario) order, each mode's a block of its own
            bills[d, own], soc[own], h[own], clamps, stuck = _replay_day(
                netload[np.nonzero(own)[1]], soc[own], h[own], c[own], blocks, controls, cfg
            )
            clamped[own] += clamps
            fallbacks[own] += stuck
        # admissibility at end of day
        bad = ~(battery.in_soc_box(soc, c, cfg, ADMISS_TOL) & (h >= -ADMISS_TOL))
        if bad.any():
            i, s = np.argwhere(bad)[0]
            raise RuntimeError(f"inadmissible state (soc={soc[i, s]}, h={h[i, s]}, c={c[i, s]})")
        price_real = scenarios.battery_price[:, d]
        r = np.stack([
            _choose_renewal(h[i], c[i], d, mode.values, price_real, price_laws[d], cfg)
            for i, mode in enumerate(modes)
        ])
        total += disc * (bills[d] + price_real * r)
        disc *= cfg.gamma
        new = r > 0.0
        soc[new], h[new], c[new] = battery.renewal_dynamics(soc[new], h[new], c[new], r[new], cfg)
        for i, s in zip(*np.nonzero(new)):
            renewals[i][s].append((d, float(r[i, s])))
        traj[d + 1] = np.stack([soc, h, c], axis=-1)
    traj.setflags(write=False)
    bills.setflags(write=False)
    out = {}
    for i, mode in enumerate(modes):
        records = [
            SimulationRecord(
                s, traj[:, i, s], tuple(rs), float(total[i, s]), bills[:, i, s],
                int(clamped[i, s]), int(fallbacks[i, s]),
            )
            for s, rs in enumerate(renewals[i])
        ]
        n = shape[1]
        stderr = float(total[i].std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        out[mode.dec.mode] = (records, SimulationStats(mean=float(total[i].mean()), stderr=stderr))
    return out


def simulate_policy(
    scenarios: ScenarioSet,
    mode: str,
    tables: dict,
    values: SlowValueSeq,
    price_laws: list[DiscreteDist],
    classmap: PeriodicityClassMap,
    cfg: BatteryConfig,
) -> tuple[list[SimulationRecord], SimulationStats]:
    """Replay one mode's policy, "price" or "resource", on every scenario:
    :func:`simulate_policies` with that mode alone; ``tables`` maps class id
    to the matching intraday table."""
    runs = {mode: (tables, values)}
    return simulate_policies(scenarios, runs, price_laws, classmap, cfg)[mode]


def _replay_day(netload, soc, h, c, blocks, controls, cfg):
    """One day of greedy table replay for rows with a battery, all in one
    slot loop.

    netload is (rows, slots); soc, h and the capacity c > 0 are per row.
    The rows come in consecutive blocks, one per entry (table, decision,
    soc_steps) of ``blocks``: the intraday table the block replays, each
    row's decision (a surcharge, or a health target on a budget axis) and
    the soc grid step of each capacity of the table.  A row reads its
    table's replay values ``table.fast``, shape (capacity after c = 0,
    slots + 1, soc, axis), at the nearest soc and budget points.  A slot
    where every feasible control reads +inf from the table takes the first
    feasible control.  Returns the bills, the end-of-day soc and health, and
    per row the number of clamped moves and of such slots.

    What does not depend on the soc is done once per day: the bill of every
    (slot, row, control) plus a surcharge row's aging cost, each row's table
    offsets and steps.  A surcharge row has an infinite budget and a fixed
    table column, so that min(h, budget) - |u| >= -tol tests the health
    and the budget of every row at once: rounding is monotone, so it holds
    exactly when both h - |u| and budget - |u| do.
    """
    d_soc, usage = effect = battery.control_effect(controls, cfg)
    n, n_slots = netload.shape
    # the bill of every (slot, row, control), and the same plus the aging cost
    bill = battery.stage_cost(controls, netload.T[:, :, None], np.asarray(cfg.rates)[:, None, None])
    aging = np.zeros((n, len(controls)))
    # per row: the budget, its soc and budget grid steps, the last soc and
    # budget indices, the table's column count and soc stride and the flat
    # index of its (capacity, slot 0, soc 0, column)
    budget, s_step, a_step, s_top, a_top, a_len, slot_len, base = np.empty((8, n, 1))
    reads, start = [], 0
    for table, decision, steps in blocks:
        rows = slice(start, start + len(decision))
        start = rows.stop
        fast = table.fast
        _, n_step, n_soc, n_axis = fast.shape
        ci = np.searchsorted(table.table.grid.axes[0], c[rows])
        s_step[rows, 0], s_top[rows], a_len[rows] = steps[ci], n_soc - 1, n_axis
        slot_len[rows] = n_soc * n_axis
        base[rows, 0] = (ci - 1) * (n_step * n_soc * n_axis)
        if table.decomposition.budget_axis:
            # the budget is today's gap to the health target; the table
            # column follows what is left of it
            budget[rows, 0] = np.maximum(h[rows] - decision, 0.0)
            a_step[rows], a_top[rows] = table.axis[1] - table.axis[0], n_axis - 1
        else:
            # no budget to spend: its index clamps to 0, and the surcharge's
            # column is part of the row's base index
            budget[rows], a_step[rows], a_top[rows] = INF, 1.0, 0
            base[rows, 0] += np.searchsorted(table.axis, decision)
            aging[rows] = decision[:, None] * usage
        # a flat view, never a copy, of the table's entries
        reads.append((rows, fast.reshape(-1)))
    cost = bill + aging
    offsets = base + np.arange(1, n_slots + 1)[:, None, None] * slot_len
    soc_max = battery.soc_max(c, cfg)[:, None]
    # the upper edge of each row's soc box, as battery.in_soc_box draws it
    soc_top = soc_max + ADMISS_TOL
    soc, h = soc[:, None], h[:, None]
    clamped, fallbacks = np.zeros((n, 1), dtype=int), np.zeros((n, 1), dtype=int)
    picks, value = np.empty((n_slots, n, 1), dtype=np.intp), np.empty((n, len(controls)))
    for m in range(n_slots):
        soc_next, left = battery.fast_dynamics(soc, np.minimum(h, budget), effect)
        feasible = soc_next >= -ADMISS_TOL
        feasible &= soc_next <= soc_top
        feasible &= left >= -ADMISS_TOL
        # each (row, control)'s table entry, at the nearest soc and budget
        # points clamped to the grid (rint rounds half to even, as round)
        si = np.rint(soc_next / s_step)
        np.minimum(np.maximum(si, 0.0, out=si), s_top, out=si)
        ai = np.rint((budget - usage) / a_step)
        np.minimum(np.maximum(ai, 0.0, out=ai), a_top, out=ai)
        si *= a_len
        si += ai
        si += offsets[m]
        flat = si.astype(np.intp)
        for rows, entries in reads:
            value[rows] = entries.take(flat[rows])
        value += cost[m]
        q = np.where(feasible, value, INF)
        k = q.argmin(axis=1, keepdims=True)
        best = np.minimum.reduce(q, axis=1)
        if np.maximum.reduce(best) == INF:
            stuck = best == INF
            if not feasible[stuck].any(axis=1).all():
                raise RuntimeError("no admissible control")
            k[stuck, 0] = np.argmax(feasible[stuck], axis=1)
            fallbacks[stuck] += 1
        picks[m] = k
        used = usage[k]
        soc_raw, h_raw = battery.fast_dynamics(soc, h, (d_soc[k], used))
        soc = np.minimum(np.maximum(soc_raw, 0.0), soc_max)
        h = np.maximum(h_raw, 0.0)
        budget = np.maximum(budget - used, 0.0)
        clamped += (soc != soc_raw) | (h != h_raw)
    # the chosen controls' bills, summed over the slots in order
    day_bill = np.add.accumulate(np.take_along_axis(bill, picks, axis=2), axis=0)[-1]
    return day_bill[:, 0], soc[:, 0], h[:, 0], clamped[:, 0], fallbacks[:, 0]
