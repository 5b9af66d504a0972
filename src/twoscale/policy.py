"""Online policy synthesis and Monte Carlo simulation.

Each day the slow decision (an aging surcharge, or a health target) is the
first argmax (price) or argmin (resource) of the bound recursion's own
:class:`~twoscale.slowscale.DayObjective`; the half-hourly controls then
replay the stored intraday value tables, over (soc, axis), greedily against
the realized netloads, and the renewal decision re-optimizes against the
realized battery price at the end of the day.  Both policies advance in one
day loop, and each day every scenario of either policy that owns a battery
goes through one slot loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import INF, GridValueFn, LawTable
from . import battery
from .battery import BatteryConfig, ScenarioSet
from .intraday import (
    Decomposition, IntradayTable, PeriodicityClassMap, control_grid, decomposition,
)
from .slowscale import DayObjective, SlowValueSeq, day_continuation, renewal_states

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

    @classmethod
    def of(cls, samples: np.ndarray) -> "SimulationStats":
        """The mean of ``samples`` and its standard error, 0 for one sample."""
        n = len(samples)
        stderr = float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        return cls(mean=float(samples.mean()), stderr=stderr)


class _Mode:
    """One policy's replay inputs, with what no day changes set up once: the
    renewal states (:func:`~twoscale.slowscale.renewal_states`), every day's
    battery-price atoms times the renewal sizes, the atoms' probabilities,
    and for a surcharge policy one day objective per class."""

    def __init__(self, dec: Decomposition, tables: dict, values: SlowValueSeq,
                 price_laws: LawTable, cfg: BatteryConfig):
        self.dec, self.tables, self.values, self.gamma = dec, tables, values, cfg.gamma
        h_grid, c_grid = values.grid.axes
        self.renewal = renewal_states(h_grid, c_grid, cfg)
        self.by_size = price_laws.support[:, :, None] * self.renewal[0]
        self.probs = price_laws.probs.tolist()
        self.disc = np.empty((len(c_grid), len(h_grid)))
        self.objectives = {} if dec.budget_axis else {
            cls: DayObjective(tab, h_grid, h_grid, ADMISS_TOL) for cls, tab in tables.items()
        }

    def best(self, h: np.ndarray, c, day: int, cls: int) -> np.ndarray:
        """Per health value in h at its capacity in c (one per health value,
        or one for all), the point of class ``cls``'s table axis at the first
        argmax (price) or argmin (resource) of day ``day``'s objective."""
        h_grid, c_grid = self.values.grid.axes
        atoms = day_continuation(
            self.values.values[day + 1], self.by_size[day], self.probs[day], self.gamma,
            self.renewal, self.disc,
        )
        ci = np.broadcast_to(np.searchsorted(c_grid, c), h.shape)
        table = self.tables[cls]
        if self.dec.budget_axis:
            # each health value's feasible budgets, at its own capacity alone
            objective = DayObjective(table, h, h_grid, ADMISS_TOL, ci)
            with np.errstate(invalid="ignore"):
                obj = objective.unpack(objective(self.disc, atoms))
            return table.axis[np.argmin(obj, axis=1)]
        obj = self.objectives[cls].inner(self.disc, atoms)[ci] - table.axis * h[:, None]
        return table.axis[np.argmax(obj, axis=1)]

    def decide(self, h: np.ndarray, c, day: int, cls: int) -> np.ndarray:
        """Per health value, :meth:`best`'s surcharge, or the health target
        max(h - budget, 0) on a budget axis."""
        best = self.best(h, c, day, cls)
        return np.maximum(h - best, 0.0) if self.dec.budget_axis else best

    def renew(self, h_end: np.ndarray, c: np.ndarray, day: int, p_hat: np.ndarray) -> np.ndarray:
        """Per scenario, the renewal size minimizing the continuation at the
        battery price ``p_hat``; ties keep the smaller size.  Keeping a
        battery is valued by a blend of tomorrow's values, a fresh one at its
        grid point."""
        vnext = self.values.values[day + 1]
        sizes, hi, ci = self.renewal
        kept = np.column_stack([np.maximum(h_end, 0.0), c])
        best_v = self.gamma * GridValueFn(self.values.grid, vnext).eval_many(kept)
        best_r = np.zeros(len(c))
        for r, v_fresh in zip(sizes.tolist(), vnext[hi, ci].tolist()):
            v = p_hat * r + self.gamma * v_fresh
            better = v < best_v - 1e-12
            best_r = np.where(better, r, best_r)
            best_v = np.where(better, v, best_v)
        return best_r


def _best_on_axis(
    h, c, day: int, table: IntradayTable, values: SlowValueSeq,
    price_laws: LawTable, cfg: BatteryConfig,
):
    """The point of the table's day axis at the first argmax (price) or argmin
    (resource) of the day objective, per health value in h at its capacity in
    c (one per health value, or one for all)."""
    mode = _Mode(table.decomposition, {0: table}, values, price_laws, cfg)
    best = mode.best(np.atleast_1d(np.asarray(h, dtype=float)), c, day, 0)
    return float(best[0]) if np.ndim(h) == 0 else best


def select_price(
    h, c, day: int, table: IntradayTable, values: SlowValueSeq,
    price_laws: LawTable, cfg: BatteryConfig,
):
    """Best aging surcharge at (h, c) on ``day`` per the lower-bound
    recursion's objective; ties go to the smallest surcharge.  h may be an
    array of health values, c one capacity for all of them or one per health
    value."""
    return _best_on_axis(h, c, day, table, values, price_laws, cfg)


def select_resource(
    h, c, day: int, table: IntradayTable, values: SlowValueSeq,
    price_laws: LawTable, cfg: BatteryConfig,
):
    """Tomorrow's health target at (h, c) on ``day`` per the upper-bound
    recursion's objective; ties go to the largest target (least aging).  h
    may be an array of health values, c one capacity for all of them or one
    per health value."""
    target = np.maximum(h - _best_on_axis(h, c, day, table, values, price_laws, cfg), 0.0)
    return float(target) if np.ndim(h) == 0 else target


def simulate_policies(
    scenarios: ScenarioSet,
    runs: dict,
    price_laws: LawTable,
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
    modes = []
    for name, (tables, values) in runs.items():
        dec = decomposition(name)
        if any(tab.decomposition != dec for tab in tables.values()):
            raise ValueError(f"mode {name!r} needs {dec.mode} intraday tables")
        if any(tab.fast is None for tab in tables.values()):
            raise ValueError("the replay needs the intraday tables' fast values")
        modes.append(_Mode(dec, tables, values, price_laws, cfg))
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
            rows = own[i]
            if rows.any():
                blocks.append((mode.tables[cls], mode.decide(h[i, rows], c[i, rows], d, cls)))
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
        # the atom of the day's price law nearest the realized battery price
        support = price_laws.support[d]
        p_hat = support[np.argmin(np.abs(support[None, :] - price_real[:, None]), axis=1)]
        r = np.stack([mode.renew(h[i], c[i], d, p_hat) for i, mode in enumerate(modes)])
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
        out[mode.dec.mode] = (records, SimulationStats.of(total[i]))
    return out


def simulate_policy(
    scenarios: ScenarioSet,
    mode: str,
    tables: dict,
    values: SlowValueSeq,
    price_laws: LawTable,
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

    netload is (rows, slots); soc, the health h >= 0 and the capacity c > 0
    are per row.  The rows come in consecutive blocks, one per pair (table,
    decision) of ``blocks``: the intraday table the block replays and each
    row's decision (a surcharge, or a health target on a budget axis).  A
    row reads its table's replay values ``table.fast``, shape (capacity
    after c = 0, slots + 1, soc, axis), at the nearest soc and budget
    points.  A slot where every feasible control reads +inf from the table
    takes the first feasible control.  Returns the bills, the end-of-day soc
    and health, and per row the number of clamped moves and of such slots.

    What does not depend on the soc is done once per day: the bill of every
    (slot, row, control) plus a surcharge row's aging cost, each row's table
    offsets and steps.  A surcharge row has an infinite budget and a fixed
    table column, and a budget row's budget never exceeds its health, so a
    row's room min(h, budget) is its health or its budget.  Rounding is
    monotone, so room - |u| >= -tol holds exactly when both h - |u| and
    budget - |u| do; over the row's budget step (+inf on a surcharge row)
    it rounds to the budget index.  For the same reason, when the lowest
    and the highest feasible soc and budget round onto the grid, so does
    every feasible entry: the day then skips the clamps to the grid, and an
    infeasible entry, whose value is never used, may read any entry of the
    table ("clip" mode keeps its index in range).
    """
    d_soc, usage = effect = battery.control_effect(controls, cfg)
    n, n_slots = netload.shape
    # the bill of every (slot, row, control), and the same plus the aging cost
    bill = battery.stage_cost(controls, netload.T[:, :, None], np.asarray(cfg.rates)[:, None, None])
    aging = np.zeros((n, len(controls)))
    # per row: its room, its soc and budget grid steps and last indices, the
    # table's column count and soc stride and the flat index of its
    # (capacity, slot 0, soc 0, column)
    room, s_step, s_top, a_step, a_top, a_len, slot_len, base = np.empty((8, n, 1))
    reads, start = [], 0
    for table, decision in blocks:
        rows = slice(start, start + len(decision))
        start = rows.stop
        fast = table.fast
        _, n_step, n_soc, n_axis = fast.shape
        ci = np.searchsorted(table.table.grid.axes[0], c[rows])
        # the soc grid step, bit for bit soc_grid_for's g[1] - g[0]
        s_step[rows, 0] = battery.soc_max(c[rows], cfg) / (n_soc - 1)
        s_top[rows], a_len[rows] = n_soc - 1, n_axis
        slot_len[rows] = n_soc * n_axis
        base[rows, 0] = (ci - 1) * (n_step * n_soc * n_axis)
        if table.decomposition.budget_axis:
            # the budget is today's gap to the health target; the table
            # column follows what is left of it
            room[rows, 0] = np.minimum(h[rows], np.maximum(h[rows] - decision, 0.0))
            a_step[rows], a_top[rows] = table.axis[1] - table.axis[0], n_axis - 1
        else:
            # no budget to spend, and the surcharge's column is part of the
            # row's base index
            room[rows, 0] = h[rows]
            a_step[rows], a_top[rows] = INF, 0
            base[rows, 0] += np.searchsorted(table.axis, decision)
            aging[rows] = decision[:, None] * usage
        # a flat view, never a copy, of the table's entries
        reads.append((rows, fast.reshape(-1)))
    cost = bill + aging
    offsets = base + np.arange(1, n_slots + 1)[:, None, None] * slot_len
    soc_max = battery.soc_max(c, cfg)[:, None]
    # the upper edge of each row's soc box, as battery.in_soc_box draws it
    soc_top = soc_max + ADMISS_TOL
    # whether the indices of the extreme feasible soc and budget leave the
    # grid; a row's room only falls, to 0 at the lowest, so no budget
    # exceeds max(room, 0)
    clamp = not (
        (np.rint(-ADMISS_TOL / s_step) >= 0.0).all() and (np.rint(soc_top / s_step) <= s_top).all()
        and (np.rint(-ADMISS_TOL / a_step) >= 0.0).all()
        and (np.rint(np.maximum(room, 0.0) / a_step) <= a_top).all()
    )
    h = h[:, None]
    fallbacks = np.zeros((n, 1), dtype=int)
    picks, value = np.empty((n_slots, n, 1), dtype=np.intp), np.empty((n, len(controls)))
    # each slot's soc and health before and after the clamp to the state box
    socs, hs = np.empty((2, n_slots, n, 1)), np.empty((2, n_slots, n, 1))
    row_start = np.arange(n)[:, None] * len(controls)
    soc = soc[:, None]
    for m in range(n_slots):
        soc_next, left = battery.fast_dynamics(soc, room, effect)
        feasible = soc_next >= -ADMISS_TOL
        feasible &= soc_next <= soc_top
        feasible &= left >= -ADMISS_TOL
        # each (row, control)'s table entry, at the nearest soc and budget
        # points (rint rounds half to even, as round)
        si = np.rint(soc_next / s_step)
        ai = np.rint(left / a_step)
        if clamp:
            np.minimum(np.maximum(si, 0.0, out=si), s_top, out=si)
            np.minimum(np.maximum(ai, 0.0, out=ai), a_top, out=ai)
        si *= a_len
        si += ai
        si += offsets[m]
        flat = si.astype(np.intp)
        for rows, entries in reads:
            entries.take(flat[rows], out=value[rows], mode="clip")
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
        used = usage.take(k)
        soc_raw, h_raw = socs[0, m], hs[0, m]
        soc_next.take(k + row_start, out=soc_raw)
        np.subtract(h, used, out=h_raw)
        soc, h = socs[1, m], hs[1, m]
        np.minimum(np.maximum(soc_raw, 0.0, out=soc), soc_max, out=soc)
        np.maximum(h_raw, 0.0, out=h)
        room = np.maximum(room - used, 0.0)
    clamped = ((socs[0] != socs[1]) | (hs[0] != hs[1])).sum(axis=0)
    # the chosen controls' bills, summed over the slots in order
    day_bill = np.add.accumulate(np.take_along_axis(bill, picks, axis=2), axis=0)[-1]
    return day_bill[:, 0], soc[:, 0], h[:, 0], clamped[:, 0], fallbacks[:, 0]
