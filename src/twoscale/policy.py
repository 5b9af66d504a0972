"""Online policy synthesis and Monte Carlo simulation.

Each day the slow decision (an aging surcharge, or a health target) is read
off the corresponding bound recursion; the half-hourly controls then replay
the stored intraday value tables greedily against the realized netloads, and
the renewal decision re-optimizes against the realized battery price at the
end of the day.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DiscreteDist, INF
from .battery import BatteryConfig, BatteryState, ScenarioSet
from .intraday import IntradayPriceTable, IntradayResourceTable, PeriodicityClassMap, control_grid
from .slowscale import SlowValueSeq, _best_buy_per_atom, _renewal_values

ADMISS_TOL = 1e-6


@dataclass(frozen=True)
class SimulationRecord:
    scenario_id: int
    states: tuple  # BatteryState at (d, 0) for d = 0..D+1
    renewals: tuple  # (day, size) pairs, size > 0
    total_cost: float  # discounted, money
    daily_bills: tuple  # undiscounted energy bills per day
    clamp_count: int  # table lookups that clamped a drifted state


@dataclass(frozen=True)
class SimulationStats:
    mean: float
    stderr: float
    totals: np.ndarray


def select_price(
    h: float,
    c: float,
    day: int,
    table: IntradayPriceTable,
    values: SlowValueSeq,
    price_law: DiscreteDist,
    cfg: BatteryConfig,
) -> float:
    """Best aging surcharge at (h, c) per the lower-bound recursion's objective;
    ties go to the smallest surcharge."""
    h_grid, c_grid = values.days[day].grid.axes
    disc = cfg.gamma * values.days[day + 1].values
    ci = int(np.searchsorted(c_grid, c))
    renewals = _renewal_values(disc, h_grid, c_grid, cfg)
    probs, best_buy = _best_buy_per_atom(renewals, price_law)
    expect = np.zeros(len(h_grid))
    for p, b in zip(probs, best_buy):
        expect += p * np.minimum(disc[:, ci], b)
    pi_grid = table.pi_grid
    inner = (pi_grid[:, None] * h_grid[None, :] + expect[None, :]).min(axis=1)
    obj = table.table.values[ci, :] + inner - pi_grid * h
    return float(pi_grid[int(np.argmax(obj))])  # first max: smallest surcharge


def select_resource(
    h: float,
    c: float,
    day: int,
    table: IntradayResourceTable,
    values: SlowValueSeq,
    price_law: DiscreteDist,
    cfg: BatteryConfig,
) -> float:
    """Tomorrow's health target at (h, c) per the upper-bound recursion's
    objective; ties go to the largest target (least aging)."""
    h_grid, c_grid = values.days[day].grid.axes
    disc = cfg.gamma * values.days[day + 1].values
    ci = int(np.searchsorted(c_grid, c))
    renewals = _renewal_values(disc, h_grid, c_grid, cfg)
    probs, best_buy = _best_buy_per_atom(renewals, price_law)
    dh_grid = table.dh_grid
    h_next = h - dh_grid
    feasible = h_next >= -ADMISS_TOL
    keep = np.interp(np.clip(h_next, 0.0, None), h_grid, disc[:, ci])
    expect = np.zeros(len(dh_grid))
    for p, b in zip(probs, best_buy):
        expect += p * np.minimum(keep, b)
    obj = np.where(feasible, table.table.values[:, ci] + expect, INF)
    best_dh = float(dh_grid[int(np.argmin(obj))])  # first min: least aging
    return max(h - best_dh, 0.0)


def _nearest_idx(x: float, lo: float, step: float, n: int) -> int:
    if step == 0.0:
        return 0
    return min(max(int(round((x - lo) / step)), 0), n - 1)


def _choose_renewal(
    h_end: float, c: float, day: int, values: SlowValueSeq, price_real: float,
    price_law: DiscreteDist, cfg: BatteryConfig,
) -> float:
    """Renewal size minimizing the continuation, using the price atom nearest
    the realized battery price; ties keep the smaller size."""
    diffs = np.abs(price_law.support - price_real)
    p_hat = float(price_law.support[int(np.argmin(diffs))])
    vnext = values.days[day + 1]
    gamma = cfg.gamma
    best_r = 0.0
    best_v = gamma * float(vnext.eval_many(np.array([[max(h_end, 0.0), c]]))[0])
    for r in cfg.renewal_grid:
        if r <= 0.0:
            continue
        h_new = cfg.cycle_count(r) * r
        v = p_hat * r + gamma * float(vnext.eval_many(np.array([[h_new, r]]))[0])
        if v < best_v - 1e-12:
            best_r, best_v = float(r), v
    return best_r


def simulate_policy(
    scenarios: ScenarioSet,
    mode: str,
    tables: dict,
    values: SlowValueSeq,
    price_laws: list[DiscreteDist],
    classmap: PeriodicityClassMap,
    cfg: BatteryConfig,
    x0: BatteryState = BatteryState(0.0, 0.0, 0.0),
    n_controls: int = 21,
) -> tuple[list[SimulationRecord], SimulationStats]:
    """Replay the chosen decomposition's policy on every scenario.

    mode is "price" or "resource"; ``tables`` maps class id to the matching
    intraday table.  Cost accounting matches the offline recursions: day d's
    bill and renewal purchase are weighted by gamma^d, the final cost by
    gamma^(D+1).
    """
    if mode not in ("price", "resource"):
        raise ValueError(f"unknown mode {mode!r}")
    D = values.horizon
    if scenarios.n_days < D + 1:
        raise ValueError(
            f"scenarios cover {scenarios.n_days} days, horizon needs {D + 1}"
        )
    controls = control_grid(cfg, n_controls)
    up = np.maximum(controls, 0.0)
    um = np.maximum(-controls, 0.0)
    d_soc = cfg.charge_eff * up - cfg.discharge_eff * um
    usage = up + um
    c_grid = values.days[0].grid.axes[1]
    records = []
    for sid in range(scenarios.n_scenarios):
        rec = _simulate_one(
            sid, scenarios, mode, tables, values, price_laws, classmap, cfg, x0,
            controls, d_soc, usage, c_grid, D,
        )
        records.append(rec)
    totals = np.array([r.total_cost for r in records])
    stderr = float(totals.std(ddof=1) / np.sqrt(len(totals))) if len(totals) > 1 else 0.0
    return records, SimulationStats(mean=float(totals.mean()), stderr=stderr, totals=totals)


def _simulate_one(
    sid, scenarios, mode, tables, values, price_laws, classmap, cfg, x0,
    controls, d_soc, usage, c_grid, D,
):
    soc, h, c = x0.soc, x0.health, x0.capacity
    total = 0.0
    states = [BatteryState(soc, h, c)]
    renewals = []
    bills = []
    clamped = 0
    gamma = cfg.gamma
    disc = 1.0
    for d in range(D + 1):
        cls = int(classmap.day_to_class[d])
        table = tables[cls]
        ci = int(np.searchsorted(c_grid, c))
        netload = scenarios.netload[sid, d]
        n_slots = len(netload)
        soc_max = cfg.soc_fraction * c
        bill = 0.0
        if c == 0.0 or table.fast_values[ci] is None:
            for m in range(n_slots):
                bill += cfg.tariff.rate(m) * max(0.0, netload[m])
        elif mode == "price":
            pi = select_price(h, c, d, table, values, price_laws[d], cfg)
            pi_idx = int(np.searchsorted(table.pi_grid, pi))
            soc_grid = table.soc_grids[ci]
            s_step = soc_grid[1] - soc_grid[0]
            tabs = table.fast_values[ci]
            for m in range(n_slots):
                w = netload[m]
                rate = cfg.tariff.rate(m)
                soc_next = soc + d_soc
                feasible = (
                    (soc_next >= -ADMISS_TOL)
                    & (soc_next <= soc_max + ADMISS_TOL)
                    & (usage <= h + ADMISS_TOL)
                )
                if not feasible.any():
                    raise RuntimeError("no admissible control")
                idx = np.clip(np.round(soc_next / s_step).astype(int), 0, len(soc_grid) - 1)
                q = rate * np.maximum(0.0, w + controls) + pi * usage + tabs[m + 1][idx, pi_idx]
                q = np.where(feasible, q, INF)
                k = int(np.argmin(q))
                u = float(controls[k])
                bill += rate * max(0.0, w + u)
                soc_raw, h_raw = soc + d_soc[k], h - usage[k]
                soc = min(max(soc_raw, 0.0), soc_max)
                h = max(h_raw, 0.0)
                if soc != soc_raw or h != h_raw:
                    clamped += 1
        else:
            h_target = select_resource(h, c, d, table, values, price_laws[d], cfg)
            budget = max(h - h_target, 0.0)
            soc_grid = table.soc_grids[ci]
            s_step = soc_grid[1] - soc_grid[0]
            dh_grid = table.dh_grid
            b_step = dh_grid[1] - dh_grid[0]
            tabs = table.fast_values[ci]
            for m in range(n_slots):
                w = netload[m]
                rate = cfg.tariff.rate(m)
                soc_next = soc + d_soc
                b_next = budget - usage
                feasible = (
                    (soc_next >= -ADMISS_TOL)
                    & (soc_next <= soc_max + ADMISS_TOL)
                    & (b_next >= -ADMISS_TOL)
                )
                if not feasible.any():
                    raise RuntimeError("no admissible control")
                si = np.clip(np.round(soc_next / s_step).astype(int), 0, len(soc_grid) - 1)
                bi = np.clip(np.round(b_next / b_step).astype(int), 0, len(dh_grid) - 1)
                q = rate * np.maximum(0.0, w + controls) + tabs[m + 1][si, bi]
                q = np.where(feasible, q, INF)
                k = int(np.argmin(q))
                u = float(controls[k])
                bill += rate * max(0.0, w + u)
                soc_raw, h_raw = soc + d_soc[k], h - usage[k]
                soc = min(max(soc_raw, 0.0), soc_max)
                budget = max(budget - usage[k], 0.0)
                h = max(h_raw, 0.0)
                if soc != soc_raw or h != h_raw:
                    clamped += 1
        # admissibility at end of day
        if not (-ADMISS_TOL <= soc <= soc_max + ADMISS_TOL and h >= -ADMISS_TOL):
            raise RuntimeError(f"inadmissible state (soc={soc}, h={h}, c={c})")
        price_real = scenarios.battery_price[sid, d]
        r = _choose_renewal(h, c, d, values, price_real, price_laws[d], cfg)
        total += disc * (bill + price_real * r)
        disc *= gamma
        bills.append(bill)
        if r > 0.0:
            soc, h, c = 0.0, cfg.cycle_count(r) * r, r
            renewals.append((d, r))
        states.append(BatteryState(soc, h, c))
    total += disc * cfg.final_cost(h, c)
    return SimulationRecord(
        scenario_id=sid,
        states=tuple(states),
        renewals=tuple(renewals),
        total_cost=total,
        daily_bills=tuple(bills),
        clamp_count=clamped,
    )
