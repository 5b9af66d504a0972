"""Slow-time-scale Bellman recursions and the bound-gap report.

Two bounding sequences are computed backward over days:

- the resource recursion pins tomorrow's health to a deterministic target
  reachable by aging, giving an upper bound;
- the price recursion dualizes the health decrement with a deterministic
  nonnegative surcharge, giving a lower bound via conjugation.

The battery recursions work on an (health, capacity) grid and share one day
loop: each day takes the min (resource) or max (price), over the day axis of
the intraday tables (orientation (c, axis)), of :func:`day_objective`, which
the online policies reuse.  The generic recursions accept any day-decomposed
model and are exercised by the desk-scale oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import (
    INF,
    DiscreteDist,
    Grid,
    GridValueFn,
    fenchel_conjugate,
    low_add_arrays,
)
from .battery import BatteryConfig, fresh_state
from .intraday import (
    FEAS_TOL,
    PRICE,
    RESOURCE,
    Decomposition,
    IntradayTable,
    PeriodicityClassMap,
    solve_fast_dp,
)


@dataclass(frozen=True)
class SlowValueSeq:
    """Per-day value functions, index d in 0..D+1; entry D+1 is the final cost."""

    kind: str  # price-lower | resource-upper | exact-oracle
    days: tuple
    # the (D+2,) + grid.shape array the days are views of, when they share one
    values: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("price-lower", "resource-upper", "exact-oracle"):
            raise ValueError(f"unknown kind {self.kind!r}")

    @classmethod
    def on_grid(cls, kind: str, grid: Grid, values: np.ndarray) -> "SlowValueSeq":
        """Days as read-only views into one array of shape
        (D+2,) + grid.shape, all on the one ``grid``."""
        values = np.asarray(values, dtype=float)
        values.setflags(write=False)
        days = tuple(GridValueFn(grid, v) for v in values)
        return cls(kind=kind, days=days, values=values)

    @property
    def horizon(self) -> int:
        return len(self.days) - 2


@dataclass(frozen=True)
class BoundReport:
    """Per-day gap summary between a lower and an upper value sequence."""

    max_rel_gap: np.ndarray  # per day, over the whole grid
    gap_at_x0: np.ndarray  # per day, at the designated initial state
    lower_at_x0: np.ndarray
    upper_at_x0: np.ndarray
    violations: int  # grid points with lower > upper beyond tolerance


def final_cost_fn(cfg: BatteryConfig, h_grid: np.ndarray, c_grid: np.ndarray) -> GridValueFn:
    grid = Grid([h_grid, c_grid])
    pts = grid.points()
    vals = np.array([cfg.final_cost(h, c) for h, c in pts])
    return GridValueFn(grid, vals)


def _renewal_values(
    vnext: np.ndarray, h_grid: np.ndarray, c_grid: np.ndarray, cfg: BatteryConfig
) -> np.ndarray:
    """Value of installing a fresh battery of each size r > 0 on the renewal
    grid: vnext at its :func:`~twoscale.battery.fresh_state`.  Renewal states
    must be on-grid, the health within 1e-9 relative of a grid point."""
    out = []
    sizes = [r for r in cfg.renewal_grid if r > 0.0]
    for r, h_new in zip(sizes, fresh_state(sizes, cfg)[1]):
        hi = int(np.argmin(np.abs(h_grid - h_new)))
        ci = np.searchsorted(c_grid, r)
        off_h = abs(h_grid[hi] - h_new) > 1e-9 * abs(h_new)
        if off_h or ci >= len(c_grid) or c_grid[ci] != r:
            raise ValueError(f"renewal state ({h_new}, {r}) is not on the (h, c) grid")
        out.append((r, vnext[hi, ci]))
    return out


def day_continuation(
    vnext: np.ndarray, price_law: DiscreteDist, cfg: BatteryConfig,
    h_grid: np.ndarray, c_grid: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A day's discounted continuation from tomorrow's values over (h, c):
    disc = gamma * vnext, and per battery-price atom p its probability and the
    cheapest fresh battery, min over sizes r > 0 of p * r + disc at the fresh
    state (+inf with no size to buy)."""
    disc = cfg.gamma * vnext
    renewals = _renewal_values(disc, h_grid, c_grid, cfg)
    probs, best_buy = [], []
    for p, prob in price_law.atoms():
        cands = [float(p) * r + v for r, v in renewals]
        best_buy.append(min(cands) if cands else INF)
        probs.append(prob)
    return disc, np.asarray(probs), np.asarray(best_buy)


def _expect(keep: np.ndarray, probs: np.ndarray, best_buy: np.ndarray) -> np.ndarray:
    """Expected continuation when keeping the battery is worth ``keep``: per
    price atom, the cheaper of keeping it and buying a fresh one."""
    out = np.zeros_like(keep)
    for p, b in zip(probs, best_buy):
        out += p * np.minimum(keep, b)
    return out


def day_objective(
    table: IntradayTable, h: np.ndarray, ci: int, continuation, h_grid: np.ndarray, tol: float
) -> np.ndarray:
    """A day's objective at health values h and capacity index ci, shaped
    (len(h), len(table.axis)); the day's value is its min (resource) or max
    (price) over the axis.

    Resource: the intraday cost of budget dh plus the expected continuation at
    tomorrow's health h - dh, +inf where h - dh < -tol.  Price: the intraday
    cost at surcharge pi, plus the cheapest end-of-day health priced at pi,
    minus pi * h.
    """
    disc, probs, best_buy = continuation
    ell, axis = table.table.values[ci], table.axis
    if table.decomposition.budget_axis:
        h_next = h[:, None] - axis[None, :]
        keep = np.interp(np.maximum(h_next, 0.0), h_grid, disc[:, ci])
        return np.where(h_next >= -tol, ell[None, :] + _expect(keep, probs, best_buy), INF)
    expect = _expect(disc[:, ci], probs, best_buy)
    inner = (axis[:, None] * h_grid[None, :] + expect[None, :]).min(axis=1)
    # built over (axis, h) so that reducing over the short axis runs along rows
    return (ell[:, None] + inner[:, None] - axis[:, None] * h[None, :]).T


def _bellman_recursion(
    dec: Decomposition,
    tables: dict[int, IntradayTable],
    classmap: PeriodicityClassMap,
    price_laws: list[DiscreteDist],
    cfg: BatteryConfig,
    h_grid: np.ndarray,
    c_grid: np.ndarray,
    D: int,
) -> SlowValueSeq:
    """Bound recursion of one decomposition over (health, capacity).

    Each day, per capacity, reduces :func:`day_objective` over the day axis:
    resource picks an aging budget dh (tomorrow's health target h - dh >= 0,
    an upper bound), price the best surcharge pi >= 0 on the health decrement
    (a lower bound).  Per battery-price atom the day ends by keeping the
    battery or buying a fresh one.  Day costs are undiscounted; the
    continuation is scaled by the daily discount factor (total cost is sum of
    gamma^d day costs).
    """
    if any(tab.decomposition != dec for tab in tables.values()):
        raise ValueError(f"the {dec.mode} recursion needs {dec.mode} intraday tables")
    h_grid = np.asarray(h_grid, dtype=float)
    c_grid = np.asarray(c_grid, dtype=float)
    grid = Grid([h_grid, c_grid])
    reduce = np.minimum.reduce if dec.budget_axis else np.maximum.reduce
    values = np.empty((D + 2,) + grid.shape)
    values[D + 1] = final_cost_fn(cfg, h_grid, c_grid).values
    for d in range(D, -1, -1):
        table = tables[int(classmap.day_to_class[d])]
        cont = day_continuation(values[d + 1], price_laws[d], cfg, h_grid, c_grid)
        for ci in range(len(c_grid)):
            values[d, :, ci] = reduce(
                day_objective(table, h_grid, ci, cont, h_grid, FEAS_TOL), axis=1
            )
    return SlowValueSeq.on_grid(dec.kind, grid, values)


resource_bellman_recursion = partial(_bellman_recursion, RESOURCE)
price_bellman_recursion = partial(_bellman_recursion, PRICE)


def generic_resource_recursion(problem) -> SlowValueSeq:
    """Upper bound for a generic day-decomposed model: each day solves a fast DP
    with terminal constraint (end state >= target), then minimizes target cost
    plus the next-day value at the target."""
    states = problem.states
    grid = Grid([states])
    D = problem.D
    days: list[GridValueFn] = [None] * (D + 2)
    vnext = np.asarray(problem.final_cost, dtype=float)
    days[D + 1] = GridValueFn(grid, vnext)
    for d in range(D, -1, -1):
        model = problem.day_model(d)
        # intraday cost as a function of (start state, target): one DP per target
        ell = np.empty((len(states), len(states)))
        for ri, r in enumerate(states):
            term_vals = np.where(states >= r - 1e-12, 0.0, INF)
            terminal = GridValueFn(grid, term_vals)
            ell[:, ri] = solve_fast_dp(model, terminal).values[0].values
        vals = low_add_arrays(ell, vnext[None, :]).min(axis=1)
        days[d] = GridValueFn(grid, vals)
        vnext = vals
    return SlowValueSeq(kind="resource-upper", days=tuple(days))


def generic_price_recursion(problem, price_points: np.ndarray) -> SlowValueSeq:
    """Lower bound for a generic day-decomposed model: dualize the day-boundary
    coupling with nonpositive prices and subtract the conjugate of tomorrow's
    value."""
    price_points = np.asarray(price_points, dtype=float)
    if (price_points > 0).any():
        raise ValueError("price points must be nonpositive")
    states = problem.states
    grid = Grid([states])
    price_grid = Grid([np.sort(price_points)])
    D = problem.D
    days: list[GridValueFn] = [None] * (D + 2)
    vnext_fn = GridValueFn(grid, np.asarray(problem.final_cost, dtype=float))
    days[D + 1] = vnext_fn
    for d in range(D, -1, -1):
        model = problem.day_model(d)
        conj = fenchel_conjugate(vnext_fn, price_grid)
        cand = np.empty((len(price_grid.axes[0]), len(states)))
        for pi, p in enumerate(price_grid.axes[0]):
            terminal = GridValueFn(grid, p * states)
            ell_p = solve_fast_dp(model, terminal).values[0].values
            cv = conj.values[pi]
            neg_conj = -INF if (np.isposinf(cv)) else (INF if np.isneginf(cv) else -cv)
            cand[pi] = low_add_arrays(ell_p, np.full(len(states), neg_conj))
        vals = cand.max(axis=0)
        vnext_fn = GridValueFn(grid, vals)
        days[d] = vnext_fn
    return SlowValueSeq(kind="price-lower", days=tuple(days))


def block_bellman_solve(problem, inequality: bool = False) -> SlowValueSeq:
    """Exact slow-scale value by time blocks: one fast DP per day, chained
    through the day boundary (identity, or a relaxation picking the cheapest
    dominated state when the dynamics are inequalities)."""
    states = problem.states
    grid = Grid([states])
    D = problem.D
    days: list[GridValueFn] = [None] * (D + 2)
    vnext = np.asarray(problem.final_cost, dtype=float)
    days[D + 1] = GridValueFn(grid, vnext)
    for d in range(D, -1, -1):
        boundary = np.minimum.accumulate(vnext) if inequality else vnext
        terminal = GridValueFn(grid, boundary)
        vals = solve_fast_dp(problem.day_model(d), terminal).values[0].values
        days[d] = GridValueFn(grid, vals)
        vnext = vals
    return SlowValueSeq(kind="exact-oracle", days=tuple(days))


def check_sandwich(
    lower: SlowValueSeq, upper: SlowValueSeq, x0, tol: float = 1e-6
) -> BoundReport:
    """Per-day gap report; flags grid points where lower exceeds upper.

    Every day of both sequences must be on one grid, so x0 is located on it
    once."""
    if len(lower.days) != len(upper.days):
        raise ValueError("sequences cover different horizons")
    n = len(lower.days)
    grid = lower.days[0].grid
    max_rel = np.empty(n)
    gap0 = np.empty(n)
    lo0 = np.empty(n)
    up0 = np.empty(n)
    violations = 0
    base, frac = grid.interp_plan(np.asarray(x0, dtype=float).reshape(1, -1))
    for d in range(n):
        lo, up = lower.days[d], upper.days[d]
        if lo.grid != grid or up.grid != grid:
            raise ValueError(f"grid mismatch at day {d}")
        lv, uv = lo.values, up.values
        denom = np.maximum(np.abs(lv), 1e-9)
        rel = (uv - lv) / denom
        max_rel[d] = float(rel.max())
        violations += int(np.sum(lv > uv + tol * denom))
        l0 = float(lo.blend(base, frac)[0])
        u0 = float(up.blend(base, frac)[0])
        lo0[d], up0[d] = l0, u0
        gap0[d] = (u0 - l0) / max(abs(l0), 1e-9)
    return BoundReport(
        max_rel_gap=max_rel,
        gap_at_x0=gap0,
        lower_at_x0=lo0,
        upper_at_x0=up0,
        violations=violations,
    )
