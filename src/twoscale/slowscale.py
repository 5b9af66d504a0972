"""Slow-time-scale Bellman recursions and the bound-gap report.

Two bounding sequences are computed backward over days:

- the resource recursion pins tomorrow's health to a deterministic target
  reachable by aging, giving an upper bound;
- the price recursion dualizes the health decrement with a deterministic
  nonnegative surcharge, giving a lower bound via conjugation.

Every recursion fills one array of shape (D+2,) + grid.shape, a
:class:`SlowValueSeq`, in one backward day loop.  The battery recursions work
on an (health, capacity) grid: each day takes the min (resource) or max
(price), over the day axis of the intraday tables (orientation (c, axis)), of
:func:`day_objective` at every capacity at once, which the online policies
reuse.  The generic recursions accept any day-decomposed model and are
exercised by the desk-scale oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import INF, DiscreteDist, Grid, GridValueFn, fenchel_conjugate, low_add_arrays
from .battery import BatteryConfig, fresh_state
from .intraday import FEAS_TOL, PRICE, RESOURCE, Decomposition, IntradayTable, PeriodicityClassMap
from .intraday import solve_fast_dp


@dataclass(frozen=True, eq=False)
class SlowValueSeq:
    """Per-day values on one grid: ``values[d]`` over ``grid`` for d in
    0..D+1, entry D+1 being the final cost; read-only, shape
    (D+2,) + grid.shape."""

    kind: str  # price-lower | resource-upper | exact-oracle
    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.kind not in ("price-lower", "resource-upper", "exact-oracle"):
            raise ValueError(f"unknown kind {self.kind!r}")
        values = np.asarray(self.values, dtype=float)
        if values.shape[1:] != self.grid.shape or len(values) < 2:
            raise ValueError(
                f"values of shape {values.shape} are not (D+2,) + {self.grid.shape}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def horizon(self) -> int:
        return len(self.values) - 2

    @property
    def days(self) -> tuple:
        """Every day's value function, a read-only view of ``values[d]``."""
        return tuple(GridValueFn(self.grid, v) for v in self.values)


def _backward(kind: str, grid: Grid, final, D: int, day) -> SlowValueSeq:
    """The slow-scale backward loop: values[D+1] = final, then
    values[d] = day(d, values[d+1]) for d = D..0."""
    values = np.empty((D + 2,) + grid.shape)
    values[D + 1] = final
    for d in range(D, -1, -1):
        values[d] = day(d, values[d + 1])
    return SlowValueSeq(kind, grid, values)


@dataclass(frozen=True)
class BoundReport:
    """Per-day gap summary between a lower and an upper value sequence."""

    max_rel_gap: np.ndarray  # per day, over the whole grid
    gap_at_x0: np.ndarray  # per day, at the designated initial state
    lower_at_x0: np.ndarray
    upper_at_x0: np.ndarray
    violations: int  # grid points with lower > upper beyond tolerance


def renewal_states(
    h_grid: np.ndarray, c_grid: np.ndarray, cfg: BatteryConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every size r > 0 on the renewal grid, with the (h, c) grid indices of
    its :func:`~twoscale.battery.fresh_state`.  Renewal states must be
    on-grid, the health within 1e-9 relative of a grid point."""
    sizes = np.array([r for r in cfg.renewal_grid if r > 0.0], dtype=float)
    h_new = fresh_state(sizes, cfg)[1]
    hi = np.abs(h_grid[None, :] - h_new[:, None]).argmin(axis=1)
    ci = np.minimum(np.searchsorted(c_grid, sizes), len(c_grid) - 1)
    off = (np.abs(h_grid[hi] - h_new) > 1e-9 * np.abs(h_new)) | (c_grid[ci] != sizes)
    if off.any():
        k = int(np.argmax(off))
        raise ValueError(f"renewal state ({h_new[k]}, {sizes[k]}) is not on the (h, c) grid")
    return sizes, hi, ci


def day_continuation(
    vnext: np.ndarray, price_law: DiscreteDist, cfg: BatteryConfig, renewal: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A day's discounted continuation from tomorrow's values over (h, c):
    disc = gamma * vnext, and per battery-price atom p its probability and the
    cheapest fresh battery, min over the :func:`renewal_states` r of
    p * r + disc at the fresh state (+inf with no size to buy)."""
    disc = cfg.gamma * vnext
    sizes, hi, ci = renewal
    atoms = price_law.probs > 0.0
    prices, probs = price_law.support[atoms], price_law.probs[atoms]
    buy = prices[:, None] * sizes[None, :] + disc[hi, ci][None, :]
    return disc, probs, buy.min(axis=1, initial=INF)


def _expect(keep: np.ndarray, probs: np.ndarray, best_buy: np.ndarray) -> np.ndarray:
    """Expected continuation when keeping the battery is worth ``keep``: per
    price atom, the cheaper of keeping it and buying a fresh one."""
    out = np.zeros_like(keep)
    for p, b in zip(probs, best_buy):
        out += p * np.minimum(keep, b)
    return out


def _interp(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x, xp, f)`` for every row f of ``fp`` at once, shape
    fp.shape[:1] + x.shape, with np.interp's float operations: f[j] at a grid
    point xp[j] and beyond the ends, else the slope (f[j+1] - f[j]) /
    (xp[j+1] - xp[j]) times x - xp[j] plus f[j], retried from xp[j+1] where
    that is NaN."""
    x = np.clip(x, xp[0], xp[-1])
    j = np.searchsorted(xp, x, side="right") - 1
    xj = xp[j]
    with np.errstate(invalid="ignore"):
        # slope[n-1] pads the last point, where x == xp[j] picks f0 anyway
        slope = np.concatenate([np.diff(fp) / np.diff(xp), np.zeros((len(fp), 1))], axis=1)
        s, f0 = np.take(slope, j, axis=1), np.take(fp, j, axis=1)
        out = np.where(x == xj, f0, s * (x - xj) + f0)
        nan = np.isnan(out)
        if nan.any():
            k = np.minimum(j + 1, len(xp) - 1)
            f1 = np.take(fp, k, axis=1)
            back = s * (x - xp[k]) + f1
            out = np.where(nan, np.where(np.isnan(back) & (f0 == f1), f0, back), out)
    return out


def day_objective(
    table: IntradayTable, h: np.ndarray, ci, continuation, h_grid: np.ndarray, tol: float
) -> np.ndarray:
    """A day's objective at health values h and capacity indices ci (an index
    array or a slice), shaped (len(ci), len(h), len(table.axis)); the day's
    value is its min (resource) or max (price) over the axis.

    Resource: the intraday cost of budget dh plus the expected continuation at
    tomorrow's health h - dh, +inf where h - dh < -tol.  Price: the intraday
    cost at surcharge pi, plus the cheapest end-of-day health priced at pi,
    minus pi * h.
    """
    disc, probs, best_buy = continuation
    ell, axis = table.table.values[ci], table.axis
    if table.decomposition.budget_axis:
        h_next = h[:, None] - axis[None, :]
        keep = _interp(np.maximum(h_next, 0.0), h_grid, disc[:, ci].T)
        return np.where(h_next >= -tol, ell[:, None, :] + _expect(keep, probs, best_buy), INF)
    expect = _expect(disc[:, ci].T, probs, best_buy)
    inner = (axis[None, :, None] * h_grid + expect[:, None, :]).min(axis=2)
    # built over (c, axis, h) so that reducing over the short axis runs along rows
    out = ell[:, :, None] + inner[:, :, None] - axis[:, None] * h[None, :]
    return out.transpose(0, 2, 1)


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

    Each day reduces :func:`day_objective` over the day axis, at every
    capacity at once: resource picks an aging budget dh (tomorrow's health
    target h - dh >= 0, an upper bound), price the best surcharge pi >= 0 on
    the health decrement (a lower bound).  Per battery-price atom the day
    ends by keeping the battery or buying a fresh one.  Day costs are
    undiscounted; the continuation is scaled by the daily discount factor
    (total cost is sum of gamma^d day costs).
    """
    if any(tab.decomposition != dec for tab in tables.values()):
        raise ValueError(f"the {dec.mode} recursion needs {dec.mode} intraday tables")
    h_grid = np.asarray(h_grid, dtype=float)
    c_grid = np.asarray(c_grid, dtype=float)
    renewal = renewal_states(h_grid, c_grid, cfg)
    reduce = np.minimum.reduce if dec.budget_axis else np.maximum.reduce

    def day(d, vnext):
        table = tables[int(classmap.day_to_class[d])]
        cont = day_continuation(vnext, price_laws[d], cfg, renewal)
        return reduce(day_objective(table, h_grid, slice(None), cont, h_grid, FEAS_TOL), axis=2).T

    grid = Grid([h_grid, c_grid])
    final = [cfg.final_cost(h, c) for h, c in grid.points()]
    return _backward(dec.kind, grid, np.reshape(final, grid.shape), D, day)


resource_bellman_recursion = partial(_bellman_recursion, RESOURCE)
price_bellman_recursion = partial(_bellman_recursion, PRICE)


def generic_resource_recursion(problem) -> SlowValueSeq:
    """Upper bound for a generic day-decomposed model: each day solves a fast DP
    with terminal constraint (end state >= target), then minimizes target cost
    plus the next-day value at the target."""
    states = problem.states
    grid = Grid([states])

    def day(d, vnext):
        model = problem.day_model(d)
        # intraday cost as a function of (start state, target): one DP per target
        ell = np.empty((len(states), len(states)))
        for ri, r in enumerate(states):
            terminal = GridValueFn(grid, np.where(states >= r - 1e-12, 0.0, INF))
            ell[:, ri] = solve_fast_dp(model, terminal).values[0].values
        return low_add_arrays(ell, vnext[None, :]).min(axis=1)

    return _backward("resource-upper", grid, problem.final_cost, problem.D, day)


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

    def day(d, vnext):
        model = problem.day_model(d)
        conj = fenchel_conjugate(GridValueFn(grid, vnext), price_grid)
        cand = np.empty((len(price_grid.axes[0]), len(states)))
        for pi, p in enumerate(price_grid.axes[0]):
            ell_p = solve_fast_dp(model, GridValueFn(grid, p * states)).values[0].values
            cv = conj.values[pi]
            neg_conj = -INF if (np.isposinf(cv)) else (INF if np.isneginf(cv) else -cv)
            cand[pi] = low_add_arrays(ell_p, np.full(len(states), neg_conj))
        return cand.max(axis=0)

    return _backward("price-lower", grid, problem.final_cost, problem.D, day)


def block_bellman_solve(problem, inequality: bool = False) -> SlowValueSeq:
    """Exact slow-scale value by time blocks: one fast DP per day, chained
    through the day boundary (identity, or a relaxation picking the cheapest
    dominated state when the dynamics are inequalities)."""
    grid = Grid([problem.states])

    def day(d, vnext):
        boundary = np.minimum.accumulate(vnext) if inequality else vnext
        return solve_fast_dp(problem.day_model(d), GridValueFn(grid, boundary)).values[0].values

    return _backward("exact-oracle", grid, problem.final_cost, problem.D, day)


def check_sandwich(
    lower: SlowValueSeq, upper: SlowValueSeq, x0, tol: float = 1e-6
) -> BoundReport:
    """Per-day gap report; flags grid points where lower exceeds upper.

    Both sequences must lie on one grid, so x0 is located on it once."""
    if lower.horizon != upper.horizon:
        raise ValueError("sequences cover different horizons")
    if lower.grid != upper.grid:
        raise ValueError("the sequences lie on different grids")
    n = len(lower.values)
    grid = lower.grid
    max_rel, gap0, lo0, up0 = (np.empty(n) for _ in range(4))
    violations = 0
    base, frac = grid.interp_plan(np.asarray(x0, dtype=float).reshape(1, -1))
    for d in range(n):
        lv, uv = lower.values[d], upper.values[d]
        denom = np.maximum(np.abs(lv), 1e-9)
        rel = (uv - lv) / denom
        max_rel[d] = float(rel.max())
        violations += int(np.sum(lv > uv + tol * denom))
        l0 = float(GridValueFn(grid, lv).blend(base, frac)[0])
        u0 = float(GridValueFn(grid, uv).blend(base, frac)[0])
        lo0[d], up0[d] = l0, u0
        gap0[d] = (u0 - l0) / max(abs(l0), 1e-9)
    return BoundReport(max_rel, gap0, lo0, up0, violations)
