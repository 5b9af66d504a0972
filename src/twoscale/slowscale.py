"""Slow-time-scale Bellman recursions and the bound-gap report.

Two bounding sequences are computed backward over days:

- the resource recursion pins tomorrow's health to a deterministic target
  reachable by aging, giving an upper bound;
- the price recursion dualizes the health decrement with a deterministic
  nonnegative surcharge, giving a lower bound via conjugation.

Every recursion fills one array of shape (D+2,) + grid.shape, a
:class:`SlowValueSeq`, in one backward day loop.  The battery recursions work
on an (health, capacity) grid: each day takes the min (resource, over the
feasible aging budgets alone) or max (price), over the day axis of the
intraday tables (orientation (c, axis)), of :func:`day_objective` at every
capacity at once, which the online policies reuse.  The generic recursions accept any day-decomposed model and are
exercised by the desk-scale oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import (
    INF, BlendPlan, DiscreteDist, Grid, GridValueFn, fenchel_conjugate, low_add_arrays,
)
from .battery import BatteryConfig, fresh_state
from .intraday import FEAS_TOL, PRICE, RESOURCE, Decomposition, IntradayTable, PeriodicityClassMap
from .intraday import solve_fast_dp

# values per bound in one block of days of check_sandwich: 256 KB per
# temporary, whose few live ones then total about 1 MB
SANDWICH_BLOCK = 1 << 15


@dataclass(frozen=True, eq=False)
class SlowValueSeq:
    """Per-day values on one grid: ``values[d]`` over ``grid`` for d in
    0..D+1, entry D+1 being the final cost; read-only, shape
    (D+2,) + grid.shape, never NaN."""

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
        if np.isnan(values).any():
            raise ValueError(f"{self.kind} values hold a NaN")
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
    price atom, the cheaper of keeping it and buying a fresh one, times the
    atom's probability, summed over the atoms in their order from 0.0."""
    atoms = (len(probs),) + (1,) * keep.ndim
    terms = np.minimum(keep, best_buy.reshape(atoms))
    terms *= probs.reshape(atoms)
    return sum(terms, np.zeros_like(keep))


@dataclass(frozen=True, eq=False)
class _InterpPlan:
    """Where points x fall on a grid xp: x clipped to the grid, the index j
    of the last grid point at or below it, x - xp[j] and x == xp[j], and the
    grid steps np.diff(xp)."""

    xp: np.ndarray
    x: np.ndarray
    j: np.ndarray
    dx: np.ndarray
    at: np.ndarray
    step: np.ndarray


def _interp_plan(x: np.ndarray, xp: np.ndarray) -> _InterpPlan:
    x = np.clip(x, xp[0], xp[-1])
    j = np.searchsorted(xp, x, side="right") - 1
    xj = xp[j]
    return _InterpPlan(xp, x, j, x - xj, x == xj, np.diff(xp))


def _interp_apply(plan: _InterpPlan, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x, xp, f)`` at the planned points x for every row f of
    ``fp`` at once, shape fp.shape[:1] + x.shape, with np.interp's float
    operations: f[j] at a grid point xp[j] and beyond the ends, else the slope
    (f[j+1] - f[j]) / (xp[j+1] - xp[j]) times x - xp[j] plus f[j], retried
    from xp[j+1] where that is NaN, which needs a non-finite f or slope."""
    with np.errstate(invalid="ignore"):
        # slope[n-1] pads the last point, where x == xp[j] picks f0 anyway
        slope = np.empty_like(fp)
        slope[:, -1] = 0.0
        np.subtract(fp[:, 1:], fp[:, :-1], out=slope[:, :-1])
        slope[:, :-1] /= plan.step
        f0 = np.take(fp, plan.j, axis=1)
        out = np.take(slope, plan.j, axis=1)
        out *= plan.dx
        out += f0
        np.copyto(out, f0, where=plan.at)
        if not (np.isfinite(fp).all() and np.isfinite(slope).all()):
            out = _interp_retry(plan, fp, slope, f0, out)
    return out


def _interp_retry(plan, fp, slope, f0, out):
    """np.interp's second try where its first gave NaN: the slope times
    x - xp[j+1] plus f[j+1], or f[j] where that is NaN too and f[j] == f[j+1]."""
    nan = np.isnan(out)
    if not nan.any():
        return out
    k = np.minimum(plan.j + 1, len(plan.xp) - 1)
    f1 = np.take(fp, k, axis=1)
    back = np.take(slope, plan.j, axis=1) * (plan.x - plan.xp[k]) + f1
    return np.where(nan, np.where(np.isnan(back) & (f0 == f1), f0, back), out)


@dataclass(frozen=True, eq=False)
class DayPlan:
    """The part of :func:`day_objective` at health values h that depends on
    neither the day nor the capacity, built by :func:`day_plan` once per
    caller.

    ``shape`` is (len(h), len(axis)).  Resource: only the feasible (h, dh)
    pairs, h - dh >= -tol, packed in h-major order: the health row ``hi``
    and day-axis index ``ai`` of each pair, the start of each h row's run of
    pairs (``starts``) and whether the run holds any (``filled``: a row with
    no feasible budget has an empty run), where tomorrow's health
    max(h - dh, 0) falls on the health grid at each pair (``lookup``), and
    the intraday cost of each pair at every capacity (``ell``, shape
    (capacities, pairs)).  Price: the products pi * h' over (axis, health
    grid) and pi * h over (axis, h).
    """

    shape: tuple
    hi: np.ndarray | None = None
    ai: np.ndarray | None = None
    starts: np.ndarray | None = None
    filled: np.ndarray | None = None
    lookup: _InterpPlan | None = None
    ell: np.ndarray | None = None
    pi_next: np.ndarray | None = None
    pi_h: np.ndarray | None = None

    def reduce(self, obj: np.ndarray) -> np.ndarray:
        """The day's value per (capacity, h) from :func:`day_objective`'s
        ``obj``: per h row the min over its feasible budgets, +inf on a row
        with none (resource), or the max over the surcharges (price)."""
        if self.ai is None:
            return np.maximum.reduce(obj, axis=2)
        if self.filled.all():
            return np.minimum.reduceat(obj, self.starts, axis=1)
        # reduceat gives an empty run the entry at its start, not +inf
        out = np.full((len(obj), self.shape[0]), INF)
        out[:, self.filled] = np.minimum.reduceat(obj, self.starts[self.filled], axis=1)
        return out

    def unpack(self, obj: np.ndarray) -> np.ndarray:
        """:func:`day_objective`'s ``obj`` over (capacity, h, axis): a packed
        resource objective spread out with +inf at the infeasible budgets, a
        price objective as it is."""
        if self.ai is None:
            return obj
        out = np.full((len(obj),) + self.shape, INF)
        out[:, self.hi, self.ai] = obj
        return out


def day_plan(table: IntradayTable, h: np.ndarray, h_grid: np.ndarray, tol: float) -> DayPlan:
    """The :class:`DayPlan` of the table's day axis at health values h, with
    h - dh >= -tol the feasible budgets."""
    h, axis = np.asarray(h, dtype=float), table.axis
    shape = (len(h), len(axis))
    if table.decomposition.budget_axis:
        hi, ai = np.nonzero(h[:, None] - axis[None, :] >= -tol)
        return DayPlan(
            shape, hi=hi, ai=ai, starts=np.searchsorted(hi, np.arange(len(h))),
            filled=np.bincount(hi, minlength=len(h)) > 0,
            lookup=_interp_plan(np.maximum(h[hi] - axis[ai], 0.0), h_grid),
            ell=table.table.values[:, ai],
        )
    return DayPlan(shape, pi_next=axis[:, None] * h_grid, pi_h=axis[:, None] * h[None, :])


def day_objective(table: IntradayTable, plan: DayPlan, ci, continuation) -> np.ndarray:
    """A day's objective at the plan's health values h and capacity indices
    ci (an index array or a slice); :meth:`DayPlan.reduce` turns it into the
    day's value, the min (resource) or max (price) over the day axis.

    Resource: shaped (len(ci), pairs), at the plan's feasible (h, dh) pairs
    only, the intraday cost of budget dh plus the expected continuation at
    tomorrow's health max(h - dh, 0); :meth:`DayPlan.unpack` spreads it over
    (len(ci), len(h), len(table.axis)) with +inf at the infeasible budgets.
    Price: shaped (len(ci), len(h), len(table.axis)), the intraday cost at
    surcharge pi, plus the cheapest end-of-day health priced at pi, minus
    pi * h.
    """
    disc, probs, best_buy = continuation
    fp = disc[:, ci].T
    if table.decomposition.budget_axis:
        out = _expect(_interp_apply(plan.lookup, fp), probs, best_buy)
        out += plan.ell[ci]
        return out
    ell = table.table.values[ci]
    expect = _expect(fp, probs, best_buy)
    inner = (plan.pi_next[None, :, :] + expect[:, None, :]).min(axis=2)
    # built over (c, axis, h) so that reducing over the short axis runs along rows
    out = ell[:, :, None] + inner[:, :, None] - plan.pi_h
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
    (total cost is sum of gamma^d day costs), and the final cost is 0.
    """
    if any(tab.decomposition != dec for tab in tables.values()):
        raise ValueError(f"the {dec.mode} recursion needs {dec.mode} intraday tables")
    h_grid = np.asarray(h_grid, dtype=float)
    c_grid = np.asarray(c_grid, dtype=float)
    renewal = renewal_states(h_grid, c_grid, cfg)
    plans = {cls: day_plan(tab, h_grid, h_grid, FEAS_TOL) for cls, tab in tables.items()}

    def day(d, vnext):
        cls = int(classmap.day_to_class[d])
        cont = day_continuation(vnext, price_laws[d], cfg, renewal)
        plan = plans[cls]
        return plan.reduce(day_objective(tables[cls], plan, slice(None), cont)).T

    return _backward(dec.kind, Grid([h_grid, c_grid]), 0.0, D, day)


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

    Both sequences must lie on one grid, so x0 is located on it once.  The
    days are checked in blocks of about SANDWICH_BLOCK values per bound, so
    the temporaries stay small however long the horizon."""
    if lower.horizon != upper.horizon:
        raise ValueError("sequences cover different horizons")
    if lower.grid != upper.grid:
        raise ValueError("the sequences lie on different grids")
    n = len(lower.values)
    grid = lower.grid
    max_rel, lo0, up0 = np.empty(n), np.empty(n), np.empty(n)
    violations = 0
    plan = BlendPlan(grid, *grid.interp_plan(np.asarray(x0, dtype=float).reshape(1, -1)))
    corners = [(int(plan.base[0]) + offset, w[0]) for offset, w in plan.corners]
    step = max(1, SANDWICH_BLOCK // grid.size)
    for a in range(0, n, step):
        days = slice(a, min(a + step, n))
        lv, uv = lower.values[days], upper.values[days]
        denom = np.abs(lv)
        np.maximum(denom, 1e-9, out=denom)
        rel = uv - lv
        rel /= denom
        max_rel[days] = rel.reshape(len(rel), -1).max(axis=1)
        # denom becomes uv + tol * denom
        denom *= tol
        denom += uv
        violations += int(np.count_nonzero(lv > denom))
        lo0[days], up0[days] = _blend_days(lv, corners), _blend_days(uv, corners)
    gap0 = (up0 - lo0) / np.maximum(np.abs(lo0), 1e-9)
    return BoundReport(max_rel, gap0, lo0, up0, violations)


def _blend_days(values: np.ndarray, corners: list) -> np.ndarray:
    """Per day of ``values``, shaped (days,) + grid shape,
    :meth:`~twoscale.core.BlendPlan.blend` at one point given by the flat
    index and weight of each corner of its plan: the same corners, weights
    and order, and the same infinities, +inf where a corner of positive
    weight is +inf and -inf where one is -inf."""
    flat = values.reshape(len(values), -1)
    raw = flat[:, [idx for idx, _ in corners]]
    # blend zeroes the infinite entries (a SlowValueSeq holds no NaN)
    at = np.where(np.isinf(raw), 0.0, raw)
    total = np.zeros(len(values))
    for k, (_, w) in enumerate(corners):
        total += at[:, k] * w
    active = raw[:, [w > 0.0 for _, w in corners]]
    out = np.where(np.isposinf(active).any(axis=1), INF, total)
    return np.where(np.isneginf(active).any(axis=1), -INF, out)
