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
intraday tables (orientation (c, axis)), of a :class:`DayObjective` at every
capacity at once, which the online policies reuse.  The battery-price laws
come as one (days, atoms) :class:`~twoscale.core.LawTable`.  The generic
recursions accept any day-decomposed model and are exercised by the
desk-scale oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import INF, BlendPlan, Grid, GridValueFn, LawTable, fenchel_conjugate, value_fault
from .battery import BatteryConfig, fresh_state
from .intraday import FEAS_TOL, PRICE, RESOURCE, Decomposition, IntradayTable, PeriodicityClassMap
from .intraday import solve_fast_dp

# values per bound in one block of days of check_sandwich: 256 KB per
# temporary, whose few live ones then total about 1 MB
SANDWICH_BLOCK = 1 << 15
# check_sandwich counts a violation where lower exceeds upper by more than
# this share of max(|lower|, 1e-9)
SANDWICH_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class SlowValueSeq:
    """Per-day values on one grid: ``values[d]`` over ``grid`` for d in
    0..D+1, entry D+1 being the final cost; read-only, shape
    (D+2,) + grid.shape, each value real or +inf, never NaN or -inf."""

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
        fault = value_fault(values)
        if fault:
            raise ValueError(f"{self.kind} values hold {fault}")
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
    """The slow-scale backward loop: values[D+1] = final, then day(d,
    values[d+1], values[d]) fills values[d] for d = D..0."""
    values = np.empty((D + 2,) + grid.shape)
    values[D + 1] = final
    for d in range(D, -1, -1):
        day(d, values[d + 1], values[d])
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


def day_continuation(vnext, by_size, probs, gamma: float, renewal: tuple, disc) -> list:
    """A day's discounted continuation from tomorrow's values ``vnext`` over
    (h, c): disc = gamma * vnext, written into the C-contiguous (c, h) array
    ``disc``, and, returned, per battery-price atom of positive probability
    in ``probs`` (a list) the pair of that probability and the cheapest fresh
    battery, min over the :func:`renewal_states` r of price * r + disc at the
    fresh state (+inf with no size to buy).  ``by_size`` holds the atoms'
    prices times every size r, shape (atoms, sizes)."""
    np.multiply(vnext.T, gamma, out=disc)
    _, hi, ci = renewal
    best_buy = (by_size + disc[ci, hi]).min(axis=1, initial=INF)
    return [(p, b) for p, b in zip(probs, best_buy.tolist()) if p > 0.0]


def _expect(keep: np.ndarray, atoms: list, out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """Expected continuation when keeping the battery is worth ``keep``: per
    (probability, cheapest purchase) pair of :func:`day_continuation`, the
    cheaper of keeping it and buying, times the probability, summed over the
    atoms in their order from +0.0 into ``out``; ``term`` is a buffer of
    its shape for each atom's term."""
    out.fill(0.0)
    for p, b in atoms:
        np.minimum(keep, b, out=term)
        term *= p
        out += term
    return out


class _Interp:
    """``np.interp(x, xp, f)`` at fixed points x, for the rows ``rows`` of
    any C-contiguous (n, len(xp)) array f, shape (len(rows),) + x.shape, with
    np.interp's float operations: f[j] at a grid point xp[j] and beyond the
    ends, else the slope (f[j+1] - f[j]) / (xp[j+1] - xp[j]) times x - xp[j]
    plus f[j], retried from xp[j+1] where that is NaN, which needs a
    non-finite f or slope.  A call gathers by flat index into buffers that
    the next call overwrites; it may compute NaN slopes, so run it under
    ``np.errstate(invalid="ignore")``."""

    def __init__(self, x: np.ndarray, xp: np.ndarray, rows: np.ndarray, n: int):
        self.xp, self.x = xp, np.clip(x, xp[0], xp[-1])
        self.j = np.searchsorted(xp, self.x, side="right") - 1
        xj = xp[self.j]
        self.dx, self.at, self.step = self.x - xj, self.x == xj, np.diff(xp)
        self.flat = np.reshape(rows, (-1,) + (1,) * self.x.ndim) * len(xp) + self.j
        # slope[:, -1] pads the last point, where x == xp[j] and dx = 0
        self.slope = np.zeros((n, len(xp)))
        self.f0, self.out = np.empty(self.flat.shape), np.empty(self.flat.shape)

    def __call__(self, fp: np.ndarray) -> np.ndarray:
        slope, f0, out = self.slope, self.f0, self.out
        np.subtract(fp[:, 1:], fp[:, :-1], out=slope[:, :-1])
        slope[:, :-1] /= self.step
        # every index is in range; "clip" skips the buffered bounds check
        np.take(fp, self.flat, out=f0, mode="clip")
        np.take(slope, self.flat, out=out, mode="clip")
        out *= self.dx
        out += f0
        np.copyto(out, f0, where=self.at)
        # a NaN needs a non-finite slope (an infinite f makes one), and then
        # the slopes' sum is not finite either
        if not math.isfinite(slope.sum()):
            _interp_retry(self, fp, out)
        return out


def _interp_retry(interp: _Interp, fp: np.ndarray, out: np.ndarray) -> None:
    """np.interp's second try where its first gave NaN: the slope times
    x - xp[j+1] plus f[j+1], or f[j] where that is NaN too and f[j] == f[j+1]."""
    nan = np.isnan(out)
    if not nan.any():
        return
    k = np.minimum(interp.j + 1, len(interp.xp) - 1)
    f0, f1 = interp.f0, np.take(fp, interp.flat + (k - interp.j))
    back = np.take(interp.slope, interp.flat) * (interp.x - interp.xp[k]) + f1
    np.copyto(out, np.where(np.isnan(back) & (f0 == f1), f0, back), where=nan)


class DayObjective:
    """A day's objective of one intraday table at health values h and the
    capacity indices ``ci`` (every capacity when None), for any day's
    :func:`day_continuation`: what depends on neither the day nor tomorrow's
    values is built once, and each call writes into buffers that the next
    call overwrites.  :meth:`reduce` turns the objective into the day's
    value, the min (resource) or max (price) over the table's day axis.

    ``shape`` is (len(h), len(axis)).  Resource: the objective covers only
    the feasible (h, dh) pairs, h - dh >= -tol, packed in h-major order: the
    health row ``hi`` and day-axis index ``ai`` of each pair, the start of
    each h row's run of pairs (``starts``) and whether the run holds any
    (``filled``: a row with no feasible budget has an empty run).  Per
    capacity and pair it is the intraday cost of budget dh (``ell``, shape
    (len(ci), pairs)) plus the expected continuation at tomorrow's health
    max(h - dh, 0), interpolated on the health grid; :meth:`unpack` spreads
    it over (len(ci), len(h), len(axis)) with +inf at the infeasible budgets.
    Price: shaped (len(ci), len(axis), len(h)), the intraday cost at
    surcharge pi, plus the cheapest end-of-day health h' priced at pi, minus
    pi * h.  A call may compute NaN slopes (see :class:`_Interp`).
    """

    def __init__(self, table: IntradayTable, h, h_grid: np.ndarray, tol: float, ci=None):
        h, axis = np.asarray(h, dtype=float), table.axis
        costs = table.table.values
        self.ci = None if ci is None else np.asarray(ci)
        rows = np.arange(len(costs)) if ci is None else self.ci
        self.shape = (len(h), len(axis))
        self.budget_axis = table.decomposition.budget_axis
        if self.budget_axis:
            self.hi, self.ai = hi, ai = np.nonzero(h[:, None] - axis[None, :] >= -tol)
            self.starts = np.searchsorted(hi, np.arange(len(h)))
            self.filled = np.bincount(hi, minlength=len(h)) > 0
            self.ell = costs[rows][:, ai]
            self.interp = _Interp(np.maximum(h[hi] - axis[ai], 0.0), h_grid, rows, len(costs))
            # the filled rows' runs of every capacity, in one flat array
            self.runs = (np.arange(len(rows))[:, None] * len(hi) + self.starts[self.filled]).ravel()
            self.cols = slice(None) if self.filled.all() else self.filled
            shape = self.ell.shape
        else:
            self.ell = costs[rows]
            self.pi_next, self.pi_h = axis[:, None] * h_grid, axis[:, None] * h
            self.inner = np.empty((len(rows), len(axis), len(h_grid)))
            self.obj = np.empty((len(rows), len(axis), len(h)))
            shape = (len(rows), len(h_grid))
        self.expect, self.term = np.empty(shape), np.empty(shape)

    def __call__(self, disc: np.ndarray, atoms: list) -> np.ndarray:
        """The objective from :func:`day_continuation`'s C-contiguous (c, h)
        ``disc`` over every capacity and its ``atoms``."""
        if self.budget_axis:
            out = _expect(self.interp(disc), atoms, self.expect, self.term)
            out += self.ell
            return out
        fp = disc if self.ci is None else disc[self.ci]
        expect = _expect(fp, atoms, self.expect, self.term)
        inner = np.minimum.reduce(np.add(self.pi_next, expect[:, None, :], out=self.inner), axis=2)
        inner += self.ell
        return np.subtract(inner[:, :, None], self.pi_h, out=self.obj)

    def reduce(self, obj: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The day's value per (capacity, h), written into ``out``: per h row
        the min over its feasible budgets, +inf on a row with none
        (resource), or the max over the surcharges (price)."""
        if not self.budget_axis:
            return np.maximum.reduce(obj, axis=1, out=out)
        if self.cols is self.filled:
            out[:, ~self.filled] = INF
        if len(self.runs):
            # reduceat gives an empty run the entry at its start, so only
            # the filled rows' runs are reduced
            out[:, self.cols] = np.minimum.reduceat(obj.ravel(), self.runs).reshape(len(out), -1)
        return out

    def unpack(self, obj: np.ndarray) -> np.ndarray:
        """The objective over (capacity, h, axis): a packed resource
        objective spread out with +inf at the infeasible budgets, a price
        objective transposed."""
        if not self.budget_axis:
            return obj.transpose(0, 2, 1)
        out = np.full((len(obj),) + self.shape, INF)
        out[:, self.hi, self.ai] = obj
        return out


def _bellman_recursion(
    dec: Decomposition,
    tables: dict[int, IntradayTable],
    classmap: PeriodicityClassMap,
    price_laws: LawTable,
    cfg: BatteryConfig,
    h_grid: np.ndarray,
    c_grid: np.ndarray,
    D: int,
) -> SlowValueSeq:
    """Bound recursion of one decomposition over (health, capacity).

    Each day reduces its class's :class:`DayObjective` over the day axis, at
    every capacity at once, straight into the day's values: resource picks
    an aging budget dh (tomorrow's health target h - dh >= 0, an upper
    bound), price the best surcharge pi >= 0 on the health decrement (a
    lower bound).  Per battery-price atom of day d's row of ``price_laws``
    the day ends by keeping the battery or buying a fresh one.  Day costs are
    undiscounted; the continuation is scaled by the daily discount factor
    (total cost is sum of gamma^d day costs), and the final cost is 0.
    """
    if any(tab.decomposition != dec for tab in tables.values()):
        raise ValueError(f"the {dec.mode} recursion needs {dec.mode} intraday tables")
    h_grid = np.asarray(h_grid, dtype=float)
    c_grid = np.asarray(c_grid, dtype=float)
    renewal = renewal_states(h_grid, c_grid, cfg)
    objectives = {cls: DayObjective(tab, h_grid, h_grid, FEAS_TOL) for cls, tab in tables.items()}
    day_class = classmap.day_to_class.tolist()
    # every day's atom prices times every renewal size, in one broadcast
    by_size = price_laws.support[:, :, None] * renewal[0]
    probs = price_laws.probs.tolist()
    disc = np.empty((len(c_grid), len(h_grid)))

    def day(d, vnext, out):
        atoms = day_continuation(vnext, by_size[d], probs[d], cfg.gamma, renewal, disc)
        objective = objectives[day_class[d]]
        objective.reduce(objective(disc, atoms), out.T)

    # a slope between infinite values is NaN, which the interpolation retries
    with np.errstate(invalid="ignore"):
        return _backward(dec.kind, Grid([h_grid, c_grid]), 0.0, D, day)


resource_bellman_recursion = partial(_bellman_recursion, RESOURCE)
price_bellman_recursion = partial(_bellman_recursion, PRICE)


def generic_resource_recursion(problem) -> SlowValueSeq:
    """Upper bound for a generic day-decomposed model: each day solves a fast DP
    with terminal constraint (end state >= target), then minimizes target cost
    plus the next-day value at the target."""
    states = problem.states
    grid = Grid([states])

    def day(d, vnext, out):
        model = problem.day_model(d)
        # intraday cost as a function of (start state, target): one DP per target
        ell = np.empty((len(states), len(states)))
        for ri, r in enumerate(states):
            terminal = GridValueFn(grid, np.where(states >= r - 1e-12, 0.0, INF))
            ell[:, ri] = solve_fast_dp(model, terminal).values[0].values
        out[...] = (ell + vnext[None, :]).min(axis=1)

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

    def day(d, vnext, out):
        model = problem.day_model(d)
        conj = fenchel_conjugate(GridValueFn(grid, vnext), price_grid)
        cand = np.empty((len(price_grid.axes[0]), len(states)))
        for pi, p in enumerate(price_grid.axes[0]):
            ell_p = solve_fast_dp(model, GridValueFn(grid, p * states)).values[0].values
            # a -inf conjugate (tomorrow infeasible everywhere) gives +inf
            cand[pi] = ell_p - conj[pi]
        out[...] = cand.max(axis=0)

    return _backward("price-lower", grid, problem.final_cost, problem.D, day)


def block_bellman_solve(problem) -> SlowValueSeq:
    """Exact slow-scale value by time blocks: one fast DP per day, chained
    through the day boundary (identity, or a relaxation picking the cheapest
    dominated state when the problem's dynamics are inequalities)."""
    grid = Grid([problem.states])

    def day(d, vnext, out):
        boundary = np.minimum.accumulate(vnext) if problem.inequality else vnext
        out[...] = solve_fast_dp(problem.day_model(d), GridValueFn(grid, boundary)).values[0].values

    return _backward("exact-oracle", grid, problem.final_cost, problem.D, day)


def check_sandwich(lower: SlowValueSeq, upper: SlowValueSeq, x0) -> BoundReport:
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
        # denom becomes uv + SANDWICH_TOL * denom
        denom *= SANDWICH_TOL
        denom += uv
        violations += int(np.count_nonzero(lv > denom))
        lo0[days], up0[days] = _blend_days(lv, corners), _blend_days(uv, corners)
    gap0 = (up0 - lo0) / np.maximum(np.abs(lo0), 1e-9)
    return BoundReport(max_rel, gap0, lo0, up0, violations)


def _blend_days(values: np.ndarray, corners: list) -> np.ndarray:
    """Per day of ``values``, shaped (days,) + grid shape,
    :meth:`~twoscale.core.BlendPlan.blend` at one point given by the flat
    index and weight of each corner of its plan: the same corners, weights
    and order, and +inf where a corner of positive weight is +inf."""
    flat = values.reshape(len(values), -1)
    raw = flat[:, [idx for idx, _ in corners]]
    # blend zeroes the +inf entries
    at = np.where(np.isposinf(raw), 0.0, raw)
    total = np.zeros(len(values))
    for k, (_, w) in enumerate(corners):
        total += at[:, k] * w
    active = raw[:, [w > 0.0 for _, w in corners]]
    return np.where(np.isposinf(active).any(axis=1), INF, total)
