"""Fast-time-scale backward dynamic programming: the generic solver plus the
battery-specific daily cost tables.

A decomposition (:data:`PRICE` or :data:`RESOURCE`) couples consecutive days
through one day axis, and each periodicity class gets one
:class:`IntradayTable` per decomposition, over (capacity c, axis):

- resource tables: optimal daily bill as a function of the aging budget dh,
  carried through the day as an explicit remaining-exchangeable-energy state;
- price tables: optimal daily bill plus a per-kWh aging surcharge pi, a static
  state axis.

Both start the day with an empty battery (state of charge pinned to 0).  A
table keeps the per-step values of every capacity's DP for the replay as one
array, over (capacity after c = 0, step, soc, axis), in the same form as the
pipeline stores it: one ``intraday_{R,P}.npz`` per decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .core import INF, DiscreteDist, Grid, GridValueFn, low_add_arrays
from . import battery
from .battery import BatteryConfig

FEAS_TOL = 1e-9


@dataclass(frozen=True)
class Decomposition:
    """How one decomposition couples consecutive days through its day axis.

    mode: its name in the pipeline and the simulator; letter: its artifact
    letter; kind: the :class:`~twoscale.slowscale.SlowValueSeq` kind of its
    bound; budget_axis: the day axis is an aging budget that the fast dynamics
    consume and the day minimizes over (resource, upper bound), otherwise a
    static surcharge the day maximizes over (price, lower bound).
    """

    mode: str
    letter: str
    kind: str
    budget_axis: bool


PRICE = Decomposition("price", "P", "price-lower", budget_axis=False)
RESOURCE = Decomposition("resource", "R", "resource-upper", budget_axis=True)
DECOMPOSITIONS = (PRICE, RESOURCE)


def decomposition(name: str) -> Decomposition:
    """The decomposition with this mode or bound kind."""
    for dec in DECOMPOSITIONS:
        if name in (dec.mode, dec.kind):
            return dec
    raise ValueError(f"unknown mode {name!r}")


@dataclass(frozen=True)
class FastStage:
    """One fast step: state grid, control points, noise law and handles.

    Both handles take the (n, ndim) state array, the whole control array and
    one noise atom w, and broadcast over (controls, states):
    cost(states, controls, w) returns shape (len(controls), n), +inf marking
    an infeasible control; dynamics(states, controls, w) returns the next
    states, shape (len(controls), n, ndim of the next grid).  The solver
    plans the interpolation of a next-state array, checking both shapes, and
    reuses the plan while dynamics returns that same array object onto the
    same next grid; so a transition that ignores w returns one read-only
    array at every atom and stage.
    """

    state_grid: Grid
    controls: np.ndarray
    noise: DiscreteDist
    cost: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    dynamics: Callable[[np.ndarray, np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class FastStageModel:
    stages: tuple
    terminal_grid: Grid


@dataclass
class FastDpSolution:
    """Backward-induction output: one value function per fast step plus the
    terminal, index m in 0..M+1."""

    values: list[GridValueFn]


def _expect_start(n: int):
    """Empty (finite total, +inf mask, -inf mask) over n states."""
    return np.zeros(n), np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)


def _expect_accumulate(total, pos, neg, term: np.ndarray, p: float):
    """Accumulate p * term into (finite total, +inf mask, -inf mask)."""
    pos |= np.isposinf(term)
    neg |= np.isneginf(term)
    fin = np.isfinite(term)
    total += np.where(fin, p * term, 0.0)
    return total, pos, neg


def _expect_value(total, pos, neg) -> np.ndarray:
    """Expectation under lower addition: -inf dominates +inf."""
    return np.where(neg, -INF, np.where(pos, INF, total))


def _contract_shape(arr: np.ndarray, shape: tuple, handle: str) -> None:
    if np.shape(arr) != shape:
        raise ValueError(f"{handle} returned shape {np.shape(arr)}, expected {shape}")


def solve_fast_dp(model: FastStageModel, terminal: GridValueFn) -> FastDpSolution:
    """V_m(x) = E_w[ min_u cost(x,u,w) + V_{m+1}(dynamics(x,u,w)) ].

    All controls infeasible at some (m, x, w) yields V_m(x) = +inf, not an
    error.  Next states are clamped to the following stage's grid box.
    """
    if terminal.grid != model.terminal_grid:
        raise ValueError("terminal function grid does not match the model terminal grid")
    values: list[GridValueFn] = [terminal]
    vnext = terminal
    grid = states = None
    planned = planned_grid = plan = None
    for stage in reversed(model.stages):
        if stage.state_grid is not grid:
            grid, states = stage.state_grid, stage.state_grid.points()
        cont = None
        total, pos, neg = _expect_start(len(states))
        for w, p in stage.noise.atoms():
            nxt = stage.dynamics(states, stage.controls, w)
            cost = stage.cost(states, stage.controls, w)
            if nxt is not planned or vnext.grid is not planned_grid:
                shape = (len(stage.controls), len(states))
                _contract_shape(nxt, shape + (vnext.grid.ndim,), "dynamics")
                _contract_shape(cost, shape, "cost")
                planned, planned_grid, plan = nxt, vnext.grid, _interp_plan(nxt, vnext.grid)
                cont = None
            if cont is None:
                cont = vnext.blend(*plan)  # (controls, states)
            q = low_add_arrays(cost, cont).min(axis=0)
            total, pos, neg = _expect_accumulate(total, pos, neg, q, p)
        vnext = GridValueFn(stage.state_grid, _expect_value(total, pos, neg))
        values.append(vnext)
    values.reverse()
    return FastDpSolution(values)


def _interp_plan(nxt: np.ndarray, next_grid: Grid):
    """Interpolation plan on next_grid of next states shaped
    (controls, states, ndim): base (controls, states), frac (ndim, controls,
    states)."""
    base, frac = next_grid.interp_plan(nxt.reshape(-1, next_grid.ndim))
    return base.reshape(nxt.shape[:2]), frac.reshape((-1,) + nxt.shape[:2])


@dataclass(frozen=True)
class PeriodicityClassMap:
    """day -> class id, plus one representative day per class."""

    day_to_class: np.ndarray
    representatives: dict[int, int]

    def __post_init__(self):
        d2c = np.asarray(self.day_to_class, dtype=np.intp)
        d2c.setflags(write=False)
        object.__setattr__(self, "day_to_class", d2c)
        for cls, rep in self.representatives.items():
            if d2c[rep] != cls:
                raise ValueError(f"representative {rep} is not in class {cls}")


TRIMESTER_EDGES = (0, 90, 181, 273, 365)


def build_periodicity_classes(D: int, I: int) -> PeriodicityClassMap:
    """Map days 0..D to periodicity classes: one class, or four day-of-year
    ranges (trimesters) repeated cyclically over years."""
    if I < 1:
        raise ValueError("need at least one class")
    if I == 1:
        day_to_class = np.ones(D + 1, dtype=np.intp)
    else:
        if I != 4:
            raise ValueError("trimester scheme defines exactly 4 classes")
        doy = np.arange(D + 1) % 365
        day_to_class = np.searchsorted(np.array(TRIMESTER_EDGES[1:-1]), doy, side="right") + 1
    reps = {}
    for cls in np.unique(day_to_class):
        reps[int(cls)] = int(np.flatnonzero(day_to_class == cls)[0])
    return PeriodicityClassMap(day_to_class, reps)


@dataclass(frozen=True)
class IntradayTable:
    """Daily cost of one periodicity class by (capacity c, day axis), plus
    replay tables.

    The day axis is the aging budget dh (resource) or the surcharge pi
    (price).  ``fast`` holds the replay tables, built on ``n_controls``
    controls: the per-step values over the (soc, axis) grid of every capacity
    after c = 0, shape (n_c - 1, n_slots + 1, n_soc, n_axis); it is None when
    the replay tables are not loaded.
    """

    class_id: int
    decomposition: Decomposition
    table: GridValueFn  # over (c, axis)
    n_controls: int
    fast: np.ndarray | None = field(default=None, repr=False)

    @property
    def axis(self) -> np.ndarray:
        return self.table.grid.axes[1]


def no_battery_bill(slot_laws: Sequence[DiscreteDist], rates: Sequence[float]) -> float:
    """Expected daily bill with no battery: sum_m rates[m] * E[max(0, netload)]."""
    total = 0.0
    for rate, law in zip(rates, slot_laws, strict=True):
        total += rate * law.expectation(lambda w: max(0.0, float(w)))
    return total


class _BatteryCost:
    """Stage cost of one slot of a battery cell: the bill
    (:func:`~twoscale.battery.stage_cost`) plus the cell's noise-free part
    (feasibility mask and surcharge), shape (controls, states)."""

    def __init__(self, rate, fixed: np.ndarray):
        self.rate = rate
        self.fixed = fixed

    def __call__(self, states, controls, w):
        return battery.stage_cost(controls[:, None], w, self.rate) + self.fixed


def soc_grid_for(c: float, cfg: BatteryConfig, n_soc: int) -> np.ndarray:
    return np.linspace(0.0, battery.soc_max(c, cfg), n_soc)


def control_grid(cfg: BatteryConfig, n_controls: int) -> np.ndarray:
    return np.linspace(-cfg.u_max, cfg.u_max, n_controls)


def _cell_model(cfg, slot_laws, c, axis, n_soc, n_controls, budget_axis: bool):
    """The fast DP of one battery cell of capacity c over (soc, axis), and its
    zero terminal: (model, terminal).

    Each slot moves the soc by :func:`~twoscale.battery.fast_dynamics`; a
    budget axis loses the health a control uses, a surcharge axis stays.  The
    next states and the noise-free cost part (+inf where a control drives
    the soc out of its box or the budget below 0, else the surcharge
    pi * |u| on a surcharge axis and 0 on a budget axis) depend on neither
    the slot nor the noise, so they are computed once per cell.
    """
    grid = Grid([soc_grid_for(c, cfg, n_soc), axis])
    controls = control_grid(cfg, n_controls)
    states = grid.points()
    effect = battery.control_effect(controls[:, None], cfg)
    soc, budget = battery.fast_dynamics(states[:, 0], states[:, 1], effect)
    second = budget if budget_axis else states[:, 1]
    nxt = np.stack(np.broadcast_arrays(soc, second), axis=-1)
    nxt.setflags(write=False)
    bad = ~battery.in_soc_box(soc, c, cfg, FEAS_TOL)
    if budget_axis:
        bad |= budget < -FEAS_TOL
        extra = 0.0
    else:
        extra = states[:, 1] * effect[1]
    fixed = np.where(bad, INF, extra)
    stages = tuple(
        FastStage(
            state_grid=grid,
            controls=controls,
            noise=law,
            cost=_BatteryCost(rate, fixed),
            dynamics=lambda *_: nxt,
        )
        for rate, law in zip(cfg.rates, slot_laws, strict=True)
    )
    terminal = GridValueFn(grid, np.zeros(grid.shape))
    return FastStageModel(stages=stages, terminal_grid=grid), terminal


def _fast_cell(cfg, slot_laws, c, axis, n_soc, n_controls, budget_axis: bool) -> np.ndarray:
    """Daily DP for one capacity over (soc, axis), starting from an empty
    battery; axis is the aging budget (resource cell) or the surcharge, a
    static state axis (price cell), so one sweep covers the whole axis.
    Returns the per-step values, shape (n_slots + 1, n_soc, n_axis); entry
    [0, 0] is the day-start row (soc = 0) over axis."""
    model, terminal = _cell_model(cfg, slot_laws, c, axis, n_soc, n_controls, budget_axis)
    sol = solve_fast_dp(model, terminal)
    return np.stack([v.values for v in sol.values])


def compute_intraday(
    dec: Decomposition,
    class_id: int,
    cfg: BatteryConfig,
    slot_laws: Sequence[DiscreteDist],
    c_grid: np.ndarray,
    axis: np.ndarray,
    n_soc: int,
    n_controls: int,
    fast: np.ndarray | None = None,
) -> IntradayTable:
    """Intraday table of one decomposition for one periodicity class.

    c_grid starts at 0.  The c = 0 row is the no-battery bill; so is the
    dh = 0 entry of any resource row (zero budget forces u = 0).  ``fast`` may
    hold the precomputed cells of the capacities after c = 0, stacked as
    :attr:`IntradayTable.fast` (parallel runs).
    """
    c_grid = np.asarray(c_grid, dtype=float)
    axis = np.asarray(axis, dtype=float)
    if c_grid[0] != 0.0:
        raise ValueError("the capacity grid must start at c = 0")
    if (axis < 0).any():
        raise ValueError("aging budgets and surcharges must be nonnegative")
    if fast is None:
        fast = np.stack([
            _fast_cell(cfg, slot_laws, c, axis, n_soc, n_controls, dec.budget_axis)
            for c in c_grid[1:]
        ])
    values = np.empty((len(c_grid), len(axis)))
    values[0, :] = no_battery_bill(slot_laws, cfg.rates)
    values[1:, :] = fast[:, 0, 0, :]
    table = GridValueFn(Grid([c_grid, axis]), values)
    return IntradayTable(class_id, dec, table, n_controls, fast)


compute_resource_intraday = partial(compute_intraday, RESOURCE)
compute_price_intraday = partial(compute_intraday, PRICE)
