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

from .core import INF, BlendPlan, Grid, GridValueFn, LawTable, value_fault
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
    """One fast step: state grid, control points, handles and the noise-free
    cost part; its noise law is a row of :attr:`FastStageModel.noise`.

    The stage cost is ``cost(states, controls, w) + fixed``: ``fixed``,
    shape (len(controls), n) over the n grid states, is the part that
    depends on no noise atom, +inf marking an infeasible control; the
    ``cost`` handle returns the noise part, shape (len(controls), n) or
    (len(controls), 1) for one value per control.  Each part is a real cost
    or +inf; a part of -inf or NaN makes :func:`solve_fast_dp` raise
    ValueError.  Both handles take the (n, ndim) state array, the whole
    control array and one noise atom w; dynamics(states, controls, w)
    returns the next states, shape (len(controls), n, ndim of the next
    grid).  The solver plans the interpolation of a next-state array,
    checking its shape, and reuses the plan while dynamics returns that same
    array object onto the same next grid; so a transition that ignores w
    returns one read-only array at every atom and stage.
    """

    state_grid: Grid
    controls: np.ndarray
    cost: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    dynamics: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    fixed: np.ndarray


@dataclass(frozen=True)
class FastStageModel:
    """The fast steps of one day, the grid of its terminal values and the
    noise laws of its steps as one (steps, atoms) table: row m is the law of
    the noise w of step m, its atoms of probability 0 never evaluated."""

    stages: tuple
    terminal_grid: Grid
    noise: LawTable

    def __post_init__(self):
        if len(self.noise.probs) != len(self.stages):
            raise ValueError(f"{len(self.noise.probs)} noise laws for {len(self.stages)} stages")


@dataclass
class FastDpSolution:
    """Backward-induction output: one value function per fast step plus the
    terminal, index m in 0..M+1, and the share of the stages' control rows
    the solver evaluated."""

    values: list[GridValueFn]
    live_controls: float


def _contract_shape(arr: np.ndarray, shapes: tuple, what: str) -> None:
    if np.shape(arr) not in shapes:
        want = " or ".join(str(shape) for shape in shapes)
        raise ValueError(f"{what} shape {np.shape(arr)}, expected {want}")


def _rows(mask: np.ndarray):
    """The rows where mask holds, as a slice when they are contiguous."""
    rows = np.flatnonzero(mask)
    return slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] + 1 == len(rows) else rows


class _LiveControls:
    """The control rows of one noise-free part ``fixed`` (controls, states)
    that can attain a minimum: the rows not +inf at every state, or the first
    row when every row is.  Dropping the others changes no value: such a row
    is never below a kept row, and a state where every row is +inf still
    reads +inf.

    ``fixed`` holds the kept rows; ``one_add`` is set when each of their
    finite entries is 0, as on a budget axis, so (cost + fixed) + cont equals
    cost + (fixed + cont) bit for bit.  The free/paid row split of a noise
    part is cached per distinct paid mask.
    """

    def __init__(self, fixed: np.ndarray):
        dead = (fixed == INF).all(axis=1)
        if dead.all():
            dead[0] = False
        self.rows = _rows(~dead)
        self.dead = _rows(dead) if dead.any() else None
        self.fixed = fixed[self.rows]
        self.one_add = not self.fixed[self.fixed < INF].any()
        self.splits = {}

    def split(self, paid: np.ndarray) -> tuple:
        """(key, free rows, paid rows, paid count) of a paid-row mask; a
        rows entry is None where there is no such row."""
        key = paid.tobytes()
        got = self.splits.get(key)
        if got is None:
            n_paid = int(np.count_nonzero(paid))
            free = None if n_paid == len(paid) else _rows(~paid)
            got = self.splits[key] = (key, free, _rows(paid) if n_paid else None, n_paid)
        return got


class _StageMin:
    """min over the live controls of (cost + fixed) + cont, for one stage's
    live rows ``live`` (:class:`_LiveControls`) and continuation ``cont``,
    both (live controls, states), at the noise part ``cost`` of each atom.

    A control row whose noise part is exactly 0 equals G = fixed + cont bit
    for bit, because 0 + fixed == fixed; G's min over each distinct set of
    such rows is taken once per stage.  Only the other rows are summed and
    reduced, in the preallocated buffer ``buf``, with one add on G where
    ``live.one_add``; G is summed in ``gbuf``.  A dropped row's noise part
    of -inf or NaN raises ValueError, as its sum with the row's +inf would.
    """

    def __init__(self, live: _LiveControls, cont, buf, gbuf):
        self.live, self.cont, self.buf = live, cont, buf
        self.g = np.add(live.fixed, cont, out=gbuf)
        self.free_min = {}

    def __call__(self, cost: np.ndarray) -> np.ndarray:
        live = self.live
        if live.dead is not None and not (cost[live.dead] > -INF).all():
            raise ValueError(f"values hold {value_fault(cost[live.dead] + INF)}")
        cost = cost[live.rows]
        key, free, paid, n_paid = live.split(cost.any(axis=1))
        q = None
        if free is not None:
            q = self.free_min.get(key)
            if q is None:
                q = self.free_min[key] = self.g[free].min(axis=0)
        if paid is not None:
            buf = self.buf[:n_paid]
            if live.one_add:
                np.add(cost[paid], self.g[paid], out=buf)
            else:
                np.add(cost[paid], live.fixed[paid], out=buf)
                buf += self.cont[paid]
            paid_min = buf.min(axis=0)
            q = paid_min if q is None else np.minimum(q, paid_min, out=paid_min)
        return q


def solve_fast_dp(model: FastStageModel, terminal: GridValueFn) -> FastDpSolution:
    """V_m(x) = E_w[ min_u (fixed(x,u) + cost(x,u,w)) + V_{m+1}(dynamics(x,u,w)) ].

    All controls infeasible at some (m, x, w) yields V_m(x) = +inf, not an
    error; a value of -inf or NaN is refused (ValueError).  Next states are
    clamped to the following stage's grid box.  The control rows of a
    ``fixed`` that are +inf at every state are dropped once per ``fixed``
    object (:class:`_LiveControls`); ``live_controls`` is the share of the
    stages' control rows kept.
    """
    if terminal.grid != model.terminal_grid:
        raise ValueError("terminal function grid does not match the model terminal grid")
    values: list[GridValueFn] = [terminal]
    vnext = terminal
    grid = states = None
    planned = planned_grid = plan = None
    fixed = live = buf = gbuf = None
    kept = n_rows = 0
    for m in reversed(range(len(model.stages))):
        stage = model.stages[m]
        if stage.state_grid is not grid:
            grid, states = stage.state_grid, stage.state_grid.points()
        shape = (len(stage.controls), len(states))
        _contract_shape(stage.fixed, (shape,), "fixed has")
        if stage.fixed is not fixed:
            fixed, live, planned = stage.fixed, _LiveControls(stage.fixed), None
        n_live = len(live.fixed)
        kept, n_rows = kept + n_live, n_rows + shape[0]
        if buf is None or buf.shape != (n_live, shape[1]):
            buf, gbuf = np.empty((n_live, shape[1])), np.empty((n_live, shape[1]))
        kernel = None
        total = np.zeros(len(states))
        for w, p in model.noise.atoms(m):
            nxt = stage.dynamics(states, stage.controls, w)
            cost = stage.cost(states, stage.controls, w)
            _contract_shape(cost, (shape, (shape[0], 1)), "cost returned")
            if nxt is not planned or vnext.grid is not planned_grid:
                _contract_shape(nxt, (shape + (vnext.grid.ndim,),), "dynamics returned")
                planned, planned_grid = nxt, vnext.grid
                plan = BlendPlan(vnext.grid, *vnext.grid.interp_plan(nxt[live.rows]))
                kernel = None
            if kernel is None:
                kernel = _StageMin(live, plan.blend(vnext.values), buf, gbuf)
            # every atom has p > 0, so a +inf minimum makes the sum +inf
            total += p * kernel(cost)
        vnext = GridValueFn(stage.state_grid, total)
        values.append(vnext)
    values.reverse()
    return FastDpSolution(values, kept / n_rows if n_rows else 1.0)


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

    decomposition: Decomposition
    table: GridValueFn  # over (c, axis)
    n_controls: int
    fast: np.ndarray | None = field(default=None, repr=False)

    @property
    def axis(self) -> np.ndarray:
        return self.table.grid.axes[1]


def no_battery_bill(slot_laws: LawTable, rates: Sequence[float]) -> float:
    """Expected daily bill with no battery: sum_m rates[m] * E[max(0, w_m)],
    w_m the netload of row m of ``slot_laws``; each expectation sums its
    atoms in order from 0."""
    if len(rates) != len(slot_laws.probs):
        raise ValueError(f"{len(rates)} rates for {len(slot_laws.probs)} slot laws")
    total = 0.0
    for m, rate in enumerate(rates):
        expect = 0.0
        for w, p in slot_laws.atoms(m):
            expect += p * max(0.0, float(w))
        total += rate * expect
    return total


def _slot_bill(rate, states, controls, w):
    """The noise part of a battery cell's slot cost: the bill
    (:func:`~twoscale.battery.stage_cost`), one per control, shape
    (controls, 1)."""
    return battery.stage_cost(controls[:, None], w, rate)


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
    fixed.setflags(write=False)
    stages = tuple(
        FastStage(
            state_grid=grid,
            controls=controls,
            cost=partial(_slot_bill, rate),
            dynamics=lambda *_: nxt,
            fixed=fixed,
        )
        for rate in cfg.rates
    )
    terminal = GridValueFn(grid, np.zeros(grid.shape))
    return FastStageModel(stages=stages, terminal_grid=grid, noise=slot_laws), terminal


def _fast_cell(cfg, slot_laws, c, axis, n_soc, n_controls, budget_axis: bool):
    """Daily DP for one capacity over (soc, axis), starting from an empty
    battery; axis is the aging budget (resource cell) or the surcharge, a
    static state axis (price cell), so one sweep covers the whole axis.
    Returns the per-step values, shape (n_slots + 1, n_soc, n_axis), whose
    entry [0, 0] is the day-start row (soc = 0) over axis, and the share of
    the controls the solver kept (:attr:`FastDpSolution.live_controls`)."""
    model, terminal = _cell_model(cfg, slot_laws, c, axis, n_soc, n_controls, budget_axis)
    sol = solve_fast_dp(model, terminal)
    return np.stack([v.values for v in sol.values]), sol.live_controls


def compute_intraday(
    dec: Decomposition,
    cfg: BatteryConfig,
    slot_laws: LawTable,
    c_grid: np.ndarray,
    axis: np.ndarray,
    n_soc: int,
    n_controls: int,
    fast: np.ndarray | None = None,
) -> IntradayTable:
    """Intraday table of one decomposition for one periodicity class, on the
    class's (slots, atoms) netload table ``slot_laws``.

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
            _fast_cell(cfg, slot_laws, c, axis, n_soc, n_controls, dec.budget_axis)[0]
            for c in c_grid[1:]
        ])
    values = np.empty((len(c_grid), len(axis)))
    values[0, :] = no_battery_bill(slot_laws, cfg.rates)
    values[1:, :] = fast[:, 0, 0, :]
    table = GridValueFn(Grid([c_grid, axis]), values)
    return IntradayTable(dec, table, n_controls, fast)
