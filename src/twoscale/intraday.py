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
class FastStageModel:
    """The fast steps of one day on one state grid, ``terminal_grid``, which
    also holds the terminal values, with one control array and one noise-free
    cost part; the noise laws of its steps are one (steps, atoms) table, one
    step per row: row m is the law of the noise w of step m, its atoms of
    probability 0 never evaluated.

    The cost of step m is ``cost(m, states, controls, w) + fixed``:
    ``fixed``, shape (len(controls), n) over the n grid states, is the part
    that depends on no noise atom, +inf marking an infeasible control; the
    ``cost`` handle returns the noise part, shape (len(controls), n) or
    (len(controls), 1) for one value per control.  Each part is a real cost
    or +inf; a part of -inf or NaN makes :func:`solve_fast_dp` raise
    ValueError.  Both handles take the step index m, the (n, ndim) state
    array, the whole control array and one noise atom w;
    dynamics(m, states, controls, w) returns the next states, shape
    (len(controls), n, ndim).  The solver plans the interpolation of a
    next-state array, checking its shape, and reuses the plan while dynamics
    returns that same array object; so a transition that ignores w returns
    one read-only array at every atom and step.
    """

    terminal_grid: Grid
    controls: np.ndarray
    fixed: np.ndarray
    cost: Callable[[int, np.ndarray, np.ndarray, float], np.ndarray]
    dynamics: Callable[[int, np.ndarray, np.ndarray, float], np.ndarray]
    noise: LawTable

    def __post_init__(self):
        _contract_shape(self.fixed, ((len(self.controls), self.terminal_grid.size),), "fixed has")


@dataclass
class FastDpSolution:
    """Backward-induction output: one value function per fast step plus the
    terminal, index m in 0..M+1, the share of the model's control rows the
    solver evaluated and the share of the (step, column of the grid's last
    axis) values it computed rather than copied (:class:`_ColumnPlan`)."""

    values: list[GridValueFn]
    live_controls: float
    columns: float


def _contract_shape(arr: np.ndarray, shapes: tuple, what: str) -> None:
    if np.shape(arr) not in shapes:
        want = " or ".join(str(shape) for shape in shapes)
        raise ValueError(f"{what} shape {np.shape(arr)}, expected {want}")


def _rows(mask: np.ndarray):
    """The rows where mask holds, as a slice when they are contiguous."""
    rows = np.flatnonzero(mask)
    return slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] + 1 == len(rows) else rows


def _equal_from(same: np.ndarray) -> int:
    """The first index of the run of True that ends ``same``, or its length
    when its last entry is False."""
    return 0 if same.all() else len(same) - int(np.argmin(same[::-1]))


def _axis_plan(ax: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`Grid.interp_plan` of the points x (any shape) on the one axis
    ax: the lower indices and the fractions, both of x's shape."""
    base, frac = Grid([ax]).interp_plan(x[..., None])
    return base, frac[0]


class _ColumnPlan:
    """The interpolation plan of one next-state array ``nxt`` (live
    controls, states, ndim), built on the leading columns of the grid's
    last axis, with the noise-free part ``fixed`` (live controls, states) on
    the same columns.

    On a 2-D grid whose next states are separable, the first coordinate the
    same in every column and the second in every row, the plan is the
    product of one plan per axis, and :meth:`needed` may stop short of the
    last column.  That holds when, from column ``start`` on, each control
    row's plan on the last axis reads a fixed number of columns back, at
    most ``shift``, at a fixed fraction (a read of the top point at weight
    1 counting as a read of that point), and ``fixed`` does not change along
    a row.  Then, for a noise part of one value per control, a step's
    values are equal from column max(``start``, J + ``shift``) on wherever
    the next step's are equal from column J on, bit for bit: each of those
    columns blends the same values at the same weights.  Any other array
    is planned on every column.
    """

    def __init__(self, grid: Grid, nxt: np.ndarray, fixed: np.ndarray):
        self.grid, self.width, self.start = grid, 0, None
        self.cols = cols = grid.shape[-1]
        if grid.ndim == 2:
            shape = (len(nxt),) + grid.shape
            first, second = (nxt[..., k].reshape(shape) for k in range(2))
            if (first == first[..., :1]).all() and (second == second[:, :1]).all():
                self.axis_plans = (
                    _axis_plan(grid.axes[0], first[..., 0]), _axis_plan(grid.axes[1], second[:, 0])
                )
                self.fixed_rows = fixed.reshape(shape)
                lo, frac = self.axis_plans[1]
                # a read of the top point at weight 1 reads that point at weight 0
                top = frac == 1.0
                back = np.arange(cols) - (lo + top)
                frac = np.where(top, 0.0, frac)
                same = (back == back[:, -1:]).all(axis=0) & (frac == frac[:, -1:]).all(axis=0)
                same &= (self.fixed_rows == self.fixed_rows[..., -1:]).all(axis=(0, 1))
                start, self.shift = _equal_from(same), int(back[:, -1].max())
                # a start at the last column saves no column
                self.start = start if start < cols - 1 else None
                self.buffers = []
                return
        self.plan, self.width, self.fixed = BlendPlan(grid, *grid.interp_plan(nxt)), cols, fixed

    def needed(self, values: np.ndarray) -> int:
        """The columns a step computes before the next step's ``values``, a
        table on the grid."""
        if self.start is None:
            return self.cols
        bits = values.reshape(-1, self.cols).view(np.int64)
        equal_from = _equal_from((bits == bits[:, -1:]).all(axis=0))
        return min(self.cols, max(self.start, equal_from + self.shift) + 1)

    def cover(self, width: int) -> int:
        """Plan at least the first ``width`` columns; returns the columns
        planned.  The plan is rebuilt only for more columns than it covers,
        and then with ``shift`` columns to spare, as much as one step can
        add to the next step's width."""
        if width > self.width:
            width = min(self.cols, width + self.shift)
            (row_lo, row_frac), (col_lo, col_frac) = self.axis_plans
            shape, self.used = self.fixed_rows.shape[:2] + (width,), 0
            base = np.add(
                row_lo[..., None] * self.cols, col_lo[:, None, :width],
                out=self._empty(shape, np.intp),
            )
            frac = (row_frac[..., None], col_frac[:, None, :width])
            self.plan, self.width = BlendPlan(self.grid, base, frac, self._empty), width
            fixed = self._empty(shape, float)
            fixed[...] = self.fixed_rows[..., :width]
            self.fixed = fixed.reshape(shape[0], -1)
        return self.width

    def _empty(self, shape, dtype) -> np.ndarray:
        """An array on the leading entries of the next of the plan's buffers,
        one of the whole grid's size per array: a plan rebuilt on more
        columns takes the memory of the last one, as one plan of the whole
        grid would, however often it grows."""
        if self.used == len(self.buffers):
            self.buffers.append(np.empty(self.fixed_rows.size))
        self.used += 1
        return self.buffers[self.used - 1][:int(np.prod(shape))].view(dtype).reshape(shape)

    def blend(self, values: np.ndarray) -> np.ndarray:
        """The blend of a table of values on the grid, (live controls, the
        states of the columns covered)."""
        return self.plan.blend(values).reshape(len(self.fixed), -1)


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
    live rows ``live`` (:class:`_LiveControls`), their noise-free part
    ``fixed`` and continuation ``cont``, both (live controls, states) on
    some of the states, at the noise part ``cost`` of each atom.

    A control row whose noise part is exactly 0 equals G = fixed + cont bit
    for bit, because 0 + fixed == fixed; G's min over each distinct set of
    such rows is taken once per stage.  Only the other rows are summed and
    reduced, in the preallocated buffer ``buf``, with one add on G where
    ``live.one_add``; G is summed in ``gbuf``.  Both buffers are at least
    as large as ``cont``.  A dropped row's noise part of -inf or NaN raises
    ValueError, as its sum with the row's +inf would.
    """

    def __init__(self, live: _LiveControls, fixed, cont, buf, gbuf):
        self.live, self.fixed, self.cont = live, fixed, cont
        self.buf = buf.reshape(-1)[:cont.size].reshape(cont.shape)
        self.g = np.add(fixed, cont, out=gbuf.reshape(-1)[:cont.size].reshape(cont.shape))
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
                np.add(cost[paid], self.fixed[paid], out=buf)
                buf += self.cont[paid]
            paid_min = buf.min(axis=0)
            q = paid_min if q is None else np.minimum(q, paid_min, out=paid_min)
        return q


def solve_fast_dp(model: FastStageModel, terminal: GridValueFn) -> FastDpSolution:
    """V_m(x) = E_w[ min_u (fixed(x,u) + cost(x,u,w)) + V_{m+1}(dynamics(x,u,w)) ].

    All controls infeasible at some (m, x, w) yields V_m(x) = +inf, not an
    error; a value of -inf or NaN is refused (ValueError).  Next states are
    clamped to the grid box.  The control rows of ``fixed`` that are +inf at
    every state are dropped once per model (:class:`_LiveControls`);
    ``live_controls`` is the share of the control rows kept.  A step
    computes the columns of the grid's last axis up to the first from which
    its values are known to be equal (:class:`_ColumnPlan`), and copies the
    last one computed into the others; ``columns`` is the share of the
    (step, column) values computed.
    """
    grid = model.terminal_grid
    if terminal.grid != grid:
        raise ValueError("terminal function grid does not match the model terminal grid")
    states, controls = grid.points(), model.controls
    shape, cols = model.fixed.shape, grid.shape[-1]
    live = _LiveControls(model.fixed)
    buf, gbuf = np.empty(live.fixed.shape), np.empty(live.fixed.shape)
    values: list[GridValueFn] = [terminal]
    planned = plan = None
    rows, computed, steps = grid.size // cols, 0, len(model.noise.probs)
    for m in reversed(range(steps)):
        kernel, width, total = None, 0, np.zeros((rows, cols))
        for w, p in model.noise.atoms(m):
            nxt = model.dynamics(m, states, controls, w)
            cost = model.cost(m, states, controls, w)
            _contract_shape(cost, (shape, (shape[0], 1)), "cost returned")
            if nxt is not planned:
                _contract_shape(nxt, (shape + (grid.ndim,),), "dynamics returned")
                # the old plan is freed before the new one is built
                planned, plan = nxt, None
                plan = _ColumnPlan(grid, nxt[live.rows], live.fixed)
                kernel = None
            # a noise part that depends on the state may differ in any column
            if kernel is None or (cost.shape[1] > 1 and width < cols):
                need = plan.needed(values[-1].values) if cost.shape[1] == 1 else cols
                old, width = width, plan.cover(max(need, width))
                # the columns gained held the last one's sum so far
                total[:, old:width] = total[:, old - 1:old] if old else 0.0
                kernel = _StageMin(live, plan.fixed, plan.blend(values[-1].values), buf, gbuf)
            # every atom has p > 0, so a +inf minimum makes the sum +inf
            total[:, :width] += (p * kernel(cost)).reshape(rows, width)
        computed += width
        total[:, width:] = total[:, width - 1:width]
        values.append(GridValueFn(grid, total))
    values.reverse()
    share = computed / (steps * cols) if steps else 1.0
    return FastDpSolution(values, len(live.fixed) / len(controls), share)


TRIMESTER_EDGES = (0, 90, 181, 273, 365)


def build_periodicity_classes(D: int, I: int) -> np.ndarray:
    """The periodicity class of each day 0..D, a read-only intp array: one
    class, or four day-of-year ranges (trimesters) repeated cyclically over
    years.  The classes of a run are its ``np.unique``."""
    if I < 1:
        raise ValueError("need at least one class")
    if I == 1:
        day_to_class = np.ones(D + 1, dtype=np.intp)
    else:
        if I != 4:
            raise ValueError("trimester scheme defines exactly 4 classes")
        doy = np.arange(D + 1) % 365
        day_to_class = np.searchsorted(np.array(TRIMESTER_EDGES[1:-1]), doy, side="right") + 1
    day_to_class.setflags(write=False)
    return day_to_class


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


def _slot_bill(rates, m, states, controls, w):
    """The noise part of a battery cell's cost in slot m: the bill
    (:func:`~twoscale.battery.stage_cost`) at ``rates[m]``, one per control,
    shape (controls, 1)."""
    return battery.stage_cost(controls[:, None], w, rates[m])


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
    the slot nor the noise, so they are computed once per cell.  A tariff
    ``cfg.rates`` of another length than ``slot_laws`` raises ValueError.
    """
    if len(cfg.rates) != len(slot_laws.probs):
        raise ValueError(f"{len(cfg.rates)} rates for {len(slot_laws.probs)} slot laws")
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
    terminal, bill = GridValueFn(grid, np.zeros(grid.shape)), partial(_slot_bill, cfg.rates)
    return FastStageModel(grid, controls, fixed, bill, lambda *_: nxt, slot_laws), terminal


def _fast_cell(cfg, slot_laws, c, axis, n_soc, n_controls, budget_axis: bool):
    """Daily DP for one capacity over (soc, axis), starting from an empty
    battery; axis is the aging budget (resource cell) or the surcharge, a
    static state axis (price cell), so one sweep covers the whole axis.
    Returns the per-step values, shape (n_slots + 1, n_soc, n_axis), whose
    entry [0, 0] is the day-start row (soc = 0) over axis, the share of the
    controls the solver kept and the share of the (step, axis point) values
    it computed (:class:`FastDpSolution`)."""
    model, terminal = _cell_model(cfg, slot_laws, c, axis, n_soc, n_controls, budget_axis)
    sol = solve_fast_dp(model, terminal)
    return np.stack([v.values for v in sol.values]), sol.live_controls, sol.columns


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
