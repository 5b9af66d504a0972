"""Slow-scale recursions: generic price/resource bounds, the battery
recursions and the gap report."""

from __future__ import annotations

import numpy as np
import pytest

from twoscale.core import INF, DiscreteDist, Grid, GridValueFn
from twoscale.intraday import build_periodicity_classes
from twoscale.oracle import TinyProblem, flat_dp_solve
from twoscale.slowscale import (
    SlowValueSeq,
    _renewal_values,
    block_bellman_solve,
    check_sandwich,
    generic_price_recursion,
    generic_resource_recursion,
    price_bellman_recursion,
    resource_bellman_recursion,
)

from conftest import small_battery_config


def point(v):
    return DiscreteDist(np.array([float(v)]), np.array([1.0]))


def move_problem(D=0, M=0, cost=None, final=None, states=None):
    """Shift dynamics x' = clip(x + u), |u| move cost by default."""
    states = np.array([0.0, 1.0]) if states is None else states

    def default_cost(d, m, x, u, w):
        return abs(u)

    def dyn(d, m, x, u, w):
        return float(np.clip(x + u, states[0], states[-1]))

    return TinyProblem(
        D=D,
        M=M,
        states=states,
        controls=np.array([-1.0, 0.0, 1.0]),
        noise=[[point(0.0) for _ in range(M + 1)] for _ in range(D + 1)],
        cost=cost or default_cost,
        dynamics=dyn,
        final_cost=np.array([0.0, 1.0]) if final is None else final,
    )


# ---------------------------------------------------------------- generic


def test_generic_resource_single_day_example():
    # targets {0, 1}, move cost |u|, final cost r^2: staying at 0 is free
    p = move_problem()
    seq = generic_resource_recursion(p)
    assert seq.kind == "resource-upper"
    assert seq.days[0].values[0] == pytest.approx(0.0, abs=1e-12)
    assert seq.days[0].values[1] == pytest.approx(0.0, abs=1e-12)  # target 0 reachable


def test_generic_resource_infeasible_everywhere():
    p = move_problem(cost=lambda d, m, x, u, w: INF)
    seq = generic_resource_recursion(p)
    assert np.all(np.isposinf(seq.days[0].values))


def test_generic_resource_upper_bounds_exact():
    p = move_problem(D=1)
    exact = flat_dp_solve(TinyProblem(**{**_fields(p), "inequality": True}))
    upper = generic_resource_recursion(p).days[0].values
    assert np.all(upper >= exact - 1e-9)


def test_generic_price_zero_price_collapses_to_min_continuation():
    p = move_problem()
    seq = generic_price_recursion(p, np.array([0.0]))
    assert seq.kind == "price-lower"
    # ell at price 0 is the day cost with free end state (0 here), plus min K
    assert np.allclose(seq.days[0].values, 0.0 + p.final_cost.min(), atol=1e-12)


def test_generic_price_linear_cost_example():
    # single no-op control: the day value with terminal p*x is exactly p*x
    states = np.array([0.0, 1.0, 2.0])

    def cost(d, m, x, u, w):
        return 0.0

    def dyn(d, m, x, u, w):
        return x

    p = TinyProblem(
        D=0, M=0, states=states, controls=np.array([0.0]),
        noise=[[point(0.0)]], cost=cost, dynamics=dyn,
        final_cost=np.zeros(3),
    )
    seq = generic_price_recursion(p, np.array([-2.0, -1.0, 0.0]))
    # max_p (p*x - max_r p*r) = 0, attained at p = 0
    assert np.allclose(seq.days[0].values, 0.0, atol=1e-12)


def test_generic_price_rejects_positive_prices():
    with pytest.raises(ValueError):
        generic_price_recursion(move_problem(), np.array([-1.0, 0.5]))


def test_generic_terminal_agreement():
    p = move_problem(final=np.array([3.0, 7.0]))
    up = generic_resource_recursion(p)
    lo = generic_price_recursion(p, np.array([-1.0, 0.0]))
    ex = block_bellman_solve(p)
    for seq in (up, lo, ex):
        assert np.array_equal(seq.days[p.D + 1].values, p.final_cost)


def test_slow_value_seq_kind_validation():
    g = GridValueFn(Grid([[0.0]]), np.zeros(1))
    with pytest.raises(ValueError):
        SlowValueSeq(kind="bogus", days=(g, g))
    assert SlowValueSeq(kind="exact-oracle", days=(g, g, g)).horizon == 1


# ---------------------------------------------------------------- battery


def battery_seqs(world, gamma=None, renewal_grid=None, D=None, price=0.05):
    cfg = world["cfg"]
    if gamma is not None or renewal_grid is not None:
        kw = {}
        if gamma is not None:
            kw["gamma"] = gamma
        if renewal_grid is not None:
            kw["renewal_grid"] = renewal_grid
        cfg = small_battery_config(**kw)
    D = world["D"] if D is None else D
    classmap = build_periodicity_classes(D, 1, "trimester")
    price_laws = [point(price)] * (D + 1)
    upper = resource_bellman_recursion(
        {1: world["rtab"]}, classmap, price_laws, cfg, world["h_grid"], world["c_grid"], D
    )
    lower = price_bellman_recursion(
        {1: world["ptab"]}, classmap, price_laws, cfg, world["h_grid"], world["c_grid"], D
    )
    return lower, upper


def test_battery_recursions_sandwich_small_world(small_world):
    lower, upper = battery_seqs(small_world)
    rep = check_sandwich(lower, upper, np.array([0.0, 0.0]))
    assert rep.violations == 0
    assert np.all(rep.gap_at_x0 >= -1e-9)


def test_battery_no_battery_column_identical(small_world):
    # with purchases priced out, both recursions' c = 0 columns are the same
    # discounted no-battery bill (no duality gap without a battery)
    lower, upper = battery_seqs(small_world, price=1e9)
    for lo, up in zip(lower.days, upper.days):
        assert np.allclose(lo.values[:, 0], up.values[:, 0], atol=1e-9)


def test_battery_no_battery_value_is_discounted_bill_sum(small_world):
    # battery price far above any possible saving: nobody ever buys
    lower, upper = battery_seqs(small_world, price=1e9)
    cfg = small_world["cfg"]
    base = small_world["rtab"].table.values[0, 0]
    D = small_world["D"]
    geo = base * sum(cfg.gamma**k for k in range(D + 1))
    assert upper.days[0].values[0, 0] == pytest.approx(geo, rel=1e-12)
    assert lower.days[0].values[0, 0] == pytest.approx(geo, rel=1e-12)


def test_battery_values_nonincreasing_in_health(small_world):
    lower, upper = battery_seqs(small_world)
    for seq in (lower, upper):
        for day in seq.days:
            assert np.all(np.diff(day.values, axis=0) <= 1e-9)


def test_battery_discount_consistency_single_day(small_world):
    # gamma = 1, one day, no renewal, zero final cost: the resource value is
    # the cheapest intraday entry over aging budgets not exceeding h
    lower, upper = battery_seqs(
        small_world, gamma=1.0, renewal_grid=(0.0,), D=0, price=1.0
    )
    rvals = small_world["rtab"].table.values
    dh_grid = small_world["dh_grid"]
    h_grid = small_world["h_grid"]
    for hi, h in enumerate(h_grid):
        feas = dh_grid <= h + 1e-9
        for ci in range(rvals.shape[0]):
            assert upper.days[0].values[hi, ci] == pytest.approx(
                rvals[ci, feas].min(), abs=1e-9
            )


def test_renewal_values_mapping():
    cfg = small_battery_config()  # renewal grid (0, 50), cycle count 4
    h_grid = np.array([0.0, 100.0, 200.0])
    c_grid = np.array([0.0, 50.0])
    vnext = np.arange(6, dtype=float).reshape(3, 2)
    out = _renewal_values(vnext, h_grid, c_grid, cfg)
    assert out == [(50.0, vnext[2, 1])]  # fresh state (200, 50)


def test_renewal_values_require_on_grid_states():
    cfg = small_battery_config()
    with pytest.raises(ValueError):
        _renewal_values(np.zeros((2, 2)), np.array([0.0, 100.0]), np.array([0.0, 50.0]), cfg)


# ---------------------------------------------------------------- gap report


def test_check_sandwich_trivial_equal():
    g = Grid([[0.0, 1.0]])
    days = tuple(GridValueFn(g, np.array([2.0, 3.0])) for _ in range(3))
    lower = SlowValueSeq(kind="price-lower", days=days)
    upper = SlowValueSeq(kind="resource-upper", days=days)
    rep = check_sandwich(lower, upper, np.array([0.0]))
    assert np.all(rep.max_rel_gap == 0.0)
    assert np.all(rep.gap_at_x0 == 0.0)
    assert rep.violations == 0


def test_check_sandwich_flags_violations():
    g = Grid([[0.0, 1.0]])
    lo = SlowValueSeq(
        kind="price-lower", days=(GridValueFn(g, np.array([5.0, 1.0])),) * 2
    )
    up = SlowValueSeq(
        kind="resource-upper", days=(GridValueFn(g, np.array([4.0, 2.0])),) * 2
    )
    rep = check_sandwich(lo, up, np.array([1.0]))
    assert rep.violations == 2  # one bad point per day
    assert rep.gap_at_x0[0] == pytest.approx(1.0)


def test_check_sandwich_grid_mismatch():
    lo = SlowValueSeq(
        kind="price-lower", days=(GridValueFn(Grid([[0.0, 1.0]]), np.zeros(2)),) * 2
    )
    up = SlowValueSeq(
        kind="resource-upper", days=(GridValueFn(Grid([[0.0, 2.0]]), np.zeros(2)),) * 2
    )
    with pytest.raises(ValueError):
        check_sandwich(lo, up, np.array([0.0]))
    short = SlowValueSeq(kind="resource-upper", days=lo.days[:1] + lo.days[:1] + lo.days[:1])
    with pytest.raises(ValueError):
        check_sandwich(lo, short, np.array([0.0]))


def _fields(p: TinyProblem) -> dict:
    from twoscale.oracle import _fields as f

    return f(p)


def _sandwich_by_eval_many(lower, upper, x0, tol=1e-6):
    """Per-day reference report: each day located on its own grid by eval_many."""
    n = len(lower.days)
    max_rel, gap0, lo0, up0 = (np.empty(n) for _ in range(4))
    violations = 0
    x0 = np.asarray(x0, dtype=float).reshape(1, -1)
    for d, (lo, up) in enumerate(zip(lower.days, upper.days)):
        lv, uv = lo.values, up.values
        denom = np.maximum(np.abs(lv), 1e-9)
        max_rel[d] = float(((uv - lv) / denom).max())
        violations += int(np.sum(lv > uv + tol * denom))
        lo0[d], up0[d] = float(lo.eval_many(x0)[0]), float(up.eval_many(x0)[0])
        gap0[d] = (up0[d] - lo0[d]) / max(abs(lo0[d]), 1e-9)
    return max_rel, gap0, lo0, up0, violations


def _with_day(seq, d, values):
    days = list(seq.days)
    days[d] = GridValueFn(days[d].grid, values)
    return SlowValueSeq(kind=seq.kind, days=tuple(days))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("x0", [(0.0, 0.0), (75.0, 20.0), (200.0, 50.0)])
def test_check_sandwich_matches_per_day_eval_many(small_world, x0):
    lower, upper = battery_seqs(small_world)
    # +inf entries on a cell corner around each x0: one day of the upper
    # bound, and one day where both bounds are infinite somewhere
    inf_up = upper.days[1].values.copy()
    inf_up[1:3, :] = INF
    upper = _with_day(upper, 1, inf_up)
    both = lower.days[2].values.copy()
    both[-1, 0] = INF
    lower = _with_day(lower, 2, both)
    upper = _with_day(upper, 2, np.maximum(upper.days[2].values, both))
    rep = check_sandwich(lower, upper, np.array(x0))
    ref = _sandwich_by_eval_many(lower, upper, np.array(x0))
    for got, want in zip(
        (rep.max_rel_gap, rep.gap_at_x0, rep.lower_at_x0, rep.upper_at_x0), ref[:4]
    ):
        assert got.tobytes() == want.tobytes()
    assert rep.violations == ref[4]
    assert np.isposinf(rep.max_rel_gap[1])


def test_check_sandwich_grid_mismatch_on_a_later_day(small_world):
    lower, upper = battery_seqs(small_world)
    other = Grid([small_world["h_grid"] * 2.0, small_world["c_grid"]])
    for seq in (lower, upper):
        days = list(seq.days)
        days[2] = GridValueFn(other, days[2].values)
        moved = SlowValueSeq(kind=seq.kind, days=tuple(days))
        pair = (moved, upper) if seq is lower else (lower, moved)
        with pytest.raises(ValueError, match="grid mismatch at day 2"):
            check_sandwich(*pair, np.array([0.0, 0.0]))


def test_battery_recursion_days_are_read_only_views(small_world):
    lower, upper = battery_seqs(small_world)
    for seq in (lower, upper):
        assert seq.values.shape == (len(seq.days),) + seq.days[0].grid.shape
        for d, day in enumerate(seq.days):
            assert day.grid is seq.days[0].grid
            assert np.shares_memory(day.values, seq.values)
            assert day.values.tobytes() == seq.values[d].tobytes()
        with pytest.raises(ValueError):
            seq.values[0, 0, 0] = 1.0
