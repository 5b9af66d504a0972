"""Desk-scale ground truth: flat dynamic programming over every time step,
pure scenario-tree enumeration, tiny random instance generators and the
operation-count calculator for the decomposed pipeline."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .core import INF, Grid, LawTable
from .intraday import FastStage, FastStageModel


@dataclass(frozen=True)
class TinyProblem:
    """A small two-scale problem with tabulated costs, solvable exactly.

    States and controls are shared by every step; noise laws are stagewise
    independent, ``noise[d]`` the (M+1, atoms) table of day d with row m the
    law of step m.  ``inequality`` relaxes the day-boundary coupling: the next
    day may start from any state dominated by the reached one.
    """

    D: int
    M: int
    states: np.ndarray
    controls: np.ndarray
    noise: list  # noise[d] -> LawTable, row m the law of step m
    cost: Callable[[int, int, float, float, float], float]  # (d, m, x, u, w)
    dynamics: Callable[[int, int, float, float, float], float]
    final_cost: np.ndarray
    inequality: bool = False

    def __post_init__(self):
        steps = (self.D + 1) * (self.M + 1) + 1
        if steps > 17:
            raise ValueError(f"flat step count {steps} exceeds the tiny budget of 17")

    def state_index(self, x: float) -> int:
        return int(np.argmin(np.abs(self.states - x)))

    def day_model(self, d: int) -> FastStageModel:
        grid = Grid([self.states])
        # the tabulated cost is all noise part
        fixed = np.zeros((len(self.controls), len(self.states)))
        stages = tuple(
            FastStage(
                grid,
                self.controls,
                _StepCost(self.cost, d, m),
                _StepDyn(self.dynamics, d, m),
                fixed,
            )
            for m in range(self.M + 1)
        )
        return FastStageModel(stages=stages, terminal_grid=grid, noise=self.noise[d])


class _StepCost:
    """One step's cost (or, as :class:`_StepDyn`, next state) over
    (controls, states)."""

    def __init__(self, f, d, m):
        self.f, self.d, self.m = f, d, m

    def __call__(self, states, controls, w):
        f, d, m = self.f, self.d, self.m
        return np.array(
            [[f(d, m, float(x), float(u), float(w)) for x in states[:, 0]] for u in controls]
        )


class _StepDyn(_StepCost):
    """One step's next states over (controls, states, 1)."""

    def __call__(self, states, controls, w):
        return super().__call__(states, controls, w)[..., None]


def flat_dp_solve(p: TinyProblem) -> np.ndarray:
    """Exact backward induction over all (day, fast step) pairs; returns the
    value at (0, 0) over the state grid."""
    states = p.states
    v = np.asarray(p.final_cost, dtype=float).copy()
    for d in range(p.D, -1, -1):
        if p.inequality:
            v = np.minimum.accumulate(v)  # start tomorrow at any dominated state
        for m in range(p.M, -1, -1):
            new_v = np.zeros(len(states))
            for i, x in enumerate(states):
                total = 0.0
                for w, prob in p.noise[d].atoms(m):
                    best = INF
                    for u in p.controls:
                        c = p.cost(d, m, float(x), float(u), float(w))
                        nx = p.dynamics(d, m, float(x), float(u), float(w))
                        q = c + v[p.state_index(nx)]
                        if q < best:
                            best = q
                    total += prob * best
                new_v[i] = total
            v = new_v
    return v


# the most leaves enumerate_tree will walk
MAX_TREE_NODES = 10**6


def enumerate_tree(p: TinyProblem, x0: float) -> float:
    """Optimal expected cost by pure recursion over the scenario tree, with no
    memoization: an oracle genuinely independent of the DP code path."""
    branch = 1
    for d in range(p.D + 1):
        for m in range(p.M + 1):
            branch *= np.count_nonzero(p.noise[d].probs[m]) * len(p.controls)
        if p.inequality:
            branch *= len(p.states)
    if branch > MAX_TREE_NODES:
        raise ValueError(f"scenario tree too large: ~{branch} leaves > {MAX_TREE_NODES}")

    states = p.states

    def value(d: int, m: int, x: float) -> float:
        if d == p.D + 1:
            return float(p.final_cost[p.state_index(x)])
        if m == p.M + 1:
            if p.inequality:
                return min(value(d + 1, 0, float(s)) for s in states if s <= x + 1e-12)
            return value(d + 1, 0, x)
        total = 0.0
        for w, prob in p.noise[d].atoms(m):
            best = INF
            for u in p.controls:
                c = p.cost(d, m, x, float(u), float(w))
                nx = float(states[p.state_index(p.dynamics(d, m, x, float(u), float(w)))])
                q = c + value(d, m + 1, nx)
                if q < best:
                    best = q
            total += prob * best
        return total

    return value(0, 0, x0)


@dataclass(frozen=True)
class _TableHandles:
    """Tabulated costs/dynamics for a random tiny instance (picklable)."""

    cost_tables: dict
    states: np.ndarray

    def cost(self, d, m, x, u, w):
        xi = int(np.argmin(np.abs(self.states - x)))
        return float(self.cost_tables[(d, m)][xi, int(round(u)) + 1, int(round(w)) + 1])

    def dynamics(self, d, m, x, u, w):
        lo, hi = self.states[0], self.states[-1]
        return float(min(max(x + u + w, lo), hi))


def random_tiny_problem(seed: int, monotone: bool = False) -> TinyProblem:
    """Random instance with integer states, shift controls/noises and
    tabulated costs.  ``monotone`` makes stage costs and the final cost
    nonincreasing in the state, so relaxing the day boundary changes nothing."""
    rng = np.random.default_rng(seed)
    D = int(rng.integers(0, 3))
    M = int(rng.integers(0, 3))
    while (D + 1) * (M + 1) > 6:  # keeps the uncached tree oracle fast
        D = int(rng.integers(0, 3))
        M = int(rng.integers(0, 3))
    n_states = int(rng.integers(2, 4))
    states = np.arange(n_states, dtype=float)
    controls = np.array(sorted(rng.choice([-1.0, 0.0, 1.0], size=2, replace=False)))
    noise = []
    cost_tables = {}
    for d in range(D + 1):
        supports, weights = [], []
        for m in range(M + 1):
            n_atoms = int(rng.integers(1, 3))
            atoms = np.array(sorted(rng.choice([-1.0, 0.0, 1.0], size=n_atoms, replace=False)))
            probs = rng.random(n_atoms) + 0.1
            probs = probs / probs.sum()
            supports.append(atoms)
            weights.append(probs)
            tab = rng.uniform(0.0, 2.0, size=(n_states, 3, 3))
            if monotone:
                drop = np.cumsum(rng.uniform(0.0, 1.0, size=n_states))
                tab = rng.uniform(0.0, 2.0, size=(1, 3, 3)) + (drop[-1] - drop)[:, None, None]
            cost_tables[(d, m)] = tab
        noise.append(LawTable.from_rows(supports, weights))
    if monotone:
        drop = np.cumsum(rng.uniform(0.0, 1.0, size=n_states))
        final = (drop[-1] - drop) + rng.uniform(0.0, 1.0)
    else:
        final = rng.uniform(0.0, 2.0, size=n_states)
    handles = _TableHandles(cost_tables=cost_tables, states=states)
    return TinyProblem(
        D=D,
        M=M,
        states=states,
        controls=controls,
        noise=noise,
        cost=handles.cost,
        dynamics=handles.dynamics,
        final_cost=np.asarray(final, dtype=float),
    )


def complexity_estimate(D: int, M: int, I: int) -> dict:
    """Operation counts for flat DP vs the decomposed algorithms.

    Each one-dimensional variable is discretized in 10 values: slow state
    (capacity), slow/fast state (health), fast state (charge), slow control
    (renewal), fast control (exchange), slow noise (battery price), fast
    noise (netload); a count is 10 to the number of variables it runs over.
    Also returns the two relevance ratios I/D + 1/M and I/D + 10/M.
    """
    if min(D, M, I) < 1:
        raise ValueError("D, M, I must be positive")
    n = 10  # values per variable
    return {
        # a day: the slow step over (charge, health, capacity, renewal, battery
        # price), M + 1 fast steps over (charge, health, capacity, exchange, netload)
        "flat_ops": (D + 1) * (n**5 + (M + 1) * n**5),
        # per class and capacity, M + 1 steps over (charge, budget, exchange, netload)
        "resource_intraday_ops": I * (M + 1) * n * n**4,
        # a day over (health, capacity, health target, renewal, battery price)
        "resource_recursion_ops": (D + 1) * n**5,
        # per class, capacity and surcharge, M + 1 steps over (charge, exchange, netload)
        "price_intraday_ops": I * (M + 1) * n**2 * n**3,
        # a day over (health, capacity, surcharge, end health, renewal, battery price)
        "price_recursion_ops": (D + 1) * n**6,
        "ratio_R": I / D + 1.0 / M,
        "ratio_P": I / D + 10.0 / M,
    }


def run_verification(n_instances: int = 50, seed: int = 0) -> list[tuple[str, bool, str]]:
    """Cross-checks behind the `verify` CLI stage; returns (name, ok, detail).

    Each check runs on the seeded instances seed, seed + 1, ... in turn and
    stops at the first one it fails, which its detail names."""
    from .slowscale import (
        block_bellman_solve,
        generic_price_recursion,
        generic_resource_recursion,
    )

    def relaxed(p):
        return TinyProblem(**{**_fields(p), "inequality": True})

    # each check returns why an instance fails it, or "" if it passes
    def flat_vs_tree(p):
        flat, tree = flat_dp_solve(p), enumerate_tree(p, float(p.states[0]))
        return f"flat {flat[0]} vs tree {tree}" if abs(flat[0] - tree) > 1e-9 else ""

    def block_vs_flat(p):
        err = np.max(np.abs(flat_dp_solve(p) - block_bellman_solve(p).values[0]))
        return f"max err {err}" if err > 1e-9 else ""

    def tight(p):
        eq, iq = flat_dp_solve(p), flat_dp_solve(relaxed(p))
        return "monotone equality vs inequality differ" if np.max(np.abs(eq - iq)) > 1e-9 else ""

    def one_sided(p):
        eq, iq = flat_dp_solve(p), flat_dp_solve(relaxed(p))
        return "relaxed value above exact" if np.max(iq - eq) > 1e-9 else ""

    def sandwich(p):
        p_rel = relaxed(p)
        exact = flat_dp_solve(p_rel)
        upper = generic_resource_recursion(p_rel).values[0]
        lower = generic_price_recursion(p_rel, np.array([-2.0, -1.0, -0.5, 0.0])).values[0]
        bad = np.max(lower - exact) > 1e-9 or np.max(exact - upper) > 1e-9
        return "sandwich violated" if bad else ""

    checks = (
        ("flat DP equals tree enumeration", n_instances, False, flat_vs_tree),
        ("time-block decomposition equals flat DP", n_instances, False, block_vs_flat),
        ("monotone instances: relaxation is tight", n_instances, True, tight),
        ("relaxed value never exceeds exact value", n_instances, False, one_sided),
        ("price/resource bounds sandwich the exact value", n_instances // 2, True, sandwich),
    )
    results = []
    for name, count, monotone, failure in checks:
        detail = ""
        for i in range(count):
            why = failure(random_tiny_problem(seed + i, monotone=monotone))
            if why:
                detail = f"seed {seed + i}: {why}"
                break
        results.append((name, not detail, detail))
    return results


def _fields(p: TinyProblem) -> dict:
    return {f.name: getattr(p, f.name) for f in fields(p)}
