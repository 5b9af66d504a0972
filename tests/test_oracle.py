"""Brute-force oracles: flat DP, tree enumeration, instance generator and the
operation-count calculator."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from twoscale import oracle, slowscale
from twoscale.oracle import (
    TinyProblem,
    complexity_estimate,
    enumerate_tree,
    flat_dp_solve,
    random_tiny_problem,
    run_verification,
)

from conftest import law_table, point_laws


def test_flat_dp_single_step_quadratic():
    p = TinyProblem(
        D=0, M=0, states=np.array([0.0]), controls=np.array([-1.0, 0.0, 1.0]),
        noise=[point_laws([0.0])],
        cost=lambda d, m, x, u, w: u * u,
        dynamics=lambda d, m, x, u, w: x,
        final_cost=np.zeros(1),
    )
    assert flat_dp_solve(p)[0] == pytest.approx(0.0)
    assert enumerate_tree(p, 0.0) == pytest.approx(0.0)


def test_tree_constant_cost_counts_steps():
    D, M, K = 1, 1, 0.7
    p = TinyProblem(
        D=D, M=M, states=np.array([0.0]), controls=np.array([0.0]),
        noise=[point_laws([0.0] * (M + 1))] * (D + 1),
        cost=lambda d, m, x, u, w: 1.0,
        dynamics=lambda d, m, x, u, w: x,
        final_cost=np.array([K]),
    )
    expected = (D + 1) * (M + 1) + K
    assert enumerate_tree(p, 0.0) == pytest.approx(expected)
    assert flat_dp_solve(p)[0] == pytest.approx(expected)


def test_tree_deterministic_single_path():
    # one control, one atom: the tree is a single path, value is the sum of costs
    p = TinyProblem(
        D=0, M=2, states=np.array([0.0, 1.0, 2.0]), controls=np.array([1.0]),
        noise=[point_laws([0.0] * 3)],
        cost=lambda d, m, x, u, w: x,
        dynamics=lambda d, m, x, u, w: min(x + u, 2.0),
        final_cost=np.zeros(3),
    )
    assert enumerate_tree(p, 0.0) == pytest.approx(0.0 + 1.0 + 2.0)


def test_tree_size_guard():
    noise2 = law_table([([-1.0, 1.0], [0.5, 0.5])] * 3)
    p = TinyProblem(
        D=2, M=2, states=np.array([0.0, 1.0]), controls=np.array([-1.0, 0.0, 1.0]),
        noise=[noise2] * 3,
        cost=lambda d, m, x, u, w: 0.0,
        dynamics=lambda d, m, x, u, w: x,
        final_cost=np.zeros(2),
    )
    with pytest.raises(ValueError, match="tree too large"):
        enumerate_tree(p, 0.0)


def test_tiny_problem_step_budget():
    with pytest.raises(ValueError):
        TinyProblem(
            D=3, M=4, states=np.array([0.0]), controls=np.array([0.0]),
            noise=[point_laws([0.0] * 5)] * 4,
            cost=lambda d, m, x, u, w: 0.0,
            dynamics=lambda d, m, x, u, w: x,
            final_cost=np.zeros(1),
        )


def test_flat_equals_tree_on_seeded_instances():
    for seed in range(25):
        p = random_tiny_problem(seed)
        flat = flat_dp_solve(p)
        tree = enumerate_tree(p, float(p.states[0]))
        assert flat[0] == pytest.approx(tree, abs=1e-9), f"seed {seed}"


def test_inequality_relaxation_one_sided():
    for seed in range(25):
        p = random_tiny_problem(seed)
        eq = flat_dp_solve(p)
        iq = flat_dp_solve(dataclasses.replace(p, inequality=True))
        assert np.all(iq <= eq + 1e-9), f"seed {seed}"


def test_monotone_instances_relaxation_tight():
    for seed in range(25):
        p = random_tiny_problem(seed, monotone=True)
        eq = flat_dp_solve(p)
        iq = flat_dp_solve(dataclasses.replace(p, inequality=True))
        assert np.max(np.abs(eq - iq)) < 1e-9, f"seed {seed}"


def test_monotone_generator_produces_nonincreasing_costs():
    p = random_tiny_problem(3, monotone=True)
    assert np.all(np.diff(p.final_cost) <= 1e-12)
    for x1, x2 in zip(p.states, p.states[1:]):
        for u in p.controls:
            for d in range(p.D + 1):
                for m in range(p.M + 1):
                    for w in p.noise[d].support[m]:
                        c1 = p.cost(d, m, float(x1), float(u), float(w))
                        c2 = p.cost(d, m, float(x2), float(u), float(w))
                        assert c2 <= c1 + 1e-12


def test_inequality_tree_matches_inequality_dp():
    for seed in range(10):
        p = random_tiny_problem(seed)
        p_rel = dataclasses.replace(p, inequality=True)
        flat = flat_dp_solve(p_rel)
        tree = enumerate_tree(p_rel, float(p_rel.states[0]))
        assert flat[0] == pytest.approx(tree, abs=1e-9), f"seed {seed}"


# ---------------------------------------------------------------- complexity


def test_complexity_ratios_are_exact_formulas():
    for D, M, I in [(7300, 48, 4), (1040, 336, 4), (100, 10, 7)]:
        est = complexity_estimate(D, M, I)
        assert est["ratio_R"] == pytest.approx(I / D + 1.0 / M, rel=1e-15)
        assert est["ratio_P"] == pytest.approx(I / D + 10.0 / M, rel=1e-15)


def test_complexity_reference_cases():
    assert complexity_estimate(7300, 48, 4)["ratio_R"] == pytest.approx(1 / 50, rel=0.10)
    assert complexity_estimate(1040, 336, 4)["ratio_R"] == pytest.approx(1 / 150, rel=0.10)


def test_complexity_no_saving_limit():
    est = complexity_estimate(100, 10**9, 100)
    assert est["ratio_R"] == pytest.approx(1.0, rel=1e-6)


def test_complexity_op_counts_default_dims():
    est = complexity_estimate(1, 1, 1)
    # every variable on 10 points: flat = 2 * (10^5 + 2 * 10^5) = 6e5
    assert est["flat_ops"] == 2 * (10**5 + 2 * 10**5)
    assert est["resource_intraday_ops"] == 1 * 2 * 10 * 10**4
    assert est["resource_recursion_ops"] == 2 * 10**5
    assert est["price_intraday_ops"] == 1 * 2 * 10**2 * 10**3
    assert est["price_recursion_ops"] == 2 * 10**6


def test_complexity_rejects_bad_args():
    with pytest.raises(ValueError):
        complexity_estimate(0, 10, 1)


def test_run_verification_all_pass():
    results = run_verification(n_instances=10, seed=5)
    assert len(results) == 5
    for name, ok, detail in results:
        assert ok, f"{name}: {detail}"


def test_run_verification_runs_every_check_on_one_instance(monkeypatch):
    # the sandwich check runs on half the instances, rounded up
    calls = []
    recursion = slowscale.generic_resource_recursion
    monkeypatch.setattr(
        slowscale, "generic_resource_recursion", lambda p: calls.append(p) or recursion(p)
    )
    results = run_verification(n_instances=1, seed=2)
    assert len(calls) == 1 and all(ok for _, ok, _ in results)
    with pytest.raises(ValueError, match="at least one instance, not 0"):
        run_verification(n_instances=0)


def test_run_verification_names_the_first_failing_instance(monkeypatch):
    monkeypatch.setattr(oracle, "enumerate_tree", lambda p, x0: -1.0)
    results = run_verification(n_instances=3, seed=4)
    name, ok, detail = results[0]
    assert name == "flat DP equals tree enumeration" and not ok
    assert detail.startswith("seed 4: flat ") and detail.endswith(" vs tree -1.0")
    assert [ok for _, ok, _ in results[1:]] == [True] * 4
