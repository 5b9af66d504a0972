"""Shared fixtures: a compact battery world small enough for fast tests but
exercising every moving part (tariff, intraday tables, slow recursions)."""

from __future__ import annotations

import numpy as np
import pytest

from twoscale.battery import BatteryConfig, tariff_for_slots
from twoscale.config import RunConfig
from twoscale.core import INF, DiscreteDist
from twoscale.intraday import (
    build_periodicity_classes,
    compute_price_intraday,
    compute_resource_intraday,
)
from twoscale.slowscale import _expect, _interp_apply, _interp_plan

N_SLOTS = 4
N_SOC = 5
N_CONTROLS = 5
D_SMALL = 3

# the pipeline config of acceptance criterion 10
CRITERION_10 = RunConfig(
    D=30, n_slots=12, n_classes=1, c_step=100.0, c_max=200.0,
    dh_points=5, dh_cap=400.0, pi_values=(0.0, 0.1), n_soc=9,
    n_controls=5, h_points=9, price_atoms=3, fit_scenarios=3,
    fit_k=3, scenarios=5, seed=11,
)


def small_battery_config(**overrides) -> BatteryConfig:
    kw = dict(
        charge_eff=0.95,
        discharge_eff=0.95,
        u_max=25.0,
        soc_fraction=0.8,
        cycle_multiple=4,
        gamma=0.99,
        renewal_grid=(0.0, 50.0),
        rates=tariff_for_slots(N_SLOTS),
    )
    kw.update(overrides)
    return BatteryConfig(**kw)


def _dense_resource_objective(table, h, h_grid, tol, ci, continuation):
    """The resource day objective at every (capacity, h, dh) triple, shaped
    (len(ci), len(h), len(table.axis)): the intraday cost of budget dh plus
    the expected continuation at tomorrow's health max(h - dh, 0), plus a
    penalty that is +inf where h - dh < -tol.  A reference that packs
    nothing, against which the packed objective is checked."""
    disc, probs, best_buy = continuation
    h, axis = np.asarray(h, dtype=float), table.axis
    h_next = h[:, None] - axis[None, :]
    penalty = np.where(h_next >= -tol, 0.0, INF)
    lookup = _interp_plan(np.maximum(h_next, 0.0), h_grid)
    ell, fp = table.table.values[ci], disc[:, ci].T
    out = _expect(_interp_apply(lookup, fp), probs, best_buy)
    out += ell[:, None, :]
    # neither term is ever -inf, so adding the {0, +inf} penalty is exact
    out += penalty
    return out


def point_laws(values) -> list[DiscreteDist]:
    return [DiscreteDist(np.array([float(v)]), np.array([1.0])) for v in values]


@pytest.fixture(scope="session")
def small_world():
    """Deterministic 4-slot world with one periodicity class and a 50 kWh
    battery option; intraday tables and grids precomputed once."""
    cfg = small_battery_config()
    slot_laws = point_laws([10.0, -8.0, 6.0, 12.0])
    c_grid = np.array([0.0, 50.0])
    dh_grid = np.linspace(0.0, 100.0, 5)
    pi_grid = np.array([0.0, 0.05, 0.10])
    h_grid = np.linspace(0.0, 200.0, 5)
    classmap = build_periodicity_classes(D_SMALL, 1)
    rtab = compute_resource_intraday(
        1, cfg, slot_laws, c_grid, dh_grid, n_soc=N_SOC, n_controls=N_CONTROLS
    )
    ptab = compute_price_intraday(
        1, cfg, slot_laws, c_grid, pi_grid, n_soc=N_SOC, n_controls=N_CONTROLS
    )
    return {
        "cfg": cfg,
        "slot_laws": slot_laws,
        "c_grid": c_grid,
        "dh_grid": dh_grid,
        "pi_grid": pi_grid,
        "h_grid": h_grid,
        "classmap": classmap,
        "rtab": rtab,
        "ptab": ptab,
        "D": D_SMALL,
    }
