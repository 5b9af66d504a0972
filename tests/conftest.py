"""Shared fixtures: a compact battery world small enough for fast tests but
exercising every moving part (tariff, intraday tables, slow recursions)."""

from __future__ import annotations

import numpy as np
import pytest

from twoscale.battery import BatteryConfig, ScenarioSet, tariff_for_slots
from twoscale.config import RunConfig
from twoscale.core import INF, LawTable
from twoscale.intraday import PRICE, RESOURCE, build_periodicity_classes, compute_intraday

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


def law_table(laws) -> LawTable:
    """The (rows, atoms) table of a list of (support, probs) laws, one per row."""
    return LawTable.from_rows([support for support, _ in laws], [probs for _, probs in laws])


def point_laws(values) -> LawTable:
    """One row per value, its law the one atom at that value."""
    return LawTable.from_rows([[float(v)] for v in values], [[1.0]] * len(values))


def point_table(value, days: int) -> LawTable:
    """``days`` days of a battery price law with the one atom ``value``."""
    return point_laws([value] * days)


# The slow recursions' day step as it was written before the lean one of
# slowscale, kept as the reference that step must equal bit for bit: one
# (support, probs) law per day, each atom's price times the renewal sizes per day,
# the atoms summed by ``sum`` over one 3-D array, and np.interp by column
# gathers from a transposed view, its blend copied at every grid point.


def _ref_continuation(vnext, price_law, cfg, renewal):
    """disc = gamma * vnext over (h, c), and per atom of positive
    probability its probability and the cheapest fresh battery."""
    disc = cfg.gamma * vnext
    sizes, hi, ci = renewal
    support, weights = (np.asarray(a, dtype=float) for a in price_law)
    atoms = weights > 0.0
    prices, probs = support[atoms], weights[atoms]
    buy = prices[:, None] * sizes[None, :] + disc[hi, ci][None, :]
    return disc, probs, buy.min(axis=1, initial=INF)


def _ref_expect(keep, probs, best_buy):
    atoms = (len(probs),) + (1,) * keep.ndim
    terms = np.minimum(keep, best_buy.reshape(atoms))
    terms *= probs.reshape(atoms)
    return sum(terms, np.zeros_like(keep))


def _ref_interp(x, xp, fp):
    """np.interp(x, xp, f) for every row f of fp, shape fp.shape[:1] + x.shape."""
    x = np.clip(x, xp[0], xp[-1])
    j = np.searchsorted(xp, x, side="right") - 1
    dx, at = x - xp[j], x == xp[j]
    with np.errstate(invalid="ignore"):
        slope = np.empty_like(fp)
        slope[:, -1] = 0.0
        np.subtract(fp[:, 1:], fp[:, :-1], out=slope[:, :-1])
        slope[:, :-1] /= np.diff(xp)
        f0 = np.take(fp, j, axis=1)
        out = np.take(slope, j, axis=1)
        out *= dx
        out += f0
        np.copyto(out, f0, where=at)
        nan = np.isnan(out)
        if nan.any():
            k = np.minimum(j + 1, len(xp) - 1)
            f1 = np.take(fp, k, axis=1)
            back = np.take(slope, j, axis=1) * (x - xp[k]) + f1
            out = np.where(nan, np.where(np.isnan(back) & (f0 == f1), f0, back), out)
    return out


def _dense_resource_objective(table, h, h_grid, tol, ci, continuation):
    """The resource day objective at every (capacity, h, dh) triple, shaped
    (len(ci), len(h), len(table.axis)), from a :func:`_ref_continuation`:
    the intraday cost of budget dh plus the expected continuation at
    tomorrow's health max(h - dh, 0), plus a penalty that is +inf where
    h - dh < -tol.  A reference that packs nothing, against which the packed
    objective is checked."""
    disc, probs, best_buy = continuation
    h, axis = np.asarray(h, dtype=float), table.axis
    h_next = h[:, None] - axis[None, :]
    penalty = np.where(h_next >= -tol, 0.0, INF)
    ell, fp = table.table.values[ci], disc[:, ci].T
    out = _ref_expect(_ref_interp(np.maximum(h_next, 0.0), h_grid, fp), probs, best_buy)
    out += ell[:, None, :]
    # neither term is ever -inf, so adding the {0, +inf} penalty is exact
    out += penalty
    return out


def _ref_price_objective(table, h, h_grid, ci, continuation):
    """The price day objective over (len(ci), len(h), len(table.axis)), from
    a :func:`_ref_continuation`."""
    disc, probs, best_buy = continuation
    axis = table.axis
    pi_next, pi_h = axis[:, None] * h_grid, axis[:, None] * np.asarray(h)[None, :]
    expect = _ref_expect(disc[:, ci].T, probs, best_buy)
    inner = (pi_next[None, :, :] + expect[:, None, :]).min(axis=2)
    out = table.table.values[ci][:, :, None] + inner[:, :, None] - pi_h
    return out.transpose(0, 2, 1)


def _white_noise_resample_reference(laws, price_laws, classmap, n, seed, n_days):
    """White-noise scenarios drawn one (scenario, day) price and one
    (scenario, slot) cumulative sum at a time from unpadded laws: the
    per-scenario loop that ``white_noise_resample`` must equal bit for bit.
    ``laws`` holds per class a list of per-slot (support, probs) pairs and
    ``price_laws`` a list of per-day ones."""
    n_slots = len(next(iter(laws.values())))
    day_class = classmap.day_to_class[:n_days]
    netload = np.empty((n, n_days, n_slots))
    price = np.empty((n, n_days))
    price_cums = [np.cumsum(probs) for _, probs in price_laws]
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        u = rng.random((n_days, n_slots))
        for cls, slot_laws in laws.items():
            days = np.flatnonzero(day_class == cls)
            if len(days) == 0:
                continue
            for m, (support, probs) in enumerate(slot_laws):
                cum = np.cumsum(probs)
                pick = np.searchsorted(cum, u[days, m], side="right")
                pick = np.minimum(pick, len(probs) - 1)
                netload[i, days, m] = support[pick]
        up = rng.random(n_days)
        for d in range(n_days):
            j = min(np.searchsorted(price_cums[d], up[d], side="right"), len(price_cums[d]) - 1)
            price[i, d] = price_laws[d][0][j]
    return ScenarioSet(netload, price)


def rewrite_npz(path, change) -> None:
    """Rewrite the npz at ``path`` after ``change`` edits a dict of copies of
    its members in place."""
    with np.load(path) as npz:
        arrays = {name: npz[name].copy() for name in npz.files}
    change(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


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
    rtab = compute_intraday(
        RESOURCE, 1, cfg, slot_laws, c_grid, dh_grid, n_soc=N_SOC, n_controls=N_CONTROLS
    )
    ptab = compute_intraday(
        PRICE, 1, cfg, slot_laws, c_grid, pi_grid, n_soc=N_SOC, n_controls=N_CONTROLS
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
