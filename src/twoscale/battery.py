"""Battery aging/renewal case study: the battery model, tariff, netload
distribution fitting and scenario generation.

State is (soc, health, capacity) in kWh.  Health is the remaining
exchangeable-energy budget: every kWh charged or discharged consumes one kWh
of health; a battery dies when health hits zero.  Renewal at a day boundary
replaces the battery by an empty one of chosen capacity r with health
cycle_multiple * r.

The model is written once, in array form, and drives the intraday DP, the
slow recursions and the policy replay: per-control soc move and health used,
the slot transition and bill, the fresh-battery state and the soc box.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .core import LawTable

OFF_PEAK_RATE = 0.0255
SHOULDER_RATE = 0.0644
PEAK_RATE = 0.2485
# Lloyd steps of kmeans_1d before it stops unconverged
KMEANS_MAX_ITER = 200


def tariff_for_slots(n_slots: int) -> tuple:
    """Time-of-use rates ($/kWh) of n_slots equal slots starting at 00:00:
    off-peak 22:00-7:00, shoulder 7:00-17:00, peak 17:00-22:00."""
    rates = []
    for m in range(n_slots):
        hour = m * 24.0 / n_slots
        if hour >= 22.0 or hour < 7.0:
            rates.append(OFF_PEAK_RATE)
        elif hour < 17.0:
            rates.append(SHOULDER_RATE)
        else:
            rates.append(PEAK_RATE)
    return tuple(rates)


@dataclass(frozen=True)
class BatteryConfig:
    """The battery model's numbers, all required; a run builds them with
    ``RunConfig.battery_config()``.  Controls lie in [-u_max, u_max], a fresh
    battery of size r has health cycle_multiple * r, and ``rates`` holds the
    tariff of each slot of the day, slot 0 starting at 00:00 ($/kWh)."""

    charge_eff: float
    discharge_eff: float
    u_max: float
    soc_fraction: float
    cycle_multiple: int
    gamma: float
    renewal_grid: tuple
    rates: tuple

    def __post_init__(self):
        if not (0.0 < self.charge_eff <= 1.0 and 0.0 < self.discharge_eff <= 1.0):
            raise ValueError("efficiencies must lie in (0, 1]")
        if not (self.u_max > 0.0 and self.cycle_multiple > 0):
            raise ValueError("u_max and cycle_multiple must be positive")
        if min(self.renewal_grid) < 0:
            raise ValueError("renewal sizes must be nonnegative")
        if not (0.0 < self.soc_fraction <= 1.0):
            raise ValueError("soc_fraction must lie in (0, 1]")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")
        if min(self.rates) < 0:
            raise ValueError("tariff rates must be nonnegative")


def control_effect(u, cfg: BatteryConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per control u (a scalar or an array): the soc move
    charge_eff * u+ - discharge_eff * u- and the health used |u| = u+ + u-."""
    u = np.asarray(u, dtype=float)
    up, um = np.maximum(u, 0.0), np.maximum(-u, 0.0)
    return cfg.charge_eff * up - cfg.discharge_eff * um, up + um


def fast_dynamics(soc, health, effect) -> tuple[np.ndarray, np.ndarray]:
    """One slot's transition of (soc, health) under the controls whose
    :func:`control_effect` is ``effect``; broadcasts, no clamping,
    feasibility is checked by the caller."""
    d_soc, used = effect
    return soc + d_soc, health - used


def stage_cost(u, w, rate):
    """Energy bill of one slot at tariff rate ``rate``: surplus is wasted, only
    net demand w + u is billed; broadcasts."""
    return rate * np.maximum(0.0, w + u)


def fresh_state(r, cfg: BatteryConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(soc, health, capacity) of an empty battery of each capacity r:
    (0, cycle_multiple * r, r)."""
    r = np.asarray(r, dtype=float)
    return np.zeros(r.shape), cfg.cycle_multiple * r, r


def renewal_dynamics(soc, health, capacity, r, cfg: BatteryConfig):
    """Day-boundary renewal per battery: r > 0 installs an empty battery of
    capacity r (:func:`fresh_state`), r = 0 keeps the battery."""
    r = np.asarray(r, dtype=float)
    if not (r[..., None] == np.asarray(cfg.renewal_grid)).any(axis=-1).all():
        raise ValueError(f"renewal sizes {r} not all on the renewal grid")
    new = r > 0.0
    return tuple(np.where(new, f, x) for f, x in zip(fresh_state(r, cfg), (soc, health, capacity)))


def soc_max(c, cfg: BatteryConfig):
    """Largest soc of a battery of capacity c."""
    return cfg.soc_fraction * c


def in_soc_box(soc, c, cfg: BatteryConfig, tol: float):
    """Whether soc lies in the box [-tol, soc_max(c) + tol]; broadcasts."""
    return (soc >= -tol) & (soc <= soc_max(c, cfg) + tol)


@dataclass(frozen=True)
class ScenarioSet:
    """netload: (n_scen, n_days, n_slots); battery_price: (n_scen, n_days), $/kWh."""

    netload: np.ndarray
    battery_price: np.ndarray

    def __post_init__(self):
        netload = np.asarray(self.netload, dtype=float)
        price = np.asarray(self.battery_price, dtype=float)
        if netload.ndim != 3 or price.ndim != 2:
            raise ValueError("netload must be 3-D and battery_price 2-D")
        if netload.shape[:2] != price.shape:
            raise ValueError("scenario/day shapes of netload and price disagree")
        if (price <= 0).any():
            raise ValueError("battery prices must be positive")
        netload.setflags(write=False)
        price.setflags(write=False)
        object.__setattr__(self, "netload", netload)
        object.__setattr__(self, "battery_price", price)

    @property
    def n_scenarios(self) -> int:
        return self.netload.shape[0]

    @property
    def n_days(self) -> int:
        return self.netload.shape[1]


def kmeans_1d(data, k: int) -> tuple[tuple[np.ndarray, np.ndarray], int]:
    """Deterministic 1-D Lloyd clustering: ((support, probs), steps), the
    arrays of the law whose atoms are the centroids of the nonempty clusters,
    in increasing order, and whose probabilities are their shares, and the
    number of Lloyd steps it took.

    Centroids are seeded at evenly spaced quantiles.  An emptied cluster is
    re-seeded at the point farthest from its assigned centroid.

    In 1-D every cluster of the nearest-centre rule is an interval of the
    sorted data, so the data is sorted once and each Lloyd step costs O(n):

    - assignment: while the centres increase by more than 8 ulps of the
      largest |x|, the label of x is j + 1 exactly when |x - c[j+1]| <
      |x - c[j]| (the same float expressions and first-minimum rule as an
      argmin over all centres, since farther centres lie strictly farther
      after rounding), and that predicate is monotone in x; each label
      boundary is found by ``searchsorted`` at the midpoints and then moved
      to the first sorted value that satisfies it.  Closer centres fall back
      to the dense (n, k) argmin.
    - update: a stable sort by label puts each cluster's points in their
      input order, so ``np.add.reduce`` of its slice over its count is
      ``data[mask].mean()`` bit for bit.  A step that empties a cluster runs
      the sequential re-seed loop.

    The laws are therefore those of the dense Lloyd loop, bit for bit.
    """
    data = np.asarray(data, dtype=float).ravel()
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(data) < k:
        raise ValueError(f"need at least {k} observations, got {len(data)}")
    if not np.isfinite(data).all():
        raise ValueError("k-means needs finite data")
    order = np.argsort(data, kind="stable")
    xs = data[order]
    # centre gaps above this keep every farther centre strictly farther
    min_gap = 8 * np.spacing(np.abs(xs[[0, -1]]).max())
    label_type = np.min_scalar_type(k - 1)
    centers = np.quantile(xs, (np.arange(k) + 0.5) / k)
    assign, steps = None, 0
    for steps in range(1, KMEANS_MAX_ITER + 1):
        if (centers[1:] - centers[:-1] > min_gap).all():
            edges = _interval_edges(xs, centers)
            counts = edges[1:] - edges[:-1]
            new_assign = np.empty(len(data), dtype=label_type)
            new_assign[order] = np.repeat(np.arange(k, dtype=label_type), counts)
        else:
            new_assign = _dense_assign(data, centers).astype(label_type)
            counts = np.bincount(new_assign, minlength=k)
            edges = np.concatenate(([0], np.cumsum(counts)))
        if counts.all():
            grouped = data[np.argsort(new_assign, kind="stable")]
            e, sizes = edges.tolist(), counts.tolist()
            for j in range(k):
                centers[j] = np.add.reduce(grouped[e[j]:e[j + 1]]) / sizes[j]
        else:
            for j in range(k):
                mask = new_assign == j
                if mask.any():
                    centers[j] = data[mask].mean()
                else:
                    far = int(np.argmax(np.abs(data - centers[new_assign])))
                    centers[j] = data[far]
                    new_assign[far] = j
        if assign is not None and np.array_equal(assign, new_assign):
            break
        assign = new_assign
    order = np.argsort(centers)
    centers = centers[order]
    counts = np.bincount(order.argsort()[assign], minlength=k)
    probs = counts / counts.sum()
    keep = probs > 0
    return (centers[keep], probs[keep] / probs[keep].sum()), steps


def _dense_assign(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of each point's nearest centre, the first on a tie."""
    return np.argmin(np.abs(data[:, None] - centers[None, :]), axis=1)


def _interval_edges(xs: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The k + 1 edges of the label intervals of sorted data ``xs`` for
    well-separated increasing centres: 0, the first x with |x - c[j+1]| <
    |x - c[j]| for each j, and n.  Each inner edge starts at its midpoint
    and moves a run of equal values at a time while the points on either
    side of it disagree with that predicate."""
    n, lo, hi = len(xs), centers[:-1], centers[1:]
    edges = np.empty(len(centers) + 1, dtype=np.intp)
    edges[0], edges[-1] = 0, n
    inner = edges[1:-1]
    inner[:] = np.searchsorted(xs, lo + (hi - lo) / 2)
    while True:
        before, at = xs[np.maximum(inner - 1, 0)], xs[np.minimum(inner, n - 1)]
        back = (inner > 0) & (np.abs(before - hi) < np.abs(before - lo))
        ahead = (inner < n) & (np.abs(at - hi) >= np.abs(at - lo))
        if not (back | ahead).any():
            return edges
        inner[back] = np.searchsorted(xs, before[back], side="left")
        inner[ahead] = np.searchsorted(xs, at[ahead], side="right")


def fit_netload_distributions(
    netload: np.ndarray, classmap, k: int
) -> tuple[dict[int, LawTable], int]:
    """Per periodicity class, the (slots, atoms) table of the k-means laws of
    each slot of a (scenarios, days, slots) netload array, and the number of
    Lloyd steps they took in all."""
    day_class = classmap[: netload.shape[1]]
    rows: dict[int, list] = {}
    missing, steps = [], 0
    for cls in np.unique(classmap).tolist():
        days = np.flatnonzero(day_class == cls)
        rows[cls] = []
        for m in range(netload.shape[2]):
            obs = netload[:, days, m].ravel()
            if len(obs) < k:
                missing.append((cls, m))
                continue
            law, law_steps = kmeans_1d(obs, k)
            rows[cls].append(law)
            steps += law_steps
    if missing:
        raise ValueError(f"insufficient data (< {k} observations) for (class, slot): {missing}")
    return {cls: LawTable.from_rows(*zip(*laws)) for cls, laws in rows.items()}, steps


def interp_price_forecast(forecast: Sequence[float], n_days: int) -> np.ndarray:
    """Daily battery price curve by linear interpolation of a per-year forecast."""
    forecast = np.asarray(forecast, dtype=float)
    years_needed = (n_days - 1) / 365.0
    if len(forecast) - 1 < years_needed:
        raise ValueError(
            f"forecast covers {len(forecast) - 1} years, horizon needs {years_needed:.2f}"
        )
    t = np.arange(n_days) / 365.0
    return np.interp(t, np.arange(len(forecast), dtype=float), forecast)


def battery_price_laws(
    forecast: Sequence[float],
    sigma: float,
    n_days: int,
    floor: float,
    n_atoms: int,
) -> LawTable:
    """Per-day discrete battery price law: midpoint-quantile discretization of
    the Gaussian noise around the interpolated forecast, floored; atoms the
    floor merges are one atom, whose probability sums theirs in atom order.
    A day with fewer atoms is padded as :meth:`LawTable.from_rows` pads."""
    base = interp_price_forecast(forecast, n_days)
    nd = NormalDist()
    z = np.array([nd.inv_cdf((i + 0.5) / n_atoms) for i in range(n_atoms)])
    # each day's atoms are sorted, so the floor merges neighbours alone
    atoms = np.maximum(base[:, None] + sigma * z, floor)
    new = np.ones(atoms.shape, dtype=bool)
    new[:, 1:] = atoms[:, 1:] != atoms[:, :-1]
    group = np.cumsum(new, axis=1) - 1
    sizes = group[:, -1:] + 1
    days = np.arange(n_days)
    probs = np.zeros(atoms.shape)
    for k in range(n_atoms):
        probs[days, group[:, k]] += 1.0 / n_atoms
    # each day's sum over its own groups, as the sum of its 1-D array
    total = np.empty((n_days, 1))
    for n in np.unique(sizes):
        rows = sizes[:, 0] == n
        total[rows, 0] = probs[rows, :n].sum(axis=1)
    # the first atom of each group, then that of the last group again, up to
    # the widest day
    starts = np.sort(np.where(new, np.arange(n_atoms), n_atoms), axis=1)
    cols = np.arange(sizes.max())
    first = np.take_along_axis(starts, np.minimum(cols, sizes - 1), axis=1)
    support = np.take_along_axis(atoms, first, axis=1)
    return LawTable(support, np.where(cols < sizes, probs[:, : len(cols)] / total, 0.0))


def synthetic_netload_scenarios(
    n: int, n_days: int, n_slots: int, seed: int, base_kw: float
) -> np.ndarray:
    """Synthetic netload: morning/evening demand humps, a midday solar dip whose
    depth varies by season, plus Gaussian noise.  Units: kWh per slot."""
    slots = np.arange(n_slots)
    hour = slots * 24.0 / n_slots
    demand = 0.55 + 0.30 * np.exp(-((hour - 8.0) ** 2) / 8.0) + 0.45 * np.exp(
        -((hour - 19.5) ** 2) / 6.0
    )
    solar_shape = np.exp(-((hour - 12.5) ** 2) / 9.0)
    days = np.arange(n_days)
    season = 0.5 - 0.35 * np.cos(2.0 * math.pi * (days % 365) / 365.0)  # summer high
    out = np.empty((n, n_days, n_slots))
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        noise = 0.08 * rng.standard_normal((n_days, n_slots))
        out[i] = base_kw * (
            demand[None, :] - 0.9 * season[:, None] * solar_shape[None, :] + noise
        ) * 0.5
    return out


def load_netload_csv(path, n_slots: int) -> np.ndarray:
    """Read `scenario,day,slot,netload_kwh` rows into an (n, days, slots)
    array: n and days are one more than the largest index read, every
    (scenario, day, slot) must occur exactly once, and every netload must be
    finite."""
    keys, value = ("scenario", "day", "slot"), "netload_kwh"
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        absent = [k for k in (*keys, value) if k not in (reader.fieldnames or ())]
        if absent:
            raise ValueError(f"{path}: missing columns {absent}")
        for line, rec in enumerate(reader, start=2):
            try:
                key = tuple(int(rec[k]) for k in keys)
                val = float(rec[value])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line}: unreadable row ({exc})") from exc
            if not math.isfinite(val):
                raise ValueError(f"{path}:{line}: {value} {val} is not finite")
            for k, i, size in zip(keys, key, (None, None, n_slots)):
                if i < 0 or (size is not None and i >= size):
                    bound = f"[0, {size - 1}]" if size is not None else ">= 0"
                    raise ValueError(f"{path}:{line}: {k} {i} outside {bound}")
            if key in rows:
                raise ValueError(f"{path}:{line}: duplicate row for {dict(zip(keys, key))}")
            rows[key] = val
    if not rows:
        raise ValueError(f"no rows in {path}")
    shape = (max(key[0] for key in rows) + 1, max(key[1] for key in rows) + 1, n_slots)
    if len(rows) != math.prod(shape):
        missing = next(idx for idx in np.ndindex(*shape) if idx not in rows)
        raise ValueError(
            f"{path}: {math.prod(shape) - len(rows)} of {math.prod(shape)} rows missing,"
            f" first {dict(zip(keys, missing))}"
        )
    out = np.empty(shape)
    for key, v in rows.items():
        out[key] = v
    return out


def white_noise_resample(
    laws: dict[int, LawTable],
    price_laws: LawTable,
    classmap,
    n: int,
    seed: int,
    n_days: int,
) -> ScenarioSet:
    """Scenarios drawn i.i.d. per (day, slot) from row m of the day's class
    table, plus a daily battery price from day d's row of ``price_laws``;
    per-scenario RNG seeded by (seed, index).  Each scenario draws its
    netload uniforms, then its price uniforms.  A uniform x picks the atom
    at ``searchsorted(cum, x, side="right")`` of its row's cumulative sums,
    the last atom at most; on a sorted row that is the count of sums <= x,
    which is taken for all of a class's (day, slot) draws of a scenario at
    once, and for every price draw at once."""
    n_slots = len(next(iter(laws.values())).probs)
    day_class = classmap[:n_days]
    # per class with days in the horizon: its days and its rows' cumulative sums
    draws = []
    for cls, table in laws.items():
        days = np.flatnonzero(day_class == cls)
        if len(days):
            draws.append((days, np.cumsum(table.probs, axis=1), table.support))
    slots = np.arange(n_slots)
    netload = np.empty((n, n_days, n_slots))
    up = np.empty((n, n_days))
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        u = rng.random((n_days, n_slots))
        for days, cums, support in draws:
            pick = np.count_nonzero(cums <= u[days, :, None], axis=2)
            netload[i, days] = support[slots, np.minimum(pick, cums.shape[1] - 1)]
        up[i] = rng.random(n_days)
    if len(price_laws.probs) < n_days:
        raise ValueError(f"{len(price_laws.probs)} daily price laws for {n_days} days")
    cums = np.cumsum(price_laws.probs[:n_days], axis=1)
    j = np.minimum(np.count_nonzero(cums <= up[:, :, None], axis=2), cums.shape[1] - 1)
    price = price_laws.support[np.arange(n_days), j]
    return ScenarioSet(netload, price)
