"""Run configuration: a flat, hashable description of one pipeline run."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .battery import BatteryConfig, interp_price_forecast, tariff_for_slots
from .intraday import build_periodicity_classes


class ConfigError(ValueError):
    pass


# The keys each stage is the first to read, in pipeline order; ``threads``
# changes no artifact and belongs to none.  A stage's manifest record holds
# the values of its own keys and of its upstream stages' (RunConfig.inputs).
STAGE_KEYS = {
    "fit": ("D", "n_slots", "n_classes", "seed", "fit_scenarios", "fit_k", "netload_csv",
            "netload_base_kw", "price_forecast", "price_sigma", "price_floor", "price_atoms"),
    "intraday": ("c_step", "c_max", "n_soc", "n_controls", "dh_points", "dh_cap", "pi_values",
                 "charge_eff", "discharge_eff", "u_max", "soc_fraction"),
    "bellman": ("h_points", "gamma", "cycle_multiple"),
    "simulate": ("scenarios",),
    "report": (),
}
# the stages whose artifacts each stage reads, in pipeline order
UPSTREAM = {
    "fit": (), "intraday": ("fit",), "bellman": ("fit", "intraday"),
    "simulate": ("fit", "intraday", "bellman"), "report": ("fit", "intraday", "bellman"),
}


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# per declared field type, the values it admits and how a message names them;
# the JSON types only, so that every record's inputs can be written
FIELD_TYPES = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (_is_real, "a number"),
    "tuple": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_real, v)),
              "a flat list of numbers"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
}


@dataclass(frozen=True)
class RunConfig:
    """Every key of a run, checked at construction; ``classmap`` (not a key)
    is the array of the periodicity class of each day 0..D (``n_classes``)."""

    D: int = 365
    n_slots: int = 48
    n_classes: int = 4
    c_step: float = 100.0
    c_max: float = 1500.0
    dh_points: int = 61
    dh_cap: float = 2250.0
    pi_values: tuple = (0.0, 0.05, 0.10, 0.15, 0.20)
    n_soc: int = 51
    n_controls: int = 21
    h_points: int = 61
    charge_eff: float = 0.95
    discharge_eff: float = 0.95
    u_max: float = 150.0
    soc_fraction: float = 0.8
    cycle_multiple: int = 4
    gamma: float = 0.99986
    price_forecast: tuple = (0.35, 0.29, 0.24, 0.20, 0.17, 0.14, 0.12, 0.10, 0.08, 0.07)
    price_sigma: float = 0.04
    price_floor: float = 0.01
    price_atoms: int = 5
    netload_csv: str | None = None
    fit_scenarios: int = 5
    fit_k: int = 10
    seed: int = 1234
    threads: int = 1
    scenarios: int = 100
    netload_base_kw: float = 40.0

    def __post_init__(self):
        for field in dataclasses.fields(self):
            admits, kind = FIELD_TYPES[field.type]
            value = getattr(self, field.name)
            if not admits(value):
                raise ConfigError(f"{field.name} must be {kind}, not {value!r}")
            if isinstance(value, list):
                object.__setattr__(self, field.name, tuple(value))
        if self.D < 0 or self.n_slots < 1 or self.scenarios < 1 or self.fit_scenarios < 1:
            raise ConfigError("D, n_slots, scenarios and fit_scenarios must be positive")
        if self.c_step <= 0 or self.c_max <= 0 or self.dh_cap <= 0:
            raise ConfigError("grid extents must be positive")
        if self.price_floor <= 0:
            # every battery-price atom is floored here, and a price must be positive
            raise ConfigError(f"price_floor must be positive, not {self.price_floor}")
        if self.fit_k < 1 or self.price_atoms < 1:
            raise ConfigError("support sizes must be >= 1")
        if min(self.n_soc, self.n_controls, self.dh_points) < 2:
            # a grid step is read off the soc, control and budget grids
            raise ConfigError("n_soc, n_controls and dh_points must be >= 2")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, not {self.seed}")
        pi = self.pi_grid()
        if pi.size == 0 or (pi < 0).any() or (np.diff(pi) <= 0).any():
            raise ConfigError("pi_values must be nonnegative and strictly increasing")
        sizes = self.c_max / self.c_step
        if sizes < 1:
            raise ConfigError(
                f"the capacity grid 0..c_max in steps of c_step has no positive size"
                f" (c_max {self.c_max}, c_step {self.c_step})"
            )
        if not math.isclose(sizes, round(sizes), rel_tol=1e-9):
            raise ConfigError(
                f"c_max {self.c_max} is not a multiple of c_step {self.c_step}: the capacity"
                f" grid 0..c_max in steps of c_step must end at c_max"
            )
        # the slow recursions look renewal states (cycle_multiple * r, r) up on
        # the grid: r = c_max * k / n lands on h point (h_points - 1) * k / n
        c_grid = self.c_grid()
        n = len(c_grid) - 1
        if self.h_points - 1 < n or (self.h_points - 1) % n:
            r = c_grid[1]
            raise ConfigError(
                f"renewal state ({self.cycle_multiple * r}, {r}) is not on the (h, c) grid:"
                f" h_points - 1 must be a positive multiple of {n}"
            )
        try:
            self.battery_config()
            interp_price_forecast(self.price_forecast, self.D + 1)
            classmap = build_periodicity_classes(self.D, self.n_classes)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "classmap", classmap)

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**obj)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(obj)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}

    def inputs(self, stage: str) -> dict:
        """What a record of ``stage`` is built from: the keys it and its upstream
        stages read, in pipeline order, and the sha256 of a netload CSV named."""
        keys = self.to_dict()
        out = {k: keys[k] for s in UPSTREAM[stage] + (stage,) for k in STAGE_KEYS[s]}
        if self.netload_csv:
            try:
                digest = hashlib.sha256(Path(self.netload_csv).read_bytes()).hexdigest()
            except OSError as exc:
                raise ConfigError(f"cannot read netload_csv {self.netload_csv}: {exc}") from exc
            out["netload_csv_sha256"] = digest
        return out

    # derived grids
    def c_grid(self) -> np.ndarray:
        n = int(round(self.c_max / self.c_step)) + 1
        return np.linspace(0.0, self.c_max, n)

    def dh_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.dh_cap, self.dh_points)

    def pi_grid(self) -> np.ndarray:
        return np.asarray(self.pi_values, dtype=float)

    def h_grid(self) -> np.ndarray:
        h_max = self.cycle_multiple * self.c_max
        return np.linspace(0.0, h_max, self.h_points)

    def battery_config(self) -> BatteryConfig:
        return BatteryConfig(
            charge_eff=self.charge_eff,
            discharge_eff=self.discharge_eff,
            u_max=self.u_max,
            soc_fraction=self.soc_fraction,
            cycle_multiple=self.cycle_multiple,
            gamma=self.gamma,
            renewal_grid=tuple(float(c) for c in self.c_grid()),
            rates=tariff_for_slots(self.n_slots),
        )
