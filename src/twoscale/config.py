"""Run configuration: a flat, hashable description of one pipeline run."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .battery import BatteryConfig, interp_price_forecast, tariff_for_slots
from .intraday import build_periodicity_classes


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Every key of a run, checked at construction; ``classmap`` (not a key)
    maps days 0..D to the ``n_classes`` trimester periodicity classes."""

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
    price_csv: str | None = None
    fit_scenarios: int = 5
    fit_k: int = 10
    seed: int = 1234
    threads: int = 1
    scenarios: int = 100
    netload_base_kw: float = 40.0

    def __post_init__(self):
        if self.D < 0 or self.n_slots < 1 or self.scenarios < 1 or self.fit_scenarios < 1:
            raise ConfigError("D, n_slots, scenarios and fit_scenarios must be positive")
        if self.c_step <= 0 or self.c_max <= 0 or self.dh_cap <= 0:
            raise ConfigError("grid extents must be positive")
        if self.fit_k < 1 or self.price_atoms < 1:
            raise ConfigError("support sizes must be >= 1")
        if min(self.n_soc, self.n_controls, self.dh_points) < 2:
            # a grid step is read off the soc, control and budget grids
            raise ConfigError("n_soc, n_controls and dh_points must be >= 2")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
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
        clean = {
            k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()
        }
        try:
            return cls(**clean)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

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

    def config_hash(self) -> str:
        """Hash of every key but threads, which changes no artifact, and
        scenarios, which only the simulate stage reads and no stage reads
        simulate's output."""
        keys = {k: v for k, v in self.to_dict().items() if k not in ("threads", "scenarios")}
        blob = json.dumps(keys, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

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
