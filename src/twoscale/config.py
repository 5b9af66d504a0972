"""Run configuration: a flat, hashable description of one pipeline run."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .battery import BatteryConfig, DEFAULT_PRICE_FORECAST, tariff_for_slots


class ConfigError(ValueError):
    pass


class _ConstantCycles:
    """Picklable constant cycle-count function."""

    def __init__(self, n: int):
        self.n = int(n)

    def __call__(self, capacity: float) -> int:
        return self.n

    def __eq__(self, other):
        return isinstance(other, _ConstantCycles) and other.n == self.n


@dataclass(frozen=True)
class RunConfig:
    D: int = 365
    n_slots: int = 48
    n_classes: int = 4
    class_scheme: str = "trimester"
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
    price_forecast: tuple = DEFAULT_PRICE_FORECAST
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
        if self.D < 0 or self.n_slots < 1 or self.scenarios < 1:
            raise ConfigError("D, n_slots and scenarios must be positive")
        if self.c_step <= 0 or self.c_max <= 0 or self.dh_cap <= 0:
            raise ConfigError("grid extents must be positive")
        if self.fit_k < 1 or self.price_atoms < 1:
            raise ConfigError("support sizes must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        pi = self.pi_grid()
        if pi.size == 0 or (pi < 0).any() or (np.diff(pi) <= 0).any():
            raise ConfigError("pi_values must be nonnegative and strictly increasing")
        h_grid, c_grid = self.h_grid(), self.c_grid()
        if c_grid.size < 2:
            raise ConfigError(
                f"the capacity grid 0..c_max in steps of c_step has no positive size"
                f" (c_max {self.c_max}, c_step {self.c_step})"
            )
        # the slow recursions look renewal states (cycle_multiple * r, r) up on the grid
        for r in c_grid[1:]:
            if self.cycle_multiple * r not in h_grid:
                raise ConfigError(
                    f"renewal state ({self.cycle_multiple * r}, {r}) is not on the (h, c) grid:"
                    f" h_points - 1 must be a multiple of {len(c_grid) - 1}"
                )

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
        """Hash of every key but threads, which changes no artifact."""
        keys = {k: v for k, v in self.to_dict().items() if k != "threads"}
        blob = json.dumps(keys, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    # derived grids
    def c_grid(self) -> np.ndarray:
        n = int(round(self.c_max / self.c_step)) + 1
        return np.arange(n) * self.c_step

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
            u_min=-self.u_max,
            u_max=self.u_max,
            max_capacity=self.c_max,
            renewal_grid=tuple(float(c) for c in self.c_grid()),
            soc_fraction=self.soc_fraction,
            cycle_count=_ConstantCycles(self.cycle_multiple),
            gamma=self.gamma,
            tariff=tariff_for_slots(self.n_slots),
        )
