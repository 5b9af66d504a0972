"""Numerical substrate: extended-real arithmetic, grid-tabulated functions,
discrete distributions and discrete conjugation.

Extended reals are plain IEEE doubles with +-inf, but every addition goes
through :func:`low_add` so that conflicting infinities collapse to -inf
instead of NaN.  All containers are immutable after construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

INF = math.inf


def low_add(a: float, b: float) -> float:
    """Lower addition on extended reals: (+inf) + (-inf) = -inf."""
    if math.isinf(a) and math.isinf(b) and (a > 0) != (b > 0):
        return -INF
    return a + b


def low_add_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise lower addition; broadcasting as usual."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        out = a + b
    nan = np.isnan(out)
    if nan.any():
        # a NaN sum of two infinities is a conflict (+inf) + (-inf)
        out = np.where(nan & np.isinf(a) & np.isinf(b), -INF, out)
    return out


def _as_axis(points: Iterable[float]) -> np.ndarray:
    axis = np.asarray(points, dtype=float)
    if axis.ndim != 1 or axis.size < 1:
        raise ValueError("grid axis must be a nonempty 1-D array")
    if axis.size > 1 and not np.all(np.diff(axis) > 0):
        raise ValueError("grid axis must be strictly increasing")
    return axis


class Grid:
    """Rectangular grid: one strictly increasing breakpoint array per axis."""

    __slots__ = ("axes",)

    def __init__(self, axes: Sequence[Iterable[float]]):
        axes = tuple(_as_axis(ax) for ax in axes)
        if not axes:
            raise ValueError("grid needs at least one axis")
        for ax in axes:
            ax.setflags(write=False)
        object.__setattr__(self, "axes", axes)

    def __setattr__(self, name, value):
        raise AttributeError("Grid is immutable")

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.size for ax in self.axes)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def points(self) -> np.ndarray:
        """All grid points as a (size, ndim) array, row-major order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def clamp(self, x: np.ndarray) -> np.ndarray:
        """Clamp query points (n, ndim) to the bounding box."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        lo = np.array([ax[0] for ax in self.axes])
        hi = np.array([ax[-1] for ax in self.axes])
        return np.clip(x, lo, hi)

    def interp_plan(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Multilinear interpolation plan of query points (n, ndim), clamped to
        the bounding box: the flat (row-major) index of each query's lower cell
        corner, shape (n,), and its fractional offset per axis, shape (ndim, n).
        """
        x = self.clamp(x)
        n = x.shape[0]
        base = np.zeros(n, dtype=np.intp)
        frac = np.zeros((self.ndim, n))
        stride = 1
        for j in reversed(range(self.ndim)):
            ax = self.axes[j]
            if ax.size > 1:
                i = np.searchsorted(ax, x[:, j], side="right") - 1
                i = np.clip(i, 0, ax.size - 2)
                step = ax[i + 1] - ax[i]
                frac[j] = (x[:, j] - ax[i]) / step
                base += i * stride
            stride *= ax.size
        return base, frac

    def corners(self, base: np.ndarray, frac: np.ndarray):
        """The cell corners of an interpolation plan (see :meth:`interp_plan`)
        in binary order, axis 0 in the lowest bit: per corner its flat index,
        shaped like ``base``, and its weight, the product of its per-axis
        factors in axis order."""
        shape = self.shape
        strides = [int(np.prod(shape[j + 1:])) for j in range(len(shape))]
        lower = 1.0 - frac
        for corner in range(1 << len(shape)):
            w, offset = None, 0
            for j in range(len(shape)):
                if (corner >> j) & 1:
                    f = frac[j]
                    if shape[j] > 1:
                        offset += strides[j]
                else:
                    f = lower[j]
                w = f if w is None else w * f
            yield base + offset, w

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, Grid)
            and len(self.axes) == len(other.axes)
            and all(np.array_equal(a, b) for a, b in zip(self.axes, other.axes))
        )

    def __hash__(self):
        return hash(tuple(tuple(ax) for ax in self.axes))


class GridValueFn:
    """Extended-real function tabulated on a Grid.

    Interpolation is multilinear with infinity propagation: any cell corner
    carrying +inf with a strictly positive convex weight makes the blend +inf,
    so infeasibility is never averaged away; -inf dominates +inf per lower
    addition.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.size != grid.size:
            raise ValueError("values size does not match grid size")
        values = values.reshape(grid.shape)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("GridValueFn is immutable")

    def eval_many(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.grid.ndim:
            raise ValueError(
                f"query dimension {x.shape[1]} != grid dimension {self.grid.ndim}"
            )
        return self.blend(*self.grid.interp_plan(x))

    def blend(self, base: np.ndarray, frac: np.ndarray) -> np.ndarray:
        """Multilinear blend at an interpolation plan of this function's grid
        (see :meth:`Grid.interp_plan`); ``base`` may have any shape and
        ``frac`` is ``(ndim,) + base.shape``.

        Corners are visited in the order of :meth:`Grid.corners`.  A corner
        contributes only where its weight is strictly positive.
        """
        flat = self.values.ravel()
        pos_tab, neg_tab = np.isposinf(flat), np.isneginf(flat)
        has_pos, has_neg = bool(pos_tab.any()), bool(neg_tab.any())
        if has_pos or has_neg:
            flat = np.where(np.isfinite(flat), flat, 0.0)
        total = np.zeros(base.shape)
        pos_inf = np.zeros(base.shape, dtype=bool)
        neg_inf = np.zeros(base.shape, dtype=bool)
        for idx, w in self.grid.corners(base, frac):
            v = flat.take(idx)
            v *= w
            total += v
            if has_pos or has_neg:
                active = w > 0.0
                if has_pos:
                    pos_inf |= active & pos_tab.take(idx)
                if has_neg:
                    neg_inf |= active & neg_tab.take(idx)
        out = np.where(pos_inf, INF, total) if has_pos else total
        return np.where(neg_inf, -INF, out) if has_neg else out

    def __call__(self, x) -> float:
        return float(self.eval_many(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def to_jsonable(self) -> dict:
        def enc(v: float):
            if math.isinf(v):
                return "inf" if v > 0 else "-inf"
            return v

        return {
            "grid": [ax.tolist() for ax in self.grid.axes],
            "values": [enc(v) for v in self.values.ravel()],
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "GridValueFn":
        def dec(v):
            if v == "inf":
                return INF
            if v == "-inf":
                return -INF
            return float(v)

        grid = Grid(obj["grid"])
        values = np.array([dec(v) for v in obj["values"]])
        return cls(grid, values)

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_jsonable(), fh, sort_keys=True, separators=(",", ":"))

    @classmethod
    def load_json(cls, path) -> "GridValueFn":
        with open(path) as fh:
            return cls.from_jsonable(json.load(fh))


@dataclass(frozen=True)
class DiscreteDist:
    """Finite-support distribution; support rows are atoms (scalars or vectors)."""

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or len(probs) != len(support):
            raise ValueError("support and probs must have matching lengths")
        if (probs < 0).any():
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
        support.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return len(self.probs)

    def atoms(self):
        """Yield (atom, prob) pairs, skipping zero-probability atoms."""
        for s, p in zip(self.support, self.probs):
            if p > 0.0:
                yield s, float(p)

    def expectation(self, f: Callable) -> float:
        """E[f] under lower addition; zero-probability atoms never evaluated."""
        total = 0.0
        for s, p in self.atoms():
            v = float(f(s))
            term = INF if (math.isinf(v) and v > 0) else (-INF if math.isinf(v) else p * v)
            total = low_add(total, term)
        return total


def fenchel_conjugate(f: GridValueFn, price_grid: Grid) -> GridValueFn:
    """Discrete Fenchel conjugate: f*(p) = max over grid x of <p, x> - f(x).

    The subtraction follows lower addition, so the conjugate of the function
    identically +inf is -inf everywhere.
    """
    if price_grid.ndim != f.grid.ndim:
        raise ValueError("price grid dimension must match the state grid")
    states = f.grid.points()
    vals = f.values.ravel()
    neg = np.where(np.isposinf(vals), -INF, np.where(np.isneginf(vals), INF, -vals))
    out = np.empty(price_grid.size)
    for i, p in enumerate(price_grid.points()):
        out[i] = np.max(low_add_arrays(states @ p, neg))
    return GridValueFn(price_grid, out)
