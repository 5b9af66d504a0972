"""Numerical substrate: grid-tabulated value functions, finite laws and
discrete conjugation.

A value is a cost in the reals or +inf, which marks an infeasible state:
plain IEEE doubles under IEEE arithmetic.  :class:`GridValueFn` refuses NaN
and -inf, so +inf + x = +inf and p * (+inf) = +inf for a probability p > 0
need no mask; the one mask left is on a blend's +inf corners of weight 0
(0 * (+inf) is NaN).  All containers are immutable after construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

INF = math.inf


def value_fault(values: np.ndarray) -> str | None:
    """What puts an array outside the value domain, the reals and +inf:
    "a NaN" or "-inf", or None when every entry lies in it."""
    if (values > -INF).all():
        return None
    return "a NaN" if np.isnan(values).any() else "-inf"


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

    def interp_plan(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Multilinear interpolation plan of query points (..., ndim), clamped
        to the bounding box: the flat (row-major) index of each query's lower
        cell corner, shape (...), and its fractional offset per axis, shape
        (ndim, ...).
        """
        x = np.asarray(x, dtype=float)
        base = np.zeros(x.shape[:-1], dtype=np.intp)
        frac = np.zeros((self.ndim,) + base.shape)
        stride = 1
        for j in reversed(range(self.ndim)):
            ax = self.axes[j]
            # np.clip's operations (the sign of a clamped zero, which numpy's
            # clip sets by memory layout, moves no blend)
            xj = np.minimum(np.maximum(x[..., j], ax[0]), ax[-1])
            if ax.size > 1:
                i = np.searchsorted(ax, xj, side="right")
                i -= 1
                np.minimum(ax.size - 2, np.maximum(0, i, out=i), out=i)
                np.subtract(xj, ax[i], out=frac[j])
                frac[j] /= np.diff(ax)[i]
                i *= stride
                base += i
            stride *= ax.size
        return base, frac

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, Grid)
            and len(self.axes) == len(other.axes)
            and all(np.array_equal(a, b) for a, b in zip(self.axes, other.axes))
        )


class BlendPlan:
    """The cell corners of an interpolation plan (see :meth:`Grid.interp_plan`),
    cached to blend any number of value tables on one grid.

    An axis whose fractions are all 0 or 1 is folded into the base index and
    its weight-0 corners are dropped; each corner left keeps its flat offset
    from the base and its weight, the product of its per-axis factors in axis
    order.  Corners run in binary order, the lowest axis left in the lowest
    bit.  ``base`` may have any shape and ``frac`` is ``(ndim,) + base.shape``.
    """

    __slots__ = ("base", "corners", "_out", "_tmp")

    def __init__(self, grid: Grid, base: np.ndarray, frac: np.ndarray):
        shape = grid.shape
        strides = [int(np.prod(shape[j + 1:])) for j in range(len(shape))]
        base = np.array(base, dtype=np.intp)
        kept = []
        for j, f in enumerate(frac):
            if ((f == 0.0) | (f == 1.0)).all():
                base += strides[j] * (f == 1.0)
            else:
                kept.append(j)
        self.corners = []
        for corner in range(1 << len(kept)):
            w, offset = None, 0
            for bit, j in enumerate(kept):
                if (corner >> bit) & 1:
                    f = frac[j]
                    offset += strides[j]
                else:
                    f = 1.0 - frac[j]
                w = np.array(f) if w is None else w * f
            self.corners.append((offset, np.ones(base.shape) if w is None else w))
        self.base = base
        self._out, self._tmp = np.empty(base.shape), np.empty(base.shape)

    def blend(self, values: np.ndarray) -> np.ndarray:
        """Multilinear blend of a table of values (reals or +inf) on the
        plan's grid, written into one buffer that the next call overwrites.

        A corner contributes only where its weight is strictly positive; a
        +inf corner enters the sum as 0 and makes the result +inf.
        """
        flat = np.asarray(values, dtype=float).ravel()
        # a value is never NaN, so the max is +inf exactly where one value is
        has_inf = flat.max() == INF
        if has_inf:
            inf_tab = np.isposinf(flat)
            flat = np.where(inf_tab, 0.0, flat)
        out, tmp, base = self._out, self._tmp, self.base
        # the sum starts from +0, as np.zeros did, so an all-zero blend is +0
        out.fill(0.0)
        for offset, w in self.corners:
            # every index is in range; "clip" skips the buffered bounds check
            np.take(flat[offset:], base, out=tmp, mode="clip")
            tmp *= w
            out += tmp
        if has_inf:
            hit = np.zeros(base.shape, dtype=bool)
            for offset, w in self.corners:
                hit |= (w > 0.0) & inf_tab[offset:].take(base)
            out[hit] = INF
        return out


class GridValueFn:
    """A value function tabulated on a Grid: each value a real cost or +inf
    (infeasible); construction refuses NaN and -inf.

    Interpolation is multilinear with infinity propagation: any cell corner
    carrying +inf with a strictly positive convex weight makes the blend +inf,
    so infeasibility is never averaged away.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.size != grid.size:
            raise ValueError("values size does not match grid size")
        fault = value_fault(values)
        if fault:
            raise ValueError(f"values hold {fault}")
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
        return BlendPlan(self.grid, *self.grid.interp_plan(x)).blend(self.values)

    def save_json(self, path) -> None:
        """Write the grid and the values, row-major, to ``path`` as JSON, a
        +inf value as the string "inf"."""
        values = ["inf" if v == INF else v for v in self.values.ravel()]
        obj = {"grid": [ax.tolist() for ax in self.grid.axes], "values": values}
        with open(path, "w") as fh:
            json.dump(obj, fh, sort_keys=True, separators=(",", ":"))

    @classmethod
    def load_json(cls, path) -> "GridValueFn":
        """The function :meth:`save_json` wrote to ``path``."""
        with open(path) as fh:
            obj = json.load(fh)
        values = [INF if v == "inf" else float(v) for v in obj["values"]]
        return cls(Grid(obj["grid"]), np.array(values))


@dataclass(frozen=True, eq=False)
class LawTable:
    """One finite-support scalar law per row (a day or a fast stage) as a
    (rows, atoms) table: row r's law puts ``probs[r, k]`` on
    ``support[r, k]``.  A row with fewer atoms than the widest repeats its
    last atom at probability 0 (:meth:`from_rows`), so that a draw rounded
    past its cumulative sum and a nearest-atom lookup read the same value as
    on its own atoms, and :meth:`atoms` skips the padding."""

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2 or probs.shape[1] < 1 or support.shape != probs.shape:
            raise ValueError(
                f"support {support.shape} and probs {probs.shape} are not one (rows, atoms) shape"
            )
        if not (np.isfinite(support).all() and np.isfinite(probs).all()):
            raise ValueError("support and probabilities must be finite")
        if (probs < 0).any():
            raise ValueError("probabilities must be nonnegative")
        off = np.abs(probs.sum(axis=1) - 1.0) > 1e-12
        if off.any():
            r = int(np.argmax(off))
            raise ValueError(f"the probabilities of row {r} sum to {probs[r].sum()}, not 1")
        support.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_rows(cls, supports: Sequence, probs: Sequence) -> "LawTable":
        """The table of one (support, probs) pair of sequences per row, the
        shorter rows padded with their last atom at probability 0."""
        if len(supports) != len(probs):
            raise ValueError(f"{len(supports)} supports for {len(probs)} rows of probabilities")
        sizes = np.array([len(p) for p in probs], dtype=np.intp)
        if not len(sizes) or any(len(s) != n or not n for s, n in zip(supports, sizes.tolist())):
            raise ValueError("every row needs one probability per atom, and an atom")
        support, weights = (
            np.fromiter(chain.from_iterable(rows), float, int(sizes.sum()))
            for rows in (supports, probs)
        )
        # each row's atoms, then its last atom again up to the widest row
        cols = np.arange(sizes.max())
        at = (np.cumsum(sizes) - sizes)[:, None] + np.minimum(cols, sizes[:, None] - 1)
        return cls(support[at], np.where(cols >= sizes[:, None], 0.0, weights[at]))

    def atoms(self, row: int):
        """Yield the (atom, probability) pairs of row ``row`` in order,
        skipping the atoms of probability 0."""
        for s, p in zip(self.support[row], self.probs[row]):
            if p > 0.0:
                yield s, float(p)


def fenchel_conjugate(f: GridValueFn, price_grid: Grid) -> np.ndarray:
    """Discrete Fenchel conjugate: f*(p) = max over grid x of <p, x> - f(x),
    one entry per point of ``price_grid`` in row-major order.

    A conjugate lies in the reals or is -inf, so it is a plain array, not a
    value function: the conjugate of the function identically +inf is -inf
    everywhere.
    """
    if price_grid.ndim != f.grid.ndim:
        raise ValueError("price grid dimension must match the state grid")
    states = f.grid.points()
    vals = f.values.ravel()
    out = np.empty(price_grid.size)
    for i, p in enumerate(price_grid.points()):
        out[i] = np.max(states @ p - vals)
    return out
