"""Multi-index lattices, grid functions, and discrete calculus.

A grid function lives on the index box {-N, ..., N}^d of the lattice
dx*Z^d.  Lookups outside the box follow the grid's boundary rule:
``periodic-wrap`` identifies the box with a torus (index arithmetic is
modular), ``zero-extension`` treats everything outside as zero.

The module provides the forward/backward difference operators

    (D+_j f)_a = (f_{a+e_j} - f_a) / dx,
    (D-_j f)_a = (f_a - f_{a-e_j}) / dx,

their composition (the directional second difference), the weighted lp
norms (sum |f|^p dx^d)^(1/p), and CSV serialisation of grid functions.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

BOUNDARIES = ("periodic-wrap", "zero-extension")


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a truncated lattice: spacing, dimension, radius, boundary."""

    dx: float
    dim: int
    radius: int
    boundary: str = "periodic-wrap"

    def __post_init__(self):
        if not (self.dx > 0 and math.isfinite(self.dx)):
            raise ValueError(f"grid spacing must be positive, got {self.dx}")
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if self.radius < 1:
            raise ValueError(f"radius must be >= 1, got {self.radius}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")

    @property
    def npts(self) -> int:
        """Points per axis, 2N + 1."""
        return 2 * self.radius + 1

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.npts,) * self.dim

    @property
    def site_count(self) -> int:
        return self.npts**self.dim

    @property
    def periodic(self) -> bool:
        return self.boundary == "periodic-wrap"

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    def axis_indices(self) -> np.ndarray:
        """Integer indices -N..N along one axis."""
        return np.arange(-self.radius, self.radius + 1)

    def axis_coordinates(self) -> np.ndarray:
        return self.axis_indices() * self.dx

    def index_iter(self) -> Iterable[tuple[int, ...]]:
        """All multi-indices of the box in row-major (flattening) order."""
        n = self.radius
        for pos in np.ndindex(*self.shape):
            yield tuple(p - n for p in pos)

    def position(self, alpha: Sequence[int]) -> tuple[int, ...]:
        """Array position of a multi-index, applying the boundary wrap."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dim:
            raise ValueError(f"index has {len(alpha)} components, grid is {self.dim}-d")
        if self.periodic:
            return tuple((a + self.radius) % self.npts for a in alpha)
        return tuple(a + self.radius for a in alpha)

    def contains(self, alpha: Sequence[int]) -> bool:
        return all(-self.radius <= int(a) <= self.radius for a in alpha)

    def flat_index(self, alpha: Sequence[int]) -> int:
        return int(np.ravel_multi_index(self.position(alpha), self.shape))


def _check_direction(grid: GridSpec, j: int) -> int:
    if not 1 <= j <= grid.dim:
        raise ValueError(f"direction {j} out of range for a {grid.dim}-d grid")
    return j - 1


def shift_array(values: np.ndarray, axis: int, step: int, periodic: bool) -> np.ndarray:
    """Array s with s[a] = values[a + step*e_axis], per the boundary rule."""
    if periodic:
        return np.roll(values, -step, axis=axis)
    out = np.zeros_like(values)
    src = [slice(None)] * values.ndim
    dst = [slice(None)] * values.ndim
    n = values.shape[axis]
    if abs(step) >= n:
        return out
    if step >= 0:
        src[axis] = slice(step, n)
        dst[axis] = slice(0, n - step)
    else:
        src[axis] = slice(0, n + step)
        dst[axis] = slice(-step, n)
    out[tuple(dst)] = values[tuple(src)]
    return out


@dataclass(frozen=True)
class Field:
    """A real grid function: one value per multi-index of the box."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} does not match grid shape {self.grid.shape}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def dirac(cls, grid: GridSpec) -> "Field":
        """Discrete Dirac: dx^-d at the origin, zero elsewhere."""
        vals = np.zeros(grid.shape)
        vals[grid.position((0,) * grid.dim)] = grid.dx ** (-grid.dim)
        return cls(grid, vals)

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: GridSpec, fn: Callable[..., float]) -> "Field":
        """Sample fn(x_1, ..., x_d) at the grid points."""
        axes = np.meshgrid(*[grid.axis_coordinates()] * grid.dim, indexing="ij")
        return cls(grid, np.asarray(fn(*axes), dtype=float) * np.ones(grid.shape))

    def value(self, alpha: Sequence[int]) -> float:
        """Point lookup; outside the box the boundary rule applies."""
        if not self.grid.contains(alpha) and not self.grid.periodic:
            return 0.0
        return float(self.values[self.grid.position(alpha)])

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


def forward_diff(f: Field, j: int) -> Field:
    """Forward difference in direction j (1-based)."""
    ax = _check_direction(f.grid, j)
    shifted = shift_array(f.values, ax, 1, f.grid.periodic)
    return Field(f.grid, (shifted - f.values) / f.grid.dx)


def backward_diff(f: Field, j: int) -> Field:
    """Backward difference in direction j (1-based)."""
    ax = _check_direction(f.grid, j)
    shifted = shift_array(f.values, ax, -1, f.grid.periodic)
    return Field(f.grid, (f.values - shifted) / f.grid.dx)


def laplacian_dir(f: Field, j: int) -> Field:
    """Directional second difference (f_{a-e_j} - 2 f_a + f_{a+e_j}) / dx^2."""
    ax = _check_direction(f.grid, j)
    return Field(f.grid, laplacian_array(f.values, ax, f.grid.dx, f.grid.periodic))


def laplacian_array(values: np.ndarray, axis: int, dx: float, periodic: bool) -> np.ndarray:
    """Second difference of a raw array along one axis (helper for operators)."""
    up = shift_array(values, axis, 1, periodic)
    down = shift_array(values, axis, -1, periodic)
    return (up - 2.0 * values + down) / dx**2


def lp_norm(f: Field, p: float) -> float:
    """Weighted lp norm (sum |f|^p dx^d)^(1/p); sup norm for p = inf."""
    vals = f.flat()
    if p == math.inf:
        return np.abs(vals).max()
    if not p >= 1:
        raise ValueError(f"lp norm requires p >= 1 or p = inf, got {p}")
    return (np.sum(np.abs(vals) ** p) * f.grid.cell_volume) ** (1.0 / p)


# ---------------------------------------------------------------------------
# CSV serialisation: alpha_1..alpha_d,value with 17 significant digits,
# rows in flat index order.
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _atomic_write(path: str, write_fn) -> None:
    # no partial files on failure: write to a sibling temp, rename on success
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", newline="") as fh:
            write_fn(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def field_to_csv(f: Field, path: str) -> None:
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow([f"alpha_{k + 1}" for k in range(f.grid.dim)] + ["value"])
        flat = f.flat()
        for i, alpha in enumerate(f.grid.index_iter()):
            writer.writerow([*alpha, _fmt(flat[i])])

    _atomic_write(path, write)


def field_from_csv(path: str, dx: float, boundary: str = "periodic-wrap") -> Field:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        dim = len(header) - 1
        if dim < 1 or header[-1] != "value":
            raise ValueError(f"unrecognised field CSV header: {header}")
        rows = [([int(c) for c in row[:dim]], float(row[dim])) for row in reader if row]
    radius = max(abs(c) for alpha, _ in rows for c in alpha)
    grid = GridSpec(dx=dx, dim=dim, radius=max(radius, 1), boundary=boundary)
    vals = np.zeros(grid.shape)
    for alpha, v in rows:
        vals[grid.position(alpha)] = v
    return Field(grid, vals)
