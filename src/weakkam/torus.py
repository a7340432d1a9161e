"""Flat-torus geometry, uniform periodic grids and the CSV row writer.

All positions live on [0,1)^d with d in {1, 2}.  Displacements are always
reduced to the minimal periodic representative in [-1/2, 1/2)^d, so the
periodic distance never exceeds sqrt(d)/2.

Every CSV whose row count grows with the run is streamed to its open file by
``_write_csv`` one block of rows per write, so its text is never held whole.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import add

import numpy as np

from .errors import ConfigurationError


def csv_float(v) -> str:
    """Shortest round-trip decimal form, identical across runs."""
    return repr(float(v))


def _write_csv(fh, head: str, blocks):
    """Write the header line ``head`` and then each block of rows to the open text file fh.

    A block ``(pre, cols, values)`` is one write of len(values) > 0 rows: row j
    is pre + cols[j] and then repr of values[j] when values is 1-D, or of
    each float in values[j], comma-separated, when it is 2-D.  repr of the
    Python floats from tolist() is csv_float without a call per value.
    """
    fh.write(head)
    for pre, cols, values in blocks:
        rows = values.tolist()
        cells = map(repr, rows) if values.ndim == 1 else (",".join(map(repr, r)) for r in rows)
        fh.write(pre + ("\n" + pre).join(map(add, cols, cells)) + "\n")


_TABLE_ROWS = 4096  # rows per write of a table without a grid axis


def _write_table(fh, head: str, table: np.ndarray):
    """Write a 2-D float table as CSV rows, _TABLE_ROWS rows per write."""
    starts = range(0, len(table), _TABLE_ROWS)
    _write_csv(fh, head, (("", repeat(""), table[i:i + _TABLE_ROWS]) for i in starts))


def _point_columns(grid: Grid) -> tuple[str, list[str]]:
    """CSV header "j,x," (d=2: "j,x1,x2,") and each point's row prefix in that form."""
    head = "j,x," if grid.dim == 1 else "j,x1,x2,"
    cols = [f"{j}," + "".join(f"{csv_float(c)}," for c in p) for j, p in enumerate(grid.points())]
    return head, cols


def _write_slab(fh, grid: Grid, dt: float, slices):
    """Slab CSV k,t,j,x,u (d=2: k,t,j,x1,x2,u) to the open text file fh, a slice a write.

    ``slices`` yields the flat values of slice k = 0, 1, ... (time k*dt); a
    generator lets the export follow a solver that yields slice by slice.
    """
    head, cols = _point_columns(grid)
    _write_csv(fh, f"k,t,{head}u\n", (
        (f"{k},{csv_float(k * dt)},", cols, values) for k, values in enumerate(slices)
    ))


def wrap(x):
    """Map coordinates to the fundamental domain [0,1)^d."""
    return np.asarray(x, dtype=float) % 1.0


def periodic_delta(a, b):
    """Minimal periodic displacement b - a, componentwise in [-1/2, 1/2)."""
    d = (np.asarray(b, dtype=float) - np.asarray(a, dtype=float) + 0.5) % 1.0 - 0.5
    return d


def periodic_distance(a, b):
    """Euclidean distance on the torus (last axis = coordinates)."""
    d = periodic_delta(a, b)
    return np.sqrt(np.sum(d * d, axis=-1))


def _lattice(axis: np.ndarray, dim: int) -> np.ndarray:
    """The dim-tuples of axis values in C order (last axis fastest), (len(axis)**dim, dim)."""
    return np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with n points per axis on the d-torus."""

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigurationError(f"grid dim must be 1 or 2, got {self.dim}")
        if self.n < 2:
            raise ConfigurationError(f"grid N must be >= 2, got {self.n}")

    @property
    def dx(self) -> float:
        return 1.0 / self.n

    @property
    def size(self) -> int:
        return self.n**self.dim

    def points(self) -> np.ndarray:
        """Flattened coordinates, shape (size, dim), in the C order of the flat index."""
        return _lattice(np.arange(self.n) / self.n, self.dim)


def _horizon_steps(T: float, dt: float) -> int:
    """Number of steps of dt in the horizon T; T must be a positive multiple."""
    if not math.isfinite(T / dt):
        raise ConfigurationError(f"horizon T={T:g} is past the float range of steps of dt={dt:g}")
    n_steps = int(round(T / dt))
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
        raise ConfigurationError(f"horizon T={T:g} is not a positive multiple of dt={dt:g}")
    return n_steps


def stencil_offsets(grid: Grid, v_max: float, dt: float) -> np.ndarray:
    """Integer cell offsets reachable at speed <= v_max in one step of dt.

    Returns shape (n_offsets, dim) in lexicographic (C) order, the kernel's
    candidate scan order; always includes the zero offset.  Raises if the
    velocity window does not cover a single grid cell.
    """
    if v_max <= 0 or dt <= 0:
        raise ConfigurationError("v_max and dt must be positive")
    reach = v_max * dt / grid.dx + 1e-12  # inf when v_max*dt/dx leaves the float range
    m = int(np.floor(min(reach, grid.n)))
    if m < 1:
        raise ConfigurationError(
            f"empty stencil: v_max*dt = {v_max * dt:g} is below one grid cell "
            f"dx = {grid.dx:g}"
        )
    m = min(m, grid.n // 2)
    offs = _lattice(np.arange(-m, m + 1), grid.dim)
    # a reach of 2m or more keeps the whole lattice (|o|^2 <= dim*m^2 < (2m)^2),
    # so clamping it there keeps the same offsets and a square a float holds
    keep = np.sum(offs**2, axis=1) <= min(reach, 2 * m) ** 2
    return offs[keep]


@dataclass
class GridField:
    """Values of a scalar function on a periodic grid (one time slice)."""

    grid: Grid
    values: np.ndarray = field(default=None)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size != self.grid.size:
            raise ConfigurationError(
                f"field size {v.size} does not match grid size {self.grid.size}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("GridField values must be finite")
        self.values = v

    def _shaped(self) -> np.ndarray:
        return self.values.reshape((self.grid.n,) * self.grid.dim)

    def write_csv(self, fh):
        """Field export with columns j,x,u (d=2: j,x1,x2,u) to the open text file fh."""
        head, cols = _point_columns(self.grid)
        _write_csv(fh, f"{head}u\n", [("", cols, self.values)])


@dataclass
class SpaceTimeField:
    """Stack of grid slices over uniform time steps; slice k is time k*dt."""

    grid: Grid
    dt: float
    values: np.ndarray  # shape (n_steps + 1, grid.size)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.grid.size:
            raise ConfigurationError("SpaceTimeField values must be (n_slices, grid.size)")
        self.values = v

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    def slice(self, k: int) -> GridField:
        return GridField(self.grid, self.values[k].copy())

    def final(self) -> GridField:
        return self.slice(self.n_steps)

    def write_csv(self, fh):
        """Slab export k,t,j,x,u (d=2: k,t,j,x1,x2,u) to the open text file fh, a slice a write."""
        _write_slab(fh, self.grid, self.dt, self.values)

    def to_csv(self) -> str:
        """The text ``write_csv`` writes, as one string."""
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()
