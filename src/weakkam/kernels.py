"""One-step dynamic-programming kernels on the periodic grid.

A step advances a value slice by

    W'(x_j) = min_y [ W(y) + dt * L(y, u(y), (x_j - y)/dt) ]

where y ranges over grid points within periodic distance v_max*dt of x_j
and the displacement is the minimal periodic representative.  The kernel
holds one table, built on first read: the u-independent part of the segment
cost of each admissible cell offset, indexed by the destination x_j; only
the u-coupling is recomputed per step.

Quadrature of the potential along the straight segment ("left", "midpoint"
or "exact" trigonometric line integral) is fixed at kernel construction.

Two paths take the same min over the same candidates:

- The window path reads ``base_cost``.  The start points y = x_j - offset*dx
  are read without an index table: each step pads the start values
  periodically by the largest offset and takes the sliding windows of the
  padded array, so the starts of one offset are one window (a view).
  Candidates are formed in blocks of offsets and their per-destination min
  is folded in lexicographic offset order.  It serves 1-D, "midpoint" and
  "exact" (whose V term depends on the offset) and ``apply_with_argmin``.
- The row path serves ``apply`` and ``apply_table`` on 2-D grids with
  "left" quadrature (``row_path``), where every term but the kinetic one
  depends only on the start and the kinetic term splits per axis.  It
  never reads ``base_cost``: it reads the per-start table
  dt*(action_shift - V) and the per-axis kinetic cost
  c(o) = (o*dx)^2/(2*dt).  The disk-shaped stencil is a union of rows: row
  o1 holds the offsets (o1, o2) with |o2| <= r(o1).  Pass 1 builds the
  nested minima B_r = min(B_{r-1}, a(., x2 -+ r) + c(+-r)) along x2, pass 2
  takes min over o1 of B_{r(o1)}(x1 - o1, .) + c(o1): O(m) window passes
  instead of one per offset (m is the stencil radius in cells).  Only the
  order of the sums differs from the window path, so the two agree to
  rounding (bitwise where every sum is exact).

The per-destination min is a map over destination points with read-only
access to the previous slice, so results do not depend on thread count.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError
from .models import HamiltonianModel
from .torus import Grid, stencil_offsets

QUADRATURES = ("left", "midpoint", "exact")

# candidate elements formed at once: bounds the temporaries of one block
_BLOCK_ELEMENTS = 1 << 16


def row_path(grid: Grid, quadrature: str) -> bool:
    """Whether kernels on grid step by the row path, which reads no ``base_cost``."""
    return grid.dim == 2 and quadrature == "left"


def check_dt_lambda(model: HamiltonianModel, dt: float):
    """Raise unless dt*lambda_L <= 1, under which a step of dt is monotone in u."""
    if dt * model.lipschitz_u > 1.0 + 1e-12:
        raise ConfigurationError(
            f"dt*lambda_L = {dt * model.lipschitz_u:g} exceeds 1 "
            f"(dt={dt:g}, lambda_L={model.lipschitz_u:g})"
        )


class StepKernel:
    """Precomputed DP step for a fixed (model, grid, dt, v_max, quadrature).

    ``base_cost[k, j]`` is dt*L without the u-coupling for the step with
    offset ``offsets[k]`` that ends at x_j and starts at x_j - offsets[k]*dx,
    periodically (``_start_of`` states this rule once).  Window-path kernels
    build it at construction; a 2-D "left" kernel (``row_path``) only when
    ``action.critical_value`` reads it (the backtrack's ``_column`` forms a
    "left" column from V, bitwise equal to the table's).
    """

    def __init__(
        self,
        model: HamiltonianModel,
        grid: Grid,
        dt: float,
        v_max: float,
        quadrature: str = "left",
    ):
        if quadrature not in QUADRATURES:
            raise ConfigurationError(f"unknown quadrature {quadrature!r}")
        check_dt_lambda(model, dt)
        self.model = model
        self.grid = grid
        self.dt = float(dt)
        self.v_max = float(v_max)
        self.quadrature = quadrature

        offsets = stencil_offsets(grid, v_max, dt)
        # lexicographic offset order fixes the candidate scan order
        order = np.lexsort(offsets.T[::-1])
        offsets = offsets[order]
        self.offsets = offsets
        self.n_offsets = offsets.shape[0]
        # padding width m; the starts of offset o are window m - o of the padded slice
        self._pad = int(np.max(np.abs(offsets)))
        self._window_pos = tuple(self._pad - offsets.T)

        self._kinetic = 0.5 * np.sum((offsets * grid.dx / dt) ** 2, axis=1)  # (n_off,)
        self._potential = model.potential(grid.points()) if quadrature == "left" else None

        if row_path(grid, quadrature):
            m = self._pad
            self._wrap = np.arange(-m, grid.n + m) % grid.n
            start_cost = (dt * (model.action_shift - self._potential)).reshape(grid.n, -1)
            self._start_cost = start_cost[np.ix_(self._wrap, self._wrap)]  # wrap-padded
            self._axis_cost = (np.arange(-m, m + 1) * grid.dx) ** 2 / (2 * dt)
            # r(o1) = largest o2 with (o1, o2) in offsets; rows grouped by r
            reach = np.zeros(2 * m + 1, dtype=int)
            np.maximum.at(reach, offsets[:, 0] + m, offsets[:, 1])
            self._row_reach = [(np.flatnonzero(reach == r) - m).tolist() for r in range(m + 1)]
        else:
            self.base_cost  # the window path reads it every step: build it before any step

    @functools.cached_property
    def base_cost(self) -> np.ndarray:
        """The (n_offsets, size) table of the class docstring, built on first read."""
        pts, nodes = self.grid.points(), np.arange(self.grid.size)
        table = np.empty((self.n_offsets, self.grid.size))
        for k, disp in enumerate(self.offsets * self.grid.dx):
            if self.quadrature == "left":
                vterm = self._potential
            elif self.quadrature == "midpoint":
                vterm = self.model.potential(pts + 0.5 * disp)
            else:
                vterm = self.model.potential.segment_average(pts, np.broadcast_to(disp, pts.shape))
            table[k] = self._cost(k, vterm[self._start_of(k, nodes)])
        return table

    def _cost(self, k, vterm):
        """dt*L without the u-coupling of offsets k, given V's term at their starts."""
        return self.dt * (self._kinetic[k] - vterm + self.model.action_shift)

    def _start_of(self, k, j) -> np.ndarray:
        """Flat index of x_j - offsets[k]*dx, periodically; k and j broadcast."""
        n, o = self.grid.n, self.offsets[k]
        if self.grid.dim == 1:
            return (j - o[..., 0]) % n
        return (j // n - o[..., 0]) % n * n + (j % n - o[..., 1]) % n

    @property
    def start_index(self) -> np.ndarray:
        """Start grid index of each (offset, destination) step, (n_offsets, size)."""
        return self._start_of(np.arange(self.n_offsets)[:, None], np.arange(self.grid.size))

    def _column(self, j: int):
        """(starts, base_cost[:, j]) of the steps into x_j; "left" forms it from V."""
        starts = self._start_of(np.arange(self.n_offsets), j)
        if self.quadrature == "left":
            return starts, self._cost(slice(None), self._potential[starts])
        return starts, self.base_cost[:, j]

    def step_cost(self, u_slice: np.ndarray) -> np.ndarray:
        """Start-point term W-independent of the offset: -dt * coupling(u(y))."""
        return -self.dt * self.model.coupling(u_slice)

    def _windows(self, a: np.ndarray) -> np.ndarray:
        """Sliding windows of the last axis of a (per-point values), padded periodically.

        The window at position m - o along each grid axis holds a at the
        start points x_j - o*dx of the steps with offset o.
        """
        n, dim, lead = self.grid.n, self.grid.dim, a.ndim - 1
        shaped = a.reshape(a.shape[:-1] + (n,) * dim)
        padded = np.pad(shaped, [(0, 0)] * lead + [(self._pad, self._pad)] * dim, mode="wrap")
        return sliding_window_view(padded, (n,) * dim, axis=tuple(range(lead, lead + dim)))

    def _starts(self, windows: np.ndarray, blk: slice) -> np.ndarray:
        """Start values of the offsets in blk, shape (..., len(blk), size) (a copy)."""
        lead = windows.ndim - 2 * self.grid.dim
        got = windows[(slice(None),) * lead + tuple(p[blk] for p in self._window_pos)]
        return got.reshape(got.shape[: lead + 1] + (self.grid.size,))

    def _candidates(self, windows: np.ndarray, blk: slice) -> np.ndarray:
        """Candidates a(x_j - offsets[k]*dx) + base_cost[k, j] of the offsets k in blk."""
        cand = self._starts(windows, blk)
        cand += self.base_cost[blk]
        return cand

    def _blocks(self, rows: int):
        """Consecutive offset slices whose candidates hold about _BLOCK_ELEMENTS."""
        per = max(1, _BLOCK_ELEMENTS // (rows * self.grid.size))
        return [slice(lo, lo + per) for lo in range(0, self.n_offsets, per)]

    def _min_over_offsets(self, a: np.ndarray) -> np.ndarray:
        """min_k a(x_j - offsets[k]*dx) + base_cost[k, j] over the last axis of a.

        The row path forms the same candidates with the sums in another order.
        """
        if row_path(self.grid, self.quadrature):
            return self._row_min(a)
        return self._window_min(a)

    def _window_min(self, a: np.ndarray) -> np.ndarray:
        """The window path of _min_over_offsets."""
        windows = self._windows(a)
        blocks = self._blocks(a.size // self.grid.size)
        out = self._candidates(windows, blocks[0]).min(axis=-2)
        for blk in blocks[1:]:
            np.minimum(out, self._candidates(windows, blk).min(axis=-2), out=out)
        return out

    def _row_min(self, a: np.ndarray) -> np.ndarray:
        """The row path of _min_over_offsets (2-D, "left"), in blocks of leading rows.

        Each row is wrap-padded by m on both axes and flattened, width
        W = n + 2m, so that every shift along either axis is one contiguous
        slice; the last 2m columns of each x1-row hold unused values.
        """
        n, m, c = self.grid.n, self._pad, self._axis_cost
        width = n + 2 * m
        span = width * width - 2 * m  # B is formed at flat positions [0, span)
        rows = a.reshape(-1, n, n)
        out = np.empty_like(rows)
        per = max(1, _BLOCK_ELEMENTS // (width * width))
        for lo in range(0, rows.shape[0], per):
            blk = rows[lo:lo + per]
            b = blk.shape[0]
            padded = np.take(np.take(blk, self._wrap, axis=1), self._wrap, axis=2)
            padded += self._start_cost
            padded = padded.reshape(b, -1)
            best = np.empty_like(padded)
            best[:, span:] = np.inf
            np.add(padded[:, m:m + span], c[m], out=best[:, :span])
            step = np.empty((b, span))
            res = np.full((b, n * width), np.inf)
            shifted = np.empty_like(res)
            # res folds pass 2 over the rows of reach r as soon as B_r is formed
            for r, row_offsets in enumerate(self._row_reach):
                for o2 in (-r, r) if r else ():
                    np.add(padded[:, m - o2:m - o2 + span], c[m + o2], out=step)
                    np.minimum(best[:, :span], step, out=best[:, :span])
                for o1 in row_offsets:
                    lo1 = (m - o1) * width
                    np.add(best[:, lo1:lo1 + n * width], c[m + o1], out=shifted)
                    np.minimum(res, shifted, out=res)
            out[lo:lo + per] = res.reshape(b, n, width)[:, :, :n]
        return out.reshape(a.shape)

    def apply(self, w: np.ndarray, u_slice: np.ndarray) -> np.ndarray:
        """One DP step of a slice (shape (size,)), each row on its own if stacked."""
        return self._min_over_offsets(w + self.step_cost(u_slice))

    def apply_with_argmin(self, w: np.ndarray, u_slice: np.ndarray):
        """One DP step returning (values, start indices of the minimizers).

        Ties are broken toward the smallest start grid index.  The
        calibrated-curve backtrack finds the same minimizer for one
        destination at a time; this pass over every destination is its
        test reference.
        """
        a = w + self.step_cost(u_slice)
        vals = self._window_min(a)
        windows = self._windows(a)
        index_windows = self._windows(np.arange(self.grid.size))
        arg = np.full(self.grid.size, self.grid.size, dtype=np.intp)
        for blk in self._blocks(1):
            tied = self._candidates(windows, blk) <= vals
            starts = np.where(tied, self._starts(index_windows, blk), self.grid.size)
            np.minimum(arg, starts.min(axis=0), out=arg)
        return vals, arg

    def apply_table(self, w: np.ndarray, a_level: float) -> np.ndarray:
        """One DP step of an action table (rows = start points, frozen u)."""
        shift = self.step_cost(np.full(1, a_level))[0]
        return self._min_over_offsets(w + shift)


def min_plus_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a ⊗ b)[i,j] = min_y a[i,y] + b[y,j]; exact table composition."""
    n = a.shape[0]
    out = np.empty_like(a)
    for j in range(n):
        out[:, j] = np.min(a + b[:, j][None, :], axis=1)
    return out
