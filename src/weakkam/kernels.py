"""One-step dynamic-programming kernels on the periodic grid.

A step advances a value slice by

    W'(x_j) = min_y [ W(y) + dt * L(y, u(y), (x_j - y)/dt) ]

where y ranges over grid points within periodic distance v_max*dt of x_j
and the displacement is the minimal periodic representative.  The kernel
holds one table, built on first read: the u-independent part of the segment
cost of each admissible cell offset, indexed by the destination x_j; only
the u-coupling is recomputed per step.  The table is built in blocks of
offsets, one V evaluation and one gather of the starts per block, whose
temporaries hold about ``_BLOCK_ELEMENTS`` floats: the same bound as a
step's candidate block.

Quadrature of the potential along the straight segment ("left", "midpoint"
or "exact" trigonometric line integral) is fixed at kernel construction.

Two paths take the same min over the same candidates:

- The window path reads ``base_cost``.  The start points y = x_j - offset*dx
  are read without an index table: each step pads the start values
  periodically by its radius (below) with slice copies and views the
  padded array as sliding windows, so the starts of one offset are one
  window.  Candidates are formed in blocks of offsets and their
  per-destination min is folded in lexicographic offset order.  It serves
  1-D, "midpoint" and "exact" (whose V term depends on the offset) and
  ``apply_with_argmin``.
- The row path serves ``apply`` and ``apply_table`` on 2-D grids with
  "left" quadrature (``row_path``), where every term but the kinetic one
  depends only on the start and the kinetic term splits per axis.  It
  never reads ``base_cost``: it reads the per-start table
  dt*(action_shift - V) and the per-axis kinetic cost
  c(o) = (o*dx)^2/(2*dt).  The disk-shaped stencil is a union of rows: row
  o1 holds the offsets (o1, o2) with |o2| <= r(o1).  Pass 1 builds the
  nested minima B_r = min(B_{r-1}, a(., x2 -+ r) + c(+-r)) along x2, pass 2
  takes min over o1 of B_{r(o1)}(x1 - o1, .) + c(o1): O(m) window passes
  instead of one per offset (m is the stencil radius in cells).  Here a
  is the start values plus dt*(action_shift - V), padded like the
  windows.  Only the order of the sums differs from the window path, so
  the two agree to rounding (bitwise where every sum is exact).  It goes
  in blocks of stacked rows, each holding four arrays of about the block's
  padded size, and writes each block's minima back into the step's own
  input temporary, which it returns.

Each pruned step (``apply`` and ``apply_table``) takes its min over the
offsets it can prove might win only: those within a per-axis radius r of
the zero offset (``_radius``).  r is exact, not a margin:

- L_i is the input's largest one-cell change along axis i, over all
  stacked rows and the periodic wrap pair; on the row path the input is
  the start values plus the start cost.
- The gain G_i(q) = min_j [cost(o, j) - cost(o - sign(o_i) e_i, j)] over
  the offsets with |o_i| = q is what an offset's cost grows by one cell
  outward; the costs are ``base_cost`` on the window path (read once, on
  the first step) and the axis cost c on the row path.  S_i(r) is the
  least gain beyond r, min over q > r of G_i(q).
- r_i is the least r with S_i(r) > L_i (1 + 4 eps) + 16 eps (max|a| +
  max|cost|), eps the float epsilon, and m if there is none or the input
  is not finite.

Proof that the kept min is bitwise the full one.  For |o_i| > r_i the
exact candidates satisfy cand(o) - cand(o') >= G_i(|o_i|) - L_i for the
inward neighbour o' = o - sign(o_i) e_i, and the threshold exceeds the
rounding of the computed L_i, G_i and of the two candidate sums (on the
row path, of its two sums and of the min over o2 that pass 2 reads), so
the computed cand(o) > cand(o').  Walking inward along axis 1 and then
along axis 2 stays inside the disk (|o_i| only falls) and ends at a kept
offset, so every dropped candidate strictly exceeds a kept one and never
ties the min.  A min of floats returns one of its arguments, so the kept
min has the full min's value; it also has its bits, because no candidate
is -0 (a sum is -0 only if both its terms are, and no cost is: a table
holding a -0 gets no pruning).  The kept offsets of one stencil row form
one run of offset indices, so the window path folds runs of offsets in
blocks; the row path bounds its rows o1 by r_1 and its reach by r_2.
``apply_with_argmin`` and ``action._best_starts`` take the full stencil.
``stencil_reach`` reports the largest radii ``apply`` took (``apply_table``
steps are not counted): a step whose radius is below m on every axis found
each minimum strictly inside the stencil.  It counts row-steps, each
stacked row of a call as one step, at m when the row's own radius (the one
it takes stepped alone) reaches m, so its counts do not depend on how a
caller batches its rows.  A stack is pruned at the radius of all its rows
taken as one input, at least each row's own, which keeps each row's
minimum with its bits.

The per-destination min is a map over destination points with read-only
access to the previous slice, so results do not depend on thread count.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

from .errors import ConfigurationError
from .models import HamiltonianModel
from .torus import Grid, stencil_offsets

QUADRATURES = ("left", "midpoint", "exact")

# candidate elements formed at once: bounds the temporaries of one block
_BLOCK_ELEMENTS = 1 << 16
# block-sized arrays one offset block of the base_cost build (or of its gains)
# holds at once (measured: at most 13), so that together they hold about
# _BLOCK_ELEMENTS floats
_BUILD_ARRAYS = 16
_EPS = float(np.finfo(float).eps)


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


def _wrap_pad(shaped: np.ndarray, radius) -> np.ndarray:
    """shaped (..., n[, n]) padded periodically by radius[i] cells on both sides of grid axis i."""
    dim = len(radius)
    n = shaped.shape[-1]
    lead = shaped.shape[:-dim]
    padded = np.empty(lead + tuple(n + 2 * r for r in radius), dtype=shaped.dtype)
    padded[(Ellipsis,) + tuple(slice(r, r + n) for r in radius)] = shaped
    # axis by axis over the full extent of the others, so the corners wrap too
    for ax, r in enumerate(radius):
        rest = (slice(None),) * (dim - 1 - ax)
        padded[(Ellipsis, slice(r)) + rest] = padded[(Ellipsis, slice(n, n + r)) + rest]
        padded[(Ellipsis, slice(n + r, None)) + rest] = padded[(Ellipsis, slice(r, 2 * r)) + rest]
    return padded


class StepKernel:
    """Precomputed DP step for a fixed (model, grid, dt, v_max, quadrature).

    ``base_cost[k, j]`` is dt*L without the u-coupling for the step with
    offset ``offsets[k]`` that ends at x_j and starts at x_j - offsets[k]*dx,
    periodically (``_start_of`` states this rule once).  Window-path kernels
    build it at construction; a 2-D "left" kernel (``row_path``) only when
    ``action.critical_value`` reads it (the backtrack's ``_column`` forms a
    "left" column from V, bitwise equal to the table's).  The build goes in
    blocks of offsets whose temporaries hold about ``_BLOCK_ELEMENTS``
    floats, bitwise equal to a build offset by offset.
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

        # stencil_offsets' lexicographic order fixes the candidate scan order
        self.offsets = offsets = stencil_offsets(grid, v_max, dt)
        self.n_offsets = offsets.shape[0]
        self._m = m = int(np.max(np.abs(offsets)))  # the stencil radius in cells
        # the largest radius per axis and the counts of pruned row-steps (stencil_reach)
        self._reach_seen, self._steps, self._full_steps = [0] * grid.dim, 0, 0

        self._kinetic = 0.5 * np.sum((offsets * grid.dx / dt) ** 2, axis=1)  # (n_off,)
        self._potential = model.potential(grid.points()) if quadrature == "left" else None

        # stencil row o1 holds the offsets (o1, o2) with |o2| <= _row_reach[o1],
        # and offset index _row_centre[o1] is (o1, 0); 1-D is the one row o1 = 0
        self._row_reach, self._row_centre = {}, {}
        for k, (o1, o2) in enumerate(np.pad(offsets, ((0, 0), (2 - grid.dim, 0))).tolist()):
            self._row_reach[o1] = max(self._row_reach.get(o1, 0), o2)
            if o2 == 0:
                self._row_centre[o1] = k
        if row_path(grid, quadrature):
            self._start_cost = (dt * (model.action_shift - self._potential)).reshape(grid.n, -1)
            self._axis_cost = (np.arange(-m, m + 1) * grid.dx) ** 2 / (2 * dt)
        else:
            self.base_cost  # the window path reads it every step: build it before any step

    @property
    def _table_block(self) -> int:
        """Offsets per block of the base_cost build and of its gains."""
        return max(1, _BLOCK_ELEMENTS // (_BUILD_ARRAYS * self.grid.size))

    @functools.cached_property
    def base_cost(self) -> np.ndarray:
        """The (n_offsets, size) table of the class docstring, built on first
        read in blocks of offsets: one V evaluation and one gather of the
        starts per block, whose temporaries hold about _BLOCK_ELEMENTS floats."""
        grid = self.grid
        pts, nodes = grid.points(), np.arange(grid.size)
        table = np.empty((self.n_offsets, grid.size))
        per = self._table_block
        for lo in range(0, self.n_offsets, per):
            ks = np.arange(lo, min(lo + per, self.n_offsets))[:, None]
            starts = self._start_of(ks, nodes)  # (block, size)
            if self.quadrature == "left":
                vterm = self._potential[starts]
            else:
                disp = self.offsets[ks] * grid.dx  # (block, 1, dim)
                if self.quadrature == "midpoint":
                    vterm = self.model.potential(pts + 0.5 * disp)
                else:
                    vterm = self.model.potential.segment_average(pts, disp)
                vterm = np.take_along_axis(vterm, starts, axis=1)
            table[lo:lo + len(ks)] = self._cost(ks, vterm)
        return table

    @functools.cached_property
    def _gains(self):
        """(S, max|cost|) of the pruning rule: S[i][r] = S_i(r) for r < m, nondecreasing.

        Read on the first pruned step.  A non-finite or -0 cost gives no
        pruning (every S_i(r) = -inf); a NaN gain counts as -inf.
        """
        m, dim = self._m, self.grid.dim
        gains = np.full((dim, m + 1), np.inf)
        with np.errstate(invalid="ignore", over="ignore"):
            if row_path(self.grid, self.quadrature):
                c = self._axis_cost
                gains[:, 1:] = c[m + 1:] - c[m:-1]
                cost_max = float(c[-1])
            else:
                table = self.base_cost
                cost_max = float(np.max(np.abs(table)))
                if np.any((table == 0) & np.signbit(table)):
                    cost_max = math.nan
                # offset index at (offset + m) along each axis, for the inward neighbours
                lookup = np.zeros((2 * m + 1,) * dim, dtype=np.intp)
                lookup[tuple((self.offsets + m).T)] = np.arange(self.n_offsets)
                per = self._table_block
                for i in range(dim):
                    outward = np.flatnonzero(self.offsets[:, i])
                    inward = self.offsets[outward]
                    inward[:, i] -= np.sign(inward[:, i])
                    inward = lookup[tuple((inward + m).T)]
                    gain = np.empty(outward.size)
                    for lo in range(0, outward.size, per):
                        blk = slice(lo, lo + per)
                        gain[blk] = np.min(table[outward[blk]] - table[inward[blk]], axis=1)
                    np.minimum.at(gains[i], np.abs(self.offsets[outward, i]), gain)
        if not math.isfinite(cost_max):
            gains[:] = -np.inf
        gains[np.isnan(gains)] = -np.inf
        # S_i(r) = min over q > r of G_i(q), for r = 0..m-1
        suffix = np.minimum.accumulate(gains[:, :0:-1], axis=1)[:, ::-1]
        return [row.tolist() for row in suffix], cost_max

    def _radii(self, a: np.ndarray, groups: int) -> list:
        """The per-axis radius r of the pruning rule for the step input a,
        (..., n[, n]), split into ``groups`` equal runs of stacked rows, one
        tuple a group: 1 gives the radius of the whole step, the row count
        the radius each row takes when stepped alone.  It holds one array
        like a, its one-cell changes, and frees it before any block of the
        step is formed."""
        flat = a.reshape(groups, -1)
        his, los = flat.max(axis=1).tolist(), flat.min(axis=1).tolist()
        full = (self._m,) * self.grid.dim
        finite = [math.isfinite(hi - lo) for hi, lo in zip(his, los)]
        if not any(finite):
            return [full] * groups
        suffix, cost_max = self._gains
        floors = [16 * _EPS * (max(hi, -lo) + cost_max) for hi, lo in zip(his, los)]
        radii = []
        change = np.empty_like(a)
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite group takes m
            for i, s in enumerate(suffix):
                cut = (slice(None),) * (a.ndim - self.grid.dim + i)
                # change[..., k, ...] = a[..., k + 1, ...] - a[..., k, ...] along axis i, periodically
                np.subtract(a[cut + (slice(1, None),)], a[cut + (slice(-1),)],
                            out=change[cut + (slice(-1),)])
                np.subtract(a[cut + (slice(1),)], a[cut + (slice(-1, None),)],
                            out=change[cut + (slice(-1, None),)])
                largest = np.abs(change, out=change).reshape(groups, -1).max(axis=1).tolist()
                radii.append([bisect.bisect_right(s, c * (1 + 4 * _EPS) + floor)
                              for c, floor in zip(largest, floors)])
        return [r if ok else full for r, ok in zip(zip(*radii), finite)]

    def _radius(self, a: np.ndarray) -> tuple:
        """The per-axis radius of a step of the stacked rows a, all taken as one."""
        return self._radii(a, 1)[0]

    def _note(self, radius, a: np.ndarray):
        """Record a pruned step at radius of the stacked rows a for
        ``stencil_reach``: a row counts at m when its own radius reaches m,
        which needs the step's radius to reach m."""
        rows = a.size // self.grid.size
        for i, r in enumerate(radius):
            if r > self._reach_seen[i]:
                self._reach_seen[i] = r
        self._steps += rows
        if max(radius) == self._m:
            self._full_steps += sum(max(r) == self._m for r in self._radii(a, rows))

    def stencil_reach(self) -> dict:
        """The largest radius per axis over the ``apply`` steps so far, m, and
        the counts of the rows those steps stepped and of the rows of those
        whose radius reached m: a stack of k rows counts k, as k one-row
        steps would."""
        return {"radius": list(self._reach_seen), "m": self._m,
                "steps": self._steps, "steps_at_m": self._full_steps}

    def _cost(self, k, vterm):
        """dt*L without the u-coupling of offsets k, given V's term at their starts."""
        return self.dt * (self._kinetic[k] - vterm + self.model.action_shift)

    def _start_of(self, k, j) -> np.ndarray:
        """Flat index of x_j - offsets[k]*dx, periodically; k and j broadcast."""
        n, dim, o = self.grid.n, self.grid.dim, self.offsets[k]
        start = 0
        for ax in range(dim):  # Horner over the C-order cell coordinates of j
            start = start * n + (j // n ** (dim - 1 - ax) % n - o[..., ax]) % n
        return start

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

    def _shaped(self, a: np.ndarray) -> np.ndarray:
        """a (..., size) as (..., n[, n]), a view."""
        return a.reshape(a.shape[:-1] + (self.grid.n,) * self.grid.dim)

    def _windows(self, a: np.ndarray, radius=None) -> np.ndarray:
        """Sliding windows of the last axis of a (per-point values), padded
        periodically by radius[i] cells along grid axis i (default m).

        Shape (..., 2r_1 + 1[, 2r_2 + 1], n[, n]), a view of the padded
        array: the window at position r - o along each grid axis holds a at
        the start points x_j - o*dx of the steps with offset o.
        """
        n, dim = self.grid.n, self.grid.dim
        padded = _wrap_pad(self._shaped(a), radius or (self._m,) * dim)
        lead = padded.ndim - dim
        shape = padded.shape[:lead] + tuple(w - n + 1 for w in padded.shape[lead:]) + (n,) * dim
        windows = np.ndarray(shape, padded.dtype, padded, 0, padded.strides + padded.strides[lead:])
        windows.flags.writeable = False
        return windows

    def _starts(self, windows: np.ndarray, blk: slice) -> np.ndarray:
        """Start values of the offsets in blk, shape (..., len(blk), size) (a copy)."""
        dim = self.grid.dim
        lead = windows.ndim - 2 * dim
        radius = [(w - 1) // 2 for w in windows.shape[lead:lead + dim]]
        pos = tuple(r - o for r, o in zip(radius, self.offsets[blk].T))
        got = windows[(slice(None),) * lead + pos]
        return got.reshape(got.shape[: lead + 1] + (self.grid.size,))

    def _candidates(self, windows: np.ndarray, blk: slice) -> np.ndarray:
        """Candidates a(x_j - offsets[k]*dx) + base_cost[k, j] of the offsets k in blk."""
        cand = self._starts(windows, blk)
        cand += self.base_cost[blk]
        return cand

    def _blocks(self, rows: int, radius=None):
        """Consecutive offset slices whose candidates hold about _BLOCK_ELEMENTS,
        over the offsets within radius (default all): one run per stencil row,
        merged where adjacent."""
        # 1-D is the one stencil row o1 = 0
        r1, r2 = (0,) * (2 - self.grid.dim) + tuple(radius or (self._m,) * self.grid.dim)
        runs = []
        for o1 in range(-r1, r1 + 1):
            half = min(self._row_reach[o1], r2)
            lo, hi = self._row_centre[o1] - half, self._row_centre[o1] + half + 1
            if runs and runs[-1][1] == lo:
                runs[-1][1] = hi
            else:
                runs.append([lo, hi])
        per = max(1, _BLOCK_ELEMENTS // (rows * self.grid.size))
        return [slice(lo, min(lo + per, hi)) for start, hi in runs for lo in range(start, hi, per)]

    def _min_over_offsets(self, a: np.ndarray, note: bool) -> np.ndarray:
        """min_k a(x_j - offsets[k]*dx) + base_cost[k, j] over the last axis of a,
        over the offsets within the pruning radius (module docstring); the
        step is recorded for ``stencil_reach`` if note.

        a is the caller's temporary, which the row path overwrites and
        returns; it forms the same candidates with the sums in another order.
        """
        if row_path(self.grid, self.quadrature):
            return self._row_min(a, note)
        shaped = self._shaped(a)
        radius = self._radius(shaped)
        if note:
            self._note(radius, shaped)
        return self._window_min(a, radius)

    def _window_min(self, a: np.ndarray, radius=None) -> np.ndarray:
        """The window path of _min_over_offsets, over the offsets within radius (default all)."""
        windows = self._windows(a, radius)
        blocks = self._blocks(a.size // self.grid.size, radius)
        out = self._candidates(windows, blocks[0]).min(axis=-2)
        for blk in blocks[1:]:
            np.minimum(out, self._candidates(windows, blk).min(axis=-2), out=out)
        return out

    def _row_min(self, a: np.ndarray, note: bool) -> np.ndarray:
        """The row path of _min_over_offsets (2-D, "left"), in blocks of leading rows.

        The input plus the start cost is wrap-padded by the radius (r1, r2)
        and each row flattened, width W = n + 2*r2, so that every shift
        along either axis is one contiguous slice; the last 2*r2 columns of
        each x1-row hold unused values.

        a is the step's own temporary: it takes the start cost and then, block
        by block, the result, once the block's padded copy is made.  A block
        holds four arrays of about its padded size: the padded input, B, one
        buffer that is each o2 term of pass 1 and then each o1 term of pass 2
        (never both at once), and the running min of pass 2.
        """
        n, m, c = self.grid.n, self._m, self._axis_cost
        rows = a.reshape(-1, n, n)
        rows += self._start_cost
        r1, r2 = self._radius(rows)
        if note:
            self._note((r1, r2), rows)
        width = n + 2 * r2
        span = (n + 2 * r1) * width - 2 * r2  # B is formed at flat positions [0, span)
        # rows o1 (|o1| <= r1) are folded into res once B of their reach is formed
        fold = [[] for _ in range(r2 + 1)]
        for o1 in range(-r1, r1 + 1):
            fold[min(self._row_reach[o1], r2)].append(o1)
        per = max(1, _BLOCK_ELEMENTS // ((n + 2 * r1) * width))
        for lo in range(0, rows.shape[0], per):
            padded = _wrap_pad(rows[lo:lo + per], (r1, r2))
            b = padded.shape[0]
            padded = padded.reshape(b, -1)
            best = np.empty_like(padded)
            best[:, span:] = np.inf
            np.add(padded[:, r2:r2 + span], c[m], out=best[:, :span])
            term = np.empty(b * max(span, n * width))
            step = term[:b * span].reshape(b, span)
            shifted = term[:b * n * width].reshape(b, n * width)
            res = np.full((b, n * width), np.inf)
            for r, row_offsets in enumerate(fold):
                for o2 in (-r, r) if r else ():
                    np.add(padded[:, r2 - o2:r2 - o2 + span], c[m + o2], out=step)
                    np.minimum(best[:, :span], step, out=best[:, :span])
                for o1 in row_offsets:
                    lo1 = (r1 - o1) * width
                    np.add(best[:, lo1:lo1 + n * width], c[m + o1], out=shifted)
                    np.minimum(res, shifted, out=res)
            rows[lo:lo + per] = res.reshape(b, n, width)[:, :, :n]
        return rows.reshape(a.shape)

    def apply(self, w: np.ndarray, u_slice: np.ndarray) -> np.ndarray:
        """One DP step of a slice (shape (size,)), each row on its own if stacked."""
        return self._min_over_offsets(w + self.step_cost(u_slice), note=True)

    def apply_with_argmin(self, w: np.ndarray, u_slice: np.ndarray):
        """One DP step over the full stencil returning (values, start indices
        of the minimizers).

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
        """One DP step of an action table (rows = start points, frozen u),
        not counted by ``stencil_reach``: no command reports an action
        table's reach, and counting its rows at m would derive each row's
        radius on every such step."""
        shift = self.step_cost(np.full(1, a_level))[0]
        return self._min_over_offsets(w + shift, note=False)


def min_plus_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a ⊗ b)[i,j] = min_y a[i,y] + b[y,j]; exact table composition."""
    n = a.shape[0]
    out = np.empty_like(a)
    for j in range(n):
        out[:, j] = np.min(a + b[:, j][None, :], axis=1)
    return out
