"""Minimal actions between grid points, the Peierls barrier and the
critical value of the frozen-u Lagrangian.

The minimal action table h_t(x_i, x_j) is computed by dynamic programming
over time slices with straight-segment costs; tables for longer horizons
are obtained by exact min-plus composition.  The discrete critical value
needs no table: -c*dt is the minimum cycle mean of the one-step DP graph,
which Karp's formula gives exactly from grid.size steps of the vector
kernel.

Every entry point takes the discretization as one ``StepKernel`` and reads
the model, grid, dt, v_max and quadrature from it.  An ``ActionTable``
keeps its kernel, so ``compose`` refuses a table of another kernel or
u-level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .kernels import StepKernel, min_plus_product
from .torus import _horizon_steps, _write_csv, csv_float


@dataclass
class ActionTable:
    """h_t(x_i, x_j) for a frozen u-level; row = start, column = end."""

    kern: StepKernel
    a: float
    t: float
    values: np.ndarray

    def compose(self, other: "ActionTable") -> "ActionTable":
        """Exact composition h_{t+t'}(x,z) = min_y h_t(x,y) + h_{t'}(y,z)."""
        if other.kern is not self.kern or other.a != self.a:
            raise ConfigurationError(
                "cannot compose tables of different kernels or u-levels "
                f"(a={self.a:g} and a={other.a:g})"
            )
        return ActionTable(
            self.kern, self.a, self.t + other.t, min_plus_product(self.values, other.values)
        )

    def write_csv(self, fh):
        """Table export i,j,x_i,x_j,h (d=2: i,j,xi1,xi2,xj1,xj2,h) to the open file fh, by rows."""
        grid = self.kern.grid
        head = "i,j,x_i,x_j,h\n" if grid.dim == 1 else "i,j,xi1,xi2,xj1,xj2,h\n"
        coords = [",".join(csv_float(c) for c in p) for p in grid.points()]
        _write_csv(fh, head, (
            (f"{i},", [f"{j},{ci},{cj}," for j, cj in enumerate(coords)], row)
            for i, (ci, row) in enumerate(zip(coords, self.values))
        ))


@dataclass
class CriticalValueResult:
    a: float
    c: float

    def to_csv(self) -> str:
        return f"a,c\n{csv_float(self.a)},{csv_float(self.c)}\n"


def discretization_slack(kern: StepKernel) -> float:
    """Slack K_L*(dx + dt) for discrete action identities.

    K_L combines the potential's gradient bound with the velocity scale of
    the window, the local Lipschitz data of the segment costs.
    """
    k_l = kern.model.potential.gradient_bound() + kern.v_max
    return k_l * (kern.grid.dx + kern.dt)


def min_action(kern: StepKernel, a: float, t: float) -> ActionTable:
    """DP table of minimal actions over horizon t at frozen u-level a."""
    if not t >= kern.dt:
        raise ConfigurationError("need t >= dt")
    n_steps = _horizon_steps(t, kern.dt)
    w = np.full((kern.grid.size, kern.grid.size), np.inf)
    np.fill_diagonal(w, 0.0)
    for _ in range(n_steps):
        w = kern.apply_table(w, a)
    return ActionTable(kern, a, t, w)


def _min_cycle_mean(kern: StepKernel, a: float) -> float:
    """Minimum mean step cost over the cycles of the DP graph at level a.

    Karp's formula with every vertex a source: D_k(x) is the cheapest
    k-step path ending at x, and the mean is
    min_x max_{k<n} (D_n(x) - D_k(x)) / (n - k) with n = grid.size.
    """
    n = kern.grid.size
    level = np.full(n, a)
    d = np.empty((n + 1, n))
    d[0] = 0.0
    for k in range(n):
        d[k + 1] = kern.apply(d[k], level)
    # running max over k in place: no n x n temporary beside d
    best = (d[n] - d[0]) / n
    ratio = np.empty(n)
    for k in range(1, n):
        np.subtract(d[n], d[k], out=ratio)
        ratio /= n - k
        np.maximum(best, ratio, out=best)
    return float(np.min(best))


def critical_value(kern: StepKernel, a: float) -> CriticalValueResult:
    """The discrete critical value c = -(minimum cycle mean)/dt at level a.

    It is the exact limit of -min_x h_T(x,x)/T on the grid, computed
    without action tables.
    """
    c = -_min_cycle_mean(kern, a) / kern.dt
    return CriticalValueResult(a=a, c=c + 0.0)  # + 0.0 turns -0.0 into +0.0


def peierls_barrier(kern: StepKernel, a: float, c: float, t_list):
    """Barrier iterates h_T(x,y) + c*T and their pointwise tail minimum.

    Returns (liminf_estimate, report).  The report carries the per-horizon
    matrices, the sup bound C_t0 = max_T |h_T + c*T| and a non-divergence
    flag checked across the supplied horizons.
    """
    t_list = sorted(float(t) for t in t_list)
    if not t_list:
        raise ConfigurationError("T_list must be non-empty")
    barriers = {}
    table = None
    prev_t = 0.0
    for t in t_list:
        gap = t - prev_t
        if gap <= 0:
            raise ConfigurationError("T_list must be strictly increasing")
        piece = min_action(kern, a, gap)
        table = piece if table is None else table.compose(piece)
        barriers[t] = table.values + c * t
        prev_t = t
    tail = t_list[len(t_list) // 2 :]
    liminf = np.min(np.stack([barriers[t] for t in tail]), axis=0)
    sup_seq = [float(np.max(np.abs(barriers[t]))) for t in t_list]
    c_t0 = max(sup_seq)
    report = {
        "T_list": t_list,
        "barriers": barriers,
        "C_t0": c_t0,
        "sup_sequence": sup_seq,
        "bounded": c_t0 < np.inf,
    }
    return liminf, report
