"""Independent monotone Lax-Friedrichs finite-difference solver.

Serves as the cross-validation oracle for the variational path: a global
artificial-viscosity discretization of u_t + H(x, u, Du) = 0, monotone
under alpha*dt/dx <= 1/2 and dt*lambda_L <= 1, sharing no code with the
dynamic-programming kernels beyond the model's potential and coupling.

``LFConfig`` is the oracle's discretization: it checks both conditions
when built, and every entry point takes it first and rejects a datum on
another grid.  One private stepper, ``_lf_march``, evaluates V once per
run, forms H in the floating-point order of ``eval_H`` and yields slice by
slice: ``oracle`` streams them to its CSV, ``lf_final`` keeps the last
(``check``) and ``lf_solve``, the tests' reference, stores them all.

The stepper works on the flat slice, C order, where axis ax has the flat
stride s = N^(dim - 1 - ax).  Every operation over the whole grid is one
contiguous 1-D ufunc: the forward difference along an axis is
``v[s:] - v[:-s]``, right everywhere but on the wrap layer (the cells last
along the axis), which one small strided operation then overwrites with
its periodic difference.  The differences, their shifts and the central
terms of all axes sit in (dim, size) buffers, so each arithmetic pass over
them is one call whatever the dimension, and the sums over axes add into
axis 0 in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError
from .models import HamiltonianModel
from .torus import Grid, GridField, SpaceTimeField, _horizon_steps


@dataclass(frozen=True)
class LFConfig:
    model: HamiltonianModel
    grid: Grid
    alpha: float  # artificial viscosity, >= max reachable |H_p| + margin
    dt_fd: float

    def __post_init__(self):
        cfl = self.alpha * self.dt_fd / self.grid.dx
        if cfl > 0.5 + 1e-12:
            raise ConfigurationError(f"CFL violation: alpha*dt_fd/dx = {cfl:g} > 1/2")
        if self.dt_fd * self.model.lipschitz_u > 1.0 + 1e-12:
            raise ConfigurationError(
                f"dt_fd*lambda_L = {self.dt_fd * self.model.lipschitz_u:g} exceeds 1"
            )


def _lf_march(cfg: LFConfig, phi: GridField, n: int):
    """Yield phi's values and then the n slices after it of the explicit scheme, flat.

    V is evaluated on the grid once, and a step works in buffers made once
    per run, with every view of them built before the first step: the
    current slice v, and dp, dm and c of shape (dim, size).  Per axis, dp
    takes the forward difference on the flat stride (module docstring) and
    dm is dp shifted by one cell, two slice copies; then dp - dm, dp + dm,
    the halving and the square are one ``out=`` ufunc each over all axes.
    H is formed in the floating-point order of ``eval_H``, so each slice is
    bitwise the one a step calling it gives.  Every slice yielded is a
    fresh array (``lf_solve`` stacks them); a non-finite slice raises
    ``NumericError`` naming its step.
    """
    if phi.grid != cfg.grid:
        raise ConfigurationError(f"phi is on {phi.grid}, the oracle on {cfg.grid}")
    model, grid = cfg.model, cfg.grid
    size, pot = grid.size, model.potential(grid.points())
    v = phi.values.copy()
    dp, dm, c = (np.empty((grid.dim, size)) for _ in range(3))
    # per axis of flat stride s, as (minuend, subtrahend, out): the forward
    # difference v[i + s] - v[i] of every cell, wrong on the wrap layer (the
    # cells last along the axis), then the wrap layer's own, first cell minus
    # last; and as (dst, src) the same two parts of dm, dp shifted by one cell
    diffs, copies = [], []
    for ax in range(grid.dim):
        s = grid.n ** (grid.dim - 1 - ax)
        layers = (size // (grid.n * s), grid.n, s)
        v3, dp3, dm3 = v.reshape(layers), dp[ax].reshape(layers), dm[ax].reshape(layers)
        diffs += [(v[s:], v[:-s], dp[ax, :-s]), (v3[:, 0], v3[:, -1], dp3[:, -1])]
        copies += [(dm[ax, s:], dp[ax, :-s]), (dm3[:, 0], dp3[:, -1])]
    # the sums over axes accumulate into axis 0: |central gradient|^2 in dp and
    # the Laplacian * dx in c.  The Laplacian starts at its axis-0 term, not at
    # 0 + it as eval_H's callers do: the two differ only in the sign of a zero,
    # which ham - lap cannot see, since ham is never -0.0 (0.5 * sq is not, and
    # a sum with an addend other than -0.0 is not)
    sums = [(dp[0], dp[ax]) for ax in range(1, grid.dim)]
    sums += [(c[0], c[ax]) for ax in range(1, grid.dim)]
    # H goes into dm, free once dp - dm and dp + dm are formed
    sq, lap, ham = dp[0], c[0], dm[0]
    # x - 0.0 is x for every x, -0.0 included; x - (-0.0) is not
    shift = model.action_shift
    subtract_shift = shift != 0.0 or math.copysign(1.0, shift) < 0.0
    coupling, dx, half_alpha, dt = model.coupling, grid.dx, 0.5 * cfg.alpha, cfg.dt_fd
    yield phi.values
    for k in range(n):
        # a blown-up step overflows quietly; the isfinite check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            for minuend, subtrahend, out in diffs:
                np.subtract(minuend, subtrahend, out=out)
            dp /= dx  # (v_{j+1} - v_j) / dx
            for dst, src in copies:
                np.copyto(dst, src)  # bitwise (v_j - v_{j-1}) / dx
            np.subtract(dp, dm, out=c)
            np.add(dp, dm, out=dp)
            dp *= 0.5
            np.multiply(dp, dp, out=dp)
            for total, term in sums:
                total += term
            np.multiply(sq, 0.5, out=ham)
            ham += coupling(v)
            ham += pot
            if subtract_shift:
                ham -= shift
            lap *= half_alpha
            ham -= lap
            ham *= dt
            v -= ham
        if not np.isfinite(v).all():
            raise NumericError(f"Lax-Friedrichs step {k + 1} produced a non-finite value")
        yield v.copy()


def lf_solve(cfg: LFConfig, phi: GridField, T: float) -> SpaceTimeField:
    """Iterate the scheme over [0, T] and return the slab."""
    values = np.array(list(_lf_march(cfg, phi, _horizon_steps(T, cfg.dt_fd))))
    return SpaceTimeField(cfg.grid, cfg.dt_fd, values)


def lf_final(cfg: LFConfig, phi: GridField, T: float) -> GridField:
    """Final slice only, without storing the slab."""
    for values in _lf_march(cfg, phi, _horizon_steps(T, cfg.dt_fd)):
        pass
    return GridField(cfg.grid, values)
