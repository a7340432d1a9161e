"""Independent monotone Lax-Friedrichs finite-difference solver.

Serves as the cross-validation oracle for the variational path: a global
artificial-viscosity discretization of u_t + H(x, u, Du) = 0 that is
provably monotone under alpha*dt/dx <= 1/2 and dt*lambda_L <= 1, sharing
no code with the dynamic-programming kernels beyond the Hamiltonian
evaluation itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .models import HamiltonianModel, eval_H
from .torus import Grid, GridField, SpaceTimeField, _horizon_steps


@dataclass(frozen=True)
class LFConfig:
    grid: Grid
    alpha: float  # artificial viscosity, >= max reachable |H_p| + margin
    dt_fd: float
    audited_max_hp: float = 0.0  # reachable-set bound the caller audited

    def __post_init__(self):
        if self.alpha < self.audited_max_hp + 0.1 - 1e-12:
            raise ConfigurationError(
                f"alpha={self.alpha:g} below audited max |H_p| {self.audited_max_hp:g} + 0.1"
            )
        if self.cfl_ratio > 0.5 + 1e-12:
            raise ConfigurationError(
                f"CFL violation: alpha*dt_fd/dx = {self.cfl_ratio:g} > 1/2"
            )

    @property
    def cfl_ratio(self) -> float:
        return self.alpha * self.dt_fd / self.grid.dx


def lf_step(model: HamiltonianModel, u: GridField, cfg: LFConfig) -> GridField:
    """One explicit step with central Hamiltonian and global dissipation."""
    if cfg.dt_fd * model.lipschitz_u > 1.0 + 1e-12:
        raise ConfigurationError("dt_fd violates dt_fd*lambda_L <= 1")
    grid = u.grid
    v = u.values.reshape((grid.n,) * grid.dim)
    dplus, dminus, lap = [], [], np.zeros_like(v)
    for ax in range(grid.dim):
        dp = (np.roll(v, -1, axis=ax) - v) / grid.dx
        dm = (v - np.roll(v, 1, axis=ax)) / grid.dx
        dplus.append(dp)
        dminus.append(dm)
        lap += dp - dm
    central = np.stack([(0.5 * (dp + dm)).ravel() for dp, dm in zip(dplus, dminus)], axis=-1)
    ham = np.atleast_1d(eval_H(model, grid.points(), u.values, central))
    new = u.values - cfg.dt_fd * (ham - 0.5 * cfg.alpha * lap.ravel())
    return GridField(grid, new)


def lf_solve(model: HamiltonianModel, phi: GridField, T: float, cfg: LFConfig) -> SpaceTimeField:
    """Iterate lf_step over [0, T] and return the slab."""
    n = _horizon_steps(T, cfg.dt_fd)
    out = np.empty((n + 1, phi.grid.size))
    out[0] = phi.values
    cur = phi
    for k in range(n):
        cur = lf_step(model, cur, cfg)
        out[k + 1] = cur.values
    return SpaceTimeField(phi.grid, cfg.dt_fd, out)


def lf_final(model: HamiltonianModel, phi: GridField, T: float, cfg: LFConfig) -> GridField:
    """Final slice only (avoids storing long slabs)."""
    n = _horizon_steps(T, cfg.dt_fd)
    cur = phi
    for _ in range(n):
        cur = lf_step(model, cur, cfg)
    return cur
