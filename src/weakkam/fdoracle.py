"""Independent monotone Lax-Friedrichs finite-difference solver.

Serves as the cross-validation oracle for the variational path: a global
artificial-viscosity discretization of u_t + H(x, u, Du) = 0 that is
provably monotone under alpha*dt/dx <= 1/2 and dt*lambda_L <= 1, sharing
no code with the dynamic-programming kernels beyond the model's potential
and coupling terms.

One private stepper marches the scheme for ``lf_step``, ``lf_solve`` and
``lf_final``: it evaluates V on the grid once per run, keeps the slice in
grid shape, and forms H in the floating-point order of ``eval_H``.
``lf_solve`` stores every slice (the ``oracle`` command's slab);
``lf_final`` keeps only the last one (the ``check`` command's cross-check).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .models import HamiltonianModel
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


def _lf_march(model: HamiltonianModel, phi: GridField, n: int, cfg: LFConfig):
    """Yield the n slices after phi of the explicit scheme, flat.

    V is evaluated on the grid once; H is formed in the floating-point order
    of ``eval_H``, so each slice is bitwise the one a step calling it gives.
    """
    if cfg.dt_fd * model.lipschitz_u > 1.0 + 1e-12:
        raise ConfigurationError("dt_fd violates dt_fd*lambda_L <= 1")
    grid = phi.grid
    pot = model.potential(grid.points()).reshape((grid.n,) * grid.dim)
    v = phi.values.reshape(pot.shape)
    for k in range(n):
        sq, lap = 0.0, np.zeros_like(v)  # |central gradient|^2, Laplacian * dx
        for ax in range(grid.dim):
            dp = (np.roll(v, -1, axis=ax) - v) / grid.dx
            dm = (v - np.roll(v, 1, axis=ax)) / grid.dx
            lap += dp - dm
            c = 0.5 * (dp + dm)
            sq = sq + c * c
        ham = 0.5 * sq + model.coupling(v) + pot - model.action_shift
        v = v - cfg.dt_fd * (ham - 0.5 * cfg.alpha * lap)
        if not np.all(np.isfinite(v)):
            raise ValueError(f"Lax-Friedrichs step {k + 1} produced a non-finite value")
        yield v.ravel()


def lf_step(model: HamiltonianModel, u: GridField, cfg: LFConfig) -> GridField:
    """One explicit step with central Hamiltonian and global dissipation."""
    return GridField(u.grid, next(_lf_march(model, u, 1, cfg)))


def lf_solve(model: HamiltonianModel, phi: GridField, T: float, cfg: LFConfig) -> SpaceTimeField:
    """Iterate the scheme over [0, T] and return the slab."""
    n = _horizon_steps(T, cfg.dt_fd)
    out = np.empty((n + 1, phi.grid.size))
    out[0] = phi.values
    for k, values in enumerate(_lf_march(model, phi, n, cfg), 1):
        out[k] = values
    return SpaceTimeField(phi.grid, cfg.dt_fd, out)


def lf_final(model: HamiltonianModel, phi: GridField, T: float, cfg: LFConfig) -> GridField:
    """Final slice only, without storing the slab."""
    values = phi.values
    for values in _lf_march(model, phi, _horizon_steps(T, cfg.dt_fd), cfg):
        pass
    return GridField(phi.grid, values)
