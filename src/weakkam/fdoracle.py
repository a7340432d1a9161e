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
"""

from __future__ import annotations

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
    audited_max_hp: float = 0.0  # reachable-set bound the caller audited

    def __post_init__(self):
        if self.alpha < self.audited_max_hp + 0.1 - 1e-12:
            raise ConfigurationError(
                f"alpha={self.alpha:g} below audited max |H_p| {self.audited_max_hp:g} + 0.1"
            )
        cfl = self.alpha * self.dt_fd / self.grid.dx
        if cfl > 0.5 + 1e-12:
            raise ConfigurationError(f"CFL violation: alpha*dt_fd/dx = {cfl:g} > 1/2")
        if self.dt_fd * self.model.lipschitz_u > 1.0 + 1e-12:
            raise ConfigurationError(
                f"dt_fd*lambda_L = {self.dt_fd * self.model.lipschitz_u:g} exceeds 1"
            )


def _lf_march(cfg: LFConfig, phi: GridField, n: int):
    """Yield phi's values and then the n slices after it of the explicit scheme, flat.

    V is evaluated on the grid once; H is formed in the floating-point order
    of ``eval_H``, so each slice is bitwise the one a step calling it gives.
    """
    if phi.grid != cfg.grid:
        raise ConfigurationError(f"phi is on {phi.grid}, the oracle on {cfg.grid}")
    model, grid = cfg.model, cfg.grid
    pot = model.potential(grid.points()).reshape((grid.n,) * grid.dim)
    v = phi.values.reshape(pot.shape)
    yield phi.values
    for k in range(n):
        # a blown-up step overflows quietly; the isfinite check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            sq, lap = 0.0, np.zeros_like(v)  # |central gradient|^2, Laplacian * dx
            for ax in range(grid.dim):
                dp = (np.roll(v, -1, axis=ax) - v) / grid.dx
                dm = np.roll(dp, 1, axis=ax)  # bitwise (v_j - v_{j-1}) / dx
                lap += dp - dm
                c = 0.5 * (dp + dm)
                sq = sq + c * c
            ham = 0.5 * sq + model.coupling(v) + pot - model.action_shift
            v = v - cfg.dt_fd * (ham - 0.5 * cfg.alpha * lap)
        if not np.all(np.isfinite(v)):
            raise NumericError(f"Lax-Friedrichs step {k + 1} produced a non-finite value")
        yield v.ravel()


def lf_solve(cfg: LFConfig, phi: GridField, T: float) -> SpaceTimeField:
    """Iterate the scheme over [0, T] and return the slab."""
    values = np.array(list(_lf_march(cfg, phi, _horizon_steps(T, cfg.dt_fd))))
    return SpaceTimeField(cfg.grid, cfg.dt_fd, values)


def lf_final(cfg: LFConfig, phi: GridField, T: float) -> GridField:
    """Final slice only, without storing the slab."""
    for values in _lf_march(cfg, phi, _horizon_steps(T, cfg.dt_fd)):
        pass
    return GridField(cfg.grid, values)
