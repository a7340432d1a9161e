"""Test oracles: the paper's objects that only check the solver, which no
command computes.  The stored march and the semigroup T_t with its law
T_{s+t} = T_t T_s (criteria 3, 4 and 5), the Lagrangian L as the Legendre
conjugate of H, the velocity fan of L - <Du, v> (criterion 9), the
subsolution inequality along test curves, and the Peierls barrier.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from weakkam.errors import ConfigurationError
from weakkam.kernels import StepKernel
from weakkam.models import HamiltonianModel
from weakkam.semigroup import _one_sided_slopes
from weakkam.torus import Grid, GridField, SpaceTimeField, _horizon_steps, _lattice, periodic_delta

# check_Ltilde: velocities per axis of the fan over [-v_max, v_max]
FAN_SIZE = 257
# subsolution_gap: random test curves, their duration, nodes and quadrature points per segment
N_CURVES, CURVE_DURATION, N_NODES, N_QUAD = 50, 1.0, 8, 64


def march(kern: StepKernel, phi: GridField, T: float) -> SpaceTimeField:
    """The fixed point of the path-infimum operator on [0, T]: the forward
    march u[n+1] = step(u[n], u[n]) from u[0] = phi, every slice stored."""
    out = np.empty((_horizon_steps(T, kern.dt) + 1, phi.grid.size))
    out[0] = phi.values
    for n in range(len(out) - 1):
        out[n + 1] = kern.apply(out[n], out[n])
    return SpaceTimeField(phi.grid, kern.dt, out)


def step_T(kern: StepKernel, phi: GridField, t: float) -> GridField:
    """The discrete semigroup T_t phi: the final slice of the march over [0, t]."""
    return march(kern, phi, t).final()


def semigroup_defect(kern: StepKernel, phi: GridField, s: float, t: float) -> float:
    """||T_{s+t} phi - T_t T_s phi||_inf on the discrete objects."""
    two = step_T(kern, step_T(kern, phi, s), t)
    return float(np.max(np.abs(step_T(kern, phi, s + t).values - two.values)))


def normalized(model: HamiltonianModel, c: float) -> HamiltonianModel:
    """The model with H replaced by H - c (L by L + c); the same model for c = 0."""
    return replace(model, action_shift=model.action_shift + float(c))


def lagrangian_values(model: HamiltonianModel, x, u, v):
    """Vectorized closed-form L(x,u,v) = |v|^2/2 - coupling(u) - V(x) + action_shift;
    the kernel, the Lax-Friedrichs stepper and the characteristic field
    hard-code the kinetic term instead of calling this."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    vv = np.asarray(v, dtype=float).reshape(-1, model.dim)
    uu = np.asarray(u, dtype=float).ravel()
    kinetic = 0.5 * np.sum(vv * vv, axis=1)
    return kinetic - model.coupling(uu) - model.potential(x) + model.action_shift


def interp_periodic(grid: Grid, values: np.ndarray, x) -> np.ndarray:
    """Periodic (multi)linear interpolation of flattened grid values at x: a sum
    over the 2^d cell corners, axis 0 fastest, of terms v * w_1 * ... * w_d."""
    n, dim = grid.n, grid.dim
    s = (np.atleast_2d(np.asarray(x, dtype=float)) % 1.0) * n
    i0 = np.floor(s).astype(int) % n
    frac = s - np.floor(s)
    v = values.reshape((n,) * dim)
    # per axis, the (index, weight) of the lower and of the upper corner
    sides = [((i0[:, ax], 1 - frac[:, ax]), ((i0[:, ax] + 1) % n, frac[:, ax]))
             for ax in range(dim)]
    out = None
    for corner in range(2**dim):
        picks = [sides[ax][corner >> ax & 1] for ax in range(dim)]
        term = v[tuple(i for i, _ in picks)]
        for _, w in picks:
            term = term * w
        out = term if out is None else out + term
    return out


def check_Ltilde(model: HamiltonianModel, u_inf: GridField, v_max: float,
                 fan_size: int = FAN_SIZE) -> np.ndarray:
    """Per smooth point, the minimum of L(x, u, v) - <Du, v> over a fan of
    fan_size velocities per axis on [-v_max, v_max], which the
    discretization slack should bound below.

    Du is the symmetric difference over k = max(1, round(sqrt(N)/2)) < N/2
    cells: it averages away the velocity-lattice staircase of DP fixed
    points, which a two-cell difference amplifies into a spurious positive
    part of H, at a curvature bias of only (k*dx)^2.
    """
    grid = u_inf.grid
    k_grad = max(1, int(round(np.sqrt(grid.n) / 2.0)))
    if not k_grad < grid.n // 2:
        raise ConfigurationError(f"gradient half-width {k_grad} must be below N/2 (N={grid.n})")
    _, smooth = _one_sided_slopes(u_inf)
    v_sh = u_inf._shaped()
    du = np.stack([((np.roll(v_sh, -k_grad, axis=ax) - np.roll(v_sh, k_grad, axis=ax))
                    / (2.0 * k_grad * grid.dx)).ravel() for ax in range(grid.dim)], axis=1)[smooth]
    pts, uu = grid.points()[smooth], u_inf.values[smooth]
    fan_min = np.full(pts.shape[0], np.inf)
    for v in _lattice(np.linspace(-v_max, v_max, fan_size), grid.dim):
        lt = lagrangian_values(model, pts, uu, np.broadcast_to(v, pts.shape)) - du @ v
        fan_min = np.where(lt < fan_min, lt, fan_min)
    return fan_min


def subsolution_gap(model: HamiltonianModel, u: GridField, rng: np.random.Generator) -> float:
    """Worst defect u(gamma(t2)) - u(gamma(t1)) - int L over N_CURVES random
    piecewise-linear test curves (positive means a violation)."""
    grid = u.grid
    worst = -np.inf
    seg_dt = CURVE_DURATION / (N_NODES - 1)
    for _ in range(N_CURVES):
        nodes = rng.uniform(0.0, 1.0, size=(N_NODES, grid.dim))
        total = 0.0
        for k in range(N_NODES - 1):
            d = periodic_delta(nodes[k], nodes[k + 1])
            v = d / seg_dt
            s = (np.arange(N_QUAD) + 0.5) / N_QUAD
            xq = (nodes[k][None, :] + s[:, None] * d[None, :]) % 1.0
            uq = interp_periodic(grid, u.values, xq)
            lq = lagrangian_values(model, xq, uq, np.broadcast_to(v, xq.shape))
            total += float(np.mean(lq)) * seg_dt
        u2 = float(interp_periodic(grid, u.values, nodes[-1][None, :])[0])
        u1 = float(interp_periodic(grid, u.values, nodes[0][None, :])[0])
        worst = max(worst, u2 - u1 - total)
    return worst


def peierls_barrier(kern: StepKernel, a: float, c: float, t_list):
    """Barrier iterates h_T(x,y) + c*T and their pointwise tail minimum.

    One DP table of minimal actions at level a marches from the identity
    (0 on the diagonal, inf off it) through the sorted horizons, which must
    increase from 0.  Returns (liminf_estimate, report); the report holds
    the per-horizon matrices, the sup bound C_t0 = max_T |h_T + c*T| and
    whether it is finite.
    """
    t_list = sorted(float(t) for t in t_list)
    if not t_list:
        raise ConfigurationError("T_list must be non-empty")
    w = np.full((kern.grid.size, kern.grid.size), np.inf)
    np.fill_diagonal(w, 0.0)
    barriers, prev_t = {}, 0.0
    for t in t_list:
        if t <= prev_t:
            raise ConfigurationError(f"horizons must increase from 0: t={t:g} after {prev_t:g}")
        for _ in range(_horizon_steps(t - prev_t, kern.dt)):
            w = kern.apply_table(w, a)
        barriers[t] = w + c * t
        prev_t = t
    tail = t_list[len(t_list) // 2 :]
    liminf = np.min(np.stack([barriers[t] for t in tail]), axis=0)
    c_t0 = max(float(np.max(np.abs(b))) for b in barriers.values())
    return liminf, {"barriers": barriers, "C_t0": c_t0, "bounded": c_t0 < np.inf}
