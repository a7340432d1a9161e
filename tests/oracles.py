"""Test oracles: the paper's objects that only check the solver, which no
command computes.  The stored march and the semigroup T_t with its law
T_{s+t} = T_t T_s (criteria 3, 4 and 5) and its equi-Lipschitz bound
(criterion 2), the Lagrangian L as the Legendre conjugate of H, the
velocity fan of L - <Du, v> (criterion 9), the subsolution inequality
along test curves, and the Peierls barrier.  Also
the plain references of the package's fast paths: the pruning gains offset
by offset, and the characteristic flow as numpy RK4 on a batch of states
with the analytic partials of H, and as RK4 on one state held as a list of
floats.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from weakkam.characteristics import CharacteristicState, Trajectory
from weakkam.errors import ConfigurationError, NumericError
from weakkam.kernels import StepKernel
from weakkam.models import HamiltonianModel, TrigPotential
from weakkam.semigroup import _one_sided_slopes
from weakkam.torus import (
    Grid, GridField, SpaceTimeField, _horizon_steps, _lattice, periodic_delta, wrap,
)

# check_Ltilde: velocities per axis of the fan over [-v_max, v_max]
FAN_SIZE = 257
# subsolution_gap: random test curves, their duration, nodes and quadrature points per segment
N_CURVES, CURVE_DURATION, N_NODES, N_QUAD = 50, 1.0, 8, 64
# equi_lipschitz: the seminorm is taken over slices t >= this
EQUI_LIPSCHITZ_DELTA = 0.25


def march(kern: StepKernel, phi: GridField, T: float) -> SpaceTimeField:
    """The fixed point of the path-infimum operator on [0, T]: the forward
    march u[n+1] = step(u[n], u[n]) from u[0] = phi, every slice stored."""
    out = np.empty((_horizon_steps(T, kern.dt) + 1, phi.grid.size))
    out[0] = phi.values
    for n in range(len(out) - 1):
        out[n + 1] = kern.apply(out[n], out[n])
    return SpaceTimeField(phi.grid, kern.dt, out)


def lipschitz_seminorm(f: GridField) -> float:
    """Max forward difference quotient over all axes.  Each axis takes its
    differences from slices and its wrap pair, and their max (NaN if
    either part's is) is divided by dx once: rounding is monotone, so
    that is the max of the quotients."""
    sh, steps = f._shaped(), []
    for ax in range(f.grid.dim):
        a = sh.swapaxes(0, ax)
        inner, wrap = a[1:] - a[:-1], a[:1] - a[-1:]
        steps.append(float(np.maximum(np.abs(inner, out=inner).max(),
                                      np.abs(wrap, out=wrap).max())))
    return max(steps) / f.grid.dx


def equi_lipschitz(*marches: SpaceTimeField) -> float:
    """The equi-Lipschitz bound of the semigroup on these marches: the
    largest ``lipschitz_seminorm`` of their slices at t >= EQUI_LIPSCHITZ_DELTA,
    the compactness step of the asymptotic argument (0 if there is none)."""
    return max((lipschitz_seminorm(GridField(u.grid, v)) for u in marches
                for v in u.values[math.ceil(EQUI_LIPSCHITZ_DELTA / u.dt - 1e-9):]), default=0.0)


def gains_reference(kern: StepKernel):
    """``StepKernel._gains`` of a window-path kernel, formed offset by offset:
    each offset's least cost growth over its inward neighbour along each axis."""
    m, dim = kern._m, kern.grid.dim
    gains = np.full((dim, m + 1), np.inf)
    table = kern.base_cost
    with np.errstate(invalid="ignore", over="ignore"):
        cost_max = float(np.max(np.abs(table)))
        if np.any((table == 0) & np.signbit(table)):
            cost_max = math.nan
        index = {o: k for k, o in enumerate(map(tuple, kern.offsets.tolist()))}
        for k, o in enumerate(kern.offsets.tolist()):
            for i in range(dim):
                if o[i]:
                    inward = list(o)
                    inward[i] -= 1 if o[i] > 0 else -1
                    gain = np.min(table[k] - table[index[tuple(inward)]])
                    gains[i, abs(o[i])] = min(gains[i, abs(o[i])], gain)
    if not math.isfinite(cost_max):
        gains[:] = -np.inf
    gains[np.isnan(gains)] = -np.inf
    suffix = np.minimum.accumulate(gains[:, :0:-1], axis=1)[:, ::-1]
    return [row.tolist() for row in suffix], cost_max


def potential_gradient(potential: TrigPotential, x):
    """The gradient of V at the points whose coordinates run along the last axis of x."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    for k, a in potential.modes:
        kv = np.asarray(k, dtype=float)
        out += (-a * 2.0 * np.pi * np.sin(2.0 * np.pi * (x @ kv)))[:, None] * kv
    return out


def grad_H(model: HamiltonianModel, x, u, p):
    """Analytic partials (H_x, H_u, H_p) of the family formula at the points
    of ``eval_H``, of shapes (n, dim), (n,) and (n, dim)."""
    pts = np.asarray(x, dtype=float).reshape(-1, model.dim)
    pv = np.asarray(p, dtype=float).reshape(-1, model.dim)
    uv = np.asarray(u, dtype=float).ravel()
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(pv)) and np.all(np.isfinite(uv))):
        raise ValueError("non-finite input to grad_H")
    return potential_gradient(model.potential, pts), model.coupling_derivative(uv), pv.copy()


def contact_rhs(model: HamiltonianModel, x, u, p):
    """Vector field of the contact system and H; x shape (b,d), u (b,), p (b,d).

    Each mode's phase is computed once for V and its gradient.  The
    expressions are those of ``eval_H`` and ``grad_H``, without their input
    validation: ``flow_batch`` checks every step's state for finiteness.
    """
    pot = np.zeros(x.shape[0])
    hx = np.zeros_like(x)
    for k, a in model.potential.modes:
        kv = np.asarray(k, dtype=float)
        phase = 2.0 * np.pi * (x @ kv)
        pot += a * np.cos(phase)
        hx += (-a * 2.0 * np.pi * np.sin(phase))[:, None] * kv
    pp = np.sum(p * p, axis=1)
    h = 0.5 * pp + model.coupling(u) + pot - model.action_shift
    dp = -hx - model.coupling_derivative(u)[:, None] * p
    return p, pp - h, dp, h


def flow_batch(model: HamiltonianModel, x, u, p, t: float, dt_ode: float):
    """``characteristics.flow`` on numpy arrays with a leading batch axis: RK4
    of ``contact_rhs`` over round(t / dt_ode) steps from the batch (x, u, p).
    Returns xs (n+1, b, d), us (n+1, b), ps (n+1, b, d) and H (n+1, b); a
    non-finite state aborts with the last good batch attached.

    The package's float path equals a batch of one bitwise, except that it
    sums a mode's phase k.x without the fused multiply-add a BLAS dot may
    use, a rounding-level difference when a product after the first is inexact.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float)).copy()
    u = np.atleast_1d(np.asarray(u, dtype=float)).copy()
    p = np.atleast_2d(np.asarray(p, dtype=float)).copy()
    n, h = int(round(t / dt_ode)), dt_ode
    xs = np.empty((n + 1,) + x.shape)
    us = np.empty((n + 1,) + u.shape)
    ps = np.empty((n + 1,) + p.shape)
    hs = np.empty((n + 1,) + u.shape)
    xs[0], us[0], ps[0] = wrap(x), u, p
    for k in range(n):
        k1 = contact_rhs(model, x, u, p)
        hs[k] = k1[3]
        k2 = contact_rhs(model, x + 0.5 * h * k1[0], u + 0.5 * h * k1[1], p + 0.5 * h * k1[2])
        k3 = contact_rhs(model, x + 0.5 * h * k2[0], u + 0.5 * h * k2[1], p + 0.5 * h * k2[2])
        k4 = contact_rhs(model, x + h * k3[0], u + h * k3[1], p + h * k3[2])
        x = x + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        u = u + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        p = p + (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u)) and np.all(np.isfinite(p))):
            raise NumericError(f"characteristic flow produced a non-finite state at step {k + 1}",
                               last_iterate=(xs[k], us[k], ps[k]))
        x = wrap(x)
        xs[k + 1], us[k + 1], ps[k + 1] = x, u, p
    hs[n] = contact_rhs(model, x, u, p)[3]
    return xs, us, ps, hs


def state_rhs(model: HamiltonianModel, d: int):
    """The contact vector field for one state held as a flat list
    y = [x_1..x_d, u, p_1..p_d] of Python floats; returns the flat derivative
    and H.  Each mode's phase k.x, summed as x_1*k_1 + x_2*k_2 + ..., is
    computed once for V and its gradient; the nonlinear coupling and its H_u
    come from the model's numpy maps.
    """
    tau = 2.0 * math.pi
    modes = [(tuple(map(float, k)), a, -a * 2.0 * math.pi) for k, a in model.potential.modes]
    shift = model.action_shift
    nonlinear, lam = model.family == "quadratic-nonlinear-u", model.lipschitz_u

    def rhs(y):
        x, u, p = y[:d], y[d], y[d + 1 :]
        pot, hx = 0.0, [0.0] * d
        for k, a, c in modes:
            kx = x[0] * k[0]
            for i in range(1, d):
                kx += x[i] * k[i]
            phase = tau * kx
            pot += a * math.cos(phase)
            s = c * math.sin(phase)
            hx = [g + s * ki for g, ki in zip(hx, k)]
        pp = p[0] * p[0]
        for i in range(1, d):
            pp += p[i] * p[i]
        if nonlinear:
            gu, hu = float(model.coupling(u)), float(model.coupling_derivative(u))
        else:
            gu, hu = lam * u, lam
        h = 0.5 * pp + gu + pot - shift
        return [*p, pp - h, *[-g - hu * pi for g, pi in zip(hx, p)]], h

    return rhs


def flow_lists(model: HamiltonianModel, s0: CharacteristicState, t: float,
               dt_ode: float) -> Trajectory:
    """``characteristics.flow`` with the state as one list of Python floats in
    any dimension: each RK4 stage is a list comprehension over ``state_rhs``."""
    n = int(round(t / dt_ode))
    d = s0.x.size
    rhs = state_rhs(model, d)
    h, hh, h6 = dt_ode, 0.5 * dt_ode, dt_ode / 6.0
    y = [*s0.x.tolist(), float(s0.u), *s0.p.tolist()]
    ys = [[v % 1.0 for v in y[:d]] + y[d:]]
    hs = []
    for k in range(n):
        try:
            k1, hk = rhs(y)
            k2 = rhs([a + hh * b for a, b in zip(y, k1)])[0]
            k3 = rhs([a + hh * b for a, b in zip(y, k2)])[0]
            k4 = rhs([a + h * b for a, b in zip(y, k3)])[0]
        except ValueError:  # math.cos and math.sin reject an infinite stage
            y = None
        else:
            y = [a + h6 * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        if y is None or not all(map(math.isfinite, y)):
            last = np.array(ys[-1])
            raise NumericError(f"characteristic flow produced a non-finite state at step {k + 1}",
                               last_iterate=(last[:d], last[d], last[d + 1 :]))
        hs.append(hk)
        y[:d] = [v % 1.0 for v in y[:d]]
        ys.append(y)
    hs.append(rhs(y)[1])
    states = np.array(ys)
    times = s0.t + dt_ode * np.arange(n + 1)
    return Trajectory(dt_ode=dt_ode, times=times, xs=states[:, :d], us=states[:, d],
                      ps=states[:, d + 1 :], h_values=np.array(hs))


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
