"""Characteristic flow of the contact system

    x' = H_p,   p' = -H_x - H_u p,   u' = <H_p, p> - H

integrated with the classical fixed-step 4th-order one-step rule, plus the
diagnostics tying the flow back to the dynamic-programming chains: the
evolution law dH/ds = -H_u * H along trajectories and the match between a
backtracked calibrated curve and the trajectory launched from its state.

``flow`` has two paths with the same arithmetic.  A batch ``(x, u, p)`` is
stepped on numpy arrays with a leading batch axis (``_rhs``); one
``CharacteristicState`` is stepped on Python floats (``_state_rhs``), which
avoids numpy's per-call cost on (1, d) arrays.  The numpy path is the test
oracle: the float path equals a batch of one bitwise, except that it sums a
mode's phase k.x without the fused multiply-add a BLAS dot may use, a
rounding-level difference when a product after the first is inexact.  Both
take H at each state from the first stage of the step that leaves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .models import HamiltonianModel, grad_H
from .semigroup import CalibratedCurve
from .torus import SpaceTimeField, _write_table, periodic_distance, wrap


@dataclass
class CharacteristicState:
    x: np.ndarray  # position in [0,1)^d
    u: float
    p: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.x = wrap(np.asarray(self.x, dtype=float).reshape(-1))
        self.p = np.asarray(self.p, dtype=float).reshape(-1)
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.p)) and np.isfinite(self.u)):
            raise ValueError("non-finite characteristic state")


@dataclass
class Trajectory:
    dt_ode: float
    times: np.ndarray
    xs: np.ndarray  # (n_states, batch, dim)
    us: np.ndarray  # (n_states, batch)
    ps: np.ndarray  # (n_states, batch, dim)
    h_values: np.ndarray  # H along the trajectory, (n_states, batch)

    def write_csv(self, fh):
        """Rows t,x,u,p,H (d=2: t,x1,x2,u,p1,p2,H) per state and member to the open file fh."""
        n, b, d = self.xs.shape
        xcols = ",".join(f"x{i+1}" for i in range(d)) if d > 1 else "x"
        pcols = ",".join(f"p{i+1}" for i in range(d)) if d > 1 else "p"
        t = np.broadcast_to(self.times[:, None, None], (n, b, 1))
        cells = [t, self.xs, self.us[..., None], self.ps, self.h_values[..., None]]
        _write_table(fh, f"t,{xcols},u,{pcols},H\n", np.concatenate(cells, axis=2).reshape(n * b, -1))


def _rhs(model, x, u, p):
    """Vector field of the contact system and H; x shape (b,d), u (b,), p (b,d).

    Each mode's phase is computed once for V and its gradient.  The
    expressions are those of ``eval_H`` and ``grad_H``, without their input
    validation: ``flow`` checks every step's state for finiteness.
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


def _state_rhs(model: HamiltonianModel, d: int):
    """``_rhs`` in the same operation order for one state held as a flat list
    y = [x_1..x_d, u, p_1..p_d] of Python floats; returns the flat derivative
    and H.  A phase k.x is summed as x_1*k_1 + x_2*k_2 + ... (see the module
    docstring for where a BLAS dot differs).
    """
    tau = 2.0 * math.pi
    modes = [(tuple(map(float, k)), a, -a * 2.0 * math.pi) for k, a in model.potential.modes]
    shift = model.action_shift
    # the mechanical (lam = 0) and discounted couplings lam*u and their H_u
    # are formed on floats; 0.0*u adds a signed zero to 0.5*pp >= 0
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


def _non_finite(k, xs, us, ps):
    return NumericError(
        f"characteristic flow produced a non-finite state at step {k + 1}",
        last_iterate=(xs[k], us[k], ps[k]),
    )


def _flow_batch(model, x, u, p, n, h):
    """RK4 on numpy arrays with a leading batch axis: the oracle of ``_flow_state``."""
    xs = np.empty((n + 1,) + x.shape)
    us = np.empty((n + 1,) + u.shape)
    ps = np.empty((n + 1,) + p.shape)
    hs = np.empty((n + 1,) + u.shape)
    xs[0], us[0], ps[0] = wrap(x), u, p
    for k in range(n):
        k1 = _rhs(model, x, u, p)
        hs[k] = k1[3]
        k2 = _rhs(model, x + 0.5 * h * k1[0], u + 0.5 * h * k1[1], p + 0.5 * h * k1[2])
        k3 = _rhs(model, x + 0.5 * h * k2[0], u + 0.5 * h * k2[1], p + 0.5 * h * k2[2])
        k4 = _rhs(model, x + h * k3[0], u + h * k3[1], p + h * k3[2])
        x = x + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        u = u + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        p = p + (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u)) and np.all(np.isfinite(p))):
            raise _non_finite(k, xs, us, ps)
        x = wrap(x)
        xs[k + 1], us[k + 1], ps[k + 1] = x, u, p
    hs[n] = _rhs(model, x, u, p)[3]
    return xs, us, ps, hs


def _state_arrays(ys, d):
    """Recorded flat states as the (n, 1, d), (n, 1), (n, 1, d) arrays of a batch of one."""
    arr = np.array(ys)
    return arr[:, None, :d], arr[:, None, d], arr[:, None, d + 1 :]


def _flow_state(model, s0: CharacteristicState, n, h):
    """The steps of ``_flow_batch`` for one state, on Python floats."""
    d = s0.x.size
    rhs = _state_rhs(model, d)
    hh, h6 = 0.5 * h, h / 6.0
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
            raise _non_finite(k, *_state_arrays(ys, d))
        hs.append(hk)
        y[:d] = [v % 1.0 for v in y[:d]]
        ys.append(y)
    hs.append(rhs(y)[1])
    return (*_state_arrays(ys, d), np.array(hs)[:, None])


def flow(
    model: HamiltonianModel,
    s0,
    t: float,
    dt_ode: float,
) -> Trajectory:
    """Integrate the characteristic system from one state or a batch.

    ``s0`` may be a CharacteristicState, stepped on Python floats, or a
    tuple of arrays (x, u, p) with a leading batch axis, stepped on numpy
    arrays.  Fixed-step integration keeps runs reproducible; a non-finite
    state aborts with the last good state attached.
    """
    if dt_ode <= 0:
        raise ValueError("dt_ode must be positive")
    n = int(round(t / dt_ode))
    if isinstance(s0, CharacteristicState):
        xs, us, ps, hs = _flow_state(model, s0, n, dt_ode)
        t0 = s0.t
    else:
        x, u, p = s0
        x = np.atleast_2d(np.asarray(x, dtype=float)).copy()
        u = np.atleast_1d(np.asarray(u, dtype=float)).copy()
        p = np.atleast_2d(np.asarray(p, dtype=float)).copy()
        xs, us, ps, hs = _flow_batch(model, x, u, p, n, dt_ode)
        t0 = 0.0
    times = t0 + dt_ode * np.arange(n + 1)
    return Trajectory(dt_ode=dt_ode, times=times, xs=xs, us=us, ps=ps, h_values=hs)


@dataclass
class DHLawStats:
    """Residual of the law with the states next to a kink of H_u excluded."""

    max_residual: float
    rms_residual: float
    kink_count: int


def dH_law_residual(model: HamiltonianModel, traj: Trajectory) -> DHLawStats:
    """Centered dH/ds along the trajectory against -H_u * H.

    H_u jumps where u crosses a kink of the coupling, so an inner state
    whose u and its two neighbours' straddle one is excluded from the
    statistics and counted, as ``weak_kam_residual`` counts kinks.
    """
    if traj.times.size < 3:
        raise ValueError("trajectory too short for a centered difference")
    dh = (traj.h_values[2:] - traj.h_values[:-2]) / (2.0 * traj.dt_ode)
    b, d = traj.us.shape[1], traj.xs.shape[2]
    inner = slice(1, -1)
    x = traj.xs[inner].reshape(-1, d)
    u = traj.us[inner].reshape(-1)
    p = traj.ps[inner].reshape(-1, d)
    _, hu, _ = grad_H(model, x, u, p)
    hu = np.atleast_1d(hu).reshape(-1, b)
    law = -hu * traj.h_values[inner]
    window = np.stack([traj.us[:-2], traj.us[inner], traj.us[2:]])
    lo, hi = window.min(axis=0), window.max(axis=0)
    smooth = np.ones(lo.shape, dtype=bool)
    for knot in model.kinks_u:
        smooth &= (hi <= knot) | (knot <= lo)
    res = (dh - law)[smooth]
    return DHLawStats(
        max_residual=float(np.max(np.abs(res))) if res.size else 0.0,
        rms_residual=float(np.sqrt(np.mean(res**2))) if res.size else 0.0,
        kink_count=int(smooth.size - np.count_nonzero(smooth)),
    )


@dataclass
class MatchReport:
    sup_distance: float
    sup_u_gap: float
    launch_index: int
    n_compared: int


def match_calibrated(
    model: HamiltonianModel,
    curve: CalibratedCurve,
    spacetime: SpaceTimeField,
    dt_ode: float | None = None,
    p_source: str = "velocity",
    launch_fraction: float = 0.0,
    sample_offset: float = 0.5,
) -> MatchReport:
    """Launch the flow from an interior state of a calibrated chain and
    report the sup distance to the chain over the shared window.

    The momentum at the launch point comes either from the chain's
    forward-difference velocity ("velocity", the conjugate momentum
    dL/dv at the discrete velocity) or from the spatial gradient of the
    field slice ("gradient"); endpoints of the chain are excluded, so the
    default launch is the first interior slice.

    The chain is the explicit polygon of the characteristic, which lags
    the flow by half a step, so chain slice k is compared against the ODE
    state at time (k + sample_offset)*dt; offset 0.5 cancels the leading
    O(dt) discrepancy.
    """
    grid = spacetime.grid
    n = curve.indices.size - 1
    k0 = max(1, int(round(launch_fraction * n)))
    if k0 >= n - 1:
        raise ValueError("chain too short to match")
    x0 = curve.points[k0]
    u0 = float(curve.u_values[k0])
    if p_source == "velocity":
        p0 = curve.velocities[k0]
    elif p_source == "gradient":
        sl = spacetime.values[k0].reshape((grid.n,) * grid.dim)
        j = int(curve.indices[k0])
        # the central difference along each axis, read at the launch cell
        p0 = np.array([(np.roll(sl, -1, ax) - np.roll(sl, 1, ax)).flat[j] / (2 * grid.dx)
                       for ax in range(grid.dim)])
    else:
        raise ValueError(f"unknown p_source {p_source!r}")
    # the quadratic catalog has p = dL/dv = v, so either source is a momentum
    h = dt_ode if dt_ode is not None else spacetime.dt
    sub = max(1, int(round(spacetime.dt / h)))
    h = spacetime.dt / sub
    horizon = (n - k0) * spacetime.dt  # one extra step covers the offset
    traj = flow(model, CharacteristicState(x=x0, u=u0, p=p0, t=k0 * spacetime.dt), horizon, h)
    off = int(round(sample_offset * sub))
    sup_d, sup_u = 0.0, 0.0
    for m, k in enumerate(range(k0, n)):
        xi = traj.xs[m * sub + off, 0]
        ui = float(traj.us[m * sub + off, 0])
        sup_d = max(sup_d, float(periodic_distance(xi, curve.points[k])))
        sup_u = max(sup_u, abs(ui - float(curve.u_values[k])))
    return MatchReport(sup_distance=sup_d, sup_u_gap=sup_u, launch_index=k0, n_compared=n - k0)
