"""Characteristic flow of the contact system

    x' = H_p,   p' = -H_x - H_u p,   u' = <H_p, p> - H

integrated with the classical fixed-step 4th-order one-step rule, plus the
diagnostics tying the flow back to the dynamic-programming chains: the
evolution law dH/ds = -H_u * H along trajectories and the match between a
backtracked calibrated curve and the trajectory launched from its state.

``flow`` steps one ``CharacteristicState`` on Python floats, which avoids
numpy's per-call cost on arrays of one state.  H_x is the analytic gradient
of the potential, H_u the coupling's derivative and H_p = p, the closed
forms of the quadratic catalog; H at each state is taken from the first
stage of the step that leaves it.  A mode's phase k.x is summed in axis
order, without the fused multiply-add a BLAS dot may use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .models import HamiltonianModel
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
    xs: np.ndarray  # (n_states, dim)
    us: np.ndarray  # (n_states,)
    ps: np.ndarray  # (n_states, dim)
    h_values: np.ndarray  # H along the trajectory, (n_states,)

    def write_csv(self, fh):
        """Rows t,x,u,p,H (d=2: t,x1,x2,u,p1,p2,H) per state to the open file fh."""
        d = self.xs.shape[1]
        xcols = ",".join(f"x{i+1}" for i in range(d)) if d > 1 else "x"
        pcols = ",".join(f"p{i+1}" for i in range(d)) if d > 1 else "p"
        cells = [self.times[:, None], self.xs, self.us[:, None], self.ps, self.h_values[:, None]]
        _write_table(fh, f"t,{xcols},u,{pcols},H\n", np.concatenate(cells, axis=1))


def _state_rhs(model: HamiltonianModel, d: int):
    """The contact vector field for one state held as a flat list
    y = [x_1..x_d, u, p_1..p_d] of Python floats; returns the flat derivative
    and H.  Each mode's phase k.x, summed as x_1*k_1 + x_2*k_2 + ..., is
    computed once for V and its gradient.
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


def flow(
    model: HamiltonianModel,
    s0: CharacteristicState,
    t: float,
    dt_ode: float,
) -> Trajectory:
    """Integrate the characteristic system from one state for round(t / dt_ode) steps.

    Fixed-step integration keeps runs reproducible; a non-finite state
    aborts with the last good state's (x, u, p) attached.
    """
    if dt_ode <= 0:
        raise ValueError("dt_ode must be positive")
    n = int(round(t / dt_ode))
    d = s0.x.size
    rhs = _state_rhs(model, d)
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
    inner = slice(1, -1)
    law = -model.coupling_derivative(traj.us[inner]) * traj.h_values[inner]
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
    launch_index: int


def match_calibrated(
    model: HamiltonianModel,
    curve: CalibratedCurve,
    spacetime: SpaceTimeField,
    dt_ode: float | None = None,
    p_source: str = "velocity",
) -> MatchReport:
    """Launch the flow from the first interior state (slice 1) of a
    calibrated chain and report the sup distance to the chain over the
    shared window.

    The momentum at the launch point comes either from the chain's
    forward-difference velocity ("velocity", the conjugate momentum
    dL/dv at the discrete velocity) or from the spatial gradient of the
    field slice ("gradient").

    The chain is the explicit polygon of the characteristic, which lags
    the flow by half a step, so chain slice k is compared against the ODE
    state at time (k + 1/2)*dt, which cancels the leading O(dt)
    discrepancy.
    """
    grid = spacetime.grid
    n = curve.indices.size - 1
    k0 = 1
    if n < 3:
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
    off = int(round(0.5 * sub))
    # chain slices k0..n-1 against the ODE states half a step after each
    dist = periodic_distance(traj.xs[off::sub][: n - k0], curve.points[k0:n])
    return MatchReport(sup_distance=float(np.max(dist)), launch_index=k0)
