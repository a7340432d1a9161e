"""The path-infimum operator, the discrete solution semigroup and its
proved properties exposed as checks.

The discretization is one ``StepKernel``: every entry point that steps
takes it as its first argument and reads the model, grid and dt from it,
and a field or slab on another grid (or a slab marched at another dt) is
rejected with ConfigurationError.

The operator maps a candidate space-time field to the field of minimal
path costs where the Lagrangian's u-argument is read from the frozen
candidate.  A step reads the candidate only at its start slice, so the
unique fixed point, which defines the discrete semigroup, is the forward
march u[n+1] = step(u[n], u[n]) from u[0] = phi; every solution path
marches.  The factorial contraction certificate of Picard iteration (from
u^(0) = phi on every slice) is computed inside the march: all iterates
advance together, one batched step per slice, and the top one is the march.

Storage rule: a space-time slab is stored only where a caller reads it
whole, which ``check`` alone does: it fills its slab from ``_march``, the
slices ``solve`` streams to slab.csv, and its property battery, backtrack
and match read that one march of phi.  ``fixed_point``, the battery's probe
rows, the fixed-point check of ``extract_calibrated_curve`` and ``converge``
step rows and reduce each slice as it is formed, holding a few slices; the
battery steps its three rows one at a time, so beside them it holds one
row's step.  The weak KAM residual forms its slopes in reused buffers and
holds the centered gradient and the smooth mask, no copy of the field.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericError
from .kernels import StepKernel
from .models import HamiltonianModel, eval_H
from .torus import Grid, GridField, SpaceTimeField, _horizon_steps, _write_table, periodic_delta

# the largest operator residual extract_calibrated_curve accepts as a fixed point
FIXED_POINT_TOL = 1e-8


@dataclass
class FixedPointReport:
    iterations: int
    residual_history: list  # gaps ||u^(k) - u^(k-1)||_inf, k = 1..iterations
    contraction_bound: list  # (T*lambda_L)^(k-1)/(k-1)! * g_1 per gap

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("iter,gap,bound\n")
        for k, (g, b) in enumerate(zip(self.residual_history, self.contraction_bound), 1):
            buf.write(f"{k},{g!r},{b!r}\n")
        return buf.getvalue()


def _on_grid(kern: StepKernel, f, name: str):
    """Reject a field or slab that is not on the kernel's grid."""
    if f.grid != kern.grid:
        raise ConfigurationError(f"{name} is on {f.grid}, the kernel on {kern.grid}")


def _on_steps(kern: StepKernel, slab: SpaceTimeField, name: str):
    """Reject a slab that is not on the kernel's grid and time step."""
    _on_grid(kern, slab, name)
    if slab.dt != kern.dt:
        raise ConfigurationError(f"{name} has dt={slab.dt:g}, the kernel dt={kern.dt:g}")


def _march(kern: StepKernel, phi: GridField, n: int):
    """Yield phi's values and then the n slices after it of the forward march
    u = step(u, u), flat, as ``fdoracle._lf_march`` yields the oracle's.

    Each slice is bitwise the wavefront's top row at that slice (the last is
    ``fixed_point``'s u_T), and only the last one is held.  A non-finite
    slice raises ``NumericError`` naming its step, as the oracle's does.
    """
    _on_grid(kern, phi, "phi")
    u = phi.values
    yield u
    for k in range(n):
        # a blown-up step overflows quietly; the isfinite check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            u = kern.apply(u, u)
        if not np.isfinite(u).all():
            raise NumericError(f"march step {k + 1} produced a non-finite value")
        yield u


def fixed_point(kern: StepKernel, phi: GridField, T: float, tol: float = 1e-10):
    """Picard iteration u^(k+1) = A[u^(k)] from u^(0) = phi on every slice,
    run as one wavefront.

    Iterate k at slice n+1 reads only iterates k and k-1 at slice n, so one
    batched kernel step per slice advances every iterate, and each gap
    ||u^(k) - u^(k-1)||_inf is a running max over the slices.  Rows are
    added lazily: while the top two rows agree bitwise, every higher iterate
    equals the top one on the slices so far and the next, so a copy of the
    top row is appended only once the top gap turns nonzero (at most
    n_steps + 1 rows).  The top row is the forward march, the exact fixed
    point (``_march``'s slices); only the current slice's rows are held.

    Returns (u_T, report): the top row at T, a flat array for any tol (a
    non-finite gap comes with a non-finite row), and the report, which ends
    at the first gap that is 0 (or below tol > 0), by iteration n_steps + 1.
    For u-independent models the first iterate is the fixed point and the
    report is one zero gap.
    """
    if tol < 0:
        raise ConfigurationError("need tol >= 0")
    _on_grid(kern, phi, "phi")
    model = kern.model
    n_steps = _horizon_steps(T, kern.dt)
    rows = np.stack([phi.values, phi.values])  # iterates 0 (stays phi) and 1
    gaps = np.zeros(1)
    for n in range(n_steps):
        if gaps[-1] > 0.0 and model.lipschitz_u != 0.0:
            rows = np.concatenate([rows, rows[-1:]])
            gaps = np.append(gaps, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):  # the report carries a non-finite gap
            rows[1:] = kern.apply(rows[1:], rows[:-1])
            np.maximum(gaps, np.max(np.abs(rows[1:] - rows[:-1]), axis=1), out=gaps)
    u_T = rows[-1].copy()  # a view would keep every row alive
    if model.lipschitz_u == 0.0:
        # the operator does not read the candidate: the first iterate is exact
        return u_T, FixedPointReport(iterations=1, residual_history=[0.0], contraction_bound=[0.0])

    # the iterate after the top row equals it: its gap is 0
    history = gaps.tolist() + [0.0]
    stop = next(k for k, g in enumerate(history, 1) if g == 0.0 or g < tol)
    history = history[:stop]
    tl = T * model.lipschitz_u
    bounds = [_factorial_bound(history[0], tl, k) for k in range(len(history))]
    return u_T, FixedPointReport(stop, history, bounds)


def _factorial_bound(g1: float, tl: float, k: int) -> float:
    """g1 * tl**k / k!, the contraction bound of gap k + 1 (g1, tl > 0).

    Formed as written wherever that stays in float range.  From k = 171 on
    k! (and for tl > 1 sooner or later tl**k) leaves it, so the bound is
    then exp(log g1 + k log tl - lgamma(k + 1)), which saturates to inf
    where the bound itself exceeds the float range: inf still bounds the gap.
    """
    try:
        bound = g1 * tl**k / float(math.factorial(k))
        if math.isfinite(bound):
            return bound
    except OverflowError:
        pass
    try:
        return math.exp(math.log(g1) + k * math.log(tl) - math.lgamma(k + 1))
    except OverflowError:
        return math.inf


@dataclass
class PropertyReport:
    """Operator property battery: per-horizon gaps and the uniform bound."""

    entries: list = field(default_factory=list)
    uniform_bound: float = 0.0

    def all_within(self, tol: float) -> bool:
        return all(
            e["monotonicity_gap"] <= tol and e["nonexpansive_gap"] <= tol for e in self.entries
        )


def check_properties(
    kern: StepKernel, u: SpaceTimeField, psi: GridField, t_list
) -> PropertyReport:
    """Evaluate monotonicity, non-expansiveness and the uniform bound of the
    semigroup stepped by ``kern`` on phi = u[0] and psi.

    ``u`` is the march of phi by ``kern`` (``_march``'s slices), which the
    caller holds; the battery reads phi's slices from it.  It steps only
    three probe rows: psi, and the ordered pair (phi ^ psi, phi v psi) on
    which monotonicity is probed.  They advance one at a time, three
    one-row steps per slice, so beside the three rows only one row's step
    is held; a row stepped alone gets the bits a stacked step would give it
    (``kernels``: a stack is pruned at a radius at least each row's own).
    Each slice is reduced as it is formed.  Violations are
    recorded in the report, never raised.  ConfigurationError rejects a
    march on another grid or dt, one with fewer slices than the last
    horizon needs, and a horizon that is not a positive multiple of the
    kernel's dt; slices past the last horizon are not read.
    """
    _on_steps(kern, u, "u")
    _on_grid(kern, psi, "psi")
    steps = [_horizon_steps(t, kern.dt) for t in t_list]
    if u.n_steps < max(steps):
        raise ConfigurationError(
            f"u has {u.n_steps} steps, the last horizon needs {max(steps)}")
    phi = u.values[0]
    rows = [psi.values, np.minimum(phi, psi.values), np.maximum(phi, psi.values)]
    base_gap = float(np.max(np.abs(phi - psi.values)))
    report = PropertyReport()
    at = {}
    for k in range(max(steps) + 1):
        if k:  # one row a step: a row's old slice is freed before the next row steps
            for i in range(len(rows)):
                rows[i] = kern.apply(rows[i], rows[i])
        u_k = u.values[k]
        # np.maximum keeps a NaN of either march
        report.uniform_bound = max(report.uniform_bound, float(
            np.maximum(np.max(np.abs(u_k)), np.max(np.abs(rows[0])))))
        if k in steps:
            at[k] = {
                "monotonicity_gap": max(float(np.max(rows[1] - rows[2])), 0.0),
                "nonexpansive_gap": max(float(np.max(np.abs(u_k - rows[0]))) - base_gap, 0.0),
            }
    report.entries = [{"t": float(t), **at[k]} for t, k in zip(t_list, steps)]
    return report


@dataclass
class CalibratedCurve:
    """DP backtrack chain of a fixed-point field, with exact bookkeeping."""

    dt: float
    indices: np.ndarray  # flat grid index per slice, slice 0..n_steps
    points: np.ndarray  # coordinates, shape (n_slices, dim)
    u_values: np.ndarray
    velocities: np.ndarray  # discrete velocities per step, shape (n_steps, dim)
    defects: np.ndarray  # per-step calibration defect of the bookkeeping

    def max_defect(self) -> float:
        return float(np.max(np.abs(self.defects))) if self.defects.size else 0.0


def extract_calibrated_curve(
    kern: StepKernel, spacetime: SpaceTimeField, x_end: int
) -> CalibratedCurve:
    """Backtrack the DP argmin chain of a fixed-point field from x_end.

    Precondition: ``spacetime`` lies on the grid and dt of ``kern`` and is
    a fixed point of its operator, checked by one operator pass
    w[k+1] = step(w[k], u[k]) from w[0] = u[0] whose residual, the running
    max of |w[k] - u[k]| over the slices, must stay below FIXED_POINT_TOL;
    the pass holds one slice.  Either failure raises ConfigurationError.
    The chain is then ``_backtrack``'s.  On a march by the same kernel w
    equals u bitwise and the defect is round-off; on any other field that
    passes, the defect exceeds round-off by at most twice the residual.
    """
    _on_steps(kern, spacetime, "spacetime")
    u = spacetime.values
    w, residual = u[0], 0.0
    for k in range(spacetime.n_steps):
        w = kern.apply(w, u[k])
        residual = np.maximum(residual, np.max(np.abs(w - u[k + 1])))  # keeps a NaN
    if not residual < FIXED_POINT_TOL:
        raise ConfigurationError(
            f"spacetime is not a fixed point: operator residual {residual:g}"
            f" >= tol {FIXED_POINT_TOL:g}"
        )
    return _backtrack(kern, spacetime, x_end)


def _backtrack(kern: StepKernel, spacetime: SpaceTimeField, x_end: int) -> CalibratedCurve:
    """The DP argmin chain of ``spacetime`` from x_end, unchecked: the caller
    knows the field is a march by ``kern`` (``check`` walks its own slab).

    Going back from x_end, each slice forms only the chain destination's
    candidates over the offsets, from the field u and the cost column
    ``StepKernel._column`` (V at the starts with "left" quadrature, else
    ``base_cost``), and takes the smallest start index among those equal to
    their min: the minimizer ``StepKernel.apply_with_argmin`` gives for that
    destination.  The calibration defect is the bookkeeping identity of u
    along the chain.
    """
    n = spacetime.n_steps
    u = spacetime.values
    idx = np.empty(n + 1, dtype=np.intp)
    idx[n] = int(x_end)
    seg_cost = np.empty(n)
    for k in range(n - 1, -1, -1):
        # the steps into x_{idx[k+1]}: one start per offset
        starts, cost = kern._column(idx[k + 1])
        coupling = kern.step_cost(u[k, starts])
        cand = (u[k, starts] + coupling) + cost
        idx[k] = starts[cand == cand.min()].min()
        # exact kernel cost of the chosen transition (offsets that wrap onto one start)
        chosen = starts == idx[k]
        seg_cost[k] = np.min(cost[chosen] + coupling[chosen])
    pts = kern.grid.points()[idx]
    vel = periodic_delta(pts[:-1], pts[1:]) / spacetime.dt
    u_along = u[np.arange(n + 1), idx]
    defects = (u_along[1:] - u_along[:-1]) - seg_cost
    return CalibratedCurve(
        dt=spacetime.dt,
        indices=idx,
        points=pts,
        u_values=u_along,
        velocities=vel,
        defects=defects,
    )


@dataclass
class ResidualStats:
    """Stationary residual |H(x, u, Du)| with kink points excluded."""

    kink_count: int
    max_abs_smooth: float
    rms_smooth: float


def kink_threshold(grid: Grid) -> float:
    """Slope-jump threshold separating kinks from smooth curvature."""
    return 10.0 * np.sqrt(grid.dx)


def _one_sided_slopes(field: GridField):
    """The centered gradient, (size, dim), and the flat mask of smooth points:
    where on every axis the backward and forward difference quotients differ
    by at most the kink threshold.

    Per axis the forward quotients fwd[k] = (v[k + 1] - v[k]) / dx go into
    one reused buffer by slicing, the wrap pair last; the backward quotient
    at k is fwd[k - 1], read by slicing as well.  So the centered quotient
    0.5 * (fwd + bwd) and the gap |bwd - fwd| are the same subtractions a
    rolled copy of v gives, bitwise, and no copy of v or of a slope is held.
    """
    grid = field.grid
    v = field._shaped()
    fwd, gap = np.empty_like(v), np.empty_like(v)
    centered = np.empty((grid.dim,) + v.shape)
    smooth = np.ones(v.shape, dtype=bool)
    for ax in range(grid.dim):
        cut = (slice(None),) * ax
        # cells 0..n-2 and 1..n-1 along ax, and the wrap pair: cell n-1 and cell 0
        head, tail = cut + (slice(-1),), cut + (slice(1, None),)
        last, first = cut + (slice(-1, None),), cut + (slice(1),)
        np.subtract(v[tail], v[head], out=fwd[head])
        np.subtract(v[first], v[last], out=fwd[last])
        fwd /= grid.dx
        c = centered[ax]
        np.add(fwd[tail], fwd[head], out=c[tail])
        np.add(fwd[first], fwd[last], out=c[first])
        c *= 0.5
        np.subtract(fwd[head], fwd[tail], out=gap[tail])
        np.subtract(fwd[last], fwd[first], out=gap[first])
        smooth &= np.abs(gap, out=gap) <= kink_threshold(grid)
    return centered.reshape(grid.dim, -1).T, smooth.ravel()


def weak_kam_residual(model: HamiltonianModel, u: GridField) -> ResidualStats:
    """Distribution of |H(x_j, u_j, Du_j)| using centered gradients.

    Points where any axis' one-sided slopes disagree beyond the kink
    threshold are excluded from the statistics and counted as kinks.  A
    statistic past the float range reads inf, without a warning.
    """
    grid = u.grid
    centered, smooth = _one_sided_slopes(u)
    res = eval_H(model, grid.points(), u.values, centered)
    sm = np.abs(res[smooth])
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(np.mean(sm**2))) if sm.size else 0.0
    return ResidualStats(
        kink_count=int(grid.size - np.count_nonzero(smooth)),
        max_abs_smooth=float(np.max(sm)) if sm.size else 0.0,
        rms_smooth=rms,
    )


@dataclass
class ConvergenceReport:
    step_times: np.ndarray
    step_increments: np.ndarray
    block_times: list
    block_increments: list
    u_inf: GridField
    converged: bool
    residual: ResidualStats

    def write_csv(self, fh):
        """Step history with columns t,increment to the open text file fh."""
        _write_table(fh, "t,increment\n", np.column_stack([self.step_times, self.step_increments]))


def default_block_length(model: HamiltonianModel) -> float:
    lam = model.lipschitz_u
    return 4.0 if lam == 0 else min(4.0, 2.0 / lam)


def converge(
    kern: StepKernel, phi: GridField, t_final: float, stop_eps: float
) -> ConvergenceReport:
    """March the semigroup until slice increments settle, for at most t_final.

    One slice is held: each step records its increment max|next - cur| as
    it goes.  Windows of ``default_block_length`` group the steps for
    ``block_increments`` and the stopping rule: the march stops once every
    step increment within a window falls below stop_eps, or flags
    non-convergence at t_final.  A step whose increment is not finite (a
    blown-up slice has one) raises ``NumericError`` naming the step.
    """
    _on_grid(kern, phi, "phi")
    model, dt = kern.model, kern.dt
    block = max(dt, round(default_block_length(model) / dt) * dt)
    cur = phi.values
    t = 0.0
    step_times, step_incs = [], []
    block_times, block_incs = [], []
    converged = False
    while t < t_final - 1e-9:
        span = min(block, t_final - t)
        span = max(dt, round(span / dt) * dt)
        n_steps = int(round(span / dt))
        step_times.extend((t + dt * np.arange(1, n_steps + 1)).tolist())
        for _ in range(n_steps):
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                nxt = kern.apply(cur, cur)
                inc = float(np.max(np.abs(nxt - cur)))
            if not math.isfinite(inc):
                raise NumericError(
                    f"the increment of step {len(step_incs) + 1} is not finite: {inc!r}")
            step_incs.append(inc)
            cur = nxt
        t += span
        block_times.append(t)
        block_incs.append(float(np.max(step_incs[-n_steps:])))
        if block_incs[-1] < stop_eps:
            converged = True
            break
    u_inf = GridField(phi.grid, cur)
    return ConvergenceReport(
        step_times=np.asarray(step_times),
        step_increments=np.asarray(step_incs),
        block_times=block_times,
        block_increments=block_incs,
        u_inf=u_inf,
        converged=converged,
        residual=weak_kam_residual(model, u_inf),
    )
