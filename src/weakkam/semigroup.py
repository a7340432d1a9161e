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
whole, and then into the caller's array: ``check_properties(out=)`` fills
it with the march of phi that its battery steps anyway (the field
``check`` backtracks and matches), and ``fixed_point(out=)`` with the
wavefront's top row (``solve``'s slab.csv).  The battery's other rows, the
fixed-point check of ``extract_calibrated_curve`` and ``converge`` step
rows and reduce each slice as it is formed, holding a few slices at a time.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .kernels import StepKernel
from .models import HamiltonianModel, eval_H
from .torus import Grid, GridField, SpaceTimeField, _horizon_steps, _write_table, periodic_delta

# the equi-Lipschitz seminorm of check_properties is taken over slices t >= this
EQUI_LIPSCHITZ_DELTA = 0.25
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


def fixed_point(
    kern: StepKernel,
    phi: GridField,
    T: float,
    tol: float = 1e-10,
    out: np.ndarray | None = None,
    on_slice=None,
):
    """Picard iteration u^(k+1) = A[u^(k)] from u^(0) = phi on every slice,
    run as one wavefront.

    Iterate k at slice n+1 reads only iterates k and k-1 at slice n, so one
    batched kernel step per slice advances every iterate, and each gap
    ||u^(k) - u^(k-1)||_inf is a running max over the slices.  Rows are
    added lazily: while the top two rows agree bitwise, every higher iterate
    equals the top one on the slices so far and the next, so a copy of the
    top row is appended only once the top gap turns nonzero (at most
    n_steps + 1 rows).  The top row is the forward march, the exact fixed
    point, and is the returned field for any tol.

    The field is filled into ``out`` when given, an (n_steps + 1, size)
    float array such as a slab shared with a writer process, else into a
    new array.  Slice k is final as soon as the top row reaches it, so
    ``on_slice(k)``, when given, is called once for each k = 0..n_steps in
    order, right after slice k is stored: a writer may read slices 0..k
    then, while the wavefront marches on.

    Returns (field, report).  The report ends at the first gap that is 0,
    or below tol when tol > 0, which comes within n_steps + 1 iterations.
    For u-independent models the first iterate is the fixed point and the
    report is one zero gap.
    """
    if tol < 0:
        raise ConfigurationError("need tol >= 0")
    _on_grid(kern, phi, "phi")
    model = kern.model
    n_steps = _horizon_steps(T, kern.dt)
    shape = (n_steps + 1, phi.grid.size)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ConfigurationError(f"out is {out.dtype} {out.shape}, need float64 {shape}")
    slice_done = on_slice or (lambda k: None)
    out[0] = phi.values
    slice_done(0)
    rows = np.stack([phi.values, phi.values])  # iterates 0 (stays phi) and 1
    gaps = np.zeros(1)
    for n in range(n_steps):
        if gaps[-1] > 0.0 and model.lipschitz_u != 0.0:
            rows = np.concatenate([rows, rows[-1:]])
            gaps = np.append(gaps, 0.0)
        rows[1:] = kern.apply(rows[1:], rows[:-1])
        np.maximum(gaps, np.max(np.abs(rows[1:] - rows[:-1]), axis=1), out=gaps)
        out[n + 1] = rows[-1]
        slice_done(n + 1)
    u = SpaceTimeField(phi.grid, kern.dt, out)
    if model.lipschitz_u == 0.0:
        # the operator does not read the candidate: the first iterate is exact
        return u, FixedPointReport(iterations=1, residual_history=[0.0], contraction_bound=[0.0])

    # the iterate after the top row equals it: its gap is 0
    history = gaps.tolist() + [0.0]
    stop = next(k for k, g in enumerate(history, 1) if g == 0.0 or g < tol)
    history = history[:stop]
    tl = T * model.lipschitz_u
    bounds = [_factorial_bound(history[0], tl, k) for k in range(len(history))]
    return u, FixedPointReport(stop, history, bounds)


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
    """Operator property battery: per-horizon gaps and uniform constants."""

    entries: list = field(default_factory=list)
    uniform_bound: float = 0.0
    equi_lipschitz: float = 0.0

    def all_within(self, tol: float) -> bool:
        return all(
            e["monotonicity_gap"] <= tol and e["nonexpansive_gap"] <= tol for e in self.entries
        )


def check_properties(
    kern: StepKernel, phi: GridField, psi: GridField, t_list, out: np.ndarray | None = None
) -> PropertyReport:
    """Evaluate monotonicity, non-expansiveness, uniform bound and the
    equi-Lipschitz seminorm of the semigroup stepped by ``kern`` for slices
    with t >= EQUI_LIPSCHITZ_DELTA.

    Monotonicity is probed on the ordered pair (phi ^ psi, phi v psi);
    violations are recorded in the report, never raised.  The four marches
    advance together, one batched step per slice, and each slice is reduced
    as it is formed, so no slab is stored.  A horizon that is not a positive
    multiple of the kernel's dt is rejected with ConfigurationError.

    Row 0 of the batch is the march of phi.  When ``out`` is given, a float
    array of shape (n + 1, size), it is filled with slices 0..n of that
    march, as ``fixed_point`` fills its ``out``.  Past the last horizon row 0
    marches on alone, bitwise as in the batch; the report stays over the
    slices up to the last horizon.
    """
    _on_grid(kern, phi, "phi")
    _on_grid(kern, psi, "psi")
    grid, dt = kern.grid, kern.dt
    steps = [_horizon_steps(t, dt) for t in t_list]
    n_out = -1
    if out is not None:
        if out.ndim != 2 or out.shape[1] != grid.size or out.dtype != np.float64:
            raise ConfigurationError(
                f"out is {out.dtype} {out.shape}, need float64 (n + 1, {grid.size})")
        n_out = out.shape[0] - 1
        out[0] = phi.values
    rows = np.stack([phi.values, psi.values, np.minimum(phi.values, psi.values),
                     np.maximum(phi.values, psi.values)])
    base_gap = float(np.max(np.abs(phi.values - psi.values)))
    k_min = int(np.ceil(EQUI_LIPSCHITZ_DELTA / dt - 1e-9))
    report = PropertyReport()
    at = {}
    for k in range(max(steps) + 1):
        if k:
            rows = kern.apply(rows, rows)
            if k <= n_out:
                out[k] = rows[0]
        report.uniform_bound = max(report.uniform_bound, float(np.max(np.abs(rows[:2]))))
        if k >= k_min:
            report.equi_lipschitz = max(
                report.equi_lipschitz, *(GridField(grid, r).lipschitz_seminorm() for r in rows[:2])
            )
        if k in steps:
            at[k] = {
                "monotonicity_gap": max(float(np.max(rows[2] - rows[3])), 0.0),
                "nonexpansive_gap": max(float(np.max(np.abs(rows[0] - rows[1]))) - base_gap, 0.0),
                "sup_norm": float(np.max(np.abs(rows[0]))),
                "lipschitz": GridField(grid, rows[0]).lipschitz_seminorm(),
            }
    for k in range(max(steps) + 1, n_out + 1):
        out[k] = kern.apply(out[k - 1], out[k - 1])
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
    """Per axis the (backward, forward) difference quotients, and the flat
    mask of smooth points: where on every axis the two slopes differ by at
    most the kink threshold."""
    grid = field.grid
    v = field._shaped()
    slopes, smooth = [], np.ones(grid.size, dtype=bool)
    for ax in range(grid.dim):
        bwd = (v - np.roll(v, 1, axis=ax)) / grid.dx
        fwd = (np.roll(v, -1, axis=ax) - v) / grid.dx
        slopes.append((bwd, fwd))
        smooth &= (np.abs(bwd - fwd) <= kink_threshold(grid)).ravel()
    return slopes, smooth


def weak_kam_residual(model: HamiltonianModel, u: GridField) -> ResidualStats:
    """Distribution of |H(x_j, u_j, Du_j)| using centered gradients.

    Points where any axis' one-sided slopes disagree beyond the kink
    threshold are excluded from the statistics and counted as kinks.
    """
    grid = u.grid
    slopes, smooth = _one_sided_slopes(u)
    centered = np.stack([(0.5 * (fwd + bwd)).ravel() for bwd, fwd in slopes], axis=1)
    res = np.atleast_1d(eval_H(model, grid.points(), u.values, centered))
    sm = np.abs(res[smooth])
    return ResidualStats(
        kink_count=int(grid.size - np.count_nonzero(smooth)),
        max_abs_smooth=float(np.max(sm)) if sm.size else 0.0,
        rms_smooth=float(np.sqrt(np.mean(sm**2))) if sm.size else 0.0,
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
    tail_nonincreasing: bool

    def write_csv(self, fh):
        """Step history with columns t,increment to the open text file fh."""
        _write_table(fh, "t,increment\n", np.column_stack([self.step_times, self.step_increments]))


def default_block_length(model: HamiltonianModel) -> float:
    lam = model.lipschitz_u
    return 4.0 if lam == 0 else min(4.0, 2.0 / lam)


def converge(
    kern: StepKernel, phi: GridField, t_checkpoints=(50.0,), stop_eps: float = 1e-6
) -> ConvergenceReport:
    """March the semigroup until slice increments settle.

    One slice is held: each step records its increment max|next - cur| as
    it goes.  Windows of ``default_block_length`` group the steps for
    ``block_increments`` and the stopping rule: the march stops once every
    step increment within a window falls below stop_eps, or flags
    non-convergence at the final checkpoint.
    """
    _on_grid(kern, phi, "phi")
    model, dt = kern.model, kern.dt
    t_final = max(t_checkpoints)
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
            nxt = kern.apply(cur, cur)
            step_incs.append(float(np.max(np.abs(nxt - cur))))
            cur = nxt
        t += span
        block_times.append(t)
        block_incs.append(float(np.max(step_incs[-n_steps:])))
        if block_incs[-1] < stop_eps:
            converged = True
            break
    u_inf = GridField(phi.grid, cur)
    tail = block_incs[len(block_incs) // 2 :]
    noninc = all(b <= a + 1e-15 for a, b in zip(tail, tail[1:]))
    return ConvergenceReport(
        step_times=np.asarray(step_times),
        step_increments=np.asarray(step_incs),
        block_times=block_times,
        block_increments=block_incs,
        u_inf=u_inf,
        converged=converged,
        residual=weak_kam_residual(model, u_inf),
        tail_nonincreasing=noninc,
    )
