import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    check_Ltilde, equi_lipschitz, lagrangian_values, march, normalized, rolled_slopes,
    semigroup_defect, step_T, subsolution_gap,
)
from test_action import pendulum
from weakkam.action import critical_value
from weakkam.errors import ConfigurationError
from weakkam.kernels import StepKernel
from weakkam.models import HamiltonianModel, PiecewiseLinearMap, TrigPotential
from weakkam.semigroup import (
    FIXED_POINT_TOL,
    FixedPointReport,
    PropertyReport,
    _backtrack,
    _factorial_bound,
    _march,
    _one_sided_slopes,
    check_properties,
    converge,
    default_block_length,
    extract_calibrated_curve,
    fixed_point,
    weak_kam_residual,
)
from weakkam.torus import Grid, GridField, SpaceTimeField


def pendulum_normalized():
    return normalized(pendulum(), 1.0)


def discounted_pendulum(lam=1.0):
    return HamiltonianModel(
        "quadratic-discounted", lam=lam, potential=TrigPotential(1, (((1,), 1.0),))
    )


def nonlinear_pendulum():
    return HamiltonianModel(
        "quadratic-nonlinear-u",
        potential=TrigPotential(1, (((1,), 1.0), ((2,), -0.4))),
        f=PiecewiseLinearMap((-1.0, 0.0, 1.0), (-2.0, 0.0, 0.5)),
    )


def discounted_2d():
    return HamiltonianModel(
        "quadratic-discounted", dim=2, lam=1.0,
        potential=TrigPotential(2, (((1, 0), 1.0), ((0, 1), 0.5))),
    )


def picard_reference(kern, phi, T, tol):
    """Picard iteration pass by pass over whole slabs: from the constant
    extension of phi, each pass is out[n+1] = step(out[n], cand[n]).

    Returns (last iterate, report): the reference for the wavefront in
    ``fixed_point``.  Iterate k equals the march on slices 0..k, so the gap
    of pass n_steps + 1 is 0 and the loop ends by then.
    """
    model = kern.model
    n_steps = round(T / kern.dt)
    cand = np.tile(phi.values, (n_steps + 1, 1))
    history, bounds = [], []
    tl = T * model.lipschitz_u
    for k in range(1, n_steps + 2):
        out = np.empty_like(cand)
        out[0] = phi.values
        for n in range(n_steps):
            out[n + 1] = kern.apply(out[n], cand[n])
        if model.lipschitz_u == 0.0:
            return out, FixedPointReport(1, [0.0], [0.0])
        gap = float(np.max(np.abs(out - cand)))
        history.append(gap)
        g1 = history[0]
        bounds.append(g1 * tl ** (k - 1) / float(math.factorial(k - 1)) if k > 1 else g1)
        cand = out
        if gap == 0.0 or (tol > 0 and gap < tol):
            return cand, FixedPointReport(k, history, bounds)
    raise AssertionError(f"Picard gap still {gap!r} after n_steps + 1 = {k} passes")


def _wavefront_cases():
    g1 = Grid(1, 64)
    x = g1.points()[:, 0]
    g2 = Grid(2, 24)
    phi2 = GridField(g2, 0.3 * np.cos(2 * np.pi * (g2.points() @ [1.0, 1.0])))
    flat_branch = HamiltonianModel(
        "quadratic-nonlinear-u", f=PiecewiseLinearMap((-1.0, 0.0, 1.0), (0.0, 0.0, 2.0))
    )
    return {  # model, phi, T, dt, quadrature
        "solve-benchmark": (discounted_pendulum(), GridField(Grid(1, 1024), np.zeros(1024)),
                            1.0, 1 / 256, "exact"),
        "discounted-left": (discounted_pendulum(), GridField(Grid(1, 128), np.zeros(128)),
                            1.0, 1 / 32, "left"),
        "nonlinear-T2": (nonlinear_pendulum(), GridField(g1, 0.3 * np.cos(2 * np.pi * x)),
                         2.0, 1 / 16, "left"),
        "2d-left": (discounted_2d(), phi2, 1.0, 1 / 16, "left"),
        "2d-midpoint": (discounted_2d(), phi2, 1.0, 1 / 16, "midpoint"),
        "mechanical-exact": (pendulum_normalized(), GridField(g1, 0.3 * np.sin(2 * np.pi * x)),
                             1.0, 1 / 16, "exact"),
        # f = 0 for u <= 0: the gap of iterate 3 opens mid-horizon and closes again,
        # so only a running max over the slices reports it
        "nonlinear-gap-closes": (flat_branch, GridField(g1, 0.3 * np.cos(2 * np.pi * x)),
                                 2.0, 1 / 16, "left"),
    }


@pytest.mark.parametrize("case", list(_wavefront_cases()))
def test_fixed_point_wavefront_equals_picard_passes(case):
    m, phi, T, dt, quad = _wavefront_cases()[case]
    kern = StepKernel(m, phi.grid, dt, 4.0, quad)
    marched = march(kern, phi, T).values
    for tol in (0.0, 1e-10):
        ref, ref_report = picard_reference(kern, phi, T, tol)
        u_T, report = fixed_point(kern, phi, T, tol=tol)
        assert repr(report) == repr(ref_report)
        # bitwise, zero signs included; with tol > 0 the reference may stop
        # before the fixed point, while u_T is the march's last slice for any tol
        assert u_T.tobytes() == (ref if tol == 0.0 else marched)[-1].tobytes()


def test_u_independent_model_is_single_pass():
    m = HamiltonianModel("quadratic-mechanical", dim=1)
    g = Grid(1, 32)
    phi = GridField(g, np.cos(2 * np.pi * g.points()[:, 0]))
    kern = StepKernel(m, g, 1.0 / 16, 2.0)
    u_T, report = fixed_point(kern, phi, 0.5, tol=0.0)
    assert report.iterations == 1
    assert report.residual_history == [0.0]
    slices = list(_march(kern, phi, 8))
    assert len(slices) == 9
    assert np.array_equal(slices[0], phi.values)
    assert u_T.tobytes() == slices[-1].tobytes()


def test_fixed_point_holds_no_slab():
    # u-independent, so the wavefront is two rows: a stored (n + 1, size)
    # slab (1025 x 1024 floats, 8.4 MB) would outweigh everything else the
    # call holds, and the traced peak stays under a quarter of it
    g = Grid(1, 1024)
    m = HamiltonianModel("quadratic-mechanical", potential=TrigPotential(1, (((1,), 1.0),)))
    kern = StepKernel(m, g, 1.0 / 256, 4.0, "exact")
    phi = GridField(g, 0.3 * np.cos(2 * np.pi * g.points()[:, 0]))
    kern.apply(phi.values, phi.values)  # builds the kernel's tables outside the trace
    slab_bytes = (round(4.0 * 256) + 1) * g.size * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        u_T, report = fixed_point(kern, phi, 4.0, tol=0.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < slab_bytes / 4
    assert report.iterations == 1
    assert u_T.shape == (g.size,)


def test_fixed_point_bitwise_stationary_within_step_count():
    g2 = Grid(2, 24)
    phi2 = GridField(g2, 0.3 * np.cos(2 * np.pi * (g2.points() @ [1.0, 1.0])))
    x = Grid(1, 64).points()[:, 0]
    cases = [  # model, phi, T, dt, quadrature
        (discounted_pendulum(), GridField(Grid(1, 128), np.zeros(128)), 1.0, 1 / 32, "left"),
        (discounted_pendulum(), GridField(Grid(1, 256), np.zeros(256)), 1.0, 1 / 64, "exact"),
        (nonlinear_pendulum(), GridField(Grid(1, 64), 0.3 * np.cos(2 * np.pi * x)), 2.0, 1 / 16,
         "left"),
        (discounted_2d(), phi2, 1.0, 1 / 16, "left"),
    ]
    for m, phi, T, dt, quad in cases:
        n_steps = round(T / dt)
        kern = StepKernel(m, phi.grid, dt, 4.0, quad)
        u_T, report = fixed_point(kern, phi, T, tol=0.0)
        assert report.iterations <= n_steps
        assert report.residual_history[-1] == 0.0
        # certificate: observed gaps below twice the factorial bound
        for gap, bound in zip(report.residual_history, report.contraction_bound):
            assert gap <= 2.0 * bound + 1e-15
        # the writer's stream is the forward march, bit for bit, zero signs
        # included (slab.csv writes -0.0 and 0.0 apart), and ends at u_T
        streamed = np.array(list(_march(kern, phi, n_steps)))
        assert streamed.tobytes() == march(kern, phi, T).values.tobytes()
        assert streamed[-1].tobytes() == u_T.tobytes()


def test_long_horizon_certificate_bound_leaves_float_range_in_log_space():
    # T*lambda_L = 64: the report runs past k = 170, where k! leaves float
    # range; the bound is then formed in log space, and saturates to inf
    g = Grid(1, 16)
    phi = GridField(g, 0.3 * np.cos(2 * np.pi * g.points()[:, 0]))
    kern = StepKernel(discounted_pendulum(), g, 1.0 / 16, 4.0, "exact")
    _, report = fixed_point(kern, phi, 64.0, tol=0.0)
    assert report.iterations > 172
    assert report.residual_history[-1] == 0.0
    g1, logged = report.residual_history[0], 0
    for k, bound in enumerate(report.contraction_bound):
        try:
            plain = g1 * 64.0**k / float(math.factorial(k))
        except OverflowError:
            plain = math.inf
        if math.isfinite(plain):  # the expression as written, bitwise
            assert bound == plain
        else:
            logged += 1
            exact = Fraction(g1) * Fraction(64) ** k / math.factorial(k)
            assert bound == pytest.approx(float(exact), rel=1e-10)
    assert logged >= report.iterations - 171 > 0  # every k >= 171, and k = 170 if g1 > 1.6
    for gap, bound in zip(report.residual_history, report.contraction_bound):
        assert gap <= 2.0 * bound + 1e-15
    assert _factorial_bound(1.0, 1e6, 200) == math.inf  # 1e1200 / 200!
    assert _factorial_bound(0.5, 1e3, 171) == pytest.approx(
        float(Fraction(1, 2) * 1000**171 / math.factorial(171)), rel=1e-10)


def test_fixed_point_horizon_validation():
    m = discounted_pendulum()
    g = Grid(1, 32)
    phi = GridField(g, np.zeros(g.size))
    kern = StepKernel(m, g, 0.25, 4.0)
    with pytest.raises(ConfigurationError):
        fixed_point(kern, phi, 0.3)
    with pytest.raises(ConfigurationError):
        fixed_point(kern, phi, 1.0, tol=-1.0)


def test_discounted_constant_datum_decays_geometrically():
    # flat potential, constant datum: each step multiplies by (1 - lam*dt),
    # matching e^{-lam t} to first order in dt
    m = HamiltonianModel("quadratic-discounted", lam=1.0)
    g = Grid(1, 64)
    phi = GridField(g, np.ones(g.size))
    dt = 1.0 / 64
    u = step_T(StepKernel(m, g, dt, 2.0), phi, 1.0)
    assert np.max(np.abs(u.values - (1 - dt) ** 64)) <= 1e-14
    assert np.max(np.abs(u.values - np.exp(-1.0))) <= 5e-3


def test_monotonicity_and_nonexpansiveness_are_exact():
    m = discounted_pendulum()
    g = Grid(1, 64)
    rng = np.random.default_rng(3)
    x = g.points()[:, 0]
    phi = GridField(g, 0.3 * np.sin(2 * np.pi * x) + rng.uniform(-0.1, 0.1, g.size))
    psi = GridField(g, 0.2 * np.cos(2 * np.pi * x) + rng.uniform(-0.1, 0.1, g.size))
    kern = StepKernel(m, g, 1.0 / 16, 4.0)
    report = check_properties(kern, march(kern, phi, 1.0), psi, [0.5, 1.0])
    assert report.all_within(0.0)
    for e in report.entries:
        assert e["monotonicity_gap"] == 0.0
        assert e["nonexpansive_gap"] == 0.0
    assert np.isfinite(report.uniform_bound)
    assert equi_lipschitz(march(kern, phi, 1.0), march(kern, psi, 1.0)) > 0.0


def test_semigroup_law_exact_on_discrete_objects():
    m = discounted_pendulum()
    g = Grid(1, 64)
    phi = GridField(g, np.zeros(g.size))
    kern = StepKernel(m, g, 1.0 / 32, 4.0)
    assert semigroup_defect(kern, phi, 0.5, 0.5) == 0.0
    assert semigroup_defect(kern, phi, 0.25, 0.75) == 0.0


@pytest.mark.parametrize(
    "dim,model,quadrature,n",
    [(1, nonlinear_pendulum, "exact", 32), (1, discounted_pendulum, "midpoint", 32),
     (2, discounted_2d, "left", 8)],
    ids=["1d-nonlinear-exact", "1d-discounted-midpoint", "2d-discounted-left"],
)
def test_representation_formula_is_the_march_bitwise(dim, model, quadrature, n):
    # T_t phi = min_y h_{y, phi(y)}: the implicit action function h_{y,a} is
    # the march of a datum that is a at y and a finite sentinel elsewhere
    # (+inf would give inf - inf in a discounted coupling).  The step is a
    # min over starts of g(w) + cost with g(w) = w - dt f(w) nondecreasing
    # (dt Lip f <= 1), so it commutes with the min over starts y
    g = Grid(dim, 64 if dim == 1 else 16)
    x = g.points()
    kern = StepKernel(model(), g, 1.0 / 16, 4.0, quadrature)
    phi = GridField(g, 0.3 * np.cos(2 * np.pi * x.sum(axis=1)))
    rows = np.full((g.size, g.size), 1e6)
    np.fill_diagonal(rows, phi.values)
    for k, u in enumerate(_march(kern, phi, n)):
        if k:
            rows = kern.apply(rows, rows)
        assert rows.min(axis=0).tobytes() == u.tobytes(), k


def test_converge_reaches_pendulum_weak_kam_solution():
    # the normalized pendulum has the closed-form fixed point
    # u(x) = (2/pi)(1 - cos(pi * dist(x, 0))) up to an additive constant
    m = pendulum_normalized()
    g = Grid(1, 256)
    phi = GridField(g, np.zeros(g.size))
    report = converge(
        StepKernel(m, g, 1.0 / 16, 4.0, "exact"), phi, t_final=20.0, stop_eps=1e-9
    )
    assert report.converged
    # the block increments over the second half of the march never grow
    tail = report.block_increments[len(report.block_increments) // 2 :]
    assert all(b <= a + 1e-15 for a, b in zip(tail, tail[1:]))
    x = g.points()[:, 0]
    exact = (2 / np.pi) * (1 - np.cos(np.pi * np.minimum(x, 1 - x)))
    num = report.u_inf.values - report.u_inf.values[0]
    assert np.max(np.abs(num - exact)) <= 5e-3
    # one kink at the cut point x = 1/2, small residual elsewhere
    assert report.residual.kink_count <= 3
    assert report.residual.max_abs_smooth <= 5e-2


def test_converge_equals_picard_restart_blocks():
    # reference: each reporting window solved by tol=0 Picard iteration from
    # the previous window's final slice
    m = nonlinear_pendulum()
    g = Grid(1, 64)
    phi = GridField(g, 0.3 * np.cos(2 * np.pi * g.points()[:, 0]))
    dt, t_final = 1.0 / 16, 5.5
    kern = StepKernel(m, g, dt, 4.0)
    report = converge(kern, phi, t_final, stop_eps=1e-12)
    cur, t, block_times = phi, 0.0, []
    while t < t_final - 1e-9:
        span = min(default_block_length(m), t_final - t)
        u, _ = picard_reference(kern, cur, span, 0.0)
        t += span
        block_times.append(t)
        cur = GridField(g, u[-1])
    assert report.block_times == block_times
    assert len(block_times) == 6
    assert np.array_equal(report.u_inf.values, cur.values)


def test_residual_zero_for_flat_discounted_solution():
    # H = p^2/2 + lam*u + V0 has the stationary solution u = -V0/lam
    m = HamiltonianModel(
        "quadratic-discounted", lam=2.0, potential=TrigPotential(1, (((0,), 0.7),))
    )
    g = Grid(1, 64)
    u = GridField(g, np.full(g.size, -0.35))
    stats = weak_kam_residual(m, u)
    assert stats.kink_count == 0
    assert stats.max_abs_smooth <= 1e-14
    assert stats.rms_smooth <= 1e-14


@pytest.mark.parametrize("grid", [Grid(1, 64), Grid(1, 2), Grid(2, 16), Grid(2, 7)],
                         ids=["1d", "1d-two-cells", "2d", "2d-odd"])
def test_slopes_are_the_rolled_quotients_bitwise(grid):
    # |sin| has a kink on every axis, and the wrap pair is a kink in 1-D
    x = grid.points()
    u = GridField(grid, np.abs(np.sin(np.pi * x.sum(axis=1) + 0.3)) + 0.1 * x[:, 0])
    centered, smooth = _one_sided_slopes(u)
    ref_centered, ref_smooth = rolled_slopes(u)
    assert centered.shape == ref_centered.shape
    assert np.ascontiguousarray(centered).tobytes() == ref_centered.tobytes()
    assert np.array_equal(smooth, ref_smooth)
    if grid.n > 2:
        assert 0 < np.count_nonzero(smooth) < grid.size


def test_converged_field_is_a_subsolution_along_test_curves():
    m = pendulum_normalized()
    g = Grid(1, 256)
    phi = GridField(g, np.zeros(g.size))
    report = converge(
        StepKernel(m, g, 1.0 / 16, 4.0, "exact"), phi, t_final=20.0, stop_eps=1e-9
    )
    gap = subsolution_gap(m, report.u_inf, np.random.default_rng(0))
    assert gap <= 1e-9


def fan_reference(m, u, v_max, fan_size):
    """check_Ltilde's fan minimum with the fan written as one loop per axis."""
    g = u.grid
    k = max(1, int(round(np.sqrt(g.n) / 2.0)))
    shaped = u.values.reshape((g.n,) * g.dim)
    du = np.stack([((np.roll(shaped, -k, axis=ax) - np.roll(shaped, k, axis=ax))
                    / (2.0 * k * g.dx)).ravel() for ax in range(g.dim)], axis=-1)
    smooth = _one_sided_slopes(u)[1]
    pts, uu, du = g.points()[smooth], u.values[smooth], du[smooth]
    axis = np.linspace(-v_max, v_max, fan_size)
    best = np.full(pts.shape[0], np.inf)
    for v1 in axis:
        for v2 in axis if g.dim == 2 else [None]:
            v = np.array([v1] if v2 is None else [v1, v2])
            lt = lagrangian_values(m, pts, uu, np.broadcast_to(v, pts.shape)) - du @ v
            best = np.where(lt < best, lt, best)
    return best


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_check_Ltilde_rejects_grids_too_small_for_its_gradient(dim):
    m = normalized(HamiltonianModel("quadratic-discounted", dim=dim, lam=1.0,
                                    potential=TrigPotential(dim, (((1,) * dim, 1.0),))), 1.0)
    # a coarse fan keeps the 2-D runs and the reference loop short
    fan = 17
    for n in (2, 3):
        with pytest.raises(ConfigurationError, match="half-width"):
            check_Ltilde(m, GridField(Grid(dim, n), np.zeros(n**dim)), 2.0, fan)
    assert check_Ltilde(m, GridField(Grid(dim, 4), np.zeros(4**dim)), 2.0, fan).size == 4**dim
    g = Grid(dim, 16)
    x = g.points()
    u = GridField(g, 0.1 * np.sin(2 * np.pi * x[:, 0]) + 0.05 * np.cos(2 * np.pi * x[:, -1]))
    got = check_Ltilde(m, u, 2.0, fan)
    assert got.size > 0 and got.tolist() == fan_reference(m, u, 2.0, fan).tolist()


def test_calibrated_curve_defect_is_roundoff():
    m = discounted_pendulum()
    g = Grid(1, 128)
    phi = GridField(g, np.zeros(g.size))
    kern = StepKernel(m, g, 1.0 / 32, 4.0)
    u = march(kern, phi, 1.0)
    curve = extract_calibrated_curve(kern, u, x_end=int(0.55 * g.size))
    assert curve.max_defect() <= 1e-12
    assert curve.indices.size == u.n_steps + 1
    assert curve.velocities.shape == (u.n_steps, 1)
    assert np.all(np.abs(curve.velocities) <= 4.0 + 1e-12)


def argmin_backtrack(kern, u, x_end):
    """Chain and defects from apply_with_argmin over every destination: the reference.

    The operator pass is kern.apply, the pass extract_calibrated_curve checks;
    only the argmins come from apply_with_argmin.
    """
    grid, n = kern.grid, u.n_steps
    w = np.empty_like(u.values)
    w[0] = u.values[0]
    argmins = np.empty((n, grid.size), dtype=np.intp)
    for k in range(n):
        w[k + 1] = kern.apply(w[k], u.values[k])
        argmins[k] = kern.apply_with_argmin(w[k], u.values[k])[1]
    idx = np.empty(n + 1, dtype=np.intp)
    idx[n] = x_end
    for k in range(n - 1, -1, -1):
        idx[k] = argmins[k][idx[k + 1]]
    cells = np.stack(np.unravel_index(idx, (grid.n,) * grid.dim), axis=-1)
    seg_cost = np.empty(n)
    for k in range(n):
        starts = (cells[k + 1] - kern.offsets) % grid.n
        ks = np.nonzero(np.all(starts == cells[k], axis=1))[0]
        costs = kern.base_cost[ks, idx[k + 1]] + kern.step_cost(u.values[k])[idx[k]]
        seg_cost[k] = np.min(costs)
    defects = (w[np.arange(1, n + 1), idx[1:]] - w[np.arange(n), idx[:-1]]) - seg_cost
    return idx, defects


def tied_destinations(kern, u):
    """Count of (slice, destination) pairs whose minimum is reached from two starts."""
    count = 0
    for k in range(u.n_steps):
        a = u.values[k] + kern.step_cost(u.values[k])
        cand = a[kern.start_index] + kern.base_cost
        tied = cand == cand.min(axis=0)
        count += sum(np.unique(kern.start_index[tied[:, j], j]).size > 1
                     for j in range(kern.grid.size))
    return count


@pytest.mark.parametrize("phi_kind", ["zero", "trig", "tent"])
@pytest.mark.parametrize("quadrature", ["left", "midpoint", "exact"])
@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_backtrack_equals_argmin_chain_for_every_destination(dim, quadrature, phi_kind):
    # the stencil reaches n//2 cells, so two offsets wrap onto one start
    if dim == 1:
        g, modes = Grid(1, 16), (((1,), 1.0),)
    else:
        g, modes = Grid(2, 8), (((1, 0), 1.0), ((0, 1), 0.5))
    x = g.points()
    if phi_kind == "tent":
        # dyadic data and no potential: every sum is exact, so mirror-image
        # steps tie exactly and the tie rule decides the chain
        modes = ()
        phi_vals = np.abs(x - 0.5).sum(axis=1)
    elif phi_kind == "zero":
        phi_vals = np.zeros(g.size)
    else:
        phi_vals = 0.3 * np.cos(2 * np.pi * x.sum(axis=1))
    m = HamiltonianModel("quadratic-discounted", dim=dim, lam=1.0,
                         potential=TrigPotential(dim, modes))
    dt, v_max = 0.125, 4.0
    kern = StepKernel(m, g, dt, v_max, quadrature)
    u = march(kern, GridField(g, phi_vals), 0.5)
    if phi_kind == "tent":
        assert tied_destinations(kern, u) > 0
    for x_end in range(g.size):
        curve = extract_calibrated_curve(kern, u, x_end)
        idx, defects = argmin_backtrack(kern, u, x_end)
        assert np.array_equal(curve.indices, idx)
        assert np.array_equal(curve.defects, defects)


def test_separable_2d_march_is_sum_of_1d_marches():
    # V = V1(x1) + V2(x2) and phi = phi1 + phi2: with left quadrature the step
    # cost splits per axis, so where the v_max disk does not bind the 2-D
    # march is the sum of the two 1-D marches
    g1, g2 = Grid(1, 32), Grid(2, 32)
    dt, v_max, T = 1.0 / 32, 6.0, 1.0
    x = g1.points()[:, 0]
    parts = [
        ((((1,), 1.0), ((2,), 0.3)), 0.4 * np.sin(2 * np.pi * x)),
        ((((1,), 0.5),), 0.3 * np.cos(2 * np.pi * x) + 0.1 * np.sin(4 * np.pi * x)),
    ]
    marches, offsets = [], []
    for modes, phi in parts:
        kern = StepKernel(
            HamiltonianModel("quadratic-mechanical", potential=TrigPotential(1, modes)),
            g1, dt, v_max, "left",
        )
        u = march(kern, GridField(g1, phi), T)
        starts = np.stack([kern.apply_with_argmin(w, w)[1] for w in u.values[:-1]])
        offsets.append((np.arange(g1.n) - starts + g1.n // 2) % g1.n - g1.n // 2)
        marches.append(u.values)
    # every pair of 1-D minimizing offsets is a 2-D stencil offset, and some move
    reach = v_max * dt / g2.dx
    assert np.all(offsets[0][:, :, None] ** 2 + offsets[1][:, None, :] ** 2 <= reach**2)
    assert all(np.any(o != 0) for o in offsets)
    modes_2d = tuple(((k[0], 0), a) for k, a in parts[0][0]) + tuple(
        ((0, k[0]), a) for k, a in parts[1][0]
    )
    kern = StepKernel(
        HamiltonianModel("quadratic-mechanical", dim=2, potential=TrigPotential(2, modes_2d)),
        g2, dt, v_max, "left",
    )
    phi = (parts[0][1][:, None] + parts[1][1][None, :]).ravel()
    u2 = march(kern, GridField(g2, phi), T).values
    summed = (marches[0][:, :, None] + marches[1][:, None, :]).reshape(u2.shape)
    assert np.max(np.abs(u2 - summed)) <= 1e-13


def properties_reference(kern, phi, psi, t_list):
    """The property battery over four stored marches and whole-slab
    reductions: the reference for ``check_properties``."""
    grid, dt = kern.grid, kern.dt
    lo = GridField(grid, np.minimum(phi.values, psi.values))
    hi = GridField(grid, np.maximum(phi.values, psi.values))
    u_phi, u_psi, u_lo, u_hi = (march(kern, f, max(t_list)) for f in (phi, psi, lo, hi))
    base_gap = float(np.max(np.abs(phi.values - psi.values)))
    report = PropertyReport()
    report.uniform_bound = max(
        float(np.max(np.abs(u_phi.values))), float(np.max(np.abs(u_psi.values)))
    )
    for t in t_list:
        k = int(round(t / dt))
        mono = float(np.max(u_lo.values[k] - u_hi.values[k]))
        nonexp = float(np.max(np.abs(u_phi.values[k] - u_psi.values[k]))) - base_gap
        report.entries.append(
            {
                "t": float(t),
                "monotonicity_gap": max(mono, 0.0),
                "nonexpansive_gap": max(nonexp, 0.0),
            }
        )
    return report


def battery_case(dim):
    """(kernel, phi, psi): 1-D nonlinear-u "exact" on the window path, or 2-D
    discounted "left" on the row path."""
    if dim == 1:
        g, m, quadrature = Grid(1, 64), nonlinear_pendulum(), "exact"
        x = g.points()[:, 0]
        phi = GridField(g, 0.3 * np.sin(2 * np.pi * x))
        psi = GridField(g, 0.2 * np.cos(4 * np.pi * x))
    else:
        g, m, quadrature = Grid(2, 24), discounted_2d(), "left"
        x = g.points()
        phi = GridField(g, 0.3 * np.cos(2 * np.pi * (x @ [1.0, 1.0])))
        psi = GridField(g, 0.2 * np.sin(2 * np.pi * x[:, 0]) - 0.1)
    return StepKernel(m, g, 1.0 / 16, 4.0, quadrature), phi, psi


@pytest.mark.parametrize("dim", [1, 2], ids=["1d-nonlinear-exact", "2d-left"])
def test_check_properties_equals_slab_reference(dim):
    # the three probe rows step as one batch and are reduced slice by slice
    # beside the march of phi
    kern, phi, psi = battery_case(dim)
    t_list = [1.0, 0.5]
    report = check_properties(kern, march(kern, phi, 1.0), psi, t_list)
    assert repr(report) == repr(properties_reference(kern, phi, psi, t_list))
    assert [e["t"] for e in report.entries] == t_list


@pytest.mark.parametrize("T", [0.5, 1.0, 1.5], ids=["T-below", "T-at", "T-beyond"])
@pytest.mark.parametrize("dim", [1, 2], ids=["1d-window-path", "2d-row-path"])
def test_check_properties_fills_the_march_of_phi(dim, T):
    # check fills its slab from _march, bitwise the march of phi; the battery
    # reads it up to the last horizon (1.0) and no further, so a longer march
    # leaves the report where it is, and a shorter one is rejected
    kern, phi, psi = battery_case(dim)
    t_list = [1.0, 0.5]
    slab = np.empty((round(T / kern.dt) + 1, kern.grid.size))
    for k, values in enumerate(_march(kern, phi, len(slab) - 1)):
        slab[k] = values
    assert slab.tobytes() == march(kern, phi, T).values.tobytes()
    u = SpaceTimeField(kern.grid, kern.dt, slab)
    if T < max(t_list):
        with pytest.raises(ConfigurationError, match="u has 8 steps, the last horizon needs 16"):
            check_properties(kern, u, psi, t_list)
    else:
        report = check_properties(kern, u, psi, t_list)
        assert repr(report) == repr(properties_reference(kern, phi, psi, t_list))
    with pytest.raises(ConfigurationError, match="u has dt=0.03125, the kernel dt=0.0625"):
        check_properties(kern, SpaceTimeField(kern.grid, kern.dt / 2, slab), psi, t_list)


@pytest.mark.parametrize("dim", [1, 2], ids=["1d-nonlinear-exact", "2d-left"])
def test_unchecked_backtrack_equals_the_checked_one_on_a_march(dim):
    kern, phi, _ = battery_case(dim)
    u = march(kern, phi, 1.0)
    for x_end in (0, kern.grid.size // 3, int(np.argmin(u.values[-1]))):
        checked = extract_calibrated_curve(kern, u, x_end)
        walked = _backtrack(kern, u, x_end)
        for name in ("indices", "points", "u_values", "velocities", "defects"):
            assert getattr(walked, name).tobytes() == getattr(checked, name).tobytes(), name


def test_check_properties_rejects_a_horizon_off_the_time_grid():
    # at dt = 1/8 the horizon 0.3 has no slice: it must not be reported as t = 0.25
    g = Grid(1, 32)
    x = g.points()[:, 0]
    phi = GridField(g, 0.3 * np.sin(2 * np.pi * x))
    kern = StepKernel(discounted_pendulum(), g, 1.0 / 8, 4.0)
    with pytest.raises(ConfigurationError, match="T=0.3 is not a positive multiple"):
        check_properties(kern, march(kern, phi, 1.0), GridField(g, np.zeros(g.size)), [0.3, 1.0])


def test_fixed_point_check_is_not_loosened():
    # one interior point of one slice raised above the march: the running
    # residual sees it at its full size, and the defect along a chain
    # through it stays within twice that
    g = Grid(1, 64)
    dt = 1.0 / 16
    kern = StepKernel(discounted_pendulum(), g, dt, 4.0)
    u = march(kern, GridField(g, 0.3 * np.sin(2 * np.pi * g.points()[:, 0])), 1.0)
    x_end, j = 20, 8
    chain = extract_calibrated_curve(kern, u, x_end).indices

    def raised(by):
        vals = u.values.copy()
        vals[j, chain[j]] += by
        return SpaceTimeField(g, dt, vals)

    with pytest.raises(ConfigurationError, match="not a fixed point: operator residual 1e-07"):
        extract_calibrated_curve(kern, raised(10 * FIXED_POINT_TOL), x_end)
    small = FIXED_POINT_TOL / 10
    curve = extract_calibrated_curve(kern, raised(small), x_end)
    assert curve.max_defect() <= 2 * small
    assert curve.max_defect() >= small / 2  # the defects read the raised field


def converge_reference(kern, phi, t_final, stop_eps):
    """Each window of default_block_length a stored march from the previous
    window's final slice; its increments from the whole slab.  Returns the
    step increments, the window maxima and the final slice."""
    dt = kern.dt
    block = max(dt, round(default_block_length(kern.model) / dt) * dt)
    cur, t, incs, block_incs = phi, 0.0, [], []
    while t < t_final - 1e-9:
        span = max(dt, round(min(block, t_final - t) / dt) * dt)
        u = march(kern, cur, span)
        window = np.max(np.abs(np.diff(u.values, axis=0)), axis=1)
        incs.extend(window.tolist())
        block_incs.append(float(np.max(window)))
        t += span
        cur = u.final()
        if block_incs[-1] < stop_eps:
            break
    return np.asarray(incs), block_incs, cur


@pytest.mark.parametrize(
    "case", ["mechanical-1d-stops", "discounted-1d", "mechanical-2d", "discounted-2d"]
)
def test_converge_equals_windowed_marches(case):
    g1, g2 = Grid(1, 64), Grid(2, 16)
    x1, x2 = g1.points()[:, 0], g2.points()
    mech_2d = HamiltonianModel(
        "quadratic-mechanical", dim=2, potential=TrigPotential(2, (((1, 0), 1.0), ((1, 1), 0.3)))
    )
    model, phi, quadrature, t_final, stop_eps = {
        "mechanical-1d-stops": (pendulum_normalized(), GridField(g1, 0.3 * np.sin(2 * np.pi * x1)),
                                "exact", 40.0, 1e-9),
        # the last window is cut to the 1.0 left before the checkpoint
        "discounted-1d": (discounted_pendulum(), GridField(g1, 0.3 * np.cos(2 * np.pi * x1)),
                          "left", 5.0, 1e-12),
        "mechanical-2d": (mech_2d, GridField(g2, 0.3 * np.cos(2 * np.pi * x2.sum(axis=1))),
                          "left", 6.0, 1e-12),
        "discounted-2d": (discounted_2d(), GridField(g2, 0.2 * np.sin(2 * np.pi * x2[:, 1])),
                          "midpoint", 3.0, 1e-12),
    }[case]
    kern = StepKernel(model, phi.grid, 1.0 / 16, 4.0, quadrature)
    report = converge(kern, phi, t_final, stop_eps=stop_eps)
    incs, block_incs, u_inf = converge_reference(kern, phi, t_final, stop_eps)
    assert np.array_equal(report.step_increments, incs)
    assert report.block_increments == block_incs
    assert np.array_equal(report.u_inf.values, u_inf.values)
    assert report.step_times.size == incs.size
    stopped = report.step_times[-1] < t_final - 1e-9
    assert report.converged == stopped == (case == "mechanical-1d-stops")


def test_2d_left_kernel_builds_base_cost_only_for_the_critical_value():
    # the row path and the backtrack's "left" cost column never read the
    # table; the policy iteration of critical_value does
    grid = Grid(2, 16)
    m = HamiltonianModel(
        "quadratic-discounted", dim=2, lam=1.0,
        potential=TrigPotential(2, (((1, 0), 1.0), ((0, 1), 0.5))),
    )
    kern = StepKernel(m, grid, 1.0 / 16, 2.0, "left")
    x = grid.points()
    phi = GridField(grid, 0.3 * np.cos(2 * np.pi * (x[:, 0] + x[:, 1])))
    psi = GridField(grid, 0.2 * np.sin(2 * np.pi * x[:, 1]))
    slab = march(kern, phi, 0.25)
    check_properties(kern, slab, psi, [0.25])
    extract_calibrated_curve(kern, slab, 37)
    fixed_point(kern, phi, 0.25)
    converge(kern, phi, 0.5, 1e-6)
    kern.apply_table(np.zeros((3, grid.size)), 0.0)
    assert "base_cost" not in vars(kern)
    critical_value(kern, 0.0)
    assert "base_cost" in vars(kern)


def test_calibrated_curve_requires_fixed_point():
    m = discounted_pendulum()
    g = Grid(1, 64)
    phi = GridField(g, np.zeros(g.size))
    not_fixed = SpaceTimeField(g, 1.0 / 16, np.tile(phi.values, (9, 1)))
    with pytest.raises(ConfigurationError, match="not a fixed point"):
        extract_calibrated_curve(StepKernel(m, g, 1.0 / 16, 4.0), not_fixed, x_end=5)


def test_field_off_the_kernel_grid_is_rejected():
    m = discounted_pendulum()
    kern = StepKernel(m, Grid(1, 64), 1.0 / 16, 4.0)
    g32 = Grid(1, 32)
    phi = GridField(g32, 0.3 * np.sin(2 * np.pi * g32.points()[:, 0]))
    slab = march(StepKernel(m, g32, 1.0 / 16, 4.0), phi, 0.5)
    calls = {
        "fixed_point": lambda: fixed_point(kern, phi, 0.5),
        "converge": lambda: converge(kern, phi, t_final=1.0, stop_eps=1e-6),
        "check_properties": lambda: check_properties(kern, slab, phi, [0.5]),
        "extract_calibrated_curve": lambda: extract_calibrated_curve(kern, slab, x_end=3),
    }
    for name, call in calls.items():
        with pytest.raises(ConfigurationError, match="the kernel on Grid"):
            call()


def test_slab_of_another_dt_or_datum_is_rejected():
    m = discounted_pendulum()
    g = Grid(1, 64)
    x = g.points()[:, 0]
    phi = GridField(g, 0.3 * np.sin(2 * np.pi * x))
    coarse = StepKernel(m, g, 1.0 / 16, 4.0)
    fine = StepKernel(m, g, 1.0 / 32, 4.0)
    u = march(coarse, phi, 0.5)
    # u is the coarse kernel's march of phi: only the dt mismatch can reject it
    extract_calibrated_curve(coarse, u, x_end=5)
    check_properties(coarse, u, phi, [0.5])
    for call in (lambda: extract_calibrated_curve(fine, u, x_end=5),
                 lambda: check_properties(fine, u, phi, [0.25])):
        with pytest.raises(ConfigurationError, match="dt=0.0625, the kernel dt=0.03125"):
            call()


def test_report_csv_headers():
    m = discounted_pendulum()
    g = Grid(1, 32)
    phi = GridField(g, np.zeros(g.size))
    kern = StepKernel(m, g, 1.0 / 16, 4.0)
    _, fp_report = fixed_point(kern, phi, 0.5, tol=0.0)
    assert fp_report.to_csv().startswith("iter,gap,bound\n")
    conv = converge(kern, phi, t_final=2.0, stop_eps=1e-8)
    buf = io.StringIO()
    conv.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,increment"
    assert "np." not in buf.getvalue()
