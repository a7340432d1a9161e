import io
import math

import numpy as np
import pytest

from oracles import normalized, peierls_barrier
from weakkam import action
from weakkam.action import _policy_iteration, critical_value, min_action
from weakkam.errors import ConfigurationError, NumericError
from weakkam.kernels import StepKernel
from weakkam.models import HamiltonianModel, TrigPotential, eval_H
from weakkam.semigroup import converge
from weakkam.torus import Grid, GridField, periodic_distance


def karp_min_cycle_mean(kern, a):
    """Minimum mean step cost over the cycles of the DP graph at level a.

    Karp's formula with every vertex a source: D_k(x) is the cheapest
    k-step path ending at x, and the mean is
    min_x max_{k<n} (D_n(x) - D_k(x)) / (n - k) with n = grid.size.  It
    takes grid.size kernel steps and holds (size + 1) x size D_k; it is the
    oracle of the policy iteration in ``critical_value``.
    """
    n = kern.grid.size
    level = np.full(n, a)
    d = np.empty((n + 1, n))
    d[0] = 0.0
    for k in range(n):
        d[k + 1] = kern.apply(d[k], level)
    best = (d[n] - d[0]) / n
    for k in range(1, n):
        np.maximum(best, (d[n] - d[k]) / (n - k), out=best)
    return float(np.min(best))


def assert_matches_karp(kern, a, c):
    """c is within 1e-12 of the critical value by Karp's formula."""
    assert abs(c + karp_min_cycle_mean(kern, a) / kern.dt) <= 1e-12


def critical_cycles(policy, eta):
    """The nodes on the cycles of the policy graph whose mean is the least eta."""
    ends = np.arange(policy.size)
    for _ in range(policy.size):
        ends = policy[ends]
    on_cycle = np.unique(ends)
    return on_cycle[eta[on_cycle] == np.min(eta)]


def free_model(dim=1):
    return HamiltonianModel("quadratic-mechanical", dim=dim)


def pendulum(amp=1.0):
    return HamiltonianModel(
        "quadratic-mechanical", potential=TrigPotential(1, (((1,), amp),))
    )


def test_free_particle_action_matches_formula():
    # h_t(x,y) = dist(x,y)^2/(2t); quantization can only add at most
    # t*dv^2/8 (spreading the residual displacement over the steps)
    g = Grid(1, 256)
    t, dt = 0.5, 1.0 / 128
    table = min_action(StepKernel(free_model(), g, dt, 2.0), 0.0, t)
    i, j = 0, 64  # x=0, y=0.25
    assert table.values[i, j] == pytest.approx(0.0625, abs=5e-3)
    dv = g.dx / dt
    slack = t * dv**2 / 8 + 1e-12
    pts = g.points()
    for jj in (1, 32, 100, 128, 200):
        d = float(periodic_distance(pts[0], pts[jj]))
        ref = d * d / (2 * t)
        assert ref - 1e-12 <= table.values[0, jj] <= ref + slack


def test_free_particle_exact_at_commensurate_displacements():
    # when the displacement splits evenly across the steps the discrete
    # minimizer hits the continuum value exactly (no quantization residue)
    for n, dtd in ((64, 32), (128, 64)):
        g = Grid(1, n)
        table = min_action(StepKernel(free_model(), g, 1.0 / dtd, 2.0), 0.0, 0.5)
        assert abs(table.values[0, n // 4] - 0.0625) <= 1e-12


def test_pendulum_refinement_first_order():
    ref = min_action(StepKernel(pendulum(), Grid(1, 512), 1.0 / 128, 2.0, "exact"), 0.0, 1.0)
    ref_val = ref.values[0, 128]
    errs = []
    for n, dtd in ((64, 16), (128, 32), (256, 64)):
        g = Grid(1, n)
        table = min_action(StepKernel(pendulum(), g, 1.0 / dtd, 2.0, "exact"), 0.0, 1.0)
        errs.append(abs(table.values[0, n // 4] - ref_val))
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] / max(errs[2], 1e-15) >= 2.0  # empirical order >= 1


def test_stay_put_bound():
    m = pendulum()
    g = Grid(1, 64)
    t = 1.0
    kern = StepKernel(m, g, 1.0 / 16, 2.0)
    table = min_action(kern, 0.0, t)
    # the slack K_L*(dx + dt) of discrete action identities: K_L, the local Lipschitz
    # data of the segment costs, is the bound sum |a| 2 pi |k| on |grad V| plus v_max
    k_l = sum(abs(a) * 2.0 * np.pi * float(np.linalg.norm(k)) for k, a in m.potential.modes)
    slack = (k_l + kern.v_max) * (g.dx + kern.dt)
    x = g.points()
    L0 = 0.5 * 0.0 - m.potential(x)  # L(x, a, 0)
    assert np.all(np.diagonal(table.values) <= t * L0 + slack + 1e-12)


def test_horizon_validation():
    kern = StepKernel(free_model(), Grid(1, 64), 0.25, 2.0)
    with pytest.raises(ConfigurationError):
        min_action(kern, 0.0, 0.3)
    with pytest.raises(ConfigurationError):
        min_action(kern, 0.0, 0.1)


def test_compose_matches_single_run_within_slack():
    # a DP path passes through a grid point at every step, the splitting
    # time included, so composition is exact up to the rounding of the sums
    for quadrature in ("left", "midpoint", "exact"):
        kern = StepKernel(pendulum(), Grid(1, 64), 1.0 / 16, 2.0, quadrature)
        one = min_action(kern, 0.0, 2.0)
        half = min_action(kern, 0.0, 1.0)
        two = half.compose(half)
        assert np.max(np.abs(two.values - one.values)) <= 1e-12
        assert two.t == pytest.approx(2.0)
        assert two.kern is kern and two.a == 0.0


def test_compose_rejects_other_kernel_or_level():
    # composing across kernels or u-levels would label the result with the
    # first table's dt or level while it holds another horizon or cost
    m = pendulum()
    g = Grid(1, 64)
    kern = StepKernel(m, g, 1.0 / 8, 2.0)
    table = min_action(kern, 0.0, 0.5)
    finer = min_action(StepKernel(m, g, 1.0 / 16, 2.0), 0.0, 0.5)
    mech = min_action(StepKernel(free_model(), g, 1.0 / 8, 2.0), 0.7, 0.5)
    for other in (finer, mech, min_action(kern, 0.7, 0.5)):
        with pytest.raises(ConfigurationError, match="compose"):
            table.compose(other)


def test_table_symmetry_for_even_potential():
    m = pendulum()
    g = Grid(1, 64)
    # segment-average cost is direction independent, so for a reversible
    # Lagrangian the table must be symmetric; one-sided quadrature is not
    table = min_action(StepKernel(m, g, 1.0 / 16, 2.0, "exact"), 0.0, 1.0)
    assert np.allclose(table.values, table.values.T, atol=1e-12)


def test_critical_value_free_pendulum_scaled():
    g = Grid(1, 128)
    dt = 1.0 / 16
    free = StepKernel(free_model(), g, dt, 2.0)
    c0 = critical_value(free, 0.0).c
    assert c0 == pytest.approx(0.0, abs=1e-3)
    assert math.copysign(1.0, c0) == 1.0
    assert_matches_karp(free, 0.0, c0)
    for amp, v_max, tol in ((1.0, 4.0, 2e-2), (3.0, 6.0, 6e-2)):
        kern = StepKernel(pendulum(amp), g, dt, v_max)
        res = critical_value(kern, 0.0)
        assert res.c == pytest.approx(amp, abs=tol)
        assert_matches_karp(kern, 0.0, res.c)
        # the eigen-equation residual certifies c: every cycle mean is at
        # least -c*dt - residual
        assert res.iterations >= 1 and 0.0 <= res.residual <= 1e-12


def test_critical_value_invariant_under_constant_shift():
    g = Grid(1, 128)
    m = pendulum()
    shifted = HamiltonianModel(
        "quadratic-mechanical",
        potential=TrigPotential(1, (((1,), 1.0), ((0,), 0.5))),
    )
    kern0, kern1 = StepKernel(m, g, 1.0 / 16, 4.0), StepKernel(shifted, g, 1.0 / 16, 4.0)
    c0 = critical_value(kern0, 0.0).c
    c1 = critical_value(kern1, 0.0).c
    assert c1 - 0.5 == pytest.approx(c0, abs=2e-8)
    assert_matches_karp(kern0, 0.0, c0)
    assert_matches_karp(kern1, 0.0, c1)


@pytest.mark.parametrize(
    "grid,quadrature,inject",
    [(Grid(1, 11), "left", True), (Grid(2, 5), "midpoint", True), (Grid(2, 5), "left", False)],
    ids=["1d", "2d", "2d-left"],
)
def test_min_cycle_mean_matches_brute_force(grid, quadrature, inject):
    # random step costs with a costly rest step, so every optimum is a moving
    # cycle; the brute force takes min diag(W_k)/k over the action tables
    # W_k of k = 1..size steps, which covers every simple cycle.  The costs
    # are injected into base_cost, which 2-D "left" (the row path) does not
    # read, so that case keeps the kernel's own costs under a potential.
    rng = np.random.default_rng(grid.n)
    potential = None if inject else TrigPotential(grid.dim, (((1,) * grid.dim, 1.0),))
    model = HamiltonianModel("quadratic-discounted", dim=grid.dim, lam=1.0, potential=potential)
    a = 0.3
    for _ in range(20 if inject else 1):
        kern = StepKernel(model, grid, 0.125, 16.0 / grid.n, quadrature)  # two cells per step
        rest = int(np.flatnonzero(~kern.offsets.any(axis=1))[0])
        if inject:
            kern.base_cost = rng.random(kern.base_cost.shape)
            kern.base_cost[rest] += 1.5
        w = np.full((grid.size, grid.size), np.inf)
        np.fill_diagonal(w, 0.0)
        brute = np.inf
        for k in range(1, grid.size + 1):
            w = kern.apply_table(w, a)
            brute = min(brute, float(np.min(np.diagonal(w))) / k)
        if inject:
            shift = float(kern.step_cost(np.full(1, a))[0])
            assert brute < float(np.min(kern.base_cost[rest])) + shift
        res = critical_value(kern, a)
        assert -res.c * kern.dt == pytest.approx(brute, abs=1e-12)
        assert res.residual <= 1e-12
        assert karp_min_cycle_mean(kern, a) == pytest.approx(brute, abs=1e-12)
        assert_matches_karp(kern, a, res.c)
        # the Karp oracle is bitwise equal to its formula over the whole ratio array at once
        n = grid.size
        d = np.zeros((n + 1, n))
        for k in range(n):
            d[k + 1] = kern.apply(d[k], np.full(n, a))
        ratios = (d[n] - d[:n]) / (n - np.arange(n))[:, None]
        assert karp_min_cycle_mean(kern, a) == float(np.min(np.max(ratios, axis=0)))


def test_normalize_shifts_and_zeroes_critical_value():
    m = pendulum()
    mc = normalized(m, 1.0)
    assert eval_H(mc, [0.2], 0.0, [0.3]) == pytest.approx(eval_H(m, [0.2], 0.0, [0.3]) - 1.0)
    g = Grid(1, 128)
    kern = StepKernel(mc, g, 1.0 / 16, 4.0)
    c = critical_value(kern, 0.0).c
    assert c == pytest.approx(0.0, abs=2e-2)
    assert_matches_karp(kern, 0.0, c)
    assert normalized(m, 0.0) == m


def test_policy_iteration_cap_raises_numeric_error(monkeypatch):
    # the first policy rests at every node; it is not optimal under a potential
    monkeypatch.setattr(action, "_MAX_POLICY_ITERATIONS", 1)
    with pytest.raises(NumericError, match="did not converge in 1 iterations"):
        critical_value(StepKernel(pendulum(), Grid(1, 64), 1.0 / 16, 4.0), 0.0)


def test_bias_is_the_weak_kam_solution_on_the_aubry_point():
    # V = cos(2 pi x): the one critical cycle is the rest step at x = 0,
    # argmax V; for a u-independent model the bias v solves the discrete
    # eigen-equation, as the long-time limit of the normalized semigroup
    # does, and with a single static class the two agree up to a constant
    g = Grid(1, 256)
    kern = StepKernel(pendulum(), g, 1.0 / 16, 4.0, "exact")
    policy, eta, v, _, residual = _policy_iteration(kern, 0.0)
    assert critical_cycles(policy, eta).tolist() == [0]
    assert residual <= 1e-12
    c = critical_value(kern, 0.0).c
    shifted = StepKernel(normalized(pendulum(), c), g, 1.0 / 16, 4.0, "exact")
    rep = converge(shifted, GridField(g, np.zeros(g.size)), (200.0,), stop_eps=1e-14)
    assert rep.converged
    u_inf = rep.u_inf.values
    assert np.max(np.abs((v - v.mean()) - (u_inf - u_inf.mean()))) <= 1e-12


def test_critical_cycles_sit_at_both_maxima_of_a_double_well():
    # V = cos(2 pi x) - 0.4 cos(4 pi x) has two maxima, at x = 0.1406 and
    # 0.8594 (grid points 36 and 220 of 256): two static classes
    g = Grid(1, 256)
    model = HamiltonianModel(
        "quadratic-mechanical", potential=TrigPotential(1, (((1,), 1.0), ((2,), -0.4)))
    )
    kern = StepKernel(model, g, 1.0 / 16, 4.0, "exact")
    policy, eta, _, _, residual = _policy_iteration(kern, 0.0)
    cycles = critical_cycles(policy, eta)
    potential = model.potential(g.points())
    assert cycles.tolist() == np.flatnonzero(potential == np.max(potential)).tolist()
    assert g.points()[cycles, 0] == pytest.approx([0.140625, 0.859375])
    assert residual <= 1e-12
    assert_matches_karp(kern, 0.0, critical_value(kern, 0.0).c)


def test_critical_cycle_2d_is_the_maximum_of_the_potential():
    g = Grid(2, 24)
    model = HamiltonianModel(
        "quadratic-mechanical", dim=2,
        potential=TrigPotential(2, (((1, 0), 1.0), ((0, 1), 0.5))),
    )
    kern = StepKernel(model, g, 1.0 / 16, 4.0, "exact")
    policy, eta, _, _, residual = _policy_iteration(kern, 0.0)
    potential = model.potential(g.points())
    assert critical_cycles(policy, eta).tolist() == [int(np.argmax(potential))] == [0]
    assert residual <= 1e-12
    assert policy[0] == 0  # the rest step
    assert_matches_karp(kern, 0.0, critical_value(kern, 0.0).c)


def test_peierls_barrier_free_particle_hits_quantization_floor():
    # crossing distance d on the velocity lattice costs at least d*dv/2
    # however long the horizon; the liminf lands exactly on that floor and
    # the floor halves when the lattice spacing dv = dx/dt halves
    maxima = []
    for n, dtd in ((64, 16), (128, 16)):
        g = Grid(1, n)
        liminf, report = peierls_barrier(
            StepKernel(free_model(), g, 1.0 / dtd, 2.0), 0.0, 0.0, [1, 2, 4, 8, 16]
        )
        assert report["bounded"]
        floor = 0.5 * (g.dx * dtd) / 2
        assert np.max(np.abs(liminf)) <= floor + 1e-12
        maxima.append(np.max(np.abs(liminf)))
    assert maxima[1] == pytest.approx(0.5 * maxima[0], abs=1e-12)


def test_peierls_barrier_pendulum_aubry_point():
    g = Grid(1, 128)
    liminf, report = peierls_barrier(
        StepKernel(pendulum(), g, 1.0 / 16, 4.0), 0.0, 1.0, [2, 4, 8, 16, 32]
    )
    diag = np.diagonal(liminf)
    assert np.min(diag) == pytest.approx(0.0, abs=5e-2)
    # Aubry point of L = v^2/2 - V + c sits at the potential maximum x = 0
    assert int(np.argmin(diag)) == 0
    assert report["C_t0"] < 10.0


def composed_barriers(kern, a, c, t_list):
    """Peierls barriers by min-plus composition: min_action over each gap
    between sorted horizons, composed onto the table of the previous one."""
    barriers, table, prev_t = {}, None, 0.0
    for t in sorted(t_list):
        piece = min_action(kern, a, t - prev_t)
        table = piece if table is None else table.compose(piece)
        barriers[t] = table.values + c * t
        prev_t = t
    return barriers


@pytest.mark.parametrize("quadrature", ["left", "midpoint", "exact"])
@pytest.mark.parametrize(
    "model,n,t_list",
    [(pendulum(), 128, [2, 4, 8]), (free_model(), 64, [1, 2, 4, 8])],
    ids=["pendulum", "free"],
)
def test_peierls_march_equals_composed_tables(model, n, t_list, quadrature):
    # h_{t+s} = min_y h_t + h_s: one marched table gives the composed chain
    # up to the rounding of the sums
    kern = StepKernel(model, Grid(1, n), 1.0 / 16, 4.0, quadrature)
    _, report = peierls_barrier(kern, 0.0, 0.5, t_list)
    ref = composed_barriers(kern, 0.0, 0.5, t_list)
    assert list(report["barriers"]) == [float(t) for t in t_list]
    for t in t_list:
        assert np.max(np.abs(report["barriers"][t] - ref[t])) <= 1e-12


def test_peierls_rejects_repeated_or_off_grid_horizons():
    kern = StepKernel(pendulum(), Grid(1, 32), 1.0 / 16, 4.0)
    with pytest.raises(ConfigurationError, match="increase"):
        peierls_barrier(kern, 0.0, 1.0, [1, 2, 2])
    with pytest.raises(ConfigurationError, match="multiple"):
        peierls_barrier(kern, 0.0, 1.0, [1, 1.1])
    with pytest.raises(ConfigurationError, match="non-empty"):
        peierls_barrier(kern, 0.0, 1.0, [])


def test_csv_export_headers():
    g = Grid(1, 4)
    table = min_action(StepKernel(free_model(), g, 0.25, 2.1), 0.0, 0.5)
    buf = io.StringIO()
    table.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "i,j,x_i,x_j,h"
    assert len(lines) == 17
