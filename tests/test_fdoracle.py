import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import normalized, step_T
from test_semigroup import discounted_pendulum
from weakkam.errors import ConfigurationError, NumericError
from weakkam.fdoracle import LFConfig, _lf_march, lf_final, lf_solve
from weakkam.kernels import StepKernel
from weakkam.models import HamiltonianModel, PiecewiseLinearMap, TrigPotential, eval_H
from weakkam.torus import Grid, GridField


def test_config_rejects_cfl_violation():
    g = Grid(1, 64)
    with pytest.raises(ConfigurationError, match="CFL"):
        LFConfig(discounted_pendulum(), g, alpha=2.0, dt_fd=g.dx)


def test_step_rejects_large_dt_for_u_sensitivity():
    # dt_fd*lambda_L = 300/256 > 1 is refused when the oracle is built
    m = HamiltonianModel("quadratic-discounted", lam=300.0)
    g = Grid(1, 64)
    with pytest.raises(ConfigurationError, match="lambda_L"):
        LFConfig(m, g, alpha=1.0, dt_fd=0.25 * g.dx)


@pytest.mark.parametrize("entry", ["step", "solve", "final"])
def test_entry_points_reject_phi_on_another_grid(entry):
    # the CFL ratio is checked on the oracle's grid; a finer phi would march
    # at alpha*dt_fd/dx = 2.05 and return a field of an unstable scheme
    m = discounted_pendulum()
    cfg = LFConfig(m, Grid(1, 32), 4.1, 1.0 / 512)
    phi = GridField(Grid(1, 256), np.zeros(256))
    with pytest.raises(ConfigurationError, match="oracle"):
        if entry == "step":
            lf_final(cfg, phi, cfg.dt_fd)
        elif entry == "solve":
            lf_solve(cfg, phi, 0.0625)
        else:
            lf_final(cfg, phi, 0.0625)


def test_step_is_monotone_on_lipschitz_data():
    # ordered inputs stay ordered as long as alpha dominates the |H_p|
    # actually reached by the one-sided slopes of the data
    m = discounted_pendulum()
    g = Grid(1, 128)
    cfg = LFConfig(m, g, 4.1, 0.99 * 0.5 * g.dx / 4.1)
    rng = np.random.default_rng(0)
    x = g.points()[:, 0]
    for _ in range(20):
        a = rng.uniform(-0.5, 0.5) * np.sin(2 * np.pi * (x + rng.uniform()))
        a += rng.uniform(-0.3, 0.3) * np.cos(4 * np.pi * x)
        c = rng.uniform(0, 0.3) * (1 + np.sin(2 * np.pi * (x + rng.uniform())))
        fa = lf_final(cfg, GridField(g, a), cfg.dt_fd)
        fb = lf_final(cfg, GridField(g, a + c), cfg.dt_fd)
        assert np.min(fb.values - fa.values) >= -1e-12


def test_flat_discounted_decay_matches_exponential():
    m = HamiltonianModel("quadratic-discounted", lam=1.0)
    g = Grid(1, 128)
    cfg = LFConfig(m, g, alpha=1.0, dt_fd=1e-4)
    phi = GridField(g, np.ones(g.size))
    u = lf_final(cfg, phi, 1.0)
    assert np.max(np.abs(u.values - np.exp(-1.0))) <= 1e-4


def test_solve_returns_slab_and_validates_horizon():
    m = discounted_pendulum()
    g = Grid(1, 64)
    cfg = LFConfig(m, g, 4.1, 1.0 / 2048)
    phi = GridField(g, np.zeros(g.size))
    slab = lf_solve(cfg, phi, 0.125)
    assert slab.n_steps == 256
    assert np.array_equal(slab.values[0], phi.values)
    with pytest.raises(ConfigurationError):
        lf_solve(cfg, phi, 0.1001)


def test_cross_check_against_variational_solver():
    # independent discretizations agree to first order on a smooth window
    m = discounted_pendulum()
    g = Grid(1, 256)
    phi = GridField(g, np.zeros(g.size))
    dt_fd = 1.0 / math.ceil(1.0 / (0.5 * g.dx / 4.1))
    cfg = LFConfig(m, g, 4.1, dt_fd)
    u_fd = lf_final(cfg, phi, 1.0)
    u_dp = step_T(StepKernel(m, g, 1.0 / 64, 4.0, "exact"), phi, 1.0)
    assert np.max(np.abs(u_fd.values - u_dp.values)) <= 0.05


def eval_h_step(model, u, cfg):
    """The scheme's step with H from eval_H on the flat slice: the reference."""
    grid = u.grid
    v = u.values.reshape((grid.n,) * grid.dim)
    dplus, dminus, lap = [], [], np.zeros_like(v)
    for ax in range(grid.dim):
        dp = (np.roll(v, -1, axis=ax) - v) / grid.dx
        dm = (v - np.roll(v, 1, axis=ax)) / grid.dx
        dplus.append(dp)
        dminus.append(dm)
        lap += dp - dm
    central = np.stack([(0.5 * (dp + dm)).ravel() for dp, dm in zip(dplus, dminus)], axis=-1)
    ham = eval_H(model, grid.points(), u.values, central)
    return GridField(grid, u.values - cfg.dt_fd * (ham - 0.5 * cfg.alpha * lap.ravel()))


def family_model(family, dim):
    modes = (((1,), 1.0), ((2,), -0.4)) if dim == 1 else (
        ((1, 0), 1.0), ((0, 1), 0.5), ((1, 1), -0.3))
    pot = TrigPotential(dim, modes)
    f = PiecewiseLinearMap((-1.0, 0.0, 1.0), (-2.0, 0.0, 0.5))
    if family == "quadratic-mechanical":
        m = HamiltonianModel(family, dim=dim, potential=pot)
    elif family == "quadratic-discounted":
        m = HamiltonianModel(family, dim=dim, potential=pot, lam=1.0)
    else:
        m = HamiltonianModel(family, dim=dim, potential=pot, f=f)
    return normalized(m, 0.3)


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
@pytest.mark.parametrize(
    "family", ["quadratic-mechanical", "quadratic-discounted", "quadratic-nonlinear-u"]
)
def test_stepper_equals_eval_h_step(family, dim):
    m = family_model(family, dim)
    g = Grid(dim, 64 if dim == 1 else 16)
    cfg = LFConfig(m, g, 5.8, 0.5 * g.dx / 5.8)
    rng = np.random.default_rng(dim)
    phi = GridField(g, rng.uniform(-0.5, 0.5, g.size))
    n = 12
    slab = lf_solve(cfg, phi, n * cfg.dt_fd)
    cur = phi
    for k in range(1, n + 1):
        cur = eval_h_step(m, cur, cfg)
        assert np.array_equal(slab.values[k], cur.values)
    assert np.array_equal(lf_final(cfg, phi, cfg.dt_fd).values, slab.values[1])
    assert np.array_equal(lf_final(cfg, phi, n * cfg.dt_fd).values, slab.values[-1])


def test_non_finite_step_raises_numeric_error():
    # in 2-D the data alternate along the stride-1 axis, as in 1-D
    for m in (discounted_pendulum(), family_model("quadratic-discounted", 2)):
        g = Grid(m.dim, 16)
        cfg = LFConfig(m, g, 4.1, 1e-3)
        # finite data whose difference quotients overflow
        phi = GridField(g, np.where(np.arange(g.size) % 2, 1e308, -1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="step 1 "):
                lf_final(cfg, phi, 2e-3)


def assert_steps_as_eval_h_step(cfg, phi, n):
    # byte for byte, so a zero of the other sign is a difference too
    cur = phi
    for values in list(_lf_march(cfg, phi, n))[1:]:
        cur = eval_h_step(cfg.model, cur, cfg)
        assert values.tobytes() == cur.values.tobytes()


@pytest.mark.parametrize("shift", [0.3, 0.0, -0.0], ids=["shift", "zero", "minus-zero"])
@pytest.mark.parametrize("n", [2, 3, 15])
@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
@pytest.mark.parametrize(
    "family", ["quadratic-mechanical", "quadratic-discounted", "quadratic-nonlinear-u"]
)
def test_wrap_layers_step_as_eval_h_step(family, dim, n, shift):
    # at N = 2 and 3 every cell lies on the wrap layer of some axis; N = 15
    # is odd, so no flat stride is a power of two
    m = replace(family_model(family, dim), action_shift=shift)
    g = Grid(dim, n)
    cfg = LFConfig(m, g, 5.8, 0.5 * g.dx / 5.8)
    phi = GridField(g, np.random.default_rng(n).uniform(-0.5, 0.5, g.size))
    assert_steps_as_eval_h_step(cfg, phi, 6)


@pytest.mark.parametrize("shift", [0.0, -0.0], ids=["zero", "minus-zero"])
@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_signed_zeros_step_as_eval_h_step(dim, shift):
    # V = 0 and phi of +0.0 and -0.0: every difference, Laplacian term and H
    # is a zero of some sign, and the slices keep the signs eval_H's step gives
    m = HamiltonianModel("quadratic-mechanical", dim=dim, potential=TrigPotential(dim),
                         action_shift=shift)
    g = Grid(dim, 5)
    cfg = LFConfig(m, g, 1.0, 0.5 * g.dx)
    phi = GridField(g, np.where(np.arange(g.size) % 3, 0.0, -0.0))
    assert_steps_as_eval_h_step(cfg, phi, 3)


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_march_yields_a_fresh_array_per_slice(dim):
    # the step reuses its buffers; no slice it yields shares memory with another
    m = family_model("quadratic-discounted", dim)
    g = Grid(dim, 64 if dim == 1 else 16)
    cfg = LFConfig(m, g, 5.8, 0.5 * g.dx / 5.8)
    phi = GridField(g, np.random.default_rng(dim).uniform(-0.5, 0.5, g.size))
    slices = list(_lf_march(cfg, phi, 6))
    for i, a in enumerate(slices):
        assert not any(np.shares_memory(a, b) for b in slices[i + 1:])
    slab = lf_solve(cfg, phi, 6 * cfg.dt_fd)
    assert all(np.array_equal(a, b) for a, b in zip(slices, slab.values))
    assert not any(np.array_equal(a, b) for a, b in zip(slab.values, slab.values[1:]))

