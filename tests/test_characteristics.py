import contextlib
import io

import numpy as np
import pytest

from oracles import march, normalized
from test_semigroup import discounted_pendulum
from weakkam import characteristics
from weakkam.characteristics import (
    CharacteristicState,
    _rhs,
    dH_law_residual,
    flow,
    match_calibrated,
)
from weakkam.errors import NumericError
from weakkam.kernels import StepKernel
from weakkam.models import HamiltonianModel, PiecewiseLinearMap, TrigPotential, eval_H, grad_H
from weakkam.semigroup import extract_calibrated_curve
from weakkam.torus import Grid, GridField


def test_free_particle_flow_is_exact():
    m = HamiltonianModel("quadratic-mechanical", dim=1)
    traj = flow(m, CharacteristicState(x=[0.1], u=0.0, p=[0.7]), 2.0, 1e-2)
    xe = (0.1 + 0.7 * traj.times) % 1.0
    ue = 0.5 * 0.7**2 * traj.times
    assert np.max(np.abs(traj.xs[:, 0, 0] - xe)) <= 1e-12
    assert np.max(np.abs(traj.us[:, 0] - ue)) <= 1e-12
    assert np.max(np.abs(traj.ps[:, 0, 0] - 0.7)) <= 1e-14


def test_discounted_momentum_decays_exponentially():
    # flat potential: p' = -H_u p = -lam p, so p(t) = p0 e^{-lam t}
    m = HamiltonianModel("quadratic-discounted", lam=1.0)
    traj = flow(m, CharacteristicState(x=[0.2], u=0.0, p=[1.0]), 2.0, 1e-3)
    assert np.max(np.abs(traj.ps[:, 0, 0] - np.exp(-traj.times))) <= 1e-8


def test_integrator_is_fourth_order():
    m = discounted_pendulum()
    s0 = CharacteristicState(x=[0.3], u=0.1, p=[0.5])
    ref = flow(m, s0, 1.0, 1.0 / 4096)
    errs = []
    for dtd in (32, 64):
        t = flow(m, s0, 1.0, 1.0 / dtd)
        errs.append(
            abs(t.us[-1, 0] - ref.us[-1, 0]) + abs(t.ps[-1, 0, 0] - ref.ps[-1, 0, 0])
        )
    assert errs[0] / errs[1] >= 14.0


def test_dH_evolution_law():
    # dH/ds = -H_u H; for the discounted family H(t) = H(0) e^{-lam t}
    m = discounted_pendulum()
    traj = flow(m, CharacteristicState(x=[0.25], u=0.0, p=[0.9]), 2.0, 1e-3)
    stats = dH_law_residual(m, traj)
    assert stats.rms_residual <= 1e-6
    assert stats.max_residual <= 1e-6
    h0 = traj.h_values[0, 0]
    assert np.max(np.abs(traj.h_values[:, 0] - h0 * np.exp(-traj.times))) <= 1e-6


def kinked_coupling_model():
    # f has slope 2 below u = 0 and 0.5 above: H_u jumps at the interior knot
    return HamiltonianModel(
        "quadratic-nonlinear-u",
        f=PiecewiseLinearMap((-1.0, 0.0, 1.0), (-2.0, 0.0, 0.5)),
        potential=TrigPotential(1, (((1,), 1.0),)),
    )


def test_dH_law_excludes_states_straddling_a_kink():
    m = kinked_coupling_model()
    traj = flow(m, CharacteristicState(x=[0.02], u=0.05, p=[0.3]), 1.0, 1e-3)
    assert traj.us.min() < 0.0 < traj.us.max()  # u crosses the knot
    stats = dH_law_residual(m, traj)
    assert stats.kink_count == 4
    assert stats.rms_residual <= 1e-6
    assert stats.max_residual <= 1e-5
    # the exclusion does not hide wrong energies
    rng = np.random.default_rng(0)
    traj.h_values = traj.h_values + 1e-6 * rng.standard_normal(traj.h_values.shape)
    assert dH_law_residual(m, traj).rms_residual > 1e-4


def test_dH_law_without_kink_crossing_keeps_every_state():
    m = kinked_coupling_model()
    traj = flow(m, CharacteristicState(x=[0.02], u=0.2, p=[0.3]), 1.0, 1e-3)
    assert traj.us.min() > 0.0
    stats = dH_law_residual(m, traj)
    # the plain centered residual over every inner state, bit for bit
    dh = (traj.h_values[2:] - traj.h_values[:-2]) / (2.0 * traj.dt_ode)
    _, hu, _ = grad_H(m, traj.xs[1:-1].reshape(-1, 1), traj.us[1:-1].reshape(-1),
                      traj.ps[1:-1].reshape(-1, 1))
    res = dh - (-hu.reshape(-1, 1) * traj.h_values[1:-1])
    assert stats.kink_count == 0
    assert stats.rms_residual == float(np.sqrt(np.mean(res**2)))
    assert stats.max_residual == float(np.max(np.abs(res)))


def test_zero_energy_level_is_invariant():
    # start on {H = 0}: x = 1/4 kills the potential, u = -p^2/2
    m = discounted_pendulum()
    traj = flow(m, CharacteristicState(x=[0.25], u=-0.18, p=[0.6]), 2.0, 1e-3)
    assert np.max(np.abs(traj.h_values)) <= 1e-10


def test_batched_flow_stays_finite_over_long_horizon():
    m = discounted_pendulum()
    rng = np.random.default_rng(7)
    b = 64
    x = rng.uniform(0, 1, (b, 1))
    u = rng.uniform(-1, 1, b)
    p = rng.uniform(-5, 5, (b, 1))
    traj = flow(m, (x, u, p), 100.0, 1e-2)
    assert traj.us.shape[1] == b
    assert np.all(np.isfinite(traj.us))
    assert np.all(np.isfinite(traj.ps))
    # dissipation contracts the momenta toward the rest set
    assert np.max(np.abs(traj.ps[-1])) <= 1e-8


def test_flow_rejects_bad_step():
    m = discounted_pendulum()
    with pytest.raises(ValueError):
        flow(m, CharacteristicState(x=[0.1], u=0.0, p=[0.1]), 1.0, 0.0)


def formula_rhs(model, x, u, p):
    """The contact vector field from grad_H and eval_H: the reference."""
    hx, hu, hp = grad_H(model, x, u, p)
    hx = np.atleast_2d(hx)
    hp = np.atleast_2d(hp)
    hu = np.atleast_1d(hu)
    h = np.atleast_1d(eval_H(model, x, u, p))
    return hp, np.sum(hp * p, axis=1) - h, -hx - hu[:, None] * p, h


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_rhs_equals_grad_h_eval_h_formula(dim, batch):
    modes = (((1,), 1.0), ((2,), -0.4)) if dim == 1 else (
        ((1, 0), 1.0), ((0, 1), 0.5), ((1, 1), -0.3))
    pot = TrigPotential(dim, modes)
    f = PiecewiseLinearMap((-1.0, 0.0, 1.0), (-2.0, 0.0, 0.5))
    models = [
        HamiltonianModel("quadratic-mechanical", dim=dim, potential=pot),
        HamiltonianModel("quadratic-discounted", dim=dim, potential=pot, lam=1.0),
        normalized(HamiltonianModel("quadratic-nonlinear-u", dim=dim, potential=pot, f=f), 0.3),
    ]
    rng = np.random.default_rng(10 * dim + batch)
    for m in models:
        for _ in range(5):
            x = rng.uniform(0, 1, (batch, dim))
            u = rng.uniform(-1.5, 1.5, batch)
            p = rng.uniform(-3, 3, (batch, dim))
            for got, want in zip(_rhs(m, x, u, p), formula_rhs(m, x, u, p)):
                assert got.shape == want.shape
                assert np.array_equal(got, want)


def test_non_finite_stage_raises_numeric_error():
    m = discounted_pendulum()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
        flow(m, CharacteristicState(x=[0.1], u=0.0, p=[1e200]), 0.1, 0.01)


def catalog(dim, modes):
    """The three families on one potential, with nonzero normalization shifts."""
    pot = TrigPotential(dim, modes)
    f = PiecewiseLinearMap((-1.0, 0.0, 1.0), (-2.0, 0.0, 0.5))
    return [
        normalized(HamiltonianModel("quadratic-mechanical", dim=dim, potential=pot), 0.2),
        normalized(HamiltonianModel("quadratic-discounted", dim=dim, potential=pot, lam=1.0), -0.3),
        normalized(HamiltonianModel("quadratic-nonlinear-u", dim=dim, potential=pot, f=f), 0.3),
    ]


def state_and_batch_of_one(model, seed, t=1.0, dt_ode=1e-3, state_context=None):
    """Flows of one random state on floats (inside state_context) and as a batch of one."""
    rng = np.random.default_rng(seed)
    d = model.dim
    x, u, p = rng.uniform(0, 1, d), float(rng.uniform(-1, 1)), rng.uniform(-2, 2, d)
    with state_context or contextlib.nullcontext():
        one = flow(model, CharacteristicState(x=x, u=u, p=p, t=0.37), t, dt_ode)
    batch = flow(model, (x[None], [u], p[None]), t, dt_ode)
    return one, batch


@contextlib.contextmanager
def numpy_coupling_refused():
    """Inside, the model's numpy coupling and H_u raise."""
    def refuse(self, u):
        raise AssertionError("the float path called the model's numpy coupling")

    with pytest.MonkeyPatch.context() as mp:
        for name in ("coupling", "coupling_derivative"):
            mp.setattr(HamiltonianModel, name, refuse)
        yield


@pytest.mark.parametrize(
    "dim,mode",
    [(1, (1,)), (2, (1, 0)), (2, (0, 1)), (2, (1, 1)), (2, (3, 2)), (2, (2, -1))],
    ids=["1d", "2d-10", "2d-01", "2d-11", "2d-32", "2d-2m1"],
)
def test_state_flow_equals_batch_of_one(dim, mode):
    # every phase product after the first is exact, so the float path and
    # the numpy oracle agree bitwise whatever the dot's summation; the float
    # path forms the mechanical and discounted couplings itself
    second = ((2,), -0.4) if dim == 1 else ((1, 0), 0.5)
    for i, m in enumerate(catalog(dim, ((mode, 0.8), second))):
        floats = m.family in ("quadratic-mechanical", "quadratic-discounted")
        one, batch = state_and_batch_of_one(
            m, seed=10 * dim + i, state_context=numpy_coupling_refused() if floats else None)
        for name in ("xs", "us", "ps", "h_values"):
            a, b = getattr(one, name), getattr(batch, name)
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name
        assert one.times.tobytes() == (0.37 + batch.times).tobytes()


def test_state_flow_inexact_second_product_within_rounding():
    # k = (1, -5): -5*x2 rounds, and a BLAS dot may fuse it into the sum
    for i, m in enumerate(catalog(2, (((1, -5), 0.8), ((1, 0), 0.5)))):
        one, batch = state_and_batch_of_one(m, seed=i)
        for name in ("xs", "us", "ps", "h_values"):
            assert np.max(np.abs(getattr(one, name) - getattr(batch, name))) <= 1e-12


def test_state_flow_without_steps_records_the_start():
    m = catalog(2, (((1, 1), 0.8),))[2]
    one, batch = state_and_batch_of_one(m, seed=5, t=1e-4, dt_ode=1e-3)
    assert one.times.size == 1
    assert one.h_values.tobytes() == batch.h_values.tobytes()


def test_non_finite_stage_2d_raises_numeric_error():
    # the second stage moves x to inf, where math.cos raises ValueError
    m = catalog(2, (((1, 0), 1.0), ((0, 1), 0.5)))[1]
    s0 = CharacteristicState(x=[0.1, 0.2], u=0.0, p=[1e306, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        for start in (s0, (s0.x[None], [s0.u], s0.p[None])):
            with pytest.raises(NumericError, match="at step 1") as err:
                flow(m, start, 1000.0, 1000.0)
            x, u, p = err.value.last_iterate
            assert x.tobytes() == s0.x[None].tobytes()
            assert u.tobytes() == np.array([0.0]).tobytes()
            assert p.tobytes() == s0.p[None].tobytes()


def test_match_calibrated_chain_within_grid_cells():
    m = discounted_pendulum()
    sup = []
    for n, dtd in ((256, 64), (512, 128)):
        g = Grid(1, n)
        phi = GridField(g, np.zeros(n))
        kern = StepKernel(m, g, 1.0 / dtd, 4.0, "exact")
        u = march(kern, phi, 0.5)
        curve = extract_calibrated_curve(kern, u, x_end=round(0.55 * n))
        report = match_calibrated(m, curve, u, dt_ode=1.0 / (4 * dtd))
        assert report.sup_distance <= 5 * g.dx
        sup.append(report.sup_distance)
    # gap shrinks roughly linearly under joint refinement
    assert sup[1] <= 0.6 * sup[0]


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_match_calibrated_gradient_momentum_is_the_central_difference(dim, monkeypatch):
    m = HamiltonianModel("quadratic-discounted", dim=dim, lam=1.0,
                         potential=TrigPotential(dim, (((1,) * dim, 1.0),)))
    g = Grid(dim, 16)
    x = g.points()
    phi = GridField(g, 0.3 * np.sin(2 * np.pi * x[:, 0]) + 0.2 * np.cos(2 * np.pi * x[:, -1]))
    kern = StepKernel(m, g, 1.0 / 16, 4.0)
    u = march(kern, phi, 0.5)
    curve = extract_calibrated_curve(kern, u, x_end=g.size // 3)
    launched = []

    def recording_flow(model, s0, *args):
        launched.append(s0)
        return flow(model, s0, *args)

    monkeypatch.setattr(characteristics, "flow", recording_flow)
    report = match_calibrated(m, curve, u, p_source="gradient")
    # the launch slice is the first interior one; a hand-written central
    # difference of it along each axis at the launch cell
    k0, j = report.launch_index, int(curve.indices[report.launch_index])
    sl = u.values[k0]
    cell = [j // g.n ** (dim - 1 - ax) % g.n for ax in range(dim)]

    def at(ax, step):
        c = list(cell)
        c[ax] = (c[ax] + step) % g.n
        return sl[sum(ci * g.n ** (dim - 1 - i) for i, ci in enumerate(c))]

    expect = [(at(ax, 1) - at(ax, -1)) / (2 * g.dx) for ax in range(dim)]
    assert len(launched) == 1 and launched[0].p.tolist() == expect
    assert any(expect)


def test_trajectory_csv_header_and_state_access():
    m = discounted_pendulum()
    traj = flow(m, CharacteristicState(x=[0.3], u=0.1, p=[0.5]), 0.1, 0.05)
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,x,u,p,H"
    assert len(lines) == 1 + traj.times.size
    assert "np." not in buf.getvalue()
    assert traj.times[1] == pytest.approx(0.05)
