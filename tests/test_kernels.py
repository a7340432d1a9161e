import numpy as np
import pytest

from weakkam.errors import ConfigurationError
from weakkam.kernels import StepKernel, min_plus_product
from weakkam.models import HamiltonianModel, TrigPotential, lagrangian_values
from weakkam.torus import Grid, periodic_delta


def pendulum(lam=1.0):
    return HamiltonianModel(
        "quadratic-discounted", lam=lam, potential=TrigPotential(1, (((1,), 1.0),))
    )


def brute_step(model, grid, dt, v_max, w, u_slice):
    pts = grid.points()
    out = np.full(grid.size, np.inf)
    for j in range(grid.size):
        for y in range(grid.size):
            d = periodic_delta(pts[y], pts[j])
            v = d / dt
            if np.linalg.norm(v) > v_max + 1e-12:
                continue
            cost = w[y] + dt * float(
                lagrangian_values(model, pts[y][None, :], u_slice[y:y + 1], v[None, :])[0]
            )
            out[j] = min(out[j], cost)
    return out


def test_apply_matches_brute_force_1d():
    m = pendulum()
    g = Grid(1, 16)
    dt, v_max = 0.25, 2.0
    kern = StepKernel(m, g, dt, v_max)
    rng = np.random.default_rng(0)
    w = rng.uniform(-1, 1, g.size)
    u = rng.uniform(-1, 1, g.size)
    assert np.allclose(kern.apply(w, u), brute_step(m, g, dt, v_max, w, u), atol=1e-12)


def test_apply_matches_brute_force_2d():
    m = HamiltonianModel(
        "quadratic-mechanical", dim=2,
        potential=TrigPotential(2, (((1, 0), 0.4), ((0, 1), 0.3))),
    )
    g = Grid(2, 8)
    dt, v_max = 0.25, 1.5
    kern = StepKernel(m, g, dt, v_max)
    rng = np.random.default_rng(1)
    w = rng.uniform(-1, 1, g.size)
    u = np.zeros(g.size)
    assert np.allclose(kern.apply(w, u), brute_step(m, g, dt, v_max, w, u), atol=1e-12)


def shifted_indices(grid, offset):
    """Flat index of x_j - offset*dx for every j: the grid's indices rolled by offset."""
    idx = np.arange(grid.size).reshape((grid.n,) * grid.dim)
    return np.roll(idx, tuple(offset), axis=tuple(range(grid.dim))).ravel()


def gather_reference(kern):
    """The plain kernel's tables: costs indexed by start point, start index maps."""
    model, grid, dt = kern.model, kern.grid, kern.dt
    pts = grid.points()
    disp = kern.offsets.astype(float) * grid.dx
    kinetic = 0.5 * np.sum((disp / dt) ** 2, axis=1)
    cost = np.empty((kern.n_offsets, grid.size))
    start = np.empty((kern.n_offsets, grid.size), dtype=np.intp)
    for k in range(kern.n_offsets):
        start[k] = shifted_indices(grid, kern.offsets[k])
        if kern.quadrature == "left":
            vterm = model.potential(pts)
        elif kern.quadrature == "midpoint":
            vterm = model.potential(pts + 0.5 * disp[k])
        else:
            vterm = model.potential.segment_average(pts, np.broadcast_to(disp[k], pts.shape))
        cost[k] = dt * (kinetic[k] - vterm + model.action_shift)
    return cost, start


def gather_step(kern, a):
    """min over offsets of take(a + cost[k], start[k]) along the last axis, with argmins."""
    cost, start = gather_reference(kern)
    cand = np.stack([np.take(a + cost[k], start[k], axis=-1) for k in range(kern.n_offsets)])
    vals = cand[0].copy()
    for k in range(1, kern.n_offsets):
        np.minimum(vals, cand[k], out=vals)
    starts = start.reshape((kern.n_offsets,) + (1,) * (a.ndim - 1) + (-1,))
    arg = np.min(np.where(cand <= vals, starts, kern.grid.size), axis=0)
    return vals, arg


ORACLE_CASES = [
    (Grid(1, 16), 0.125, 2.0),
    (Grid(1, 17), 0.125, 2.0),
    (Grid(2, 24), 0.125, 2.0),
    (Grid(2, 8), 0.25, 100.0),  # stencil clipped at m = n // 2
]


@pytest.mark.parametrize("quadrature", ["left", "midpoint", "exact"])
@pytest.mark.parametrize(
    "grid,dt,v_max", ORACLE_CASES, ids=["1d16", "1d17", "2d24", "2d8-clipped"]
)
def test_window_kernel_equals_gather_reference(grid, dt, v_max, quadrature):
    # the padded-window kernel must reproduce the plain gather kernel bitwise;
    # 2-D "left" apply and apply_table take the row path, tested below
    modes = (((1,) * grid.dim, 0.7), ((2,) + (0,) * (grid.dim - 1), -0.4))
    m = HamiltonianModel(
        "quadratic-discounted", dim=grid.dim, lam=1.0, potential=TrigPotential(grid.dim, modes)
    )
    kern = StepKernel(m, grid, dt, v_max, quadrature)
    _, start = gather_reference(kern)
    assert np.array_equal(kern.start_index, start)
    rng = np.random.default_rng(grid.size)
    w = rng.uniform(-1, 1, grid.size)
    u = rng.uniform(-1, 1, grid.size)
    ref_vals, ref_arg = gather_step(kern, w + kern.step_cost(u))
    vals, arg = kern.apply_with_argmin(w, u)
    assert vals.tobytes() == ref_vals.tobytes()
    assert np.array_equal(arg, ref_arg)
    if grid.dim == 2 and quadrature == "left":
        return
    assert kern.apply(w, u).tobytes() == ref_vals.tobytes()
    table = rng.uniform(-1, 1, (7, grid.size))
    table[2, 3] = np.inf
    ref_table, _ = gather_step(kern, table + kern.step_cost(np.full(1, 0.3))[0])
    assert kern.apply_table(table, 0.3).tobytes() == ref_table.tobytes()


def assert_row_path_matches(got, ref, exact):
    """Bitwise if every sum is exact, else within 4 ULP of max|ref|."""
    if exact:
        assert got.tobytes() == ref.tobytes()
    else:
        assert np.max(np.abs(got - ref)) <= 4 * np.spacing(np.max(np.abs(ref)))


ROW_CASES = [
    (Grid(2, 24), 0.125, 2.0, False),
    (Grid(2, 8), 0.25, 100.0, False),  # stencil clipped at m = n // 2
    (Grid(2, 17), 0.125, 2.0, False),
    (Grid(2, 7), 0.25, 100.0, False),  # odd n, clipped
    (Grid(2, 16), 0.125, 2.0, True),
    (Grid(2, 8), 0.25, 100.0, True),
]


@pytest.mark.parametrize(
    "grid,dt,v_max,exact",
    ROW_CASES,
    ids=["2d24", "2d8-clipped", "2d17", "2d7-clipped", "2d16-dyadic", "2d8-clipped-dyadic"],
)
def test_row_path_equals_window_oracle(grid, dt, v_max, exact):
    # 2-D "left": the row path must take the min over the gather kernel's
    # candidates; with V = 0 and dyadic w, u, dt, dx every sum is exact
    rng = np.random.default_rng(grid.size)
    if exact:
        modes = ()

        def draw(shape):
            return rng.integers(-64, 65, shape) / 64.0
    else:
        modes = (((1, 1), 0.7), ((2, 0), -0.4), ((0, 1), 0.3))

        def draw(shape):
            return rng.uniform(-1, 1, shape)
    m = HamiltonianModel(
        "quadratic-discounted", dim=2, lam=1.0, potential=TrigPotential(2, modes)
    )
    kern = StepKernel(m, grid, dt, v_max, "left")
    w, u = draw(grid.size), draw(grid.size)
    ref, _ = gather_step(kern, w + kern.step_cost(u))
    assert_row_path_matches(kern.apply(w, u), ref, exact)
    # stacked rows, more than one block of them: each row as its own call
    ws, us = draw((300, grid.size)), draw((300, grid.size))
    stacked = kern.apply(ws, us)
    for i in range(ws.shape[0]):
        assert stacked[i].tobytes() == kern.apply(ws[i], us[i]).tobytes()
    table = draw((7, grid.size))
    table[2, 3] = np.inf
    ref_table, _ = gather_step(kern, table + kern.step_cost(np.full(1, 0.25))[0])
    got = kern.apply_table(table, 0.25)
    assert_row_path_matches(got, ref_table, exact)
    for i in range(table.shape[0]):
        assert got[i].tobytes() == kern.apply(table[i], np.full(grid.size, 0.25)).tobytes()


@pytest.mark.parametrize("grid", [Grid(1, 17), Grid(2, 12)], ids=["1d17", "2d12"])
def test_left_column_equals_base_cost_bitwise(grid):
    # the backtrack forms a "left" kernel's cost column from V at the starts,
    # which a 2-D kernel (the row path) does without building base_cost; it
    # must be the table's column bitwise
    modes = (((1,) * grid.dim, 0.7), ((2,) + (0,) * (grid.dim - 1), -0.4))
    m = HamiltonianModel(
        "quadratic-discounted", dim=grid.dim, lam=1.0, potential=TrigPotential(grid.dim, modes)
    ).normalized(0.3)
    kern = StepKernel(m, grid, 0.125, 2.0, "left")
    columns = [kern._column(j) for j in range(grid.size)]
    assert ("base_cost" in vars(kern)) == (grid.dim == 1)
    for j, (starts, cost) in enumerate(columns):
        assert np.array_equal(starts, kern.start_index[:, j])
        assert cost.tobytes() == kern.base_cost[:, j].tobytes()


def test_argmin_indices_reproduce_values():
    m = pendulum()
    g = Grid(1, 32)
    kern = StepKernel(m, g, 0.25, 2.0)
    rng = np.random.default_rng(2)
    w = rng.uniform(-1, 1, g.size)
    u = rng.uniform(-1, 1, g.size)
    vals, arg = kern.apply_with_argmin(w, u)
    assert np.array_equal(vals, kern.apply(w, u))
    # the reported start index must realize the minimum
    a = w + kern.step_cost(u)
    for j in range(g.size):
        realized = np.inf
        for k in range(kern.n_offsets):
            if kern.start_index[k, j] == arg[j]:
                realized = min(realized, a[arg[j]] + kern.base_cost[k, j])
        assert realized == pytest.approx(vals[j], abs=1e-14)


def test_argmin_tie_break_is_smallest_index():
    # free particle from a constant slice: every admissible start ties,
    # so the reported minimizer must be the smallest grid index
    m = HamiltonianModel("quadratic-mechanical", dim=1)
    g = Grid(1, 16)
    kern = StepKernel(m, g, 0.25, 0.5)
    w = np.zeros(g.size)
    base = kern.base_cost.min(axis=0)
    assert np.allclose(base, base[0])  # stationary transition is admissible
    _, arg = kern.apply_with_argmin(w, w)
    for j in range(g.size):
        candidates = kern.start_index[:, j][
            np.isclose(kern.base_cost[:, j], kern.base_cost[:, j].min())
        ]
        assert arg[j] == candidates.min()


def test_apply_table_consistent_with_apply():
    m = pendulum()
    g = Grid(1, 24)
    kern = StepKernel(m, g, 0.25, 2.0)
    rng = np.random.default_rng(3)
    w = rng.uniform(-1, 1, (g.size, g.size))
    a_level = 0.3
    stepped = kern.apply_table(w, a_level)
    for i in (0, 5, 17):
        row = kern.apply(w[i], np.full(g.size, a_level))
        assert np.allclose(stepped[i], row, atol=1e-14)


def test_min_plus_product_small_case():
    a = np.array([[0.0, 1.0], [2.0, 0.5]])
    b = np.array([[0.2, 3.0], [1.0, 0.0]])
    out = min_plus_product(a, b)
    expect = np.array(
        [[min(0.2, 2.0), min(3.0, 1.0)], [min(2.2, 1.5), min(5.0, 0.5)]]
    )
    assert np.allclose(out, expect)


def test_kernel_validation():
    g = Grid(1, 16)
    m = pendulum(lam=10.0)
    with pytest.raises(ConfigurationError, match="quadrature"):
        StepKernel(pendulum(), g, 0.25, 2.0, quadrature="simpson")
    with pytest.raises(ConfigurationError, match="lambda_L"):
        StepKernel(m, g, 0.25, 2.0)
    with pytest.raises(ConfigurationError):
        StepKernel(pendulum(), g, -0.1, 2.0)
