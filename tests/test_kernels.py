import tracemalloc

import numpy as np
import pytest

from oracles import gains_reference, lagrangian_values, normalized
from test_semigroup import discounted_pendulum
from weakkam.errors import ConfigurationError
from weakkam.kernels import _BLOCK_ELEMENTS, QUADRATURES, StepKernel, min_plus_product, row_path
from weakkam.models import HamiltonianModel, PiecewiseLinearMap, TrigPotential
from weakkam.torus import Grid, periodic_delta


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
    m = discounted_pendulum()
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
    m = smooth_model(grid.dim)
    kern = StepKernel(m, grid, dt, v_max, quadrature)
    _, start = gather_reference(kern)
    assert np.array_equal(kern.start_index, start)
    assert_table_is_the_reference(kern)
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


def assert_table_is_the_reference(kern):
    """base_cost, built in blocks of offsets, is the per-offset table bitwise,
    and off the row path the array-op gains are the per-offset loop's."""
    cost, start = gather_reference(kern)
    assert kern.base_cost.tobytes() == np.take_along_axis(cost, start, axis=1).tobytes()
    if not row_path(kern.grid, kern.quadrature):
        assert repr(kern._gains) == repr(gains_reference(kern))


# the benchmark's two 1-D kernels (v_max 4, "exact"): solve's and longtime's
BENCH_KERNELS = [
    (HamiltonianModel("quadratic-discounted", lam=1.0, potential=TrigPotential(1, (((1,), 1.0),))),
     Grid(1, 1024), 1 / 256),
    (HamiltonianModel("quadratic-nonlinear-u", potential=TrigPotential(1, (((1,), 1.0), ((2,), -0.4))),
                      f=PiecewiseLinearMap((-1.0, 0.0, 1.0), (-2.0, 0.0, 0.5))),
     Grid(1, 512), 1 / 32),
]


@pytest.mark.parametrize("model,grid,dt", BENCH_KERNELS, ids=["solve-1024", "longtime-512"])
def test_benchmark_tables_equal_the_per_offset_reference(model, grid, dt):
    assert_table_is_the_reference(StepKernel(model, grid, dt, 4.0, "exact"))


@pytest.mark.parametrize("quadrature", QUADRATURES)
@pytest.mark.parametrize("grid,dt,v_max", [(Grid(1, 37), 0.07, 3.0), (Grid(2, 17), 0.1, 3.0)],
                         ids=["1d37", "2d17"])
def test_rough_tables_equal_the_per_offset_reference(grid, dt, v_max, quadrature):
    # wavevectors whose products with a displacement round, so that the
    # order of every sum in V's evaluation shows in the bits
    modes = [((3,), 0.37), ((5,), -0.21)] if grid.dim == 1 else [((3, -2), 0.37), ((1, 5), -0.21)]
    model = HamiltonianModel("quadratic-mechanical", dim=grid.dim, action_shift=0.3,
                             potential=TrigPotential(grid.dim, tuple(modes)))
    assert_table_is_the_reference(StepKernel(model, grid, dt, v_max, quadrature))


def test_table_build_holds_about_one_block_beside_the_table():
    # the 129-offset, 512-point build: formed at once, its temporaries would
    # be about 8 blocks of _BLOCK_ELEMENTS floats
    model, grid, dt = BENCH_KERNELS[1]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kern = StepKernel(model, grid, dt, 4.0, "exact")  # the window path builds base_cost here
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert kern.n_offsets == 129
    assert peak - kern.base_cost.nbytes <= 2 * 8 * _BLOCK_ELEMENTS


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


def test_row_path_step_holds_at_most_six_row_stacks():
    # beside the step's input temporary, which takes the result, a row-path
    # block holds four arrays of about its padded size: the padded input, B,
    # one term buffer and the running min.  At m = 3 on 96 cells those are
    # 1.06-1.13 row stacks each, about 5.5 in all; a separate result and a
    # separate pass-2 term would add two more
    grid = Grid(2, 96)
    m = HamiltonianModel("quadratic-discounted", dim=2, lam=1.0,
                         potential=TrigPotential(2, (((1, 1), 0.7), ((2, 0), -0.4))))
    kern = StepKernel(m, grid, 1 / 64, 2.0, "left")
    rng = np.random.default_rng(96)
    w, u = rng.uniform(-1, 1, (2, 4, grid.size))
    assert kern._m == 3 and row_path(grid, "left")
    stack_bytes = w.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = kern.apply(w, u)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # rough rows: the step takes the full stencil
    assert kern.stencil_reach()["radius"] == [3, 3]
    assert got.shape == w.shape
    assert peak <= 6 * stack_bytes


@pytest.mark.parametrize("grid", [Grid(1, 17), Grid(2, 12)], ids=["1d17", "2d12"])
def test_left_column_equals_base_cost_bitwise(grid):
    # the backtrack forms a "left" kernel's cost column from V at the starts,
    # which a 2-D kernel (the row path) does without building base_cost; it
    # must be the table's column bitwise
    m = normalized(smooth_model(grid.dim), 0.3)
    kern = StepKernel(m, grid, 0.125, 2.0, "left")
    columns = [kern._column(j) for j in range(grid.size)]
    assert ("base_cost" in vars(kern)) == (grid.dim == 1)
    for j, (starts, cost) in enumerate(columns):
        assert np.array_equal(starts, kern.start_index[:, j])
        assert cost.tobytes() == kern.base_cost[:, j].tobytes()


def test_argmin_indices_reproduce_values():
    m = discounted_pendulum()
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
    m = discounted_pendulum()
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
    m = discounted_pendulum(lam=10.0)
    with pytest.raises(ConfigurationError, match="quadrature"):
        StepKernel(discounted_pendulum(), g, 0.25, 2.0, quadrature="simpson")
    with pytest.raises(ConfigurationError, match="lambda_L"):
        StepKernel(m, g, 0.25, 2.0)
    with pytest.raises(ConfigurationError):
        StepKernel(discounted_pendulum(), g, -0.1, 2.0)


def smooth_model(dim):
    modes = (((1,) * dim, 0.7), ((2,) + (0,) * (dim - 1), -0.4))
    return HamiltonianModel(
        "quadratic-discounted", dim=dim, lam=1.0, potential=TrigPotential(dim, modes)
    )


def smooth_slice(grid, amplitude=0.3, phase=0.0):
    x = grid.points()
    return amplitude * np.cos(2 * np.pi * x.sum(axis=1) + phase) + 0.1 * np.sin(2 * np.pi * x[:, 0])


def step_radius(kern, a):
    """The radius kern's step takes on the input a (start values) in the last axis."""
    shaped = kern._shaped(a)
    return kern._radius(shaped + kern._start_cost if row_path(kern.grid, kern.quadrature)
                        else shaped)


def full_stencil(monkeypatch, kern):
    """Make kern step over the whole stencil, as it did before pruning."""
    monkeypatch.setattr(kern, "_radius", lambda *args: (kern._m,) * kern.grid.dim)


REACH_CASES = [
    (Grid(1, 128), 1 / 32, 4.0, "left"),
    (Grid(1, 128), 1 / 32, 4.0, "midpoint"),
    (Grid(1, 128), 1 / 32, 4.0, "exact"),
    (Grid(2, 32), 1 / 16, 4.0, "midpoint"),  # 2-D window path
    (Grid(2, 32), 1 / 16, 4.0, "exact"),
    (Grid(2, 32), 1 / 16, 4.0, "left"),  # row path
]


@pytest.mark.parametrize(
    "grid,dt,v_max,quadrature", REACH_CASES,
    ids=["1d-left", "1d-midpoint", "1d-exact", "2d-midpoint", "2d-exact", "2d-left-rows"],
)
def test_pruned_step_equals_the_full_stencil_bitwise(monkeypatch, grid, dt, v_max, quadrature):
    # on smooth slices the radius is below m: the pruned min must be the
    # plain gather kernel's bitwise (the row path's within its rounding, and
    # bitwise the full-stencil row path)
    kern = StepKernel(smooth_model(grid.dim), grid, dt, v_max, quadrature)
    w, u = smooth_slice(grid), smooth_slice(grid, 0.2, 1.0)
    a = w + kern.step_cost(u)
    radius = step_radius(kern, a)
    assert max(radius) < kern._m
    ref, _ = gather_step(kern, a)
    got = kern.apply(w, u)
    assert kern.stencil_reach() == {"radius": list(radius), "m": kern._m, "steps": 1,
                                    "steps_at_m": 0}
    table = np.stack([smooth_slice(grid, s, s) for s in (0.1, 0.25, 0.4)])
    got_table = kern.apply_table(table, 0.3)
    ref_table, _ = gather_step(kern, table + kern.step_cost(np.full(1, 0.3))[0])
    if row_path(grid, quadrature):
        assert_row_path_matches(got, ref, False)
        assert_row_path_matches(got_table, ref_table, False)
    else:
        assert got.tobytes() == ref.tobytes()
        assert got_table.tobytes() == ref_table.tobytes()
    full_stencil(monkeypatch, kern)
    assert kern.apply(w, u).tobytes() == got.tobytes()
    assert kern.apply_table(table, 0.3).tobytes() == got_table.tobytes()


def test_row_path_pruned_step_equals_gather_bitwise_when_sums_are_exact():
    # V = 0 and dyadic values, dt and dx: every sum is exact, so the pruned
    # row path must be the gather kernel bitwise
    grid = Grid(2, 32)
    m = HamiltonianModel("quadratic-discounted", dim=2, lam=1.0, potential=TrigPotential(2, ()))
    kern = StepKernel(m, grid, 1 / 16, 4.0, "left")
    w = np.round(64 * smooth_slice(grid)) / 64
    u = np.round(64 * smooth_slice(grid, 0.2, 1.0)) / 64
    ref, _ = gather_step(kern, w + kern.step_cost(u))
    assert kern.apply(w, u).tobytes() == ref.tobytes()
    assert max(kern.stencil_reach()["radius"]) < kern._m


@pytest.mark.parametrize("grid,quadrature", [(Grid(1, 128), "exact"), (Grid(2, 32), "left"),
                                             (Grid(2, 32), "midpoint"), (Grid(2, 32), "exact")],
                         ids=["1d", "2d-rows", "2d-windows", "2d-windows-exact"])
def test_stacked_rows_equal_rows_stepped_one_at_a_time(grid, quadrature):
    # one radius serves the whole stack (the steepest row sets it); each row
    # must still be its own step bitwise, so check's battery may step its
    # probe rows one at a time and fixed_point its wavefront as one stack
    kern = StepKernel(smooth_model(grid.dim), grid, 1 / 16 if grid.dim == 2 else 1 / 32, 4.0,
                      quadrature)
    ws = np.stack([smooth_slice(grid, s, s) for s in (0.02, 0.1, 0.3)])
    us = np.stack([smooth_slice(grid, s, 2 * s) for s in (0.1, 0.2, 0.3)])
    a = ws + kern.step_cost(us)
    radii = [step_radius(kern, row) for row in a]
    assert radii[0] < radii[-1] and max(radii[-1]) < kern._m
    assert step_radius(kern, a) == tuple(map(max, zip(*radii)))
    stacked = kern.apply(ws, us)
    for i in range(ws.shape[0]):
        assert stacked[i].tobytes() == kern.apply(ws[i], us[i]).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("grid,quadrature", [(Grid(1, 64), "midpoint"), (Grid(2, 16), "left")],
                         ids=["1d", "2d-rows"])
def test_table_holding_inf_takes_the_full_stencil_without_warnings(grid, quadrature):
    kern = StepKernel(smooth_model(grid.dim), grid, 1 / 16, 4.0, quadrature)
    table = np.stack([smooth_slice(grid, s) for s in (0.1, 0.2)])
    table[1, :3] = np.inf
    got = kern.apply_table(table, 0.3)
    a = table + kern.step_cost(np.full(1, 0.3))[0]
    assert step_radius(kern, a) == (kern._m,) * grid.dim
    # stencil_reach counts apply steps only
    assert kern.stencil_reach()["steps"] == 0
    assert np.isfinite(got).all()
    ref, _ = gather_step(kern, a)
    assert_row_path_matches(got, ref, not row_path(grid, quadrature))


def test_injected_base_cost_with_negative_gains_takes_the_full_stencil():
    # a table whose cost falls outward: no radius below m is provable, and
    # the step must take its min over the injected table
    grid = Grid(1, 64)
    kern = StepKernel(smooth_model(1), grid, 1 / 16, 4.0, "exact")
    table = -np.abs(kern.offsets.astype(float)) * np.ones(grid.size)
    kern.base_cost = table
    w = smooth_slice(grid, 0.01)
    got = kern.apply(w, w)
    assert kern.stencil_reach()["radius"] == [kern._m]
    a = w + kern.step_cost(w)
    plain = np.min(a[kern.start_index] + table, axis=0)
    assert got.tobytes() == plain.tobytes()


def free_particle(grid):
    """A free particle with dx = 1/64, dt = 1/16 and m = 8: the outward gains
    are (2q - 1)/512; and each point's cell index along axis 1."""
    kern = StepKernel(HamiltonianModel("quadratic-mechanical", dim=grid.dim), grid, 1 / 16, 2.0,
                      "left")
    assert kern._m == 8
    return kern, (grid.points()[:, 0] * grid.n).round().astype(int)


def critical_ramp(grid):
    """A zigzag of slope 8/512 per cell along axis 1 on the free particle: the
    slope lies strictly between the gains of q = 4 and q = 5 and every sum
    is exact.  Rising runs are minimized at |o| = 4 = r."""
    kern, i1 = free_particle(grid)
    return kern, np.minimum(i1, grid.n - i1) / 64.0


@pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 64)], ids=["1d-windows", "2d-rows"])
def test_critical_ramp_is_minimized_at_the_radius(monkeypatch, grid):
    kern, a = critical_ramp(grid)
    zero = np.zeros(grid.size)
    got = kern.apply(a, zero)
    assert kern.stencil_reach()["radius"] == [4] + [0] * (grid.dim - 1)
    ref, arg = gather_step(kern, a + kern.step_cost(zero))
    assert got.tobytes() == ref.tobytes()
    # destinations 5..32 cells up a rising run start 4 cells back, at |o| = r
    rising = np.flatnonzero((grid.points()[:, 0] * grid.n).round() >= 5)
    rising = rising[(grid.points()[rising, 0] * grid.n).round() <= 32]
    offsets = kern.offsets[np.argmax(kern.start_index[:, rising] == arg[rising], axis=0)]
    assert np.all(offsets[:, 0] == 4) and np.all(offsets[:, 1:] == 0)
    # a radius one short of r misses those minimizers
    monkeypatch.setattr(kern, "_radius", lambda *args: (3,) + (0,) * (grid.dim - 1))
    short = kern.apply(a, zero)
    assert np.all(short[rising] > ref[rising])


@pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 64)], ids=["1d-windows", "2d-rows"])
def test_wrap_pair_counts_as_a_one_cell_change(grid):
    # a = i/512 along axis 1 changes by 1/512 per cell inside and by 63/512
    # across the wrap; destination 58 is best reached from 6 cells on, across
    # the wrap (cost 36/512 against 58/512 for staying), far beyond the
    # radius 1 that the inside changes alone would give
    kern, i1 = free_particle(grid)
    a = i1 / 512.0
    zero = np.zeros(grid.size)
    got = kern.apply(a, zero)
    assert kern.stencil_reach()["radius"][0] == kern._m
    ref, _ = gather_step(kern, a + kern.step_cost(zero))
    assert got.tobytes() == ref.tobytes()
    assert np.all(got[i1 == 58] == 36 / 512)


@pytest.mark.parametrize(
    "grid,dt,v_max,quadrature",
    [(Grid(1, 256), 1 / 64, 2.0, "exact"), (Grid(2, 32), 1 / 16, 4.0, "left")],
    ids=["1d-binding", "2d-left-rows"],
)
def test_reach_counts_row_steps_whatever_the_batching(grid, dt, v_max, quadrature):
    # one kernel stepping check's four rows (phi and the battery's three probe
    # rows) in one call and one stepping 1 + 3 rows count the same row-steps
    x = grid.points()[:, 0]
    phi = 0.5 * np.cos(2 * np.pi * x)
    psi = phi + 0.2 * np.cos(2 * np.pi * x + 1.0)
    rows = np.stack([phi, psi, np.minimum(phi, psi), np.maximum(phi, psi)])
    stacked, split = (StepKernel(smooth_model(grid.dim), grid, dt, v_max, quadrature)
                      for _ in range(2))
    for _ in range(8):
        one, three = split.apply(rows[0], rows[0]), split.apply(rows[1:], rows[1:])
        rows = stacked.apply(rows, rows)
        assert np.array_equal(np.vstack([one, three]), rows)
    # each row counts at m by its own radius, though a stack steps at its
    # rows' largest
    reach, apart = stacked.stencil_reach(), split.stencil_reach()
    assert reach["steps"] == apart["steps"] == 4 * 8
    assert reach["radius"] == apart["radius"]
    assert 0 < apart["steps_at_m"] == reach["steps_at_m"]


@pytest.mark.parametrize("v_max,m,radius,steps_at_m", [(2.0, 8, 8, 11), (4.0, 16, 13, 0)])
def test_march_reach_shows_a_binding_v_max(v_max, m, radius, steps_at_m):
    # 1-D discounted, V = cos 2 pi x, phi = 0.5 cos 2 pi x: v_max 2 binds at
    # 11 of 64 steps, v_max 4 never
    grid = Grid(1, 256)
    model = HamiltonianModel(
        "quadratic-discounted", lam=1.0, potential=TrigPotential(1, (((1,), 1.0),)))
    kern = StepKernel(model, grid, 1 / 64, v_max, "exact")
    u = 0.5 * np.cos(2 * np.pi * grid.points()[:, 0])
    for _ in range(64):
        u = kern.apply(u, u)
    assert kern.stencil_reach() == {"radius": [radius], "m": m, "steps": 64,
                                    "steps_at_m": steps_at_m}
