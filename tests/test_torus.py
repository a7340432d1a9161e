import io

import numpy as np
import pytest

from oracles import interp_periodic, lipschitz_seminorm
from weakkam.action import ActionTable
from weakkam.characteristics import Trajectory
from weakkam.errors import ConfigurationError
from weakkam.kernels import StepKernel
from weakkam.models import HamiltonianModel
from weakkam.semigroup import ConvergenceReport
from weakkam.torus import (
    Grid,
    GridField,
    SpaceTimeField,
    csv_float,
    periodic_delta,
    periodic_distance,
    stencil_offsets,
    wrap,
)


def test_wrap_into_fundamental_domain():
    assert np.allclose(wrap([1.25, -0.25, 0.5]), [0.25, 0.75, 0.5])


def test_periodic_delta_minimal_representative():
    assert periodic_delta(0.9, 0.1) == pytest.approx(0.2)
    assert periodic_delta(0.1, 0.9) == pytest.approx(-0.2)
    d = periodic_delta([0.9, 0.1], [0.1, 0.2])
    assert np.allclose(d, [0.2, 0.1])


def test_periodic_distance_bounded_by_half_diagonal():
    rng = np.random.default_rng(0)
    a = rng.uniform(0, 1, (100, 2))
    b = rng.uniform(0, 1, (100, 2))
    d = periodic_distance(a, b)
    assert np.all(d <= np.sqrt(2) / 2 + 1e-15)
    assert np.all(d >= 0)


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        Grid(3, 8)
    with pytest.raises(ConfigurationError):
        Grid(1, 1)


def test_grid_points_are_row_major():
    # flat index j of a 2-D grid is the cell (j // n, j % n)
    for dim in (1, 2):
        g = Grid(dim, 8)
        pts = g.points()
        assert pts.shape == (g.size, dim)
        j = np.arange(g.size)
        cells = j[:, None] if dim == 1 else np.stack([j // g.n, j % g.n], axis=-1)
        assert np.allclose(cells / g.n, pts)


def start_of(g, offset):
    """StepKernel._start_of over every destination, for one cell offset."""
    kern = StepKernel(HamiltonianModel("quadratic-mechanical", dim=g.dim), g, 0.5, 2.0 * g.n)
    k = int(np.flatnonzero(np.all(kern.offsets == offset, axis=1))[0])
    return kern._start_of(k, np.arange(g.size))


def test_start_of_inverts_offset_1d():
    g = Grid(1, 8)
    idx = start_of(g, 3)
    pts = g.points()
    # x_idx[j] must equal x_j - 3*dx periodically
    assert np.allclose(wrap(pts[idx, 0]), wrap(pts[:, 0] - 3 * g.dx))


def test_start_of_inverts_offset_2d():
    g = Grid(2, 4)
    idx = start_of(g, (1, -2))
    pts = g.points()
    expect = wrap(pts - np.array([1, -2]) * g.dx)
    assert np.allclose(wrap(pts[idx]), expect)


def test_stencil_empty_raises():
    g = Grid(1, 16)
    with pytest.raises(ConfigurationError, match="empty stencil"):
        stencil_offsets(g, v_max=0.1, dt=0.1)


def test_stencil_contains_zero_and_is_symmetric():
    g = Grid(1, 32)
    offs = stencil_offsets(g, 2.0, 0.25)
    assert (offs == 0).any()
    assert set(offs[:, 0]) == set(-offs[:, 0])
    g2 = Grid(2, 32)
    offs2 = stencil_offsets(g2, 2.0, 0.25)
    # ball filter: no corner offsets beyond the radius
    assert np.all(np.sum(offs2**2, axis=1) <= (2.0 * 0.25 / g2.dx + 1e-9) ** 2)


def test_stencil_of_a_reach_past_the_float_range_is_the_whole_clamped_lattice():
    # a reach v_max*dt/dx of 1e300 (its square overflows) or past the float
    # range keeps every offset within n//2 cells per axis, as a reach >= n does
    for g in (Grid(1, 16), Grid(2, 16)):
        whole = stencil_offsets(g, 64.0, 0.25)
        assert len(whole) == 17**g.dim
        for v_max, dt in [(1e300, 1 / 16), (1e308, 1 / 16), (1e308, 0.5)]:
            assert stencil_offsets(g, v_max, dt).tobytes() == whole.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("v_max, dt", [(2.0, 0.25), (4.0, 1 / 16), (64.0, 0.25), (1e308, 0.5)],
                         ids=["ball", "small", "clamped", "clamped-past-float-range"])
def test_stencil_offsets_are_in_lexicographic_order(dim, v_max, dt):
    # the kernel's candidate scan order is this order; it is not re-sorted
    offs = stencil_offsets(Grid(dim, 16), v_max, dt)
    assert offs.tobytes() == offs[np.lexsort(offs.T[::-1])].tobytes()
    assert len({tuple(o) for o in offs.tolist()}) == len(offs)


def test_gridfield_shape_and_finiteness():
    g = Grid(1, 8)
    with pytest.raises(ConfigurationError):
        GridField(g, np.zeros(5))
    with pytest.raises(ValueError):
        GridField(g, np.full(8, np.nan))


def cell_neighbour(g, j, ax, step):
    """Flat index of the cell step cells from flat cell j along axis ax, periodically."""
    cell = [j // g.n ** (g.dim - 1 - i) % g.n for i in range(g.dim)]
    cell[ax] = (cell[ax] + step) % g.n
    return sum(c * g.n ** (g.dim - 1 - i) for i, c in enumerate(cell))


def roll_seminorm(f: GridField) -> float:
    """The max forward difference quotient with each axis' neighbours from np.roll."""
    sh = f.values.reshape((f.grid.n,) * f.grid.dim)
    return max(float(np.max(np.abs(np.roll(sh, -1, axis=ax) - sh) / f.grid.dx))
               for ax in range(f.grid.dim))


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_lipschitz_seminorm_equals_the_roll_form(dim):
    # the max is divided once instead of each quotient: bit for bit the same
    rng = np.random.default_rng(dim)
    for n in (2, 3, 17, 96):
        g = Grid(dim, n)
        for scale in (1e-300, 1.0, 1e3, 1e307):
            f = GridField(g, scale * rng.standard_normal(g.size))
            with np.errstate(over="ignore"):  # 1e307-sized neighbours overflow to inf
                assert lipschitz_seminorm(f) == roll_seminorm(f)
        ramp = GridField(g, np.arange(g.size) / 7.0)  # the largest step is a wrap pair
        assert lipschitz_seminorm(ramp) == roll_seminorm(ramp)
        # inf at both ends of an axis: the inner steps are inf, the wrap pair
        # NaN.  The constructor refuses inf, so the values are written after it
        ends = np.zeros((n,) * dim)
        ends[0], ends[-1] = np.inf, np.inf
        f = GridField(g, np.zeros(g.size))
        f.values[:] = ends.reshape(-1)
        with np.errstate(invalid="ignore"):
            assert np.isnan(lipschitz_seminorm(f)) and np.isnan(roll_seminorm(f))


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_lipschitz_seminorm_linear_sawtooth(dim):
    g = Grid(dim, 16)
    x = g.points()
    f = GridField(g, np.minimum(x[:, 0], 1 - x[:, 0]) + 0.5 * np.sin(2 * np.pi * x[:, -1]))
    # per-value reference: the largest forward difference quotient over every cell and axis
    ref = max(abs(f.values[cell_neighbour(g, j, ax, 1)] - f.values[j]) / g.dx
              for j in range(g.size) for ax in range(dim))
    assert lipschitz_seminorm(f) == ref
    if dim == 1:  # the sawtooth alone has slope 1
        saw = GridField(g, np.minimum(x[:, 0], 1 - x[:, 0]))
        assert lipschitz_seminorm(saw) == pytest.approx(1.0)


def bilinear_reference(g, vals, p):
    """Periodic (bi)linear interpolation at one point p, written out term by term."""
    s = (np.asarray(p) % 1.0) * g.n
    i0 = np.floor(s).astype(int) % g.n
    f = s - np.floor(s)
    v = vals.reshape((g.n,) * g.dim)
    if g.dim == 1:
        return v[i0[0]] * (1 - f[0]) + v[(i0[0] + 1) % g.n] * f[0]
    j0, k0 = i0
    j1, k1 = (j0 + 1) % g.n, (k0 + 1) % g.n
    return (v[j0, k0] * (1 - f[0]) * (1 - f[1]) + v[j1, k0] * f[0] * (1 - f[1])
            + v[j0, k1] * (1 - f[0]) * f[1] + v[j1, k1] * f[0] * f[1])


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_interp_periodic_exact_on_nodes_and_linear(dim):
    g = Grid(dim, 16)
    pts = g.points()
    vals = np.sin(2 * np.pi * pts[:, 0]) + 0.3 * np.cos(2 * np.pi * pts[:, -1])
    assert np.allclose(interp_periodic(g, vals, pts), vals)
    # halfway between nodes along axis 0: average of the two neighbors
    mid = pts + 0.5 * g.dx * (np.arange(dim) == 0)
    up = np.roll(vals.reshape((g.n,) * dim), -1, axis=0).ravel()
    assert np.allclose(interp_periodic(g, vals, mid), 0.5 * (vals + up))
    x = np.random.default_rng(3).uniform(-1.5, 2.5, size=(200, dim))
    got = interp_periodic(g, vals, x)
    assert got.tolist() == [bilinear_reference(g, vals, p) for p in x]


def test_spacetime_csv_roundtrip_header():
    g = Grid(1, 4)
    f = SpaceTimeField(g, 0.5, np.arange(8.0).reshape(2, 4))
    lines = f.to_csv().strip().split("\n")
    assert lines[0] == "k,t,j,x,u"
    assert len(lines) == 1 + 2 * 4
    assert lines[1] == "0,0.0,0,0.0,0.0"


def per_value_slab_csv(f):
    """The per-value slab writer the fast one replaced, kept as its reference."""
    pts = f.grid.points()
    if f.grid.dim == 1:
        out = "k,t,j,x,u\n"
        for k in range(f.values.shape[0]):
            t = csv_float(k * f.dt)
            for j in range(f.grid.size):
                out += f"{k},{t},{j},{csv_float(pts[j, 0])},{csv_float(f.values[k, j])}\n"
        return out
    out = "k,t,j,x1,x2,u\n"
    for k in range(f.values.shape[0]):
        t = csv_float(k * f.dt)
        for j in range(f.grid.size):
            out += (
                f"{k},{t},{j},{csv_float(pts[j, 0])},{csv_float(pts[j, 1])},"
                f"{csv_float(f.values[k, j])}\n"
            )
    return out


def per_value_field_csv(f):
    """The per-value field writer (cli u_inf.csv) the fast one replaced."""
    pts = f.grid.points()
    if f.grid.dim == 1:
        out = "j,x,u\n"
        for j in range(f.grid.size):
            out += f"{j},{csv_float(pts[j, 0])},{csv_float(f.values[j])}\n"
        return out
    out = "j,x1,x2,u\n"
    for j in range(f.grid.size):
        out += f"{j},{csv_float(pts[j, 0])},{csv_float(pts[j, 1])},{csv_float(f.values[j])}\n"
    return out


def per_value_action_csv(table):
    """The per-value action table writer the streamed one replaced."""
    pts = table.kern.grid.points()
    out = "i,j,x_i,x_j,h\n" if pts.shape[1] == 1 else "i,j,xi1,xi2,xj1,xj2,h\n"
    for i in range(len(pts)):
        ci = ",".join(csv_float(c) for c in pts[i])
        for j in range(len(pts)):
            cj = ",".join(csv_float(c) for c in pts[j])
            out += f"{i},{j},{ci},{cj},{csv_float(table.values[i, j])}\n"
    return out


def per_value_convergence_csv(rep):
    """The per-value convergence history writer the streamed one replaced."""
    out = "t,increment\n"
    for t, inc in zip(rep.step_times, rep.step_increments):
        out += f"{csv_float(t)},{csv_float(inc)}\n"
    return out


def per_value_trajectory_csv(traj):
    """The per-value trajectory writer the streamed one replaced."""
    d = traj.xs.shape[1]
    xcols = ",".join(f"x{i+1}" for i in range(d)) if d > 1 else "x"
    pcols = ",".join(f"p{i+1}" for i in range(d)) if d > 1 else "p"
    out = f"t,{xcols},u,{pcols},H\n"
    for k in range(traj.times.size):
        xs = ",".join(csv_float(v) for v in traj.xs[k])
        ps = ",".join(csv_float(v) for v in traj.ps[k])
        out += (
            f"{csv_float(traj.times[k])},{xs},{csv_float(traj.us[k])},{ps},"
            f"{csv_float(traj.h_values[k])}\n"
        )
    return out


def written(obj, tmp_path):
    """The text obj.write_csv writes to a StringIO, and the bytes it writes to a file."""
    buf = io.StringIO()
    obj.write_csv(buf)
    path = tmp_path / "out.csv"
    with open(path, "w") as fh:
        obj.write_csv(fh)
    return buf.getvalue(), path.read_bytes()


@pytest.mark.parametrize("dim,n", [(1, 6), (2, 3)], ids=["1d", "2d"])
def test_csv_writers_match_per_value_writers(dim, n, tmp_path):
    g = Grid(dim, n)
    special = [-0.0, 5e-324, 1e22, 1 / 3]
    rng = np.random.default_rng(n)
    vals = rng.uniform(-1, 1, (3, g.size))
    vals[0, : len(special)] = special
    vals[2, -len(special):] = special
    f = SpaceTimeField(g, 0.1, vals)
    ref = per_value_slab_csv(f)
    assert f.to_csv() == ref
    assert written(f, tmp_path) == (ref, ref.encode())
    for k in (0, 2):
        ref = per_value_field_csv(f.slice(k))
        assert written(f.slice(k), tmp_path) == (ref, ref.encode())

    h = rng.uniform(-1, 1, (g.size, g.size))
    h[0, : len(special)] = special
    h[-1, -len(special):] = special
    kern = StepKernel(HamiltonianModel("quadratic-mechanical", dim=dim), g, 0.1, 4.0)
    table = ActionTable(kern, 0.0, 0.1, h)
    ref = per_value_action_csv(table)
    assert written(table, tmp_path) == (ref, ref.encode())

    times = 0.1 * np.arange(7)
    incs = rng.uniform(0, 1, 7)
    incs[: len(special)] = special
    for m in (7, 0):  # a report with no steps writes the header alone
        rep = ConvergenceReport(times[:m], incs[:m], [], [], None, False, None)
        ref = per_value_convergence_csv(rep)
        assert written(rep, tmp_path) == (ref, ref.encode())

    xs = rng.uniform(0, 1, (5, dim))
    ps = rng.uniform(-1, 1, (5, dim))
    us, hs = rng.uniform(-1, 1, (2, 5))
    xs[1, 0], ps[2, -1], us[3], hs[4] = special
    traj = Trajectory(0.1, 0.1 * np.arange(5), xs, us, ps, hs)
    ref = per_value_trajectory_csv(traj)
    assert written(traj, tmp_path) == (ref, ref.encode())
