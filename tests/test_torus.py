import numpy as np
import pytest

from weakkam.cli import _field_csv
from weakkam.errors import ConfigurationError
from weakkam.torus import (
    Grid,
    GridField,
    SpaceTimeField,
    csv_float,
    interp_periodic,
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


def test_grid_points_and_index_coords_agree():
    for dim in (1, 2):
        g = Grid(dim, 8)
        pts = g.points()
        assert pts.shape == (g.size, dim)
        assert np.allclose(g.index_coords(np.arange(g.size)), pts)


def test_shift_indices_inverts_offset_1d():
    g = Grid(1, 8)
    idx = g.shift_indices(3)
    pts = g.points()
    # x_idx[j] must equal x_j - 3*dx periodically
    assert np.allclose(wrap(pts[idx, 0]), wrap(pts[:, 0] - 3 * g.dx))


def test_shift_indices_inverts_offset_2d():
    g = Grid(2, 4)
    idx = g.shift_indices((1, -2))
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


def test_gridfield_shape_and_finiteness():
    g = Grid(1, 8)
    with pytest.raises(ConfigurationError):
        GridField(g, np.zeros(5))
    with pytest.raises(ValueError):
        GridField(g, np.full(8, np.nan))


def test_lipschitz_seminorm_linear_sawtooth():
    g = Grid(1, 16)
    x = g.points()[:, 0]
    f = GridField(g, np.minimum(x, 1 - x))
    assert f.lipschitz_seminorm() == pytest.approx(1.0)


def test_interp_periodic_exact_on_nodes_and_linear():
    g = Grid(1, 16)
    x = g.points()[:, 0]
    vals = np.sin(2 * np.pi * x)
    assert np.allclose(interp_periodic(g, vals, x[:, None]), vals)
    # halfway between nodes: average of neighbors
    mid = (x + 0.5 * g.dx)[:, None]
    assert np.allclose(interp_periodic(g, vals, mid), 0.5 * (vals + np.roll(vals, -1)))


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


@pytest.mark.parametrize("dim,n", [(1, 6), (2, 3)], ids=["1d", "2d"])
def test_csv_writers_match_per_value_writers(dim, n):
    g = Grid(dim, n)
    special = [-0.0, 5e-324, 1e22, 1 / 3]
    vals = np.random.default_rng(n).uniform(-1, 1, (3, g.size))
    vals[0, : len(special)] = special
    vals[2, -len(special):] = special
    f = SpaceTimeField(g, 0.1, vals)
    assert f.to_csv() == per_value_slab_csv(f)
    for k in (0, 2):
        assert _field_csv(f.slice(k)) == per_value_field_csv(f.slice(k))
