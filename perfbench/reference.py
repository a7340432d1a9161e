"""Reference computations the benchmark checks weakkam's outputs against.

Nothing here imports weakkam.  The discrete problem is rebuilt from the
same config mapping the benchmark writes for the CLI:

- ``Stepper`` is one dynamic-programming step written as a min over
  periodic rolls of the value slice, with the potential integrated along
  each segment in closed form (exact quadrature) or read at the start
  point (left quadrature);
- ``march`` is the forward recursion u[n+1] = step(u[n], u[n]), which is
  the fixed point of the path-infimum operator because the candidate
  enters a step only through its start slice;
- ``exact_critical_value`` is the minimum cycle mean of the DP graph at a
  frozen u-level, in closed form where a short proof shows the best cycle
  is a self-loop;
- ``constant_bounds`` are the levels of the constant sub- and
  super-solutions that bracket the long-time limit;
- the CSV readers check the output format: header, row count, exact
  index and coordinate columns, and shortest round-trip floats.

Every check raises ``CheckFailed`` with a message naming what differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class CheckFailed(Exception):
    """An output of weakkam disagrees with the reference."""


@dataclass(frozen=True)
class Problem:
    """The discrete problem a config describes (action shift 0)."""

    dim: int
    n: int
    dt: float
    v_max: float
    quadrature: str
    potential: tuple  # ((k_tuple, amplitude), ...)
    family: str
    lam: float = 0.0
    knots_u: tuple = ()
    knots_f: tuple = ()

    @classmethod
    def from_config(cls, cfg: dict) -> "Problem":
        model, grid, solver = cfg["model"], cfg["grid"], cfg.get("solver", {})
        dim = model.get("dim", 1)
        f = model.get("f", {})
        return cls(
            dim=dim,
            n=grid["N"],
            dt=float(grid["dt"]),
            v_max=float(grid["v_max"]),
            quadrature=solver.get("quadrature", "left"),
            potential=modes(model.get("potential", []), dim),
            family=model["family"],
            lam=float(model.get("lambda", 0.0)),
            knots_u=tuple(float(v) for v in f.get("knots_u", ())),
            knots_f=tuple(float(v) for v in f.get("knots_f", ())),
        )

    @property
    def dx(self) -> float:
        return 1.0 / self.n

    def points(self) -> np.ndarray:
        """Grid coordinates, shape (n,)*dim + (dim,), first axis slowest."""
        axis = np.arange(self.n) / self.n
        return np.stack(np.meshgrid(*([axis] * self.dim), indexing="ij"), axis=-1)

    def coupling(self, u):
        u = np.asarray(u, dtype=float)
        if self.family == "quadratic-mechanical":
            return np.zeros_like(u)
        if self.family == "quadratic-discounted":
            return self.lam * u
        return _piecewise_linear(self.knots_u, self.knots_f, u)

    def coupling_inverse(self, y: float) -> float:
        """The level k with coupling(k) = y, for a strictly increasing coupling."""
        if self.family == "quadratic-discounted" and self.lam > 0:
            return y / self.lam
        if self.family == "quadratic-nonlinear-u" and np.all(np.diff(self.knots_f) > 0):
            return float(_piecewise_linear(self.knots_f, self.knots_u, np.float64(y)))
        raise ValueError(f"coupling of {self.family} is not strictly increasing")

    def offsets(self) -> list:
        """Integer cell offsets o with |o|*dx <= v_max*dt (|o_i| <= N/2)."""
        reach = self.v_max * self.dt / self.dx + 1e-12
        m = min(int(np.floor(reach)), self.n // 2)
        rng = range(-m, m + 1)
        if self.dim == 1:
            return [(o,) for o in rng]
        return [(o1, o2) for o1 in rng for o2 in rng if o1 * o1 + o2 * o2 <= reach * reach]


def modes(raw, dim) -> tuple:
    """[[k..., amplitude], ...] as ((k_tuple, amplitude), ...)."""
    return tuple((tuple(int(k) for k in e[:dim]), float(e[dim])) for e in raw)


def _piecewise_linear(xs, ys, x):
    """Interpolation through (xs, ys), extended linearly with the end slopes."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    lo = ys[0] + (ys[1] - ys[0]) / (xs[1] - xs[0]) * (x - xs[0])
    hi = ys[-1] + (ys[-1] - ys[-2]) / (xs[-1] - xs[-2]) * (x - xs[-1])
    return np.where(x < xs[0], lo, np.where(x > xs[-1], hi, np.interp(x, xs, ys)))


def trig(pot, x) -> np.ndarray:
    """sum_m a_m cos(2 pi k_m . x) over the last axis of x."""
    out = np.zeros(x.shape[:-1])
    for k, a in pot:
        out += a * np.cos(2.0 * np.pi * (x @ np.asarray(k, dtype=float)))
    return out


def segment_average(pot, y, d) -> np.ndarray:
    """Mean of the potential along y + s*d, s in [0, 1]:
    cos(2 pi k.(y + d/2)) * sinc(k.d) per mode."""
    out = np.zeros(y.shape[:-1])
    for k, a in pot:
        kv = np.asarray(k, dtype=float)
        kd = float(np.dot(d, kv))
        out += a * np.cos(2.0 * np.pi * (y @ kv + 0.5 * kd)) * np.sinc(kd)
    return out


def sup_bound(pot, dim) -> float:
    """An upper bound on sup V: the max over a fine lattice plus the
    gradient bound times the largest distance to a lattice point."""
    samples = 4096 if dim == 1 else 512
    x = np.arange(samples) / samples
    pts = np.stack(np.meshgrid(*([x] * dim), indexing="ij"), axis=-1)
    grad = sum(abs(a) * 2.0 * np.pi * float(np.linalg.norm(k)) for k, a in pot)
    return float(np.max(trig(pot, pts))) + grad * np.sqrt(dim) * 0.5 / samples


class Stepper:
    """The reference DP step for one problem.

    W'(x) = min_o [ a(x - o dx) + dt (|o dx / dt|^2 / 2 - V_o(x - o dx)) ]
    with a = W - dt * coupling(u) and V_o the quadrature of the potential
    along the segment of displacement o dx from its start point.
    """

    def __init__(self, prob: Problem):
        if prob.quadrature not in ("left", "exact"):
            raise ValueError(f"no reference for {prob.quadrature!r} quadrature")
        self.prob = prob
        pts = prob.points()
        self.costs = []
        for o in prob.offsets():
            d = np.asarray(o, dtype=float) * prob.dx
            kinetic = 0.5 * float(np.sum((d / prob.dt) ** 2))
            if prob.quadrature == "left":
                v = trig(prob.potential, pts)
            else:
                v = segment_average(prob.potential, pts, d)
            self.costs.append((o, prob.dt * (kinetic - v)))

    def __call__(self, w: np.ndarray, u: np.ndarray) -> np.ndarray:
        p = self.prob
        shape = (p.n,) * p.dim
        a = (np.asarray(w) - p.dt * p.coupling(u)).reshape(shape)
        axes = tuple(range(p.dim))
        out = np.full(shape, np.inf)
        for o, cost in self.costs:
            np.minimum(out, np.roll(a + cost, o, axis=axes), out=out)
        return out.ravel()


def march(prob: Problem, phi: np.ndarray, n_steps: int) -> np.ndarray:
    """Slices 0..n_steps of the fixed point, shape (n_steps + 1, n**dim)."""
    step = Stepper(prob)
    out = np.empty((n_steps + 1, phi.size))
    out[0] = phi
    for k in range(n_steps):
        out[k + 1] = step(out[k], out[k])
    return out


def exact_critical_value(prob: Problem, a_level: float) -> float:
    """Minimum cycle mean of the DP graph at frozen level a, as a critical value.

    A step at rest at x_j costs -dt (V(x_j) + g(a)).  A moving step pays at
    least the smallest kinetic cost k_min and gains at most sup V over the
    grid maximum.  When k_min exceeds that gain no step costs less than the
    rest step at the grid maximiser, so the self-loop there is a minimum
    mean cycle and c = max_j V(x_j) + g(a).
    """
    best = float(np.max(trig(prob.potential, prob.points())))
    k_min = 0.5 * (prob.dx / prob.dt) ** 2
    gain = sup_bound(prob.potential, prob.dim) - best
    if not gain < k_min:
        raise ValueError(f"self-loop optimality not provable: gain {gain:g} >= {k_min:g}")
    return best + float(prob.coupling(a_level))


def constant_bounds(prob: Problem) -> tuple:
    """(lower, upper): levels of the constant sub- and super-solution.

    Every step candidate from a constant k costs at least k - dt(g(k) + sup V),
    so k with g(k) = -sup V is a subsolution; the rest step gives at most
    k - dt(g(k) + V(x_j)), so k with g(k) = -min_j V(x_j) is a supersolution.
    """
    lo = prob.coupling_inverse(-sup_bound(prob.potential, prob.dim))
    hi = prob.coupling_inverse(-float(np.min(trig(prob.potential, prob.points()))))
    return lo, hi


def check_close(name: str, got: np.ndarray, want: np.ndarray, tol: float):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape} != reference {want.shape}")
    err = float(np.max(np.abs(got - want)))
    if not err <= tol:
        raise CheckFailed(f"{name}: differs from the reference by {err:.3g} > {tol:g}")


def read_columns(text: str, header: str) -> list:
    """Columns of a CSV output as lists of fields, after checking the
    header, the final newline and the number of fields."""
    if not text.startswith(header + "\n"):
        raise CheckFailed(f"header is not {header!r}")
    body = text[len(header) + 1 :]
    if body and not body.endswith("\n"):
        raise CheckFailed("file does not end with a newline")
    width = header.count(",") + 1
    n_rows = body.count("\n")
    if body.count(",") != n_rows * (width - 1):
        raise CheckFailed(f"rows do not all have {width} fields")
    flat = body.replace("\n", ",").split(",")[:-1]
    return [flat[c::width] for c in range(width)]


def shortest_floats(fields: list) -> np.ndarray:
    """A column as floats; each field must be repr(float(field))."""
    vals = [float(s) for s in fields]
    reprs = list(map(repr, vals))
    if reprs != fields:
        i = next(i for i, (r, s) in enumerate(zip(reprs, fields)) if r != s)
        raise CheckFailed(f"row {i + 1}: {fields[i]!r} is not the shortest repr {reprs[i]!r}")
    return np.array(vals)


def integers(fields: list) -> np.ndarray:
    return np.array([int(s) for s in fields])


def read_slab_csv(text: str, n: int, dt: float, n_steps: int) -> np.ndarray:
    """u values of a 1-D slab.csv, shape (n_steps + 1, n), after checking
    the row count, the k,t,j,x columns and the float format."""
    k_col, t_col, j_col, x_col, u_col = read_columns(text, "k,t,j,x,u")
    if len(k_col) != (n_steps + 1) * n:
        raise CheckFailed(f"slab has {len(k_col)} rows, expected {(n_steps + 1) * n}")
    k, j = np.divmod(np.arange(len(k_col)), n)
    if not (np.array_equal(integers(k_col), k) and np.array_equal(integers(j_col), j)):
        raise CheckFailed("slab k,j columns are not the row-major slice/point indices")
    if not np.array_equal(shortest_floats(t_col), k * dt):
        raise CheckFailed("slab t column is not k*dt")
    if not np.array_equal(shortest_floats(x_col), j / n):
        raise CheckFailed("slab x column is not j/N")
    return shortest_floats(u_col).reshape(n_steps + 1, n)


def read_field_csv(text: str, n: int) -> np.ndarray:
    """u values of a 1-D j,x,u field file such as u_inf.csv."""
    j_col, x_col, u_col = read_columns(text, "j,x,u")
    if len(j_col) != n:
        raise CheckFailed(f"field has {len(j_col)} rows, expected {n}")
    if not np.array_equal(integers(j_col), np.arange(n)):
        raise CheckFailed("field j column is not 0..N-1")
    if not np.array_equal(shortest_floats(x_col), np.arange(n) / n):
        raise CheckFailed("field x column is not j/N")
    return shortest_floats(u_col)


def check_fixedpoint_csv(text: str):
    """The Picard report ends at gap 0.0 and every gap is within twice its
    contraction bound plus round-off (criterion 1's allowance)."""
    it_col, gap_col, bound_col = read_columns(text, "iter,gap,bound")
    if not it_col:
        raise CheckFailed("fixedpoint.csv has no iterations")
    if not np.array_equal(integers(it_col), np.arange(1, len(it_col) + 1)):
        raise CheckFailed("fixedpoint.csv iter column is not 1..n")
    gap, bound = shortest_floats(gap_col), shortest_floats(bound_col)
    if gap[-1] != 0.0:
        raise CheckFailed(f"last Picard gap is {gap[-1]!r}, not 0.0")
    worst = int(np.argmax(gap - 2.0 * bound))
    if gap[worst] > 2.0 * bound[worst] + 1e-15:
        raise CheckFailed(f"Picard gap {gap[worst]!r} exceeds twice its bound at iter {worst + 1}")


def read_check_csv(text: str) -> dict:
    """suite name -> passed flag of a check.csv."""
    suites, passed, _ = read_columns(text, "suite,passed,detail")
    if len(set(suites)) != len(suites) or not set(passed) <= {"0", "1"}:
        raise CheckFailed("check.csv has a repeated suite or a passed flag other than 0/1")
    return {s: p == "1" for s, p in zip(suites, passed)}
