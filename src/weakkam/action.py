"""Minimal actions between grid points and the critical value of the
frozen-u Lagrangian.

The minimal action table h_t(x_i, x_j) is computed by dynamic programming
over time slices with straight-segment costs.  ``compose`` (exact min-plus
composition, h_{t+s} = min_y h_t + h_s) is the tests' reference for a table
marched through several horizons, as the Peierls barrier of the test
oracles (``tests/oracles.py``) marches one.  The discrete critical value
needs no table: -c*dt is the minimum cycle mean of the one-step DP graph,
which Howard policy iteration gives exactly from the kernel's per-offset
costs and periodic start shifts, with a bias v and the critical cycles.
For a u-independent model v is a discrete weak KAM solution, and the
critical cycles of the final policy form a discrete Aubry set.

Every entry point takes the discretization as one ``StepKernel`` and reads
the model, grid, dt, v_max and quadrature from it.  An ``ActionTable``
keeps its kernel, so ``compose`` refuses a table of another kernel or
u-level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError
from .kernels import StepKernel, min_plus_product
from .torus import _horizon_steps, _write_csv, csv_float

# policy iterations critical_value runs before it raises NumericError
_MAX_POLICY_ITERATIONS = 1000
# a node changes its start on the bias only if that gains more than this
# fraction of max(1, max|v|)
_IMPROVEMENT_RTOL = 1e-12


@dataclass
class ActionTable:
    """h_t(x_i, x_j) for a frozen u-level; row = start, column = end."""

    kern: StepKernel
    a: float
    t: float
    values: np.ndarray

    def compose(self, other: "ActionTable") -> "ActionTable":
        """Exact composition h_{t+t'}(x,z) = min_y h_t(x,y) + h_{t'}(y,z)."""
        if other.kern is not self.kern or other.a != self.a:
            raise ConfigurationError(
                "cannot compose tables of different kernels or u-levels "
                f"(a={self.a:g} and a={other.a:g})"
            )
        return ActionTable(
            self.kern, self.a, self.t + other.t, min_plus_product(self.values, other.values)
        )

    def write_csv(self, fh):
        """Table export i,j,x_i,x_j,h (d=2: i,j,xi1,xi2,xj1,xj2,h) to the open file fh, by rows."""
        grid = self.kern.grid
        head = "i,j,x_i,x_j,h\n" if grid.dim == 1 else "i,j,xi1,xi2,xj1,xj2,h\n"
        coords = [",".join(csv_float(c) for c in p) for p in grid.points()]
        _write_csv(fh, head, (
            (f"{i},", [f"{j},{ci},{cj}," for j, cj in enumerate(coords)], row)
            for i, (ci, row) in enumerate(zip(coords, self.values))
        ))


@dataclass
class CriticalValueResult:
    """The critical value c at level a, with the policy iterations that found
    it and the eigen-equation residual that certifies it."""

    a: float
    c: float
    iterations: int
    residual: float

    def to_csv(self) -> str:
        return f"a,c\n{csv_float(self.a)},{csv_float(self.c)}\n"


def min_action(kern: StepKernel, a: float, t: float) -> ActionTable:
    """DP table of minimal actions over horizon t at frozen u-level a, marched
    from the identity table (0 on the diagonal, inf off it)."""
    w = np.full((kern.grid.size, kern.grid.size), np.inf)
    np.fill_diagonal(w, 0.0)
    for _ in range(_horizon_steps(t, kern.dt)):
        w = kern.apply_table(w, a)
    return ActionTable(kern, a, t, w)


def _evaluate(policy: np.ndarray, cost: np.ndarray, v_prev: np.ndarray):
    """Cycle means and bias of a functional policy graph, by pointer doubling.

    Node x steps back to policy[x] at cost[x].  The chain x, policy[x], ...
    reaches a cycle, whose root is its smallest index.  Returns (eta, v):
    eta[x] is the mean cost of that cycle, and v the bias solving
    v(x) = v(policy[x]) + cost[x] - eta[x] with v(root) = v_prev(root).
    """
    n = policy.size
    depth = (n - 1).bit_length()  # 2**depth >= n: every chain is on its cycle by then
    # after the loop jump = policy^(2**depth), a node on the cycle, and low[x]
    # is the least index among the first 2**depth nodes of x's chain
    jump, low = policy, np.arange(n)
    for _ in range(depth):
        np.minimum(low, low[jump], out=low)
        jump = jump[jump]
    root = low[jump]
    on_cycle = np.zeros(n, dtype=bool)
    on_cycle[jump] = True
    ids = root[on_cycle]
    sums = np.bincount(ids, weights=cost[on_cycle], minlength=n)
    eta = sums[root] / np.bincount(ids, minlength=n)[root]
    # sum cost - eta along each chain up to its root, which is cut to a fixed point
    acc = cost - eta
    nxt = policy.copy()
    roots = np.flatnonzero(root == np.arange(n))
    acc[roots] = 0.0
    nxt[roots] = roots
    for _ in range(depth):
        acc += acc[nxt]
        nxt = nxt[nxt]
    return eta, acc + v_prev[root]


def _best_starts(kern: StepKernel, shift: float, eta: np.ndarray, v: np.ndarray):
    """Per destination x, the start y of least eta(y), then least v(y) + cost(y, x).

    Returns (best_eta, best_val, best_k, lowest): that start's eta and
    v(y) + cost(y, x), its offset index (ties to the first offset), and
    min_y v(y) + cost(y, x) over every start.  Candidates are formed in the
    kernel's offset blocks, reading v and eta at the starts through the
    kernel's padded windows; cost(y, x) is base_cost + shift.
    """
    n = kern.grid.size
    nodes = np.arange(n)
    v_windows, eta_windows = kern._windows(v), kern._windows(eta)
    best_eta = np.full(n, np.inf)
    best_val = np.full(n, np.inf)
    best_k = np.zeros(n, dtype=np.intp)
    lowest = np.full(n, np.inf)
    for blk in kern._blocks(1):
        val = kern.base_cost[blk] + shift
        val += kern._starts(v_windows, blk)
        np.minimum(lowest, val.min(axis=0), out=lowest)
        e = kern._starts(eta_windows, blk)
        blk_eta = e.min(axis=0)
        val[e > blk_eta] = np.inf
        k = val.argmin(axis=0)
        blk_val = val[k, nodes]
        better = (blk_eta < best_eta) | ((blk_eta == best_eta) & (blk_val < best_val))
        best_eta[better] = blk_eta[better]
        best_val[better] = blk_val[better]
        best_k[better] = k[better] + blk.start
    return best_eta, best_val, best_k, lowest


def _policy_iteration(kern: StepKernel, a: float):
    """Howard policy iteration for the minimum cycle mean of the DP graph at level a.

    A policy picks one start per destination, so its graph is functional.
    Each iteration evaluates the policy (``_evaluate``) and improves it
    (``_best_starts``): nodes whose best start has a smaller cycle mean eta
    move to it; if there are none, nodes move to the start of least
    v(y) + cost(y, x) - eta among the eta-optimal ones, when that gains more
    than ``_IMPROVEMENT_RTOL`` of max(1, max|v|).  It stops when no node
    moves.  Edge costs are base_cost + step_cost(a).

    Returns (policy, eta, v, iterations, residual), where residual is
    max_x |min_y (v(y) + cost(y, x)) - v(x) - eta(x)| of the final policy.
    Raises NumericError after ``_MAX_POLICY_ITERATIONS`` iterations.
    """
    n = kern.grid.size
    nodes = np.arange(n)
    shift = float(kern.step_cost(np.full(1, a))[0])
    v = np.zeros(n)
    # with eta and v equal everywhere, the best start is the cheapest step into each node
    choice = _best_starts(kern, shift, v, v)[2]
    for iteration in range(1, _MAX_POLICY_ITERATIONS + 1):
        # node x starts its step at x - offsets[choice[x]], periodically
        policy = kern._start_of(choice, nodes)
        eta, v = _evaluate(policy, kern.base_cost[choice, nodes] + shift, v)
        best_eta, best_val, best_k, lowest = _best_starts(kern, shift, eta, v)
        move = best_eta < eta
        if not move.any():
            tol = _IMPROVEMENT_RTOL * max(1.0, float(np.max(np.abs(v))))
            move = best_val - eta < v - tol
            if not move.any():
                residual = float(np.max(np.abs(lowest - v - eta)))
                return policy, eta, v, iteration, residual
        choice[move] = best_k[move]
    raise NumericError(
        f"policy iteration did not converge in {_MAX_POLICY_ITERATIONS} iterations"
    )


def critical_value(kern: StepKernel, a: float) -> CriticalValueResult:
    """The discrete critical value c = -(minimum cycle mean)/dt at level a.

    It is the exact limit of -min_x h_T(x,x)/T on the grid, computed
    without action tables by Howard policy iteration (``_policy_iteration``).
    The result carries the iteration count and the eigen-equation residual
    r: summed around any cycle of the DP graph, the final bias shows that
    every cycle mean is at least -c*dt - r.
    """
    _, eta, _, iterations, residual = _policy_iteration(kern, a)
    c = -float(np.min(eta)) / kern.dt + 0.0  # + 0.0 turns -0.0 into +0.0
    return CriticalValueResult(a=a, c=c, iterations=iterations, residual=residual)
