"""Command-line front end.

Each subcommand computes one thing from a validated run configuration and
writes CSVs and a ``manifest.json`` into the output directory, each file
as name.part renamed once complete.  ``main`` owns the lifecycle: before
it makes the output directory, ``_check_command`` rejects, naming the
config key, what the command cannot step or hold: a missing ``char``
block; a horizon off the time grid or past the float range of steps, or
for ``check`` under 3 steps of grid.dt or 2 RK4 steps of its dH-law flow
(``solver.T``); a ``char`` flow under 2 RK4 steps (``char.t``); a
non-finite coupling at ``solver.a``; and a planned size above
``MEMORY_BUDGET_BYTES``.  ``_run`` then times ``cmd_*(cfg, out_dir)``,
which returns ``(exit_code, manifest_extra)``, and writes the one manifest.

Exit codes: 0 success, 1 a check suite failed, 2 an invalid configuration
or a failed write, 3 a numeric failure.  A ``NumericError`` from any
command prints one line ``<command>: <message>`` and exits 3 with no
manifest (``check`` records its oracle's as a failed suite instead);
``converge`` that does not settle exits 3 after writing its manifest.

Commands take their discretizations from ``RunConfig.kernel()`` and
``RunConfig.lf()``; ``oracle`` streams each Lax-Friedrichs slice as the
scheme yields it.  ``solve`` and ``check`` hand independent work to a
forked child (``_Forked``) sharing an anonymous mapping: ``solve``'s child
formats each slice of the wavefront's top row into slab.csv once a byte
down a pipe says it is final, so the text overlaps the march; ``check``'s
runs the Lax-Friedrichs oracle beside the variational suites, which step
phi once (the property battery fills the slab the backtrack and the match
read).  With one usable CPU, or when no process can be forked, the same
work runs here afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import mmap
import os
import pickle
import signal
import sys
import time

import numpy as np

from . import __version__
from .action import critical_value, min_action
from .characteristics import (
    CharacteristicState,
    dH_law_residual,
    flow,
    match_calibrated,
)
from .config import RunConfig, _named, _require, load_config
from .errors import ConfigurationError, NumericError
from .fdoracle import _lf_march, lf_final
from .kernels import _BLOCK_ELEMENTS, row_path
from .semigroup import (
    _backtrack,
    check_properties,
    converge,
    fixed_point,
    weak_kam_residual,
)
from .torus import (
    _TABLE_ROWS, GridField, SpaceTimeField, _horizon_steps, _write_slab, stencil_offsets,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# the most bytes _check_command lets a command plan to hold (1 GiB)
MEMORY_BUDGET_BYTES = 1 << 30
# per stacked row, the slices a kernel or Lax-Friedrichs step holds beside its
# input (measured: at most 7.4 and 14.3), and the bytes one CSV row of a block
# holds in strings and floats (measured: at most about 370)
_KERNEL_COPIES, _LF_COPIES, _ROW_BYTES = 8, 16, 512
# the bytes converge keeps per step of its history: two Python floats in lists,
# their two arrays and the stacked table converge writes
_HISTORY_BYTES = 128
# the bytes char holds per RK4 state: the Python floats of _flow_state, its
# arrays, and the law's temporaries (measured: at most 266 in 1-D, 362 in 2-D)
_CHAR_STATE_BYTES = 512
# beside the kernel's tables, critical's policy iteration holds size-length
# vectors (padded windows of v and eta among them) and temporaries of its
# candidate blocks of _BLOCK_ELEMENTS (measured: at most 3.5 blocks where the
# vectors are negligible)
_POLICY_VECTORS, _POLICY_BLOCKS = 32, 4
# the RK4 step of check's dH-law flow
_CHECK_DT_ODE = 1e-3


def _property_horizons(cfg: RunConfig) -> list:
    """The horizons at which ``check`` compares the semigroup properties."""
    return [t for t in (0.5, 1.0) if t <= cfg.T + 1e-9] or [cfg.T]


def _check_command(command: str, cfg: RunConfig) -> int:
    """Reject, naming the config key, what a command cannot step or hold;
    return the bytes it plans to hold.

    Steps: ``char`` needs its ``char`` block and at least 2 RK4 steps of
    ``char.dt_ode`` (``flow``'s count, ``int(round(t / dt_ode))``) for the
    dH law's centred difference, named ``char.t``.  ``solve``, ``action``
    and ``check`` step solver.T, and ``check`` its property horizons, by
    grid.dt: each must be a positive multiple of it, in a step count a
    float can hold.  ``check`` also needs at least 3 steps (the calibrated
    chain is matched from its first interior slice to the one before its
    end) and a dH-law flow over min(T, 1) of at least 2 RK4 steps of
    ``_CHECK_DT_ODE``; ``oracle`` and ``check`` need a count of oracle.dt_fd
    steps a float can hold.  Each is named ``solver.T``.  ``critical`` and
    ``action`` need a finite coupling at their frozen level ``solver.a``.

    Memory: CSVs are streamed one block of at most grid.size rows
    (``_TABLE_ROWS`` for a table without a grid axis) at a time, so this
    counts the arrays plus one text block of ``_ROW_BYTES`` a row.  A step
    holds one block of ``_BLOCK_ELEMENTS`` floats and, per stacked row,
    ``_KERNEL_COPIES`` (kernel) or ``_LF_COPIES`` (Lax-Friedrichs) slices.
    A kernel's tables are V and, on 2-D "left", a start cost (at most
    5*size), and the n_offsets*size ``base_cost`` where it is built: off
    the row path (``kernels.row_path``) and by ``critical``.
    - ``critical`` the kernel's tables, ``_POLICY_VECTORS`` size-length
      vectors and ``_POLICY_BLOCKS`` candidate blocks;
    - ``action`` its table and a step of its size rows;
    - ``oracle`` one Lax-Friedrichs step (the slice it streams), no slab;
    - ``solve`` its slab, the kernel's tables and the Picard wavefront
      (iterate 0 and up to n + 1 rows, one if H does not depend on u) with a
      step of its rows.  The slab is one mapping shared with the writer
      process and is counted once; the writer holds the one text block;
    - ``check`` the kernel's tables, its one slab over [0, T] (the march of
      phi that row 0 of ``check_properties`` fills and the backtrack walks),
      the four rows the battery steps together with one step of them, and
      one Lax-Friedrichs step;
    - ``converge`` the kernel's tables, its slice and one step of it, and
      ``_HISTORY_BYTES`` per step of its history; when the history alone
      exceeds the budget the message names ``solver.checkpoints``;
    - ``char`` ``_CHAR_STATE_BYTES`` per RK4 state of its one trajectory,
      named ``char.t``.
    For ``solve`` and ``check`` the message names ``solver.T`` when the
    horizon alone exceeds the budget, its n + 1 slices at one float each
    (no grid could hold them), and ``grid.N`` otherwise.
    """
    grid, size = cfg.grid, cfg.grid.size
    text_rows, key = size, "grid.N"
    if command in ("critical", "action"):
        with np.errstate(over="ignore", invalid="ignore"):
            _require(math.isfinite(cfg.model.coupling(cfg.a)), "solver.a",
                     f"the coupling at the frozen level {cfg.a:g} is past the float range")
    if command in ("solve", "action", "check"):
        n = _named("solver.T", _horizon_steps, cfg.T, cfg.dt)
        key = "solver.T" if (n + 1) * 8 > MEMORY_BUDGET_BYTES else key
    if command == "check":
        for t in _property_horizons(cfg):
            _named("solver.T", _horizon_steps, t, cfg.dt)
        _require(n >= 3, "solver.T", f"check needs at least 3 steps of grid.dt={cfg.dt:g}, got {n}")
        law_steps = int(round(min(cfg.T, 1.0) / _CHECK_DT_ODE))
        _require(law_steps >= 2, "solver.T", f"check's dH-law flow over min(T, 1) needs at "
                 f"least 2 RK4 steps of {_CHECK_DT_ODE:g}, got {law_steps}")
    if command in ("oracle", "check"):
        cfg.T_fd  # raises naming solver.T
    if command in ("solve", "check", "converge", "critical"):
        tables = 5  # V and a start cost, and base_cost where it is built
        if command == "critical" or not row_path(grid, cfg.quadrature):
            tables += len(stencil_offsets(grid, cfg.v_max, cfg.dt))
    if command == "critical":
        planned = (tables + _POLICY_VECTORS) * size * 8
        planned += _POLICY_BLOCKS * _BLOCK_ELEMENTS * 8
    elif command == "action":
        planned = (1 + _KERNEL_COPIES) * size * size * 8
    elif command == "oracle":
        planned = (1 + _LF_COPIES) * size * 8
    elif command == "solve":
        rows = n + 1 if cfg.model.lipschitz_u else 1
        planned = (n + 2 + (1 + _KERNEL_COPIES) * rows + tables) * size * 8
    elif command == "check":
        planned = (n + 1 + 4 * (1 + _KERNEL_COPIES) + _LF_COPIES + tables) * size * 8
    elif command == "converge":
        # a float, so a horizon past the float range of steps reads inf
        history = (max(cfg.checkpoints) / cfg.dt + 2) * _HISTORY_BYTES
        key = "solver.checkpoints" if history > MEMORY_BUDGET_BYTES else key
        planned = (2 + _KERNEL_COPIES + tables) * size * 8 + history
        text_rows = max(size, _TABLE_ROWS)
    elif command == "char":
        _require(cfg.char is not None, "char", "block is required for the char command")
        # a float, so a trajectory past the float range of states reads inf
        states = cfg.char["t"] / cfg.char["dt_ode"]
        steps = int(round(states)) if math.isfinite(states) else math.inf
        _require(steps >= 2, "char.t", f"char needs at least 2 RK4 steps of "
                 f"dt_ode={cfg.char['dt_ode']:g} for the dH law, got {steps}")
        planned = (states + 2) * _CHAR_STATE_BYTES
        text_rows, key = _TABLE_ROWS, "char.t"
    else:
        return 0
    planned += _BLOCK_ELEMENTS * 8 + text_rows * _ROW_BYTES
    _require(planned <= MEMORY_BUDGET_BYTES, key,
             f"{command} on {grid.dim}-D N={grid.n} would hold about {planned / 2**30:.3g} "
             f"GiB, above the budget of {MEMORY_BUDGET_BYTES / 2**30:g} GiB")
    return int(planned)


def _prepare_out(out_dir: str, overwrite: bool):
    if os.path.exists(out_dir):
        if os.listdir(out_dir) and not overwrite:
            raise ConfigurationError(
                f"output directory {out_dir!r} is not empty; pass --overwrite to reuse it"
            )
    else:
        os.makedirs(out_dir)


def _write(out_dir: str, name: str, content):
    """Write out_dir/name from a string, or by a function of the open file, via name.part."""
    path = os.path.join(out_dir, name)
    try:
        with open(path + ".part", "w") as fh:
            if callable(content):
                content(fh)
            else:
                fh.write(content)
        os.replace(path + ".part", path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path + ".part")
        raise


def _manifest(cfg: RunConfig, out_dir: str, command: str, threads: int, elapsed: float, extra):
    doc = {
        "command": command,
        "version": __version__,
        "numpy": np.__version__,
        "threads": threads,
        "elapsed_seconds": elapsed,
        "resolved_config": cfg.resolved(),
        **extra,
    }
    _write(out_dir, "manifest.json", json.dumps(doc, indent=2, default=str) + "\n")


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, or os.cpu_count()
    where the platform has no sched_getaffinity."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _signalled(fd: int, n: int):
    """Yield 0, 1, ..., n - 1, index k once k + 1 bytes have arrived on fd,
    one byte per ready index; EOFError if the pipe closes first."""
    k = 0
    while k < n:
        chunk = os.read(fd, n - k)
        if not chunk:
            raise EOFError(f"the ready pipe closed after {k} of {n} indices")
        yield from range(k, k + len(chunk))
        k += len(chunk)


class _Forked:
    """``work(values, ready)`` run by a forked child process beside this one.

    ``values`` is a float array of the given shape in an anonymous shared
    mapping, so each process sees what the other stores there.  The child's
    ``ready`` yields 0, 1, ..., n_ready - 1, index k once the parent has
    called ``ready()`` k + 1 times (one byte each down a pipe).  ``finish``
    reaps the child and sets ``usage`` to its CPU seconds and peak RSS from
    wait4; an exception the child raised comes back pickled down a second
    pipe and is raised there unchanged.  ``close`` kills and reaps a child
    still running.  With one usable CPU, or when os.fork fails, nothing is
    forked: ``finish`` runs ``work(values, range(n_ready))`` here and
    ``usage`` stays None.  A child only steps arrays and writes a file, so
    it takes no lock another thread of the parent could hold at the fork.
    """

    def __init__(self, shape, work, n_ready: int = 0):
        mapping = mmap.mmap(-1, math.prod(shape) * 8)
        self.values = np.frombuffer(mapping, dtype=float).reshape(shape)
        self.work, self.n_ready, self.pid, self.usage = work, n_ready, None, None
        if _usable_cpus() == 1:
            return
        (ready_r, ready_w), (error_r, error_w) = os.pipe(), os.pipe()
        try:
            self.pid = os.fork()
        except OSError:  # no process to spare: finish runs work here
            for fd in (ready_r, ready_w, error_r, error_w):
                os.close(fd)
            return
        if self.pid == 0:  # the child never returns into the caller's stack
            code = 1
            try:
                os.close(ready_w)
                work(self.values, _signalled(ready_r, n_ready))
                code = 0
            except Exception as e:
                with os.fdopen(error_w, "wb") as fh:
                    fh.write(pickle.dumps(e))
            finally:
                os._exit(code)
        os.close(ready_r)
        os.close(error_w)
        self._ready, self._errors = os.fdopen(ready_w, "wb", buffering=0), os.fdopen(error_r, "rb")

    def ready(self, k: int):
        """Tell a child that index k is ready (indices come in order)."""
        if self.pid is not None:
            with contextlib.suppress(BrokenPipeError):  # the child failed; finish reports it
                self._ready.write(b"\0")

    def finish(self):
        """Wait for work to end, here or in the child, and raise what it raised."""
        if self.pid is None:
            self.work(self.values, range(self.n_ready))
            return
        self._ready.close()
        error = self._errors.read()
        self._errors.close()
        _, status, usage = os.wait4(self.pid, 0)
        self.pid = None
        self.usage = {"cpu_seconds": usage.ru_utime + usage.ru_stime,
                      "max_rss_mb": usage.ru_maxrss / 1024.0}
        if error:
            raise pickle.loads(error)
        if status != 0:
            code = os.waitstatus_to_exitcode(status)
            raise OSError(f"the forked child exited with status {code}")

    def close(self):
        """Kill and reap a child still running."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
            self._ready.close()
            self._errors.close()


def cmd_solve(cfg: RunConfig, out_dir: str) -> tuple:
    """Fixed point on [0, T]: slab.csv, fixedpoint.csv and the manifest.

    The wavefront marches into the shared slab of a ``_Forked`` writer, which
    writes slab.csv while the march goes on when this process may run on at
    least two CPUs (``_usable_cpus``), and here after the march otherwise;
    the bytes are the same either way.  A failed write makes the run exit 2
    naming slab.csv; that or any error in the march leaves no slab.csv and
    no partial file.
    """
    phi, kern = cfg.phi_field(), cfg.kernel()
    n_slices = _horizon_steps(cfg.T, cfg.dt) + 1

    def write_slab(values, ready):
        slices = (values[k] for k in ready)
        _write(out_dir, "slab.csv", lambda fh: _write_slab(fh, cfg.grid, cfg.dt, slices))

    writer = _Forked((n_slices, cfg.grid.size), write_slab, n_slices)
    try:
        _, report = fixed_point(kern, phi, cfg.T, tol=cfg.tol,
                                out=writer.values, on_slice=writer.ready)
        try:
            writer.finish()
        except OSError as e:
            raise OSError(f"writing {os.path.join(out_dir, 'slab.csv')}: {e}") from e
    finally:  # a killed writer leaves its partial file
        writer.close()
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, "slab.csv.part"))
    _write(out_dir, "fixedpoint.csv", report.to_csv())
    return EXIT_OK, {"iterations": report.iterations, "stencil_reach": kern.stencil_reach(),
                     "slab_writer": writer.usage}


def cmd_converge(cfg: RunConfig, out_dir: str) -> tuple:
    kern = cfg.kernel()
    rep = converge(kern, cfg.phi_field(), t_checkpoints=cfg.checkpoints, stop_eps=cfg.stop_eps)
    _write(out_dir, "convergence.csv", rep.write_csv)
    _write(out_dir, "u_inf.csv", rep.u_inf.write_csv)
    res = rep.residual
    _write(
        out_dir, "residual.csv",
        "converged,max_residual_smooth,rms_residual_smooth,kink_count\n"
        f"{int(rep.converged)},{res.max_abs_smooth!r},{res.rms_smooth!r},{res.kink_count}\n",
    )
    if not rep.converged:
        print("converge: increments did not settle before the final checkpoint", file=sys.stderr)
    return EXIT_OK if rep.converged else EXIT_NUMERIC, {
        "converged": rep.converged, "stencil_reach": kern.stencil_reach()}


def cmd_critical(cfg: RunConfig, out_dir: str) -> tuple:
    """critical.csv with the one row a,c; the manifest adds c, the policy
    iterations and the eigen-equation residual that certifies c; a non-finite c exits 3."""
    res = critical_value(cfg.kernel(), cfg.a)
    if not math.isfinite(res.c):
        raise NumericError(f"the critical value is not finite: {res.c!r}")
    _write(out_dir, "critical.csv", res.to_csv())
    print(f"critical value estimate: {res.c!r}")
    return EXIT_OK, {"c": res.c, "iterations": res.iterations, "residual": res.residual}


def cmd_action(cfg: RunConfig, out_dir: str) -> tuple:
    _write(out_dir, "action.csv", min_action(cfg.kernel(), cfg.a, cfg.T).write_csv)
    return EXIT_OK, {}


def cmd_char(cfg: RunConfig, out_dir: str) -> tuple:
    """trajectory.csv and dh_law.csv; a law whose max or rms residual is not
    finite exits 3 before either is written."""
    c = cfg.char
    s0 = CharacteristicState(x=np.asarray(c["x0"]), u=c["u0"], p=np.asarray(c["p0"]))
    traj = flow(cfg.model, s0, c["t"], c["dt_ode"])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite law is reported below
        law = dH_law_residual(cfg.model, traj)
    if not (math.isfinite(law.max_residual) and math.isfinite(law.rms_residual)):
        raise NumericError(f"the dH-law residual is not finite: max {law.max_residual!r},"
                           f" rms {law.rms_residual!r}")
    _write(out_dir, "trajectory.csv", traj.write_csv)
    _write(
        out_dir, "dh_law.csv",
        f"max_residual,rms_residual\n{law.max_residual!r},{law.rms_residual!r}\n",
    )
    return EXIT_OK, {}


def cmd_oracle(cfg: RunConfig, out_dir: str) -> tuple:
    """slab_fd.csv, written slice by slice as the scheme yields it; a non-finite step exits 3."""
    lf = cfg.lf()
    slices = _lf_march(lf, cfg.phi_field(), _horizon_steps(cfg.T_fd, lf.dt_fd))
    _write(out_dir, "slab_fd.csv", lambda fh: _write_slab(fh, lf.grid, lf.dt_fd, slices))
    return EXIT_OK, {}


def cmd_check(cfg: RunConfig, out_dir: str) -> tuple:
    """Property battery: assumptions, semigroup properties, characteristic
    law, calibrated-curve match, and the cross-solver comparison.

    The Lax-Friedrichs oracle shares nothing with the rest, so a ``_Forked``
    child runs it beside the variational suites and leaves its final slice
    in a shared mapping (on one CPU it runs here, after them); the manifest's
    ``oracle_process`` block is the child's CPU and peak RSS, or null.
    """
    rng = np.random.default_rng(cfg.seed)
    failures = []
    rows = ["suite,passed,detail"]

    def record(suite, ok, detail, failure=None):
        rows.append(f"{suite},{int(ok)},{detail}")
        if not ok:
            failures.append(failure or suite)

    verdicts = sorted(cfg.audit.verdicts.items())
    record("assumptions", cfg.audit.passed, ";".join(f"{k}={v}" for k, v in verdicts),
           "assumptions (" + ",".join(k for k, v in verdicts if not v) + ")")

    phi = cfg.phi_field()

    def run_oracle(values, ready):
        values[:] = lf_final(cfg.lf(), phi, cfg.T_fd).values

    with contextlib.closing(_Forked((cfg.grid.size,), run_oracle)) as oracle:
        psi = GridField(cfg.grid, phi.values + 0.2 * np.cos(
            2 * np.pi * cfg.grid.points()[:, 0] + 1.0))
        # one kernel serves every suite below; the battery fills the slab with
        # the march of phi, which the backtrack, the match and the cross-solver
        # comparison read
        kern = cfg.kernel()
        slab = np.empty((_horizon_steps(cfg.T, kern.dt) + 1, cfg.grid.size))
        prop = check_properties(kern, phi, psi, _property_horizons(cfg), out=slab)
        u = SpaceTimeField(cfg.grid, kern.dt, slab)
        record("semigroup_properties", prop.all_within(2 * max(cfg.tol, 1e-12)),
               f"uniform_bound={prop.uniform_bound!r}")

        # a march by this kernel is its operator's fixed point by construction
        x_end = int(np.argmin(u.values[-1]))
        curve = _backtrack(kern, u, x_end)
        record("calibrated_defect", curve.max_defect() <= 1e-9,
               f"max_defect={curve.max_defect()!r}")

        s0 = CharacteristicState(
            x=cfg.grid.points()[x_end], u=float(u.values[-1, x_end]),
            p=rng.uniform(-1.0, 1.0, size=cfg.grid.dim),
        )
        law = dH_law_residual(cfg.model, flow(cfg.model, s0, min(cfg.T, 1.0), _CHECK_DT_ODE))
        record("dh_law", law.rms_residual <= 1e-4, f"rms={law.rms_residual!r}")

        match = match_calibrated(cfg.model, curve, u, dt_ode=cfg.dt / 4)
        record("char_match", match.sup_distance <= 5 * cfg.grid.dx,
               f"sup_distance={match.sup_distance!r}")

        try:
            oracle.finish()
            gap = float(np.max(np.abs(oracle.values - u.values[-1])))
            record("oracle_cross", gap <= 0.1, f"sup_gap={gap!r}")
        except NumericError as e:  # the message names the step
            record("oracle_cross", False, str(e))

    _write(out_dir, "check.csv", "\n".join(rows) + "\n")
    res = weak_kam_residual(cfg.model, u.final())
    _write(
        out_dir, "residual.csv",
        "max_residual_smooth,rms_residual_smooth,kink_count\n"
        f"{res.max_abs_smooth!r},{res.rms_smooth!r},{res.kink_count}\n",
    )
    if failures:
        print("check: failing suites: " + ", ".join(failures), file=sys.stderr)
    return EXIT_CHECK_FAILED if failures else EXIT_OK, {
        "failures": failures, "stencil_reach": kern.stencil_reach(),
        "oracle_process": oracle.usage}


_COMMANDS = {
    "solve": cmd_solve,
    "converge": cmd_converge,
    "critical": cmd_critical,
    "action": cmd_action,
    "char": cmd_char,
    "oracle": cmd_oracle,
    "check": cmd_check,
}


def _run(command: str, cfg: RunConfig, out_dir: str, threads: int) -> int:
    """Time a command in its prepared output directory and write its manifest;
    a ``NumericError`` prints ``<command>: <message>`` and exits 3 without one."""
    t0 = time.perf_counter()
    try:
        code, extra = _COMMANDS[command](cfg, out_dir)
    except NumericError as e:
        print(f"{command}: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    _manifest(cfg, out_dir, command, threads, time.perf_counter() - t0, extra)
    return code


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="weakkam",
        description="Variational and finite-difference solvers for "
        "evolutionary Hamilton-Jacobi equations on the torus.",
    )
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--config", required=True, help="YAML run configuration")
    p.add_argument("--out", default=None, help="output directory (default from config)")
    p.add_argument(
        "--threads", type=int, default=1, help="thread budget, only recorded in the manifest"
    )
    p.add_argument("--overwrite", action="store_true", help="reuse a non-empty output directory")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        print("cli: --threads must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_config(args.config)
        out_dir = args.out or cfg.out_dir
        _require(out_dir is not None, "output.directory", "required unless --out is given")
        _check_command(args.command, cfg)
        _prepare_out(out_dir, args.overwrite)
        return _run(args.command, cfg, out_dir, args.threads)
    except (ConfigurationError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
