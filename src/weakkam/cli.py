"""Command-line front end.

Thin wrappers around the library: each subcommand loads a validated run
configuration, performs one computation, and writes CSV artifacts plus a
run manifest into the output directory.  Exit codes: 0 success, 1 check
failure, 2 invalid configuration, 3 numeric non-convergence.

Commands take their discretizations from ``RunConfig.kernel()`` and
``RunConfig.lf()``.  Before the output directory is made, ``main``
rejects a horizon the command cannot step by grid.dt, naming
``solver.T``, and a planned size above ``MEMORY_BUDGET_BYTES``, naming
``grid.N``.  A file is written as name.part and renamed once complete.

``oracle`` writes each Lax-Friedrichs slice as the scheme yields it.
Two commands hand independent work to a forked child process (``_Forked``)
that shares an anonymous mapping with this one.  ``solve`` hands
``fixed_point`` its slab there and a slice signal: after each slice of the
wavefront's top row is final, one byte down a pipe tells the child to
format that slice into slab.csv, so the text overlaps the march.  ``check``
runs its Lax-Friedrichs oracle in the child while the variational suites
run here, and reads the final slice from the mapping; the suites step phi
once (the property battery fills the slab the backtrack and the match
read), so the oracle is the longer branch.  This needs two usable CPUs;
with one, or when no process can be forked, the same work runs here
afterwards: the slab is written after the march and the oracle after the
suites.
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
from .config import RunConfig, load_config
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

# the most bytes _check_budget lets a command plan to hold (1 GiB)
MEMORY_BUDGET_BYTES = 1 << 30
# per stacked row, the slices a kernel or Lax-Friedrichs step holds beside its
# input (measured: at most 7.4 and 14.3), and the bytes one CSV row of a block
# holds in strings and floats (measured: at most about 370)
_KERNEL_COPIES, _LF_COPIES, _ROW_BYTES = 8, 16, 512
# the bytes converge keeps per step of its history: two Python floats in lists,
# their two arrays and the stacked table converge writes
_HISTORY_BYTES = 128
# beside the kernel's tables, critical's policy iteration holds size-length
# vectors (padded windows of v and eta among them) and temporaries of its
# candidate blocks of _BLOCK_ELEMENTS (measured: at most 3.5 blocks where the
# vectors are negligible)
_POLICY_VECTORS, _POLICY_BLOCKS = 32, 4


def _property_horizons(cfg: RunConfig) -> list:
    """The horizons at which ``check`` compares the semigroup properties."""
    return [t for t in (0.5, 1.0) if t <= cfg.T + 1e-9] or [cfg.T]


def _check_horizons(command: str, cfg: RunConfig):
    """Reject a horizon that ``solve``, ``action`` or ``check`` steps by
    grid.dt when it is not a positive multiple of grid.dt."""
    horizons = {"solve": [cfg.T], "action": [cfg.T], "check": [cfg.T, *_property_horizons(cfg)]}
    for t in horizons.get(command, ()):
        try:
            _horizon_steps(t, cfg.dt)
        except ConfigurationError as e:
            raise ConfigurationError(f"config key `solver.T`: {e}") from e


def _check_budget(command: str, cfg: RunConfig) -> int:
    """Return the bytes a command plans to hold; reject a config above the budget.

    CSVs are streamed one block of at most grid.size rows (``_TABLE_ROWS``
    for a table without a grid axis) at a time, so this counts the arrays
    plus one text block of ``_ROW_BYTES`` a row.  A step holds one block of
    ``_BLOCK_ELEMENTS`` floats and, per stacked row, ``_KERNEL_COPIES``
    (kernel) or ``_LF_COPIES`` (Lax-Friedrichs) slices.  A kernel's tables
    are V and, on 2-D "left", a padded start cost (at most 5*size), and the
    n_offsets*size ``base_cost`` where it is built: off the row path
    (``kernels.row_path``) and by ``critical``.
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
      ``_HISTORY_BYTES`` per step of its history.
    """
    grid, size = cfg.grid, cfg.grid.size
    text_rows = size
    if command in ("solve", "check", "converge", "critical"):
        tables = 5  # V and a padded start cost, and base_cost where it is built
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
        n = _horizon_steps(cfg.T, cfg.dt)
        rows = n + 1 if cfg.model.lipschitz_u else 1
        planned = (n + 2 + (1 + _KERNEL_COPIES) * rows + tables) * size * 8
    elif command == "check":
        n = _horizon_steps(cfg.T, cfg.dt)
        planned = (n + 1 + 4 * (1 + _KERNEL_COPIES) + _LF_COPIES + tables) * size * 8
    elif command == "converge":
        steps = math.ceil(max(cfg.checkpoints) / cfg.dt) + 1
        planned = (2 + _KERNEL_COPIES + tables) * size * 8
        planned += steps * _HISTORY_BYTES
        text_rows = max(size, _TABLE_ROWS)
    else:
        return 0
    planned += _BLOCK_ELEMENTS * 8 + text_rows * _ROW_BYTES
    if planned > MEMORY_BUDGET_BYTES:
        raise ConfigurationError(
            f"config key `grid.N`: {command} on {grid.dim}-D N={grid.n} would hold "
            f"about {planned / 2**30:.1f} GiB, above the budget of "
            f"{MEMORY_BUDGET_BYTES / 2**30:g} GiB"
        )
    return planned


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


def _manifest(cfg: RunConfig, out_dir: str, command: str, threads: int, t0: float, extra=None):
    doc = {
        "command": command,
        "version": __version__,
        "numpy": np.__version__,
        "threads": threads,
        "elapsed_seconds": time.perf_counter() - t0,
        "resolved_config": cfg.resolved(),
    }
    if extra:
        doc.update(extra)
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


def cmd_solve(cfg: RunConfig, out_dir: str, threads: int) -> int:
    """Fixed point on [0, T]: slab.csv, fixedpoint.csv and the manifest.

    The wavefront marches into the shared slab of a ``_Forked`` writer, which
    writes slab.csv while the march goes on when this process may run on at
    least two CPUs (``_usable_cpus``), and here after the march otherwise;
    the bytes are the same either way.  A failed write makes the run exit 2
    naming slab.csv; that or any error in the march leaves no slab.csv and
    no partial file.
    """
    t0 = time.perf_counter()
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
    _manifest(cfg, out_dir, "solve", threads, t0,
              {"iterations": report.iterations, "slab_writer": writer.usage})
    return EXIT_OK


def cmd_converge(cfg: RunConfig, out_dir: str, threads: int) -> int:
    t0 = time.perf_counter()
    phi = cfg.phi_field()
    rep = converge(cfg.kernel(), phi, t_checkpoints=cfg.checkpoints, stop_eps=cfg.stop_eps)
    _write(out_dir, "convergence.csv", rep.write_csv)
    _write(out_dir, "u_inf.csv", rep.u_inf.write_csv)
    res = rep.residual
    _write(
        out_dir, "residual.csv",
        "converged,max_residual_smooth,rms_residual_smooth,kink_count\n"
        f"{int(rep.converged)},{res.max_abs_smooth!r},{res.rms_smooth!r},{res.kink_count}\n",
    )
    _manifest(cfg, out_dir, "converge", threads, t0, {"converged": rep.converged})
    if not rep.converged:
        print("converge: increments did not settle before the final checkpoint", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_critical(cfg: RunConfig, out_dir: str, threads: int) -> int:
    """critical.csv with the one row a,c; the manifest adds c, the policy
    iterations and the eigen-equation residual that certifies c."""
    t0 = time.perf_counter()
    try:
        res = critical_value(cfg.kernel(), cfg.a)
    except NumericError as e:
        print(f"critical: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    _write(out_dir, "critical.csv", res.to_csv())
    _manifest(cfg, out_dir, "critical", threads, t0,
              {"c": res.c, "iterations": res.iterations, "residual": res.residual})
    print(f"critical value estimate: {res.c!r}")
    return EXIT_OK


def cmd_action(cfg: RunConfig, out_dir: str, threads: int) -> int:
    t0 = time.perf_counter()
    table = min_action(cfg.kernel(), cfg.a, cfg.T)
    _write(out_dir, "action.csv", table.write_csv)
    _manifest(cfg, out_dir, "action", threads, t0)
    return EXIT_OK


def cmd_char(cfg: RunConfig, out_dir: str, threads: int) -> int:
    t0 = time.perf_counter()
    if cfg.char is None:
        raise ConfigurationError("config key `char`: block is required for the char command")
    s0 = CharacteristicState(
        x=np.asarray(cfg.char["x0"]), u=cfg.char["u0"], p=np.asarray(cfg.char["p0"])
    )
    try:
        traj = flow(cfg.model, s0, cfg.char["t"], cfg.char["dt_ode"])
    except NumericError as e:
        print(f"char: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    _write(out_dir, "trajectory.csv", traj.write_csv)
    law = dH_law_residual(cfg.model, traj)
    _write(
        out_dir, "dh_law.csv",
        f"max_residual,rms_residual\n{law.max_residual!r},{law.rms_residual!r}\n",
    )
    _manifest(cfg, out_dir, "char", threads, t0)
    return EXIT_OK


def cmd_oracle(cfg: RunConfig, out_dir: str, threads: int) -> int:
    """slab_fd.csv, written slice by slice as the scheme yields it; a non-finite step exits 3."""
    t0 = time.perf_counter()
    lf = cfg.lf()
    slices = _lf_march(lf, cfg.phi_field(), _horizon_steps(cfg.T_fd, lf.dt_fd))
    try:
        _write(out_dir, "slab_fd.csv", lambda fh: _write_slab(fh, lf.grid, lf.dt_fd, slices))
    except NumericError as e:
        print(f"oracle: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    _manifest(cfg, out_dir, "oracle", threads, t0)
    return EXIT_OK


def cmd_check(cfg: RunConfig, out_dir: str, threads: int) -> int:
    """Property battery: assumptions, semigroup properties, characteristic
    law, calibrated-curve match, and the cross-solver comparison.

    The Lax-Friedrichs oracle shares nothing with the rest, so a ``_Forked``
    child runs it beside the variational suites and leaves its final slice
    in a shared mapping (on one CPU it runs here, after them); the manifest's
    ``oracle_process`` block is the child's CPU and peak RSS, or null.
    """
    t0 = time.perf_counter()
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
        law = dH_law_residual(cfg.model, flow(cfg.model, s0, min(cfg.T, 1.0), 1e-3))
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
    _manifest(cfg, out_dir, "check", threads, t0,
              {"failures": failures, "oracle_process": oracle.usage})
    if failures:
        print("check: failing suites: " + ", ".join(failures), file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "converge": cmd_converge,
    "critical": cmd_critical,
    "action": cmd_action,
    "char": cmd_char,
    "oracle": cmd_oracle,
    "check": cmd_check,
}


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
        if out_dir is None:
            raise ConfigurationError(
                "config key `output.directory`: required unless --out is given"
            )
        _check_horizons(args.command, cfg)
        _check_budget(args.command, cfg)
        _prepare_out(out_dir, args.overwrite)
        return _COMMANDS[args.command](cfg, out_dir, args.threads)
    except (ConfigurationError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
