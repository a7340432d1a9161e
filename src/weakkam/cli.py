"""Command-line front end.

Each subcommand computes one thing from a validated run configuration and
writes CSVs and a ``manifest.json`` into the output directory, each file
as name.part renamed once complete.  ``main`` owns the lifecycle: before
it makes the output directory it builds the command's run plan
(``_plan``) once, and building it rejects, naming the config key, what
the command cannot step, hold or do: a missing ``char`` block, a horizon
it cannot step, a non-finite coupling at ``solver.a``, bytes above
``MEMORY_BUDGET_BYTES`` or work above ``_WORK_BUDGET_NS``.  ``_run`` then
times ``cmd_*(cfg, out_dir)``, which returns ``(exit_code,
manifest_extra)``, and writes the one manifest, which records the same
plan.

Exit codes: 0 success, 1 a check suite failed, 2 an invalid configuration
or a failed write, 3 a numeric failure.  A ``NumericError`` from any
command prints one line ``<command>: <message>`` and exits 3 with no
manifest (``check`` records its oracle's as a failed suite instead);
``converge`` that does not settle exits 3 after writing its manifest.

Commands take their discretizations from ``RunConfig.kernel()`` and
``RunConfig.lf()``; ``oracle`` streams each Lax-Friedrichs slice as the
scheme yields it.  ``solve`` and ``check`` hand independent work to one
forked call (``_Forked``): ``solve``'s child steps the forward march of phi,
the fixed point, and streams it into slab.csv as ``oracle`` streams its
scheme, while this process runs the Picard wavefront that certifies it;
``check``'s child runs the Lax-Friedrichs oracle and returns its final
slice, beside the variational suites, which step phi once: ``_march`` fills
the slab that the property battery, the backtrack and the match read, and
``check``'s ``stencil_reach`` is that march's alone.  With one usable CPU,
or when no process can be forked, the same work runs here afterwards.
``check``'s dH-law flow starts at the argmin of u(T) with the fixed
momentum ``_CHECK_MOMENTUM`` on every axis, so ``seed`` is only recorded
in the manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
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
from .fdoracle import _lf_march, _stable_step, lf_final
from .kernels import _BLOCK_ELEMENTS, row_path
from .semigroup import (
    _backtrack,
    _march,
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

# the most bytes a command may plan to hold (1 GiB)
MEMORY_BUDGET_BYTES = 1 << 30
# the most work a command may plan, in ns: about 9 minutes, 4e10
# Lax-Friedrichs point-steps at 14 ns
_WORK_BUDGET_NS = 5.6e11
# per stacked row, the slices a kernel or Lax-Friedrichs step holds beside its
# input (measured: at most 7.4, and 11.1 for a whole Lax-Friedrichs run of any
# family on 1-D N=256 to 65536 and 2-D N=32 to 256, its buffers dp, dm and c
# of dim slices each among them), and the bytes one CSV row of a block holds
# in strings and floats (measured: at most about 370)
_KERNEL_COPIES, _LF_COPIES, _ROW_BYTES = 8, 16, 512
# the bytes converge keeps per step of its history: two Python floats in lists,
# their two arrays and the stacked table converge writes
_HISTORY_BYTES = 128
# the bytes char holds per RK4 state: the Python floats of flow, its
# arrays, and the law's temporaries (measured: at most 266 in 1-D, 362 in 2-D)
_CHAR_STATE_BYTES = 512
# beside the kernel's tables, critical's policy iteration holds size-length
# vectors (padded windows of v and eta among them) and temporaries of its
# candidate blocks of _BLOCK_ELEMENTS (measured: at most 3.5 blocks where the
# vectors are negligible)
_POLICY_VECTORS, _POLICY_BLOCKS = 32, 4
# a Lax-Friedrichs step counts its size plus _LF_STEP_POINTS, its fixed cost in
# points, at _LF_POINT_NS each (measured: 11-14 us a step up to 256 points and
# at most 12.1 ns a point-step beyond, at 2-D N=256, so 14 ns times size + 1024
# bounds every step measured from 1-D N=16 to 2-D N=256)
_LF_POINT_NS, _LF_STEP_POINTS = 14, 1024
# an action table step counts size * size * n_offsets candidates plus
# _TABLE_STEP_CANDIDATES, its fixed cost in candidates, at _CANDIDATE_NS each
# (measured: 0.7-3.2 ns a candidate over the full stencil from 1-D N=64 and
# 2-D N=8 up to 1-D N=1024 and 2-D N=32; 53-270 us a step from 1-D N=2 to 64
# and at 2-D N=4, 61-97 us at 1-D N=16 with 9 offsets; so 4 ns times the
# candidates + 65536 bounds each of those steps)
_CANDIDATE_NS, _TABLE_STEP_CANDIDATES = 4, 65536
# the RK4 step of check's dH-law flow
_CHECK_DT_ODE = 1e-3
# the momentum, on every axis, from which check launches its dH-law flow: the
# law holds along any flow, and at the argmin of u(T) a zero momentum is an
# equilibrium of a mechanical model, where the law would test nothing
_CHECK_MOMENTUM = 0.5


def _property_horizons(cfg: RunConfig) -> list:
    """The horizons at which ``check`` compares the semigroup properties."""
    return [t for t in (0.5, 1.0) if t <= cfg.T + 1e-9] or [cfg.T]


def _plan(command: str, cfg: RunConfig) -> dict:
    """What a command plans to step, hold and do, built from its parsed
    config; building it rejects, naming the config key, what the command
    cannot step, hold or do.  ``main`` builds it once, before the output
    directory, and the manifest records it.

    ``steps`` holds the step count of each stage; ``bytes`` the bytes of
    each named part; ``bytes_key`` the config key that mends a run over
    the memory budget; ``work``, one entry per unit of work, its count, the
    ns of one, the config key that mends it and the steps it counts;
    ``budgets``, the memory and work budgets.  Only this function reads
    the budgets and the measured constants beside them.

    Steps: ``char`` needs its ``char`` block and at least 2 RK4 steps of
    ``char.dt_ode`` (``flow``'s count, ``int(round(t / dt_ode))``) for the
    dH law's centred difference, named ``char.t``.  ``solve``, ``action``
    and ``check`` step solver.T, and ``check`` its property horizons, by
    grid.dt: each must be a positive multiple of it, in a step count a
    float can hold.  ``check`` also needs at least 3 steps (the calibrated
    chain is matched from its first interior slice to the one before its
    end) and a dH-law flow over min(T, 1) of at least 2 RK4 steps of
    ``_CHECK_DT_ODE``; ``oracle`` and ``check`` need a count of oracle.dt_fd
    steps a float can hold.  Each is named ``solver.T``, but for a fixed
    property horizon (0.5 or 1) that grid.dt does not divide, which no T
    mends: that one is named ``grid.dt``.  ``critical`` and ``action`` need
    a finite coupling at their frozen level ``solver.a``.

    Memory: the parts, summed, must fit ``MEMORY_BUDGET_BYTES``.  CSVs are
    streamed one block of at most grid.size rows (``_TABLE_ROWS`` for a
    table without a grid axis) at a time, so every command holds
    ``text_block``, that block at ``_ROW_BYTES`` a row, and
    ``candidate_block``, one block of ``_BLOCK_ELEMENTS`` floats of a step.
    A step holds, per stacked row, ``_KERNEL_COPIES`` (kernel) or
    ``_LF_COPIES`` (Lax-Friedrichs) slices.  ``kernel_tables`` are V and,
    on 2-D "left", a start cost (at most 5*size), and the n_offsets*size
    ``base_cost`` where it is built: off the row path (``kernels.row_path``)
    and by ``critical``; the build falls inside the step's block.
    - ``critical``: ``kernel_tables``, ``policy_vectors`` (``_POLICY_VECTORS``
      size-length vectors) and ``policy_blocks`` (``_POLICY_BLOCKS``
      candidate blocks);
    - ``action``: ``table_rows``, its table and a step of its size rows;
    - ``oracle``: ``lf_step``, one Lax-Friedrichs step (the slice it
      streams), no slab;
    - ``solve``: ``kernel_tables``; ``slab``, the n + 1 slices slab.csv
      streams, which no process holds: for a u-independent model only they
      grow with T, so they keep a horizon such as 1e300 from running
      unbounded; ``stacked_rows``, the Picard wavefront (iterate 0 and up to
      n + 1 rows, one if H does not depend on u) with a step of its rows,
      and the writer's march of one row with a step of it, as ``check``
      counts its oracle's step (the writer holds the one text block);
    - ``check``: ``kernel_tables``; ``slab``, its one slab over [0, T] (the
      march of phi, filled from ``_march``, that the battery reads and the
      backtrack walks); ``stacked_rows``, the three probe rows the battery
      steps one at a time, with one row's step beside them (the march's
      one-row step, and the weak KAM residual's slopes and H, are smaller);
      and ``lf_step``, one Lax-Friedrichs step;
    - ``converge``: ``kernel_tables``, ``stacked_rows`` (its slice and one
      step of it) and ``history``, ``_HISTORY_BYTES`` per step;
    - ``char``: ``rk4_states``, ``_CHAR_STATE_BYTES`` per RK4 state of its
      one trajectory.
    A run over the budget is named by ``bytes_key``: ``solver.T`` when the
    horizon's n + 1 slices at one float each exceed it (no grid could hold
    or stream them), ``solver.checkpoints`` when converge's history alone
    does, ``char.t`` for ``char``, and ``grid.N`` otherwise.  For ``solve``
    the message says what the estimate counts, what the run would hold and
    stream to slab.csv.

    Work: the work, summed in ns, must fit ``_WORK_BUDGET_NS``.  ``oracle``
    and ``check`` take round(T / oracle.dt_fd) (at least 1) Lax-Friedrichs
    steps, each counted as its size plus ``_LF_STEP_POINTS`` point-steps of
    ``_LF_POINT_NS``; a run over the budget is named by ``solver.T`` when
    even the largest step both of the oracle's conditions allow
    (``fdoracle._stable_step``) would exceed it, and ``oracle.dt_fd``
    otherwise.  ``action`` counts size * size * n_offsets candidates of
    ``_CANDIDATE_NS`` a table step, plus ``_TABLE_STEP_CANDIDATES`` for its
    fixed cost, named ``solver.T``.  Work is checked after memory.
    """
    grid, size, text_rows = cfg.grid, cfg.grid.size, cfg.grid.size
    row = size * 8  # the bytes of one slice
    steps, parts, work, key = {}, {}, [], "grid.N"
    if command in ("critical", "action"):
        with np.errstate(over="ignore", invalid="ignore"):
            _require(math.isfinite(cfg.model.coupling(cfg.a)), "solver.a",
                     f"the coupling at the frozen level {cfg.a:g} is past the float range")
    if command in ("solve", "action", "check"):
        steps["march"] = n = _named("solver.T", _horizon_steps, cfg.T, cfg.dt)
        key = "solver.T" if (n + 1) * 8 > MEMORY_BUDGET_BYTES else key
    if command == "check":
        for t in _property_horizons(cfg):
            try:
                _horizon_steps(t, cfg.dt)
            except ConfigurationError:
                _require(False, "grid.dt", f"dt={cfg.dt:g} does not divide check's fixed "
                         f"property horizon {t:g} into a whole number of steps")
        _require(n >= 3, "solver.T", f"check needs at least 3 steps of grid.dt={cfg.dt:g}, got {n}")
        steps["rk4"] = law = int(round(min(cfg.T, 1.0) / _CHECK_DT_ODE))
        _require(law >= 2, "solver.T", f"check's dH-law flow over min(T, 1) needs at "
                 f"least 2 RK4 steps of {_CHECK_DT_ODE:g}, got {law}")
    if command in ("oracle", "check"):
        steps["oracle"] = lf = cfg.T_fd / cfg.dt_fd  # T_fd raises naming solver.T
        dt_most = _stable_step(cfg.model, grid, cfg.alpha)  # the oracle's largest step
        at_most = max(1.0, cfg.T / dt_most) * (size + _LF_STEP_POINTS) * _LF_POINT_NS
        work.append({"unit": "Lax-Friedrichs point-steps", "count": lf * (size + _LF_STEP_POINTS),
                     "ns_each": _LF_POINT_NS, "steps": f"{lf:.3g} steps of dt_fd={cfg.dt_fd:g}",
                     "key": "solver.T" if at_most > _WORK_BUDGET_NS else "oracle.dt_fd"})
        # one Lax-Friedrichs step, and the slice oracle streams
        parts["lf_step"] = (_LF_COPIES + (command == "oracle")) * row
    offsets = len(stencil_offsets(grid, cfg.v_max, cfg.dt))
    if command in ("solve", "check", "converge", "critical"):
        # V and a start cost, and base_cost where it is built
        built = command == "critical" or not row_path(grid, cfg.quadrature)
        parts["kernel_tables"] = (5 + offsets * built) * row
    if command == "critical":
        parts["policy_vectors"] = _POLICY_VECTORS * row
        parts["policy_blocks"] = _POLICY_BLOCKS * _BLOCK_ELEMENTS * 8
    elif command == "action":
        parts["table_rows"] = (1 + _KERNEL_COPIES) * size * row
        work.append({"unit": "kernel candidates",
                     "count": float(n) * (size * size * offsets + _TABLE_STEP_CANDIDATES),
                     "ns_each": _CANDIDATE_NS, "steps": f"{n:.3g} steps of dt={cfg.dt:g}",
                     "key": "solver.T"})
    elif command == "solve":
        steps["picard_rows"] = rows = n + 1 if cfg.model.lipschitz_u else 1
        parts["slab"] = (n + 1) * row
        parts["stacked_rows"] = (1 + (1 + _KERNEL_COPIES) * (rows + 1)) * row
    elif command == "check":
        parts["slab"] = (n + 1) * row
        parts["stacked_rows"] = (3 + _KERNEL_COPIES) * row
    elif command == "converge":
        # a float, so a horizon past the float range of steps reads inf
        steps["march"] = max(cfg.checkpoints) / cfg.dt
        parts["stacked_rows"] = (2 + _KERNEL_COPIES) * row
        parts["history"] = (steps["march"] + 2) * _HISTORY_BYTES
        key = "solver.checkpoints" if parts["history"] > MEMORY_BUDGET_BYTES else key
        text_rows = max(size, _TABLE_ROWS)
    elif command == "char":
        _require(cfg.char is not None, "char", "block is required for the char command")
        # a float, so a trajectory past the float range of states reads inf
        steps["rk4"] = states = cfg.char["t"] / cfg.char["dt_ode"]
        count = int(round(states)) if math.isfinite(states) else math.inf
        _require(count >= 2, "char.t", f"char needs at least 2 RK4 steps of "
                 f"dt_ode={cfg.char['dt_ode']:g} for the dH law, got {count}")
        parts["rk4_states"] = (states + 2) * _CHAR_STATE_BYTES
        text_rows, key = _TABLE_ROWS, "char.t"
    parts["candidate_block"] = _BLOCK_ELEMENTS * 8
    parts["text_block"] = text_rows * _ROW_BYTES
    planned = sum(parts.values())
    holds = "hold and stream to slab.csv" if command == "solve" else "hold"
    _require(planned <= MEMORY_BUDGET_BYTES, key,
             f"{command} on {grid.dim}-D N={grid.n} would {holds} about "
             f"{planned / 2**30:.3g} GiB, above the budget of {MEMORY_BUDGET_BYTES / 2**30:g} GiB")
    if work:
        most = max(work, key=lambda w: w["count"] * w["ns_each"])
        _require(sum(w["count"] * w["ns_each"] for w in work) <= _WORK_BUDGET_NS, most["key"],
                 f"{command} on {grid.dim}-D N={grid.n} would take about {most['count']:.3g} "
                 f"{most['unit']} ({most['steps']}), above the budget of "
                 f"{_WORK_BUDGET_NS / most['ns_each']:g}")
    return {"steps": steps, "bytes": parts, "bytes_key": key, "work": work,
            "budgets": {"bytes": MEMORY_BUDGET_BYTES, "work_ns": _WORK_BUDGET_NS}}


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


def _manifest(cfg: RunConfig, out_dir: str, command: str, threads: int, elapsed: float,
              plan: dict, extra):
    doc = {
        "command": command,
        "version": __version__,
        "numpy": np.__version__,
        "threads": threads,
        "elapsed_seconds": elapsed,
        "resolved_config": cfg.resolved(),
        "plan": plan,
        **extra,
    }
    _write(out_dir, "manifest.json", json.dumps(doc, indent=2, default=str) + "\n")


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, or os.cpu_count()
    where the platform has no sched_getaffinity."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Forked:
    """``work()`` run by a forked child process beside this one.

    The child sends its pickled value, or the exception it raised, down one
    pipe and exits.  ``finish`` reads the pipe to its end before reaping the
    child, so a value larger than the pipe's buffer cannot stall either,
    sets ``usage`` to the child's CPU seconds and peak RSS from wait4, and
    returns the value or raises the exception unchanged.  ``close`` kills
    and reaps a child still running.  With one usable CPU, or when os.fork
    fails, nothing is forked: ``finish`` returns ``work()`` run here and
    ``usage`` stays None.  A child only steps arrays and writes a file, so
    it takes no lock another thread of the parent could hold at the fork.
    """

    def __init__(self, work):
        self.work, self.pid, self.usage = work, None, None
        if _usable_cpus() == 1:
            return
        result_r, result_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:  # no process to spare: finish runs work here
            os.close(result_r)
            os.close(result_w)
            return
        if self.pid == 0:  # the child never returns into the caller's stack
            code = 2  # neither value nor exception sent
            try:
                os.close(result_r)
                try:
                    result, sent = pickle.dumps(work()), 0
                except Exception as e:
                    result, sent = pickle.dumps(e), 1
                with os.fdopen(result_w, "wb") as fh:
                    fh.write(result)
                code = sent
            finally:
                os._exit(code)
        os.close(result_w)
        self._result = os.fdopen(result_r, "rb")

    def finish(self):
        """Wait for work to end, here or in the child; return its value or
        raise what it raised."""
        if self.pid is None:
            return self.work()
        with self._result:
            result = self._result.read()
        _, status, usage = os.wait4(self.pid, 0)
        self.pid = None
        self.usage = {"cpu_seconds": usage.ru_utime + usage.ru_stime,
                      "max_rss_mb": usage.ru_maxrss / 1024.0}
        code = os.waitstatus_to_exitcode(status)
        if code == 0:
            return pickle.loads(result)
        if code == 1:
            raise pickle.loads(result)
        raise OSError(f"the forked child exited with status {code}")

    def close(self):
        """Kill and reap a child still running."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
            self._result.close()


def cmd_solve(cfg: RunConfig, out_dir: str) -> tuple:
    """Fixed point on [0, T]: slab.csv, fixedpoint.csv and the manifest.

    The fixed point is the forward march of phi, so a ``_Forked`` writer
    steps it (``_march``) and streams it into slab.csv while this process
    runs the Picard wavefront for fixedpoint.csv's certificate, when it may
    run on at least two CPUs (``_usable_cpus``), and here after the
    wavefront otherwise; the bytes are the same either way.  A failed write
    makes the run exit 2 naming slab.csv, and a non-finite Picard gap exit 3
    (``NumericError``); that or any error in the wavefront leaves no
    slab.csv and no partial file.
    """
    phi, kern = cfg.phi_field(), cfg.kernel()
    n = _horizon_steps(cfg.T, cfg.dt)

    def write_slab():
        slices = _march(kern, phi, n)
        _write(out_dir, "slab.csv", lambda fh: _write_slab(fh, cfg.grid, cfg.dt, slices))

    writer = _Forked(write_slab)
    try:
        _, report = fixed_point(kern, phi, cfg.T, tol=cfg.tol)
        for k, gap in enumerate(report.residual_history, 1):
            if not math.isfinite(gap):
                raise NumericError(f"the Picard gap of iterate {k} is not finite: {gap!r}")
        reach = kern.stencil_reach()  # before a writer run here steps kern too
        try:
            writer.finish()
        except OSError as e:
            raise OSError(f"writing {os.path.join(out_dir, 'slab.csv')}: {e}") from e
    except BaseException:  # a killed writer leaves its partial file, a finished one slab.csv
        writer.close()
        for name in ("slab.csv", "slab.csv.part"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, name))
        raise
    _write(out_dir, "fixedpoint.csv", report.to_csv())
    return EXIT_OK, {"iterations": report.iterations, "stencil_reach": reach,
                     "slab_writer": writer.usage}


def cmd_converge(cfg: RunConfig, out_dir: str) -> tuple:
    """convergence.csv, u_inf.csv and residual.csv; a weak KAM residual whose
    max or rms is not finite exits 3 before any is written."""
    kern = cfg.kernel()
    rep = converge(kern, cfg.phi_field(), max(cfg.checkpoints), cfg.stop_eps)
    res = rep.residual
    if not (math.isfinite(res.max_abs_smooth) and math.isfinite(res.rms_smooth)):
        raise NumericError(f"the weak KAM residual is not finite: max {res.max_abs_smooth!r},"
                           f" rms {res.rms_smooth!r}")
    _write(out_dir, "convergence.csv", rep.write_csv)
    _write(out_dir, "u_inf.csv", rep.u_inf.write_csv)
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
    child runs it beside the variational suites and returns its final slice
    (on one CPU it runs here, after them); this process writes residual.csv
    before it waits for that slice.  The manifest's ``oracle_process`` block
    is the child's CPU and peak RSS, or null, and its ``stencil_reach`` that
    of the march of phi, read before the battery steps its probe rows.  The
    dH-law flow runs over min(T, 1) from x_end, the argmin of u(T), at u(T)
    there, with momentum ``_CHECK_MOMENTUM`` on every axis.
    """
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

    with contextlib.closing(_Forked(lambda: lf_final(cfg.lf(), phi, cfg.T_fd).values)) as oracle:
        psi = GridField(cfg.grid, phi.values + 0.2 * np.cos(
            2 * np.pi * cfg.grid.points()[:, 0] + 1.0))
        # one kernel serves every suite below, and one march of phi, which the
        # battery, the backtrack, the match and the cross-solver comparison read
        kern = cfg.kernel()
        slab = np.empty((_horizon_steps(cfg.T, kern.dt) + 1, cfg.grid.size))
        for k, values in enumerate(_march(kern, phi, len(slab) - 1)):
            slab[k] = values
        reach = kern.stencil_reach()  # the march's alone: the probe rows are steeper than phi
        u = SpaceTimeField(cfg.grid, kern.dt, slab)
        prop = check_properties(kern, u, psi, _property_horizons(cfg))
        record("semigroup_properties", prop.all_within(2 * max(cfg.tol, 1e-12)),
               f"uniform_bound={prop.uniform_bound!r}")

        # a march by this kernel is its operator's fixed point by construction
        x_end = int(np.argmin(u.values[-1]))
        curve = _backtrack(kern, u, x_end)
        record("calibrated_defect", curve.max_defect() <= 1e-9,
               f"max_defect={curve.max_defect()!r}")

        s0 = CharacteristicState(
            x=cfg.grid.points()[x_end], u=float(u.values[-1, x_end]),
            p=[_CHECK_MOMENTUM] * cfg.grid.dim,
        )
        law = dH_law_residual(cfg.model, flow(cfg.model, s0, min(cfg.T, 1.0), _CHECK_DT_ODE))
        record("dh_law", law.rms_residual <= 1e-4, f"rms={law.rms_residual!r}")

        match = match_calibrated(cfg.model, curve, u, dt_ode=cfg.dt / 4)
        record("char_match", match.sup_distance <= 5 * cfg.grid.dx,
               f"sup_distance={match.sup_distance!r}")

        res = weak_kam_residual(cfg.model, u.final())
        _write(
            out_dir, "residual.csv",
            "max_residual_smooth,rms_residual_smooth,kink_count\n"
            f"{res.max_abs_smooth!r},{res.rms_smooth!r},{res.kink_count}\n",
        )

        try:
            gap = float(np.max(np.abs(oracle.finish() - u.values[-1])))
            record("oracle_cross", gap <= 0.1, f"sup_gap={gap!r}")
        except NumericError as e:  # the message names the step
            record("oracle_cross", False, str(e))

    _write(out_dir, "check.csv", "\n".join(rows) + "\n")
    if failures:
        print("check: failing suites: " + ", ".join(failures), file=sys.stderr)
    return EXIT_CHECK_FAILED if failures else EXIT_OK, {
        "failures": failures, "stencil_reach": reach, "oracle_process": oracle.usage}


_COMMANDS = {
    "solve": cmd_solve,
    "converge": cmd_converge,
    "critical": cmd_critical,
    "action": cmd_action,
    "char": cmd_char,
    "oracle": cmd_oracle,
    "check": cmd_check,
}


def _run(command: str, cfg: RunConfig, out_dir: str, threads: int, plan: dict) -> int:
    """Time a command in its prepared output directory and write its manifest,
    which records the command's validated ``plan``; a ``NumericError`` prints
    ``<command>: <message>`` and exits 3 without one."""
    t0 = time.perf_counter()
    try:
        code, extra = _COMMANDS[command](cfg, out_dir)
    except NumericError as e:
        print(f"{command}: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    _manifest(cfg, out_dir, command, threads, time.perf_counter() - t0, plan, extra)
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
        plan = _plan(args.command, cfg)
        _prepare_out(out_dir, args.overwrite)
        return _run(args.command, cfg, out_dir, args.threads, plan)
    except (ConfigurationError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
