import contextlib
import errno
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
import yaml

import weakkam
from oracles import march
from test_action import assert_matches_karp
from test_config import assert_loaders_agree
from weakkam import action, fdoracle, kernels, models, torus
from weakkam.cli import _check_command, _Forked, _launch_momentum, _run, main
from weakkam.config import load_config
from weakkam.errors import ConfigurationError, NumericError
from weakkam.semigroup import _march, fixed_point

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
import workloads  # noqa: E402


def write_config(path, **overrides):
    doc = {
        "model": {
            "family": "quadratic-discounted",
            "lambda": 1.0,
            "potential": [[1, 1.0]],
        },
        "grid": {"N": 64, "dt": 0.0625, "v_max": 4.0},
        "solver": {"T": 1.0, "tol": 0.0},
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and key in doc:
            doc[key].update(val)
        else:
            doc[key] = val
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh)
    assert_loaders_agree(path)
    return str(path)


def run(args):
    return main([str(a) for a in args])


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def with_cpus(monkeypatch, n):
    """Make this process look as if it may run on n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_solve_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.yaml")
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out]) == 0
    assert sorted(os.listdir(out)) == ["fixedpoint.csv", "manifest.json", "slab.csv"]
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "solve"
    assert manifest["resolved_config"]["grid.N"] == 64
    with open(out / "slab.csv") as fh:
        head = fh.readline().strip()
    assert head == "k,t,j,x,u"


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_solve_slab_file_is_the_fixed_point_text(tmp_path, monkeypatch, dim):
    # two CPUs: a forked process writes the slab while the wavefront marches
    with_cpus(monkeypatch, 2)
    model = {"dim": 2, "potential": [[1, 0, 1.0], [0, 1, 0.5]]} if dim == 2 else {}
    grid = {"N": 16} if dim == 2 else {}
    cfg_path = write_config(tmp_path / "run.yaml", model=model, grid=grid)
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg_path, "--out", out]) == 0
    assert_no_child_process()
    assert sorted(os.listdir(out)) == ["fixedpoint.csv", "manifest.json", "slab.csv"]
    cfg = load_config(cfg_path)
    kern, phi = cfg.kernel(), cfg.phi_field()
    slices = list(_march(kern, phi, round(cfg.T / cfg.dt)))
    u = torus.SpaceTimeField(cfg.grid, cfg.dt, np.array(slices))
    assert (out / "slab.csv").read_bytes() == u.to_csv().encode()
    # the march the writer streams ends at the wavefront's top row
    assert fixed_point(kern, phi, cfg.T, tol=cfg.tol)[0].tobytes() == slices[-1].tobytes()
    writer = json.loads((out / "manifest.json").read_text())["slab_writer"]
    assert writer["cpu_seconds"] >= 0.0 and writer["max_rss_mb"] > 0.0


def _no_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


def _fork_fails(monkeypatch):
    with_cpus(monkeypatch, 2)

    def fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)


def _one_cpu(monkeypatch):
    with_cpus(monkeypatch, 1)


@pytest.mark.parametrize(
    "setup",
    [_one_cpu, _no_affinity_call, _fork_fails],
    ids=["one-cpu", "one-cpu-no-affinity-call", "fork-fails"],
)
def test_solve_without_a_writer_process_writes_the_same_bytes(tmp_path, monkeypatch, setup):
    with_cpus(monkeypatch, 2)
    cfg = write_config(tmp_path / "run.yaml")
    assert run(["solve", "--config", cfg, "--out", tmp_path / "forked"]) == 0
    with monkeypatch.context() as mp:
        setup(mp)
        if setup is not _fork_fails:
            mp.setattr(os, "fork", lambda: pytest.fail("forked with one usable CPU"))
        assert run(["solve", "--config", cfg, "--out", tmp_path / "here"]) == 0
    assert_no_child_process()
    for name in ("slab.csv", "fixedpoint.csv"):
        assert (tmp_path / "here" / name).read_bytes() == (tmp_path / "forked" / name).read_bytes()
    here, forked = (json.loads((tmp_path / name / "manifest.json").read_text())
                    for name in ("here", "forked"))
    assert here["slab_writer"] is None
    # the reach counts the wavefront's steps only, not those of a writer run here
    for key in ("stencil_reach", "iterations"):
        assert here[key] == forked[key]


@pytest.mark.parametrize(
    "setup",
    [_one_cpu, _no_affinity_call, _fork_fails],
    ids=["one-cpu", "one-cpu-no-affinity-call", "fork-fails"],
)
def test_check_without_an_oracle_process_writes_the_same_bytes(tmp_path, monkeypatch, setup):
    with_cpus(monkeypatch, 2)
    cfg = write_config(tmp_path / "run.yaml", solver={"T": 0.5, "phi": [[1, 0.3]]},
                       oracle={"alpha": 4.1})
    code = run(["check", "--config", cfg, "--out", tmp_path / "forked"])
    assert_no_child_process()
    oracle = json.loads((tmp_path / "forked" / "manifest.json").read_text())["oracle_process"]
    assert oracle["cpu_seconds"] >= 0.0 and oracle["max_rss_mb"] > 0.0
    with monkeypatch.context() as mp:
        setup(mp)
        if setup is not _fork_fails:
            mp.setattr(os, "fork", lambda: pytest.fail("forked with one usable CPU"))
        assert run(["check", "--config", cfg, "--out", tmp_path / "here"]) == code
    assert_no_child_process()
    for name in ("check.csv", "residual.csv"):
        assert (tmp_path / "here" / name).read_bytes() == (tmp_path / "forked" / name).read_bytes()
    assert "oracle_cross,1," in (tmp_path / "here" / "check.csv").read_text()
    assert json.loads((tmp_path / "here" / "manifest.json").read_text())["oracle_process"] is None


def test_check_whose_battery_fails_leaves_no_oracle_process(tmp_path, monkeypatch, capsys):
    with_cpus(monkeypatch, 2)
    forks = []
    real_fork = os.fork

    def recording_fork():
        forks.append(1)
        return real_fork()

    def failing_check_properties(*args, **kwargs):
        raise OSError(errno.EIO, "Input/output error")

    def slow_lf_final(*args, **kwargs):
        time.sleep(30.0)

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr("weakkam.cli.check_properties", failing_check_properties)
    # the forked oracle inherits the patched module and is still running when
    # the battery fails, so only a kill ends it in time
    monkeypatch.setattr("weakkam.cli.lf_final", slow_lf_final)
    cfg = write_config(tmp_path / "run.yaml", solver={"T": 0.5}, oracle={"alpha": 4.1})
    out = tmp_path / "out"
    t0 = time.perf_counter()
    assert run(["check", "--config", cfg, "--out", out]) == 2
    assert time.perf_counter() - t0 < 10.0
    assert_no_child_process()
    assert len(forks) == 1
    assert "Input/output error" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_forked_value_past_the_pipe_buffer_comes_back_bitwise(monkeypatch):
    with_cpus(monkeypatch, 2)
    values = np.cos(np.arange(20_000.0))  # 160 KB, past a 64 KiB pipe buffer

    def stalled(signum, frame):
        raise TimeoutError("finish waited on a child blocked on a full pipe")

    old = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(30)
    try:
        with contextlib.closing(_Forked(lambda: values * 3.0)) as forked:
            got = forked.finish()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert_no_child_process()
    assert forked.usage["cpu_seconds"] >= 0.0 and forked.usage["max_rss_mb"] > 0.0
    assert got.tobytes() == (values * 3.0).tobytes()


def test_forked_error_comes_back_with_its_type_and_message(monkeypatch):
    with_cpus(monkeypatch, 2)

    def fail():
        raise NumericError("Lax-Friedrichs step 3 produced a non-finite value")

    forked = _Forked(fail)
    with pytest.raises(NumericError) as raised:
        forked.finish()
    assert_no_child_process()
    assert forked.usage is not None
    assert type(raised.value) is NumericError
    assert str(raised.value) == "Lax-Friedrichs step 3 produced a non-finite value"


def test_forked_work_on_one_cpu_returns_the_same_value(monkeypatch):
    values = np.cos(np.arange(1_000.0))
    with_cpus(monkeypatch, 2)
    forked = _Forked(lambda: values * 3.0).finish()
    with_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one usable CPU"))
    here = _Forked(lambda: values * 3.0)
    assert here.finish().tobytes() == forked.tobytes()
    assert here.usage is None


def test_forked_close_kills_a_running_child(monkeypatch):
    with_cpus(monkeypatch, 2)
    forked = _Forked(lambda: time.sleep(30.0))
    assert forked.pid is not None
    t0 = time.perf_counter()
    forked.close()
    assert time.perf_counter() - t0 < 10.0
    assert_no_child_process()
    assert forked.pid is None and forked.usage is None


def test_solve_whose_march_fails_leaves_no_file(tmp_path, monkeypatch, capsys):
    with_cpus(monkeypatch, 2)
    forks, applies = [], []
    real_fork, real_apply = os.fork, kernels.StepKernel.apply

    def recording_fork():
        forks.append(1)
        return real_fork()

    def failing_apply(self, w, u_slice):
        applies.append(1)
        if len(applies) > 5:
            raise OSError(errno.EIO, "Input/output error")
        return real_apply(self, w, u_slice)

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(kernels.StepKernel, "apply", failing_apply)
    cfg = write_config(tmp_path / "run.yaml")
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out]) == 2
    assert_no_child_process()
    assert len(forks) == 1 and len(applies) == 6
    assert "Input/output error" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_long_horizon_solve_ends_its_certificate_inside_the_march(tmp_path):
    # T*lambda_L = 24: the certificate needs 77 of the 385 possible Picard
    # iterations at the default tol, which no fixed iteration cap may refuse
    doc = {
        "model": {"family": "quadratic-discounted", "lambda": 1.0, "potential": [[1, 1.0]]},
        "grid": {"N": 64, "dt": 1.0 / 16, "v_max": 4.0},
        "solver": {"T": 24.0, "phi": [[1, 0.3]]},
    }
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(doc))
    assert_loaders_agree(cfg_path)
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg_path, "--out", out]) == 0
    cfg = load_config(str(cfg_path))
    assert cfg.tol == 1e-10
    marched = march(cfg.kernel(), cfg.phi_field(), cfg.T)
    assert (out / "slab.csv").read_bytes() == marched.to_csv().encode()
    last = (out / "fixedpoint.csv").read_text().splitlines()[-1].split(",")
    assert int(last[0]) == 77 and float(last[1]) < 1e-10


def test_solve_past_the_float_range_of_k_factorial_writes_its_certificate(tmp_path):
    # T*lambda_L = 64: the certificate runs to 188 rows, past k! = 170!, the
    # largest factorial in float range
    cfg = write_config(tmp_path / "run.yaml", grid={"N": 16, "dt": 1.0 / 16},
                       solver={"T": 64.0, "quadrature": "exact", "phi": [[1, 0.3]]})
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out]) == 0
    assert sorted(os.listdir(out)) == ["fixedpoint.csv", "manifest.json", "slab.csv"]
    rows = (out / "fixedpoint.csv").read_text().splitlines()
    assert len(rows) == 1 + 188 and rows[-1].split(",")[1] == "0.0"
    assert json.loads((out / "manifest.json").read_text())["iterations"] == 188


def test_solve_whose_slab_writer_fails_leaves_no_file(tmp_path, monkeypatch, capsys):
    with_cpus(monkeypatch, 2)

    def failing_write_csv(fh, head, blocks):
        raise OSError(errno.ENOSPC, "No space left on device")

    # the forked writer inherits the patched module
    monkeypatch.setattr(torus, "_write_csv", failing_write_csv)
    cfg = write_config(tmp_path / "run.yaml")
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out]) == 2
    assert_no_child_process()
    assert "slab.csv" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_solve_whose_in_process_write_fails_leaves_no_file(tmp_path, monkeypatch, capsys):
    with_cpus(monkeypatch, 1)
    real_write_csv = torus._write_csv

    def failing_blocks(blocks):
        for i, block in enumerate(blocks):
            if i == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            yield block

    monkeypatch.setattr(torus, "_write_csv",
                        lambda fh, head, blocks: real_write_csv(fh, head, failing_blocks(blocks)))
    cfg = write_config(tmp_path / "run.yaml")
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("overrides", [
    # each step adds dt * 1e308 to every value: the march leaves the float range
    dict(model={"action_shift": 1e308}, grid={"dt": 1 / 32},
         solver={"T": 4.0, "quadrature": "exact"}),
    # phi = 1e308 cos(2 pi x): the first iterate's distance from phi overflows
    dict(grid={"N": 16, "dt": 1 / 16}, solver={"T": 0.25, "phi": [[1, 1e308]]}),
], ids=["action_shift", "phi"])
def test_solve_whose_picard_gap_is_not_finite_exits_3_and_leaves_no_file(
        tmp_path, monkeypatch, capsys, recwarn, overrides):
    with_cpus(monkeypatch, 2)  # the writer may finish slab.csv before the gap is read
    cfg = write_config(tmp_path / "run.yaml", **overrides)
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out]) == 3
    assert_no_child_process()
    assert capsys.readouterr().err == "solve: the Picard gap of iterate 1 is not finite: inf\n"
    assert os.listdir(out) == []
    assert not [w for w in recwarn if w.filename.endswith("semigroup.py")]


def test_converge_whose_residual_is_not_finite_exits_3_and_writes_nothing(
        tmp_path, capsys, recwarn):
    # H - 1e308 stays finite along u_inf, but the square of its largest
    # residual, about 3e293, leaves the float range
    cfg = write_config(tmp_path / "run.yaml", model={"action_shift": 1e308},
                       grid={"dt": 1 / 32}, solver={"quadrature": "exact"})
    out = tmp_path / "out"
    assert run(["converge", "--config", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("converge: the weak KAM residual is not finite: max ")
    assert err.endswith(", rms inf\n") and err.count("\n") == 1
    assert os.listdir(out) == []
    assert not [w for w in recwarn if w.filename.endswith("semigroup.py")]


def test_converge_whose_step_increment_overflows_exits_3_without_a_warning(
        tmp_path, capfd, recwarn):
    # phi = 1e308 cos(2 pi x) under the default v_max: the increment of a
    # step leaves the float range
    cfg = str(tmp_path / "run.yaml")
    with open(cfg, "w") as fh:
        yaml.safe_dump({"model": {"family": "quadratic-discounted", "lambda": 1.0,
                                  "potential": [[1, 1.0]]},
                        "grid": {"N": 16, "dt": 1 / 16},
                        "solver": {"T": 1.0, "tol": 0.0, "phi": [[1, 1e308]]}}, fh)
    out = tmp_path / "out"
    assert run(["converge", "--config", cfg, "--out", out]) == 3
    err = capfd.readouterr().err
    assert err.startswith("converge: the weak KAM residual is not finite: ")
    assert err.count("\n") == 1 and "RuntimeWarning" not in err
    assert os.listdir(out) == []
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_solve_2d_writes_march_and_certificate(tmp_path):
    cfg_path = write_config(
        tmp_path / "run.yaml",
        model={"dim": 2, "potential": [[1, 0, 1.0], [0, 1, 0.5]]},
        grid={"N": 16, "dt": 1.0 / 16, "v_max": 4.0},
        solver={"T": 0.5, "tol": 0.0, "phi": [[1, 1, 0.3]]},
    )
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg_path, "--out", out]) == 0
    cfg = load_config(cfg_path)
    marched = march(cfg.kernel(), cfg.phi_field(), cfg.T)
    with open(out / "slab.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "k,t,j,x1,x2,u"
    slab = np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:]])
    assert slab.tobytes() == marched.values.ravel().tobytes()
    with open(out / "fixedpoint.csv") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    gaps, bounds = [float(r[1]) for r in rows], [float(r[2]) for r in rows]
    assert gaps[-1] == 0.0
    assert all(g <= 2.0 * b + 1e-15 for g, b in zip(gaps, bounds))


def test_invalid_dt_names_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.yaml", grid={"dt": 1.5})
    assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "grid.dt" in err


def test_unknown_key_names_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.yaml", model={"frobnicate": 3})
    assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "model.frobnicate" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert run(["solve", "--config", tmp_path / "nope.yaml", "--out", tmp_path / "o"]) == 2


def test_output_dir_collision_requires_overwrite(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.yaml")
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out]) == 0
    assert run(["solve", "--config", cfg, "--out", out]) == 2
    assert "--overwrite" in capsys.readouterr().err
    assert run(["solve", "--config", cfg, "--out", out, "--overwrite"]) == 0


def test_threads_must_be_positive(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.yaml")
    assert run(["solve", "--config", cfg, "--out", tmp_path / "o", "--threads", 0]) == 2


def test_converge_flags_unsettled_run(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "run.yaml",
        solver={"T": 1.0, "checkpoints": [0.5], "stop_eps": 1e-14},
    )
    out = tmp_path / "out"
    assert run(["converge", "--config", cfg, "--out", out]) == 3
    assert "did not settle" in capsys.readouterr().err
    assert (out / "convergence.csv").exists()
    # the one exit 3 that still writes the manifest
    assert json.loads((out / "manifest.json").read_text())["converged"] is False


def test_converge_history_past_the_budget_names_the_checkpoints(tmp_path, capsys):
    # 1.6e301 steps of dt=1/16: the history alone is past the budget; 1e307
    # steps would not fit a float
    for t in (1e300, 1e307):
        cfg = write_config(tmp_path / "run.yaml", solver={"checkpoints": [t]})
        out = tmp_path / "out"
        assert run(["converge", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config key `solver.checkpoints`" in err and len(err) < 200
        assert not out.exists()


@pytest.mark.parametrize(
    "command,T",
    [("solve", 1e308), ("oracle", 1e308), ("check", 1e308), ("action", 1e308),
     ("solve", 1e300), ("check", 1e300), ("action", 1e300)],
    ids=["solve-inf-steps", "oracle-inf-steps", "check-inf-steps", "action-inf-steps",
         "solve-budget", "check-budget", "action-work"],
)
def test_huge_horizon_is_rejected_before_output_naming_the_horizon(tmp_path, capsys, command, T):
    # 1e308 / (1/16) is past the float range (an OverflowError traceback,
    # and for oracle after its output directory); 1.6e301 steps of 1/16 hold
    # a slab no grid could fit, so the budget names the horizon, not grid.N,
    # and action's table, whose size does not grow with T, would take them
    # unbounded: its work budget names the horizon
    cfg = write_config(tmp_path / "run.yaml", solver={"T": T})
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "config key `solver.T`" in err and len(err) < 200 and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command,overrides,key",
    [("oracle", dict(solver={"T": 1e300}), "solver.T"),
     ("check", dict(oracle={"dt_fd": 1e-8}), "oracle.dt_fd"),
     ("oracle", dict(oracle={"dt_fd": 1e-8}), "oracle.dt_fd")],
    ids=["oracle-horizon", "check-dt_fd", "oracle-dt_fd"],
)
def test_oracle_work_past_the_budget_is_rejected_before_output(
        tmp_path, capsys, command, overrides, key):
    # 1e303 steps of the default dt_fd 1e-3, or 1e8 of dt_fd 1e-8, on 64
    # points: each step counts its points and a fixed 1024.  The key is
    # solver.T when even the largest dt_fd the scheme allows is too small
    cfg = write_config(tmp_path / "run.yaml", **overrides)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"config error: config key `{key}`: ")
    assert "Lax-Friedrichs point-steps" in err
    assert not out.exists()


def test_over_budget_solve_says_it_would_stream_the_slab(tmp_path, capsys):
    # nearly all of solve's estimate at T = 1e300 is the slab.csv text it
    # would stream, which no process holds; check holds its slab
    model = {"family": "quadratic-mechanical", "lambda": 0.0}
    cfg = write_config(tmp_path / "run.yaml", model=model, solver={"T": 1e300})
    for command, text in (
        ("solve", "solve on 1-D N=64 would hold and stream to slab.csv about 7.63e+294 GiB"),
        ("check", "check on 1-D N=64 would hold about 7.63e+294 GiB"),
    ):
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: config key `solver.T`: {text}, above the budget of 1 GiB\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("t,dt_ode", [(1e300, 1e-3), (1e3, 1e-303)], ids=["t", "dt_ode"])
def test_char_past_the_budget_is_rejected_before_output(tmp_path, capsys, t, dt_ode):
    # 1e303 RK4 states (and 1e306, past the float range of the count)
    cfg = write_config(tmp_path / "run.yaml",
                       char={"x0": [0.3], "p0": [0.5], "t": t, "dt_ode": dt_ode})
    out = tmp_path / "out"
    assert run(["char", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "config key `char.t`" in err and len(err) < 200
    assert not out.exists()


@pytest.mark.parametrize("v_max,radius,m", [(2.0, 8, 8), (4.0, 13, 16)])
def test_manifests_record_the_stencil_reach(tmp_path, v_max, radius, m):
    # 1-D discounted, V = cos 2 pi x, phi = 0.5 cos 2 pi x: v_max 2 truncates
    # minimizers (the reach is m), v_max 4 does not
    cfg = write_config(tmp_path / "run.yaml", grid={"N": 256, "dt": 1 / 64, "v_max": v_max},
                       solver={"phi": [[1, 0.5]], "quadrature": "exact", "checkpoints": [1.0]})
    for command in ("solve", "converge", "check"):
        out = tmp_path / command
        assert run([command, "--config", cfg, "--out", out]) in (0, 1, 3)
        reach = json.loads((out / "manifest.json").read_text())["stencil_reach"]
        assert reach["m"] == m and reach["steps"] > 0
        if command == "solve":
            assert reach["radius"] == [radius]
            assert (reach["steps_at_m"] > 0) == (radius == m)


def test_critical_value_run(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "run.yaml",
        model={"family": "quadratic-mechanical", "lambda": 0.0},
        grid={"N": 128, "dt": 0.0625, "v_max": 4.0},
        solver={"T_max": 32.0},
    )
    out = tmp_path / "out"
    assert run(["critical", "--config", cfg, "--out", out]) == 0
    assert "critical value estimate" in capsys.readouterr().out
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    c = manifest["c"]
    # the rest step at the maximum of V = cos(2 pi x) is the critical cycle
    assert abs(c - np.max(np.cos(2 * np.pi * np.arange(128) / 128))) <= 1e-12
    assert_matches_karp(load_config(cfg).kernel(), 0.0, c)
    assert manifest["iterations"] >= 1 and 0.0 <= manifest["residual"] <= 1e-12
    with open(out / "critical.csv") as fh:
        assert fh.read().splitlines() == ["a,c", f"0.0,{c!r}"]


def test_critical_exits_3_at_the_policy_iteration_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(action, "_MAX_POLICY_ITERATIONS", 1)
    cfg = write_config(
        tmp_path / "run.yaml",
        model={"family": "quadratic-mechanical", "lambda": 0.0},
        grid={"N": 64, "dt": 0.0625, "v_max": 4.0},
    )
    out = tmp_path / "out"
    assert run(["critical", "--config", cfg, "--out", out]) == 3
    assert "did not converge in 1 iterations" in capsys.readouterr().err
    assert not (out / "critical.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_critical_exits_3_on_a_non_finite_critical_value(tmp_path, capsys):
    # the coupling at a is finite, but with the shift the edge costs are about
    # -2e308 * dt, so c = -(cycle mean)/dt is past the float range
    cfg = write_config(tmp_path / "run.yaml", model={"action_shift": -1e308},
                       solver={"a": 1e308})
    out = tmp_path / "out"
    assert run(["critical", "--config", cfg, "--out", out]) == 3
    captured = capsys.readouterr()
    assert captured.err == "critical: the critical value is not finite: inf\n"
    assert captured.out == "" and os.listdir(out) == []


def test_malformed_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("model: [unclosed\n")
    assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err.startswith("config error: config file is not valid YAML: ")
    assert not (tmp_path / "o").exists()


def test_char_requires_char_block(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.yaml")
    assert run(["char", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "config key `char`" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command,overrides,key",
    [
        ("solve", dict(char={"x0": ["a"], "p0": [0.5]}), "char.x0[0]"),
        ("char", dict(char={"x0": [float("nan")], "p0": [0.5]}), "char.x0[0]"),
        ("char", dict(char={"x0": [0.3], "p0": [True]}), "char.p0[0]"),
        ("converge", dict(solver={"checkpoints": [2.0, float("inf")]}), "solver.checkpoints[1]"),
        # an integer past the float range is not a finite number either
        ("converge", dict(solver={"checkpoints": [10**400]}), "solver.checkpoints[0]"),
        # a mode's amplitude, and amplitudes whose sum of |a| is past the float range
        ("solve", dict(model={"potential": [[1, float("nan")]]}), "model.potential[0][1]"),
        ("critical", dict(model={"potential": [[1, float("inf")]]}), "model.potential[0][1]"),
        ("check", dict(model={"potential": [[1, float("inf")]]}), "model.potential[0][1]"),
        ("solve", dict(solver={"phi": [[1, float("inf")]]}), "solver.phi[0][1]"),
        ("solve", dict(model={"potential": [[1, 1e308], [2, 1e308]]}), "model.potential"),
        ("solve", dict(solver={"phi": [[1, 1e308], [2, 1e308]]}), "solver.phi"),
        # a negative seed: check's launch momentum hashes the seed's 32-bit
        # words, so seeds are the non-negative integers
        ("check", dict(solver={"T": 0.5}, seed=-1), "seed"),
        # a frozen level whose coupling lambda*a overflows
        ("critical", dict(model={"lambda": 2.0}, grid={"N": 256, "dt": 1 / 32},
                          solver={"a": 1e308}), "solver.a"),
        ("action", dict(model={"lambda": 2.0}, grid={"N": 256, "dt": 1 / 32},
                        solver={"a": 1e308}), "solver.a"),
    ],
    ids=["x0-string", "x0-nan", "p0-bool", "checkpoint-inf", "checkpoint-huge-int",
         "potential-nan", "potential-inf-critical", "potential-inf-check", "phi-inf",
         "potential-sum", "phi-sum", "seed-negative", "coupling-inf-critical",
         "coupling-inf-action"],
)
def test_list_entry_that_is_not_a_finite_number_is_rejected_before_output(
    tmp_path, capsys, command, overrides, key
):
    cfg = write_config(tmp_path / "run.yaml", **overrides)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"config key `{key}`" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_whose_flow_overflows_exits_3_with_one_line_and_no_manifest(
    tmp_path, monkeypatch, capsys
):
    # V = 1e200 cos 2 pi x: check's dH-law flow leaves the float range at its
    # first RK4 step, while the forked oracle is still running
    with_cpus(monkeypatch, 2)
    cfg = write_config(tmp_path / "run.yaml",
                       model={"family": "quadratic-mechanical", "potential": [[1, 1e200]]})
    out = tmp_path / "out"
    assert run(["check", "--config", cfg, "--out", out]) == 3
    assert_no_child_process()
    assert capsys.readouterr().err == (
        "check: characteristic flow produced a non-finite state at step 1\n")
    assert os.listdir(out) == []


# a v_max past any speed the grid can step: every command runs on the whole
# clamped stencil; check's oracle_cross fails on this coarse grid at the
# default v_max as well
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("v_max", [1e300, 1e308], ids=["1e300", "1e308"])
@pytest.mark.parametrize(
    "command", ["solve", "converge", "critical", "action", "char", "oracle", "check"])
def test_huge_v_max_runs_every_command(tmp_path, capsys, command, v_max):
    cfg = write_config(tmp_path / "run.yaml", grid={"N": 16, "dt": 1 / 16, "v_max": v_max},
                       solver={"T": 0.25},
                       char={"x0": [0.3], "u0": 0.1, "p0": [0.5], "t": 0.25, "dt_ode": 0.01})
    code = run([command, "--config", cfg, "--out", tmp_path / "out"])
    err = capsys.readouterr().err
    assert (code, err) == ((1, "check: failing suites: oracle_cross\n") if command == "check"
                           else (0, ""))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_char_whose_law_is_not_finite_exits_3_and_writes_nothing(tmp_path, capsys):
    # u0 = 1e300: H is about 1e300 along the flow, and the squares of the
    # law's residuals leave the float range
    cfg = write_config(tmp_path / "run.yaml",
                       char={"x0": [0.3], "u0": 1e300, "p0": [0.5], "t": 0.25, "dt_ode": 0.01})
    assert run(["char", "--config", cfg, "--out", tmp_path / "out"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("char: the dH-law residual is not finite: max ")
    assert err.endswith(", rms inf\n") and err.count("\n") == 1
    assert os.listdir(tmp_path / "out") == []


def test_char_writes_trajectory(tmp_path):
    cfg = write_config(
        tmp_path / "run.yaml",
        char={"x0": [0.3], "u0": 0.1, "p0": [0.5], "t": 0.5, "dt_ode": 0.001},
    )
    out = tmp_path / "out"
    assert run(["char", "--config", cfg, "--out", out]) == 0
    with open(out / "trajectory.csv") as fh:
        assert fh.readline().strip() == "t,x,u,p,H"
    with open(out / "dh_law.csv") as fh:
        assert fh.readline().strip() == "max_residual,rms_residual"


def test_oracle_writes_fd_slab(tmp_path):
    cfg = write_config(tmp_path / "run.yaml", solver={"T": 0.1}, oracle={"alpha": 4.1})
    out = tmp_path / "out"
    assert run(["oracle", "--config", cfg, "--out", out]) == 0
    with open(out / "slab_fd.csv") as fh:
        assert fh.readline().strip() == "k,t,j,x,u"


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_oracle_slab_file_is_the_lf_solve_text(tmp_path, dim):
    # the streamed slices give the bytes of the stored slab
    model = {"dim": 2, "potential": [[1, 0, 1.0], [0, 1, 0.5]]} if dim == 2 else {}
    grid = {"N": 16} if dim == 2 else {}
    cfg_path = write_config(tmp_path / "run.yaml", model=model, grid=grid, solver={"T": 0.1})
    out = tmp_path / "out"
    assert run(["oracle", "--config", cfg_path, "--out", out]) == 0
    assert sorted(os.listdir(out)) == ["manifest.json", "slab_fd.csv"]
    cfg = load_config(cfg_path)
    slab = fdoracle.lf_solve(cfg.lf(), cfg.phi_field(), cfg.T_fd)
    assert slab.n_steps > 1
    with open(tmp_path / "ref.csv", "w") as fh:
        slab.write_csv(fh)
    assert (out / "slab_fd.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_oracle_peak_does_not_grow_with_the_horizon(tmp_path):
    # the config of test_budget_estimate_bounds_the_traced_peak[oracle] at
    # two horizons: 4x the steps, and the oracle still holds one slice
    np.random.default_rng(0)
    peaks = []
    for T in (0.25, 1.0):
        cfg = load_config(write_config(
            tmp_path / f"run{T}.yaml", grid={"N": 256, "dt": 1.0 / 64}, solver={"T": T}))
        out = tmp_path / f"out{T}"
        out.mkdir()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert _run("oracle", cfg, str(out), 1) == 0
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    # a stored slab would be 4.3 MB at T=1 (2,100 slices) against 1.1 MB at T=0.25
    assert peaks[1] <= 1.25 * peaks[0]


def test_check_reports_broken_monotonicity_assumption(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "run.yaml",
        model={
            "family": "quadratic-nonlinear-u",
            "lambda": 0.0,
            "potential": [[1, 0.3]],
            "f": {"knots_u": [0.0, 1.0], "knots_f": [1.0, 0.0]},
        },
        grid={"N": 64, "dt": 0.0625, "v_max": 4.0},
        solver={"T": 0.5, "tol": 0.0},
    )
    out = tmp_path / "out"
    assert run(["check", "--config", cfg, "--out", out]) == 1
    assert "assumptions" in capsys.readouterr().err
    with open(out / "check.csv") as fh:
        body = fh.read()
    assert "H5=False" in body


def test_check_passes_on_calibrated_config(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "run.yaml",
        grid={"N": 256, "dt": 1.0 / 64, "v_max": 4.0},
        solver={"T": 0.5, "tol": 0.0, "quadrature": "exact"},
        oracle={"alpha": 4.1},
    )
    out = tmp_path / "out"
    assert run(["check", "--config", cfg, "--out", out]) == 0
    with open(out / "check.csv") as fh:
        rows = fh.read().strip().split("\n")
    assert rows[0] == "suite,passed,detail"
    assert all(row.split(",")[1] == "1" for row in rows[1:])


def test_runs_are_byte_identical_across_thread_counts(tmp_path):
    cfg = write_config(tmp_path / "run.yaml")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["solve", "--config", cfg, "--out", out1, "--threads", 1]) == 0
    assert run(["solve", "--config", cfg, "--out", out2, "--threads", 8]) == 0
    for name in ("slab.csv", "fixedpoint.csv"):
        with open(out1 / name, "rb") as fa, open(out2 / name, "rb") as fb:
            assert fa.read() == fb.read()
    with open(out1 / "slab.csv") as fh:
        assert "np." not in fh.read()


@pytest.mark.parametrize("T,horizons", [(0.5, 1), (1.5, 2)], ids=["T-at", "T-beyond"])
def test_check_steps_phi_once(tmp_path, monkeypatch, T, horizons):
    # the march of phi fills the slab the battery, the backtrack and the match
    # read, one kernel step a slice; then the battery steps its three probe
    # rows together up to the last horizon
    with_cpus(monkeypatch, 1)
    rows = []
    real_apply = kernels.StepKernel.apply

    def counting_apply(self, w, u_slice):
        rows.append(w.size // self.grid.size)
        return real_apply(self, w, u_slice)

    monkeypatch.setattr(kernels.StepKernel, "apply", counting_apply)
    cfg = write_config(
        tmp_path / "run.yaml",
        model={"dim": 2, "potential": [[1, 0, 1.0], [0, 1, 0.5]]},
        grid={"N": 16, "dt": 1.0 / 16, "v_max": 4.0},
        solver={"T": T, "tol": 0.0, "phi": [[1, 1, 0.3]]},
    )
    assert run(["check", "--config", cfg, "--out", tmp_path / "out"]) in (0, 1)
    n_steps, batched = round(16 * T), 8 * horizons
    assert rows == [1] * n_steps + [3] * batched


def test_check_audits_assumptions_once(tmp_path, monkeypatch):
    calls = []
    orig = models.audit_assumptions

    def counting(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "weakkam" and getattr(mod, "audit_assumptions", None) is orig:
            monkeypatch.setattr(mod, "audit_assumptions", counting)
    cfg = write_config(tmp_path / "run.yaml", solver={"T": 0.5}, oracle={"alpha": 4.1})
    assert run(["check", "--config", cfg, "--out", tmp_path / "out"]) in (0, 1)
    assert len(calls) == 1


def count_kernel_builds(monkeypatch) -> list:
    """Record the arguments of every StepKernel construction."""
    builds = []
    init = kernels.StepKernel.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(kernels.StepKernel, "__init__", counting_init)
    return builds


@pytest.mark.parametrize("command", ["solve", "converge", "critical", "action"])
def test_stepping_command_builds_one_kernel(tmp_path, monkeypatch, command):
    builds = count_kernel_builds(monkeypatch)
    cfg = write_config(tmp_path / "run.yaml", solver={"T": 0.5, "checkpoints": [2.0]})
    assert run([command, "--config", cfg, "--out", tmp_path / "out"]) in (0, 3)
    assert len(builds) == 1


def test_check_2d_builds_one_kernel_and_stores_no_lf_slab(tmp_path, monkeypatch):
    builds = count_kernel_builds(monkeypatch)
    lf_solves = []
    orig = fdoracle.lf_solve

    def counting_lf_solve(*args, **kwargs):
        lf_solves.append(args)
        return orig(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "weakkam" and getattr(mod, "lf_solve", None) is orig:
            monkeypatch.setattr(mod, "lf_solve", counting_lf_solve)
    cfg = write_config(
        tmp_path / "run.yaml",
        model={"dim": 2, "potential": [[1, 0, 1.0], [0, 1, 0.5]]},
        grid={"N": 16, "dt": 1.0 / 16, "v_max": 4.0},
        solver={"T": 0.5, "tol": 0.0, "phi": [[1, 1, 0.3]]},
    )
    out = tmp_path / "out"
    assert run(["check", "--config", cfg, "--out", out]) in (0, 1)
    with open(out / "check.csv") as fh:
        rows = fh.read().strip().split("\n")
    assert [row.split(",")[0] for row in rows[1:]] == [
        "assumptions", "semigroup_properties", "calibrated_defect", "dh_law", "char_match",
        "oracle_cross",
    ]
    assert len(builds) == 1
    assert lf_solves == []


# one to three 32-bit seed words (2**73 + 12345 is a 74-bit seed), and seven,
# which SeedSequence mixes into its pool of four after the first four
MOMENTUM_SEEDS = [*range(300), 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1, 2**64 + 5,
                  2**73 + 12345, 2**200 - 1]


@pytest.mark.parametrize("dim", [1, 2])
def test_launch_momentum_is_numpys_uniform_stream(dim):
    for seed in MOMENTUM_SEEDS:
        want = np.random.default_rng(seed).uniform(-1.0, 1.0, size=dim)
        assert np.array(_launch_momentum(seed, dim)).tobytes() == want.tobytes(), seed


def test_check_leaves_numpy_random_unimported(tmp_path):
    # a fresh interpreter: this one has numpy.random from the test above
    cfg = write_config(tmp_path / "run.yaml", solver={"T": 0.5}, oracle={"alpha": 4.1}, seed=7)
    script = ("import sys\nfrom weakkam.cli import main\ncode = main(sys.argv[1:])\n"
              "print(code, 'numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(weakkam.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script, "check", "--config", cfg, "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.stdout.split()[-2:] in (["0", "False"], ["1", "False"]), done.stdout + done.stderr
    assert (tmp_path / "out" / "check.csv").exists()


@pytest.mark.parametrize("command", ["action"])
def test_size_squared_command_over_budget_is_rejected_before_output(tmp_path, capsys, command):
    # 2-D N=256: the action table alone is 34 GB
    cfg = write_config(
        tmp_path / "run.yaml",
        model={"dim": 2, "potential": [[1, 0, 1.0]]},
        grid={"N": 256, "dt": 1.0 / 256, "v_max": 4.0},
    )
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 2
    assert "config key `grid.N`" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,grid,T,key",
    [("solve", {"dt": 0.125}, 0.3, "solver.T"), ("action", {"dt": 0.125}, 0.3, "solver.T"),
     ("check", {"dt": 0.125}, 0.3, "solver.T"), ("check", {"dt": 0.3}, 0.9, "grid.dt"),
     ("check", {"N": 16, "dt": 0.2}, 1.2, "grid.dt"),
     ("check", {}, 2 / 16, "solver.T"),
     ("check", {"N": 512, "dt": 1 / 2048}, 3 / 2048, "solver.T"),
     ("char", {}, 1.0, "char.t")],
    ids=["solve", "action", "check", "check-property-horizon", "check-property-horizon-N16",
         "check-2-steps", "check-1-rk4-step", "char-1-rk4-step"],
)
def test_horizon_off_the_time_grid_is_rejected_before_output(
    tmp_path, capsys, command, grid, T, key
):
    # check also steps its fixed property horizon 0.5, which neither 0.3 nor
    # 0.2 divides: only grid.dt mends it (T = 0.9 and 1.2 are whole steps).
    # check matches a chain of at least 3 steps, and its dH-law flow over
    # min(T, 1) and char's flow need 2 RK4 steps for a centred difference
    cfg = write_config(tmp_path / "run.yaml", grid=grid, solver={"T": T},
                       char={"x0": [0.3], "p0": [0.5], "t": 1e-3, "dt_ode": 1e-3})
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"config key `{key}`" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["oracle", "check"])
def test_alpha_below_the_audited_bound_is_rejected_before_output(tmp_path, capsys, command):
    # parse_config's floor, the audited max |H_p| + 0.1, is the default alpha
    floor = load_config(write_config(tmp_path / "floor.yaml")).alpha
    cfg = write_config(tmp_path / "run.yaml", oracle={"alpha": floor - 1e-6})
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "config key `oracle.alpha`" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command,grid,solver",
    [
        ("oracle", {"N": 2048, "dt": 1.0 / 256}, {}),
        ("solve", {"N": 512, "dt": 1.0 / 64}, {}),
        ("check", {"N": 512, "dt": 1.0 / 1024}, {}),
        ("converge", {"N": 1024, "dt": 1.0 / 256}, {"quadrature": "exact"}),
    ],
    ids=["oracle-N2048", "solve-N512", "check-N512", "converge-N1024"],
)
def test_slab_command_over_budget_is_rejected_before_output(
    tmp_path, capsys, command, grid, solver
):
    # oracle: one Lax-Friedrichs step of 4,194,304 points and the text block
    # of its slice, 2.5 GiB; solve ("left", no base_cost): its slab of 65
    # slices and its Picard wavefront of 65 rows, of 262,144 points each,
    # 1.4 GiB; check: its one slab of 1,025 slices of 262,144 points,
    # 2.0 GiB; converge ("exact"): 797 offsets of 1,048,576 points, 6.7 GB
    # of base_cost
    cfg = write_config(
        tmp_path / "run.yaml",
        model={"dim": 2, "potential": [[1, 0, 1.0]]},
        grid=dict(grid, v_max=4.0),
        solver=solver,
    )
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 2
    assert "config key `grid.N`" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_sized_slab_commands_fit_the_budget(tmp_path):
    # 1-D N=1024 solve (257 slices) and oracle (8,397 steps, a 521 MB CSV),
    # the 2-D N=96 oracle and check at T=0.5 (557 steps, a 408 MB CSV), and
    # converge to t=64 on the 1-D N=512 nonlinear-u config
    one_d = write_config(tmp_path / "a.yaml", grid={"N": 1024, "dt": 1.0 / 256})
    two_d = write_config(
        tmp_path / "b.yaml",
        model={"dim": 2, "potential": [[1, 0, 1.0], [0, 1, 0.5]]},
        grid={"N": 96, "dt": 1.0 / 64, "v_max": 4.0},
        solver={"T": 0.5, "quadrature": "left", "phi": [[1, 1, 0.3]]},
        oracle={"alpha": 5.8},
    )
    longtime = write_config(
        tmp_path / "c.yaml",
        model={"family": "quadratic-nonlinear-u", "potential": [[1, 1.0], [2, -0.4]],
               "f": {"knots_u": [-1.0, 0.0, 1.0], "knots_f": [-2.0, 0.0, 0.5]}},
        grid={"N": 512, "dt": 1.0 / 32},
        solver={"quadrature": "exact", "checkpoints": [64.0], "stop_eps": 1e-6},
    )
    for command, path in (("solve", one_d), ("oracle", one_d), ("oracle", two_d),
                          ("check", two_d), ("converge", longtime)):
        _check_command(command, load_config(path))


@pytest.mark.parametrize("command,config", [("solve", "solve"), ("check", "check"),
                                            ("critical", "longtime"), ("converge", "longtime")])
def test_manifest_records_the_validated_plan_on_the_benchmark_configs(tmp_path, command, config):
    # the benchmark's own configs, as its workloads write them
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(getattr(workloads, f"{config}_config")(1)))
    out = tmp_path / "out"
    assert run([command, "--config", path, "--out", out]) in (0, 1)
    manifest = json.loads((out / "manifest.json").read_text())
    plan = manifest["plan"]
    assert int(sum(plan["bytes"].values())) == _check_command(command, load_config(str(path)))
    assert plan["budgets"] == {"bytes": 2**30, "work_ns": 5.6e11}
    assert manifest.get("stencil_reach", {"steps_at_m": 0})["steps_at_m"] == 0
    if command == "solve":
        # the Picard wavefront the plan counts holds every row the certificate reports
        certificate = (out / "fixedpoint.csv").read_text().splitlines()[1:]
        assert plan["steps"]["picard_rows"] >= len(certificate) > 1


def test_2d_converge_budget_counts_base_cost_only_where_it_is_built(tmp_path):
    # 2-D N=512, dt=1/64: on the row path ("left") the kernel holds V and a
    # padded start cost, about 0.16 GiB in all; with "exact" it builds
    # base_cost, 3,209 offsets of 262,144 points, 6.3 GiB
    def config(quadrature):
        return load_config(write_config(
            tmp_path / f"{quadrature}.yaml",
            model={"dim": 2, "potential": [[1, 0, 1.0]]},
            grid={"N": 512, "dt": 1.0 / 64, "v_max": 4.0},
            solver={"quadrature": quadrature},
        ))

    assert _check_command("converge", config("left")) <= 0.2 * 2**30
    with pytest.raises(ConfigurationError, match="config key `grid.N`"):
        _check_command("converge", config("exact"))


def test_2d_n128_critical_fits_the_budget(tmp_path):
    # policy iteration holds the kernel's tables of 197 offsets and a few
    # size-length vectors, about 41.7 MB; Karp's (size + 1) x size D_k was 2.0 GiB
    cfg = write_config(
        tmp_path / "run.yaml",
        model={"dim": 2, "potential": [[1, 0, 1.0], [0, 1, 0.5]]},
        grid={"N": 128, "dt": 1.0 / 64, "v_max": 4.0},
    )
    assert _check_command("critical", load_config(cfg)) <= 80e6


# bytes of the table of a str-keyed dict (CPython 3.11 layout) of 2**k slots,
# k = 16..24: a 32-byte header, 4-byte indices and 16-byte entries for two
# thirds of the slots; no command builds a dict of 43,690 entries or more
INTERNED_TABLE_BYTES = {32 + 4 * 2**k + 16 * (2 ** (k + 1) // 3) for k in range(16, 25)}


@pytest.mark.parametrize(
    "command,overrides,code",
    [
        # nonlinear u-coupling with T*lambda_L = 8: the Picard wavefront grows to 40 rows
        ("solve", dict(
            model={"family": "quadratic-nonlinear-u", "potential": [[1, 1.0], [2, -0.4]],
                   "f": {"knots_u": [-1.0, 0.0, 1.0], "knots_f": [-2.0, 0.0, 0.5]}},
            grid={"N": 512, "dt": 1.0 / 16}, solver={"T": 4.0, "quadrature": "midpoint"},
        ), 0),
        ("action", dict(grid={"N": 256, "dt": 1.0 / 64}, solver={"T": 0.25}), 0),
        ("critical", dict(grid={"N": 2048, "dt": 1.0 / 256}, solver={"quadrature": "exact"}), 0),
        ("oracle", dict(grid={"N": 256, "dt": 1.0 / 64}, solver={"T": 0.25}), 0),
        ("check", dict(grid={"N": 1024, "dt": 1.0 / 256}, oracle={"alpha": 4.1},
                       solver={"T": 0.25, "quadrature": "exact"}), 0),
        # 2-D "left" (the row path): no base_cost, which would add 8.0 MB
        ("check", dict(model={"dim": 2, "potential": [[1, 0, 1.0], [0, 1, 0.5]]},
                       grid={"N": 96, "dt": 1.0 / 64}, oracle={"alpha": 5.8},
                       solver={"T": 0.25, "quadrature": "left", "phi": [[1, 1, 0.3]]}), 0),
        # one reporting window of 512 steps, not settled at t=2
        ("converge", dict(grid={"N": 512, "dt": 1.0 / 256}, solver={"checkpoints": [2.0]}), 3),
        # 4,000 RK4 states of a 2-D flow
        ("char", dict(model={"dim": 2, "potential": [[1, 0, 1.0], [0, 1, 0.5]]},
                      char={"x0": [0.3, 0.1], "p0": [0.5, -0.2], "t": 1.0, "dt_ode": 2.5e-4}), 0),
    ],
    ids=["solve", "action", "critical", "oracle", "check", "check-2d-left", "converge", "char"],
)
def test_budget_estimate_bounds_the_traced_peak(tmp_path, command, overrides, code):
    # the arrays (0.2-4 MB) outweigh the constant terms here; tracemalloc sees
    # numpy's buffers and every Python object, so no OS-level measurement is
    # needed
    cfg = load_config(write_config(tmp_path / "run.yaml", **overrides))
    planned = _check_command(command, cfg)
    # one untraced run first: what a first run makes once and keeps (modules
    # imported on first use, the interpreter's interned-string table grown) is
    # code and interpreter state, not data, and would make the peak depend on
    # what ran before
    (tmp_path / "warm").mkdir()
    assert _run(command, cfg, str(tmp_path / "warm"), 1) == code
    # the interned-string table is interpreter state too, but it is resized
    # at any call once its freed slots run out, and numpy interns the keys of
    # every __array_interface__ it builds (as_strided): the whole new table
    # is then traced.  So a measured run that leaves a block of exactly that
    # table's size (a str-keyed dict of 2**16 slots or more) is run once more;
    # the resize leaves room for at least as many strings as the table holds
    for attempt in range(2):
        out = tmp_path / f"out{attempt}"
        out.mkdir()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert _run(command, cfg, str(out), 1) == code
            peak = tracemalloc.get_traced_memory()[1] - base
            resized = any(t.size in INTERNED_TABLE_BYTES
                          for t in tracemalloc.take_snapshot().traces)
        finally:
            tracemalloc.stop()
        if not resized:
            break
    assert not resized
    assert peak <= planned


def non_finite_oracle_config(path):
    # valid, but |Dphi| = 6 pi exceeds the |H_p| <= 4 of the audit box that
    # sets the default oracle.alpha: the Lax-Friedrichs step 36 overflows
    return write_config(
        path,
        model={"family": "quadratic-mechanical", "lambda": 0.0},
        grid={"N": 256, "dt": 1.0 / 64, "v_max": 4.0},
        solver={"phi": [[1, 3.0]]},
    )


# a numpy overflow warning raised as an error fails these: the step that blows
# up must report itself only through NumericError
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_oracle_whose_step_is_not_finite_exits_3_and_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["oracle", "--config", non_finite_oracle_config(tmp_path / "run.yaml"),
                "--out", out])
    assert code == 3
    assert capsys.readouterr().err == (
        "oracle: Lax-Friedrichs step 36 produced a non-finite value\n")
    assert os.listdir(out) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_records_a_non_finite_oracle_step_as_a_failed_suite(tmp_path, monkeypatch, capsys):
    cfg = non_finite_oracle_config(tmp_path / "run.yaml")
    for cpus, name in [(2, "forked"), (1, "here")]:
        with_cpus(monkeypatch, cpus)
        out = tmp_path / name
        assert run(["check", "--config", cfg, "--out", out]) == 1
        assert "oracle_cross" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["check.csv", "manifest.json", "residual.csv"]
        rows = (out / "check.csv").read_text().splitlines()
        assert rows[-1] == "oracle_cross,0,Lax-Friedrichs step 36 produced a non-finite value"
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["oracle_process"] is None) == (cpus == 1)
    assert_no_child_process()
    for name in ("check.csv", "residual.csv"):
        assert (tmp_path / "here" / name).read_bytes() == (tmp_path / "forked" / name).read_bytes()


def test_public_api_stays_flat():
    assert len(weakkam.__all__) <= 30
    assert all(hasattr(weakkam, name) and not name.startswith("_") for name in weakkam.__all__)
