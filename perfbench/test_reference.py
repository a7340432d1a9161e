"""The benchmark's checks accept weakkam's output and reject perturbed output.

Run from the repository root:  python3 -m pytest perfbench
Each case runs the CLI on a small config, checks the real output, then
moves one value and expects the check to fail.
"""

import json
import os
import sys

import numpy as np
import pytest
import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from weakkam import cli  # noqa: E402


def run_cli(tmp_path, command, cfg, name):
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / name
    rc = cli.main([command, "--config", str(path), "--out", str(out), "--threads", "1"])
    return rc, out


def small_solve(quadrature, dim=1):
    cfg = workloads.solve_config(0)
    cfg["model"]["dim"] = dim
    cfg["model"]["potential"] = [[1, 1.0]] if dim == 1 else [[1, 0, 1.0], [0, 1, 0.5]]
    cfg["grid"] = {"N": 64 if dim == 1 else 16, "dt": 1 / 16, "v_max": 4.0}
    cfg["solver"] = {"T": 0.5, "tol": 0.0, "quadrature": quadrature,
                     "phi": [[1, 0.3]] if dim == 1 else [[1, 1, 0.3]]}
    return cfg


def small_longtime():
    cfg = workloads.longtime_config(0)
    cfg["grid"] = {"N": 64, "dt": 1 / 16, "v_max": 4.0}
    cfg["solver"]["T_max"] = 8.0
    return cfg


@pytest.mark.parametrize("quadrature,dim", [("exact", 1), ("left", 1), ("left", 2)])
def test_reference_step_matches_slab(tmp_path, quadrature, dim):
    cfg = small_solve(quadrature, dim)
    rc, out = run_cli(tmp_path, "solve", cfg, "solve")
    assert rc == 0
    prob = ref.Problem.from_config(cfg)
    n_steps = 8
    phi = ref.trig(ref.modes(cfg["solver"]["phi"], dim), prob.points()).ravel()
    march = ref.march(prob, phi, n_steps)
    if dim == 1:
        slab = ref.read_slab_csv((out / "slab.csv").read_text(), prob.n, prob.dt, n_steps)
    else:
        columns = ref.read_columns((out / "slab.csv").read_text(), "k,t,j,x1,x2,u")
        slab = ref.shortest_floats(columns[-1]).reshape(n_steps + 1, -1)
    ref.check_close("slab", slab, march, 1e-12)
    slab[n_steps // 2, prob.n // 3] += 1e-9
    with pytest.raises(ref.CheckFailed):
        ref.check_close("slab", slab, march, 1e-12)


def test_verify_solve_and_csv_format(tmp_path):
    cfg = small_solve("exact")
    rc, out = run_cli(tmp_path, "solve", cfg, "solve")
    assert rc == 0
    workloads.verify_solve(cfg, {"solve": str(out)})

    text = (out / "slab.csv").read_text()
    assert "\n0,0.0,32,0.5," in text
    (out / "slab.csv").write_text(text.replace("\n0,0.0,32,0.5,", "\n0,0.0,32,0.50,"))
    with pytest.raises(ref.CheckFailed, match="shortest repr"):
        workloads.verify_solve(cfg, {"solve": str(out)})

    (out / "slab.csv").write_text(text)
    lines = (out / "fixedpoint.csv").read_text().splitlines()
    k, gap, bound = lines[-1].split(",")
    assert gap == "0.0"
    lines[-1] = f"{k},1e-16,{bound}"
    (out / "fixedpoint.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ref.CheckFailed, match="last Picard gap"):
        workloads.verify_solve(cfg, {"solve": str(out)})


def test_exact_critical_value_and_constant_bounds(tmp_path):
    cfg = small_longtime()
    outs = {}
    for command in ("critical", "converge"):
        rc, outs[command] = run_cli(tmp_path, command, cfg, command)
        assert rc == 0
    workloads.verify_longtime(cfg, outs)

    manifest = outs["critical"] / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["c"] += 1e-9
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ref.CheckFailed, match="critical value"):
        workloads.verify_longtime(cfg, outs)

    prob = ref.Problem.from_config(cfg)
    lo, hi = ref.constant_bounds(prob)
    u_inf = ref.read_field_csv((outs["converge"] / "u_inf.csv").read_text(), prob.n)
    assert lo <= u_inf.min() and u_inf.max() <= hi
    step = ref.Stepper(prob)
    below = np.full(prob.n, lo)
    above = np.full(prob.n, hi)
    assert np.all(step(below, below) >= below - 1e-15)
    assert np.all(step(above, above) <= above + 1e-15)


def test_critical_value_needs_a_provable_self_loop():
    cfg = small_longtime()
    cfg["grid"] = {"N": 8, "dt": 2.0, "v_max": 4.0}
    with pytest.raises(ValueError, match="not provable"):
        ref.exact_critical_value(ref.Problem.from_config(cfg), 0.5)


def test_flipped_check_suite_is_an_unexpected_failure(tmp_path):
    cfg = workloads.check_config(3)
    cfg["model"] = {"family": "quadratic-discounted", "lambda": 1.0, "potential": [[1, 1.0]]}
    cfg["grid"] = {"N": 64, "dt": 1 / 16, "v_max": 4.0}
    cfg["solver"] = {"T": 0.5, "tol": 0.0, "quadrature": "left", "phi": [[1, 0.3]]}
    cfg["oracle"] = {}
    rc, out = run_cli(tmp_path, "check", cfg, "check")
    ops = workloads.check_operations("check", rc, str(out))
    assert [name for name, _ in ops] == list(workloads.CHECK_SUITES)
    assert workloads.unexpected_failures(ops) == []

    text = (out / "check.csv").read_text()
    (out / "check.csv").write_text(text.replace("\nassumptions,1,", "\nassumptions,0,"))
    ops = workloads.check_operations("check", rc, str(out))
    assert workloads.unexpected_failures(ops) == ["assumptions"]
