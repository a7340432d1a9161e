"""Acceptance battery.

Each test covers one release criterion, prints a single PASS/FAIL line to
the terminal (bypassing capture), and then asserts.  Parameters are pinned
so the whole battery is deterministic and runs at desk scale.
"""

import math
import time

import numpy as np
import yaml

from oracles import check_Ltilde, equi_lipschitz, march, semigroup_defect, step_T
from test_action import assert_matches_karp
from test_config import assert_loaders_agree
from test_semigroup import discounted_pendulum, pendulum_normalized
from weakkam.action import critical_value
from weakkam.characteristics import (
    CharacteristicState,
    dH_law_residual,
    flow,
    match_calibrated,
)
from weakkam.cli import main as cli_main
from weakkam.fdoracle import LFConfig, lf_final
from weakkam.kernels import StepKernel
from weakkam.models import HamiltonianModel, TrigPotential
from weakkam.semigroup import check_properties, converge, extract_calibrated_curve, fixed_point
from weakkam.torus import Grid, GridField


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")


def test_criterion_1_fixed_point_certificate(capsys):
    m = discounted_pendulum()
    g = Grid(1, 256)
    phi = GridField(g, np.zeros(g.size))
    t0 = time.perf_counter()
    _, rep = fixed_point(StepKernel(m, g, 1.0 / 256, 4.0), phi, 1.0, tol=1e-10)
    elapsed = time.perf_counter() - t0
    cert = all(
        gap <= 2.0 * bound + 1e-15
        for gap, bound in zip(rep.residual_history, rep.contraction_bound)
    )
    ok = cert and rep.iterations <= 15 and elapsed <= 30.0
    report(capsys, 1, "fixed-point certificate", ok,
           f"iterations={rep.iterations}, certificate={cert}, elapsed={elapsed:.2f}s")
    assert ok


def test_criterion_2_semigroup_property_battery(capsys):
    m = discounted_pendulum()
    g = Grid(1, 64)
    x = g.points()[:, 0]
    kern = StepKernel(m, g, 1.0 / 16, 4.0)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        def trig():
            v = np.zeros(g.size)
            for k in (1, 2, 3):
                v += rng.uniform(-0.3, 0.3) * np.sin(2 * np.pi * (k * x + rng.uniform()))
            return GridField(g, v)

        prop = check_properties(kern, march(kern, trig(), 4.0), trig(), [0.5, 1.0, 2.0, 4.0])
        for e in prop.entries:
            worst = max(worst, e["monotonicity_gap"], e["nonexpansive_gap"])
    pair_ok = worst <= 2e-10

    phi = GridField(g, 0.3 * np.sin(2 * np.pi * x))
    psi = GridField(g, 0.2 * np.cos(2 * np.pi * x))
    r8 = check_properties(kern, march(kern, phi, 8.0), psi, [8.0])
    r16 = check_properties(kern, march(kern, phi, 16.0), psi, [16.0])
    k_drift = abs(r16.uniform_bound - r8.uniform_bound)
    bound_ok = k_drift < 1e-3

    g2 = Grid(1, 128)
    x2 = g2.points()[:, 0]
    kern2 = StepKernel(m, g2, 1.0 / 16, 4.0)
    coarse = equi_lipschitz(march(kern, phi, 4.0), march(kern, psi, 4.0))
    fine = equi_lipschitz(march(kern2, GridField(g2, 0.3 * np.sin(2 * np.pi * x2)), 4.0),
                          march(kern2, GridField(g2, 0.2 * np.cos(2 * np.pi * x2)), 4.0))
    rel = abs(fine - coarse) / coarse
    lip_ok = rel <= 0.20

    ok = pair_ok and bound_ok and lip_ok
    report(capsys, 2, "monotone/non-expansive/uniform/equi-Lipschitz", ok,
           f"worst_gap={worst:.2e}, K_drift={k_drift:.2e}, equiL_rel_change={rel:.3f}")
    assert ok


def test_criterion_3_semigroup_law(capsys):
    m = discounted_pendulum()
    defects = []
    for n, dtd in ((128, 16), (256, 32)):
        g = Grid(1, n)
        phi = GridField(g, np.zeros(n))
        defects.append(semigroup_defect(StepKernel(m, g, 1.0 / dtd, 4.0), phi, 0.5, 0.5))
    # bitwise fixed points make the law exact, so the C*(dx+dt) bound and
    # the refinement shrink factor hold with room to spare
    ok = defects[0] == 0.0 and defects[1] == 0.0
    report(capsys, 3, "semigroup law", ok,
           f"defect_N128={defects[0]!r}, defect_N256={defects[1]!r}")
    assert ok


def test_criterion_4_viscosity_cross_validation(capsys):
    m = discounted_pendulum()
    gaps = []
    for n in (256, 512, 1024):
        g = Grid(1, n)
        phi = GridField(g, np.zeros(n))
        u_dp = step_T(StepKernel(m, g, 1.0 / 64, 4.0, "exact"), phi, 1.0)
        dt_fd = 1.0 / math.ceil(1.0 / (0.5 * g.dx / 4.1))
        cfg = LFConfig(m, g, 4.1, dt_fd)
        u_fd = lf_final(cfg, phi, 1.0)
        gaps.append(float(np.max(np.abs(u_dp.values - u_fd.values))))
    ok = gaps[0] <= 0.05 and gaps[0] > gaps[1] > gaps[2]
    report(capsys, 4, "variational vs Lax-Friedrichs", ok,
           "gaps=" + "/".join(f"{v:.4f}" for v in gaps))
    assert ok


def test_criterion_5_analytic_exactness(capsys):
    m = HamiltonianModel("quadratic-discounted", lam=1.0)
    g = Grid(1, 512)
    phi = GridField(g, np.ones(g.size))
    u_var = step_T(StepKernel(m, g, 1e-3, 4.0), phi, 1.0)
    err_var = float(np.max(np.abs(u_var.values - np.exp(-1.0))))
    cfg = LFConfig(m, g, alpha=1.0, dt_fd=1e-4)
    u_fd = lf_final(cfg, phi, 1.0)
    err_fd = float(np.max(np.abs(u_fd.values - np.exp(-1.0))))
    ok = err_var <= 1e-3 and err_fd <= 1e-3
    report(capsys, 5, "analytic discounted decay", ok,
           f"variational={err_var:.2e}, finite-difference={err_fd:.2e}")
    assert ok


def test_criterion_6_critical_value(capsys):
    g = Grid(1, 128)
    free = HamiltonianModel("quadratic-mechanical", dim=1)
    pend = HamiltonianModel(
        "quadratic-mechanical", potential=TrigPotential(1, (((1,), 1.0),))
    )
    pend3 = HamiltonianModel(
        "quadratic-mechanical", potential=TrigPotential(1, (((1,), 3.0),))
    )
    kernels = [StepKernel(free, g, 1.0 / 16, 2.0), StepKernel(pend, g, 1.0 / 16, 4.0),
               StepKernel(pend3, g, 1.0 / 16, 6.0)]
    c0, c1, c3 = (critical_value(kern, 0.0).c for kern in kernels)
    ok = abs(c0) <= 1e-3 and abs(c1 - 1.0) <= 2e-2 and abs(c3 - 3.0) <= 6e-2
    report(capsys, 6, "critical values", ok,
           f"free={c0:.2e}, pendulum={c1:.4f}, scaled={c3:.4f}")
    assert ok
    for kern, c in zip(kernels, (c0, c1, c3)):
        assert_matches_karp(kern, 0.0, c)


def test_criterion_7_long_time_convergence(capsys):
    g = Grid(1, 256)
    x = g.points()[:, 0]
    phi0 = GridField(g, np.zeros(g.size))
    phi2 = GridField(g, 0.02 * np.sin(2 * np.pi * x))
    mech = pendulum_normalized()
    disc = discounted_pendulum()

    k_mech = StepKernel(mech, g, 1.0 / 16, 4.0, "exact")
    k_disc = StepKernel(disc, g, 1.0 / 64, 4.0, "exact")
    rm = converge(k_mech, phi0, t_final=50.0, stop_eps=1e-6)
    rm2 = converge(k_mech, phi2, t_final=50.0, stop_eps=1e-6)
    rd = converge(k_disc, phi0, t_final=50.0, stop_eps=1e-6)
    rd2 = converge(k_disc, phi2, t_final=50.0, stop_eps=1e-6)

    # the undiscounted limit is only fixed up to an additive constant,
    # so cross-initial-data distances are compared mean-aligned there
    d_mech = float(np.max(np.abs(
        (rm.u_inf.values - rm.u_inf.values.mean())
        - (rm2.u_inf.values - rm2.u_inf.values.mean())
    )))
    d_disc = float(np.max(np.abs(rd.u_inf.values - rd2.u_inf.values)))
    ok = (
        rm.converged and rd.converged
        and rm.residual.max_abs_smooth <= 5e-2
        and rd.residual.max_abs_smooth <= 5e-2
        and rm.residual.kink_count <= 2
        and rd.residual.kink_count <= 2
        and d_mech <= 5e-2 and d_disc <= 5e-2
    )
    report(capsys, 7, "convergence to weak KAM limits", ok,
           f"res_mech={rm.residual.max_abs_smooth:.4f}, res_disc={rd.residual.max_abs_smooth:.4f}, "
           f"kinks={rm.residual.kink_count}/{rd.residual.kink_count}, "
           f"cross-phi={d_mech:.2e}/{d_disc:.2e}")
    assert ok


def test_criterion_8_characteristics(capsys):
    m = discounted_pendulum()
    traj = flow(m, CharacteristicState(x=[0.25], u=0.0, p=[0.9]), 2.0, 1e-3)
    law = dH_law_residual(m, traj)
    law_ok = law.rms_residual <= 1e-6

    # sign trichotomy of H along the flow for 100 random starts
    rng = np.random.default_rng(5)
    b = 100
    x = rng.uniform(0, 1, (b, 1))
    u = rng.uniform(-2, 2, b)
    p = rng.uniform(-3, 3, (b, 1))
    ht = np.stack([flow(m, CharacteristicState(x=x[i], u=u[i], p=p[i]), 2.0, 1e-2).h_values
                   for i in range(b)], axis=1)
    h0 = ht[0]
    tri_ok = True
    band = 1e-8
    pos, neg = h0 > band, h0 < -band
    tri_ok &= bool(np.all(ht[:, pos] > 0.0))
    tri_ok &= bool(np.all(ht[:, neg] < 0.0))
    zero = flow(m, CharacteristicState(x=[0.25], u=-0.18, p=[0.6]), 2.0, 1e-3)
    tri_ok &= bool(np.max(np.abs(zero.h_values)) <= band)

    sup = []
    for n, dtd in ((256, 64), (512, 128)):
        g = Grid(1, n)
        phi = GridField(g, np.zeros(n))
        kern = StepKernel(m, g, 1.0 / dtd, 4.0, "exact")
        u_fp = march(kern, phi, 0.5)
        curve = extract_calibrated_curve(kern, u_fp, x_end=round(0.55 * n))
        rep = match_calibrated(m, curve, u_fp, dt_ode=1.0 / (4 * dtd))
        sup.append((rep.sup_distance, 5 * g.dx))
    match_ok = all(d <= lim for d, lim in sup) and sup[1][0] <= 0.6 * sup[0][0]

    ok = law_ok and tri_ok and match_ok
    report(capsys, 8, "characteristic flow diagnostics", ok,
           f"dH_rms={law.rms_residual:.2e}, trichotomy={tri_ok}, "
           f"match={sup[0][0]:.4f}->{sup[1][0]:.4f}")
    assert ok


def test_criterion_9_velocity_fan_lower_bound(capsys):
    m = pendulum_normalized()
    g = Grid(1, 2048)
    phi = GridField(g, np.zeros(g.size))
    rep = converge(StepKernel(m, g, 1.0 / 96, 4.0, "exact"), phi,
                   t_final=50.0, stop_eps=1e-6)
    fan_min = float(np.min(check_Ltilde(m, rep.u_inf, 4.0)))
    ok = rep.converged and fan_min >= -1e-3
    report(capsys, 9, "velocity-fan lower bound at the limit", ok,
           f"min L-tilde={fan_min:.2e}")
    assert ok


def test_criterion_10_determinism_across_threads(capsys, tmp_path):
    doc = {
        "model": {"family": "quadratic-discounted", "lambda": 1.0,
                  "potential": [[1, 1.0]]},
        "grid": {"N": 64, "dt": 0.0625, "v_max": 4.0},
        "solver": {"T": 1.0, "tol": 0.0, "T_max": 16.0},
        "char": {"x0": [0.3], "u0": 0.1, "p0": [0.5], "t": 0.5, "dt_ode": 0.001},
    }
    cfg_path = tmp_path / "run.yaml"
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(doc, fh)
    assert_loaders_agree(cfg_path)

    artifacts = {
        "solve": ("slab.csv", "fixedpoint.csv"),
        "critical": ("critical.csv",),
        "char": ("trajectory.csv", "dh_law.csv"),
    }
    blobs = {}
    for threads in (1, 2, 8):
        for command, names in artifacts.items():
            out = tmp_path / f"{command}-{threads}"
            code = cli_main([command, "--config", str(cfg_path),
                             "--out", str(out), "--threads", str(threads)])
            assert code == 0
            for name in names:
                with open(out / name, "rb") as fh:
                    blobs.setdefault((command, name), []).append(fh.read())
    ok = all(len(set(v)) == 1 for v in blobs.values())
    n_files = len(blobs)
    report(capsys, 10, "byte-identical outputs across 1/2/8 threads", ok,
           f"{n_files} artifacts x 3 thread counts compared")
    assert ok
