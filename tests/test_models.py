import numpy as np
import pytest

from oracles import grad_H, potential_gradient
from weakkam.config import DEFAULT_SAMPLE_BOX
from weakkam.models import (
    HamiltonianModel,
    PiecewiseLinearMap,
    TrigPotential,
    _halton_samples,
    audit_assumptions,
    eval_H,
)

BOX = {"x": (0.0, 1.0), "u": (-2.0, 2.0), "p": (-3.0, 3.0)}


def pendulum(lam=0.0):
    fam = "quadratic-discounted" if lam else "quadratic-mechanical"
    return HamiltonianModel(fam, dim=1, potential=TrigPotential(1, (((1,), 1.0),)), lam=lam)


def test_trig_potential_values_and_gradient():
    V = TrigPotential(2, ((((1, 0)), 0.5), (((1, 1)), -0.25)))
    x = np.array([[0.2, 0.7]])
    expect = 0.5 * np.cos(2 * np.pi * 0.2) - 0.25 * np.cos(2 * np.pi * 0.9)
    assert V(x)[0] == pytest.approx(expect)
    # the reference gradient against central differences
    h = 1e-6
    for ax in range(2):
        e = np.zeros((1, 2))
        e[0, ax] = h
        fd = (V(x + e)[0] - V(x - e)[0]) / (2 * h)
        assert potential_gradient(V, x)[0, ax] == pytest.approx(fd, abs=1e-6)


def test_segment_average_matches_fine_quadrature():
    V = TrigPotential(1, (((2,), 0.7), ((3,), -0.4)))
    x0 = np.array([[0.31]])
    disp = np.array([[0.47]])
    s = (np.arange(20000) + 0.5) / 20000
    brute = np.mean(V(x0 + s[:, None] * disp))
    assert V.segment_average(x0, disp)[0] == pytest.approx(brute, abs=1e-9)


def test_segment_average_zero_displacement_is_pointwise():
    V = TrigPotential(1, (((1,), 1.0),))
    x0 = np.array([[0.2], [0.8]])
    assert np.allclose(V.segment_average(x0, np.zeros_like(x0)), V(x0))


def test_piecewise_linear_map_interpolation_and_extension():
    f = PiecewiseLinearMap((-1.0, 0.0, 1.0), (0.0, 0.5, 2.0))
    assert f(-0.5) == pytest.approx(0.25)
    assert f(0.5) == pytest.approx(1.25)
    assert f(2.0) == pytest.approx(3.5)  # end slope 1.5 extended
    assert f(-2.0) == pytest.approx(-0.5)
    assert f.lipschitz_constant() == pytest.approx(1.5)


def test_nonmonotone_f_is_accepted_and_fails_H5():
    # monotonicity in u is the audited (H5), not a condition of the model
    m = HamiltonianModel("quadratic-nonlinear-u", f=PiecewiseLinearMap((0.0, 1.0), (1.0, 0.0)))
    audit = audit_assumptions(m, BOX, 256)
    assert not audit.verdicts["H5"]
    assert not audit.passed


def test_eval_H_formula():
    m = pendulum(lam=1.0)
    x, u, p = np.array([[0.25]]), 0.3, np.array([[0.5]])
    assert eval_H(m, x, u, p)[0] == pytest.approx(0.125 + 0.3 + np.cos(np.pi / 2))
    with pytest.raises(ValueError):
        eval_H(m, x, np.nan, p)


def test_grad_H_matches_finite_differences():
    m = pendulum(lam=0.7)
    x, u, p = 0.37, 0.21, 1.1
    (hx,), (hu,), (hp,) = grad_H(m, [x], u, [p])
    h = 1e-6
    assert hx[0] == pytest.approx((eval_H(m, [x + h], u, [p]) - eval_H(m, [x - h], u, [p]))[0] / (2 * h), abs=1e-5)
    assert hu == pytest.approx((eval_H(m, [x], u + h, [p]) - eval_H(m, [x], u - h, [p]))[0] / (2 * h), abs=1e-6)
    assert hp[0] == pytest.approx((eval_H(m, [x], u, [p + h]) - eval_H(m, [x], u, [p - h]))[0] / (2 * h), abs=1e-6)


def test_audit_passes_for_catalog_families():
    for m in (
        pendulum(),
        pendulum(lam=1.0),
        HamiltonianModel(
            "quadratic-nonlinear-u",
            potential=TrigPotential(1, (((1,), 0.5),)),
            f=PiecewiseLinearMap((-1.0, 1.0), (0.0, 1.0)),
        ),
    ):
        audit = audit_assumptions(m, BOX, 512)
        assert audit.passed, audit.worst
        # the difference quotients in u over the audit's own Halton samples
        d = m.dim
        s = _halton_samples([BOX["x"]] * d + [BOX["u"]] * 2 + [BOX["p"]] * (2 * d), 512)
        x, u1, u2, p1 = s[:, :d], s[:, d], s[:, d + 1], s[:, d + 2 : 2 * d + 2]
        du = np.abs(u1 - u2)
        ok = du > 1e-9
        quotient = np.abs(eval_H(m, x, u1, p1) - eval_H(m, x, u2, p1))[ok] / du[ok]
        assert np.max(quotient) <= m.lipschitz_u + 1e-9


@pytest.mark.parametrize("dim", [1, 2])
def test_audit_of_one_sample_returns(dim):
    # one point is a batch of one: eval_H and the reference grad_H keep the sample axis
    m = HamiltonianModel("quadratic-discounted", dim=dim, lam=1.0,
                         potential=TrigPotential(dim, (((1,) * dim, 1.0),)))
    x, p = [0.2] * dim, [0.3] * dim
    assert eval_H(m, x, 0.0, p).shape == (1,)
    assert [a.shape for a in grad_H(m, x, 0.0, p)] == [(1, dim), (1,), (1, dim)]
    audit = audit_assumptions(m, DEFAULT_SAMPLE_BOX, 1)
    assert sorted(audit.verdicts) == ["H1", "H4", "H5"] and audit.passed


def test_lipschitz_u_formula():
    assert pendulum().lipschitz_u == 0.0
    assert pendulum(lam=2.5).lipschitz_u == 2.5
    m = HamiltonianModel(
        "quadratic-nonlinear-u", f=PiecewiseLinearMap((0.0, 1.0, 2.0), (0.0, 0.5, 2.5))
    )
    assert m.lipschitz_u == pytest.approx(2.0)


def test_default_velocity_bound_covers_box():
    # parse_config's default v_max is 2*(1 + audited max |H_p|); on this box
    # |H_p| = |p| <= 3, so the audit must reach the edge and the bound is ~8
    audit = audit_assumptions(pendulum(), BOX, 256)
    vb = 2.0 * (1.0 + audit.max_Hp)
    assert vb == pytest.approx(2.0 * (1.0 + 3.0), rel=0.05)


def test_audit_is_deterministic():
    m = pendulum(lam=1.0)
    a = audit_assumptions(m, BOX, 512)
    b = audit_assumptions(m, BOX, 512)
    assert a.max_Hp == b.max_Hp
    assert a.worst == b.worst


def test_halton_samples_match_scipy():
    pytest.importorskip("scipy")
    from scipy.stats import qmc

    for d in range(3, 9):
        box = [(0.0, 1.0)] * (d - 2) + [(-3.0, 3.0), (-4.0, 4.0)]
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        for n in (64, 512, 1000, 4096):
            unit = qmc.Halton(d=d, scramble=False).random(n)
            assert np.array_equal(_halton_samples(box, n), lo + unit * (hi - lo))
