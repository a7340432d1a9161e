import numpy as np
import pytest

from weakkam.legendre import (
    check_L_properties,
    lagrangian_values,
    legendre_inverse,
    legendre_transform,
)
from weakkam.models import HamiltonianModel, PiecewiseLinearMap, TrigPotential, eval_H

BOX = {"x": (0.0, 1.0), "u": (-2.0, 2.0), "p": (-3.0, 3.0)}


def models():
    return [
        HamiltonianModel("quadratic-mechanical", potential=TrigPotential(1, (((1,), 1.0),))),
        HamiltonianModel("quadratic-discounted", lam=1.0,
                         potential=TrigPotential(1, (((2,), 0.3),))),
        HamiltonianModel("quadratic-nonlinear-u",
                         f=PiecewiseLinearMap((-1.0, 1.0), (0.0, 2.0))),
        HamiltonianModel("quadratic-mechanical", dim=2,
                         potential=TrigPotential(2, (((1, 0), 0.5), ((0, 1), 0.5)))),
    ]


def test_closed_form_conjugacy_identity():
    # L(x,u,v) + H(x,u,p) = <v,p> at p = argmax, for every catalog member
    rng = np.random.default_rng(1)
    for m in models():
        for _ in range(20):
            x = rng.uniform(0, 1, m.dim)
            u = rng.uniform(-1, 1)
            v = rng.uniform(-2, 2, m.dim)
            lv = legendre_transform(m, x, u, v)
            assert lv.converged
            total = lv.value + eval_H(m, x, u, lv.argmax_p)
            assert total == pytest.approx(float(np.dot(v, lv.argmax_p)), abs=1e-12)


def test_newton_agrees_with_closed_form():
    rng = np.random.default_rng(2)
    for m in models():
        for _ in range(5):
            x = rng.uniform(0, 1, m.dim)
            u = rng.uniform(-1, 1)
            v = rng.uniform(-2, 2, m.dim)
            a = legendre_transform(m, x, u, v)
            b = legendre_transform(m, x, u, v, use_closed_form=False)
            assert b.value == pytest.approx(a.value, abs=1e-9)
            assert np.allclose(b.argmax_p, a.argmax_p, atol=1e-9)


def test_inverse_roundtrip():
    m = models()[1]
    p = np.array([0.8])
    v = legendre_inverse(m, [0.3], 0.1, p)
    assert np.allclose(legendre_transform(m, [0.3], 0.1, v).argmax_p, p)


def test_lagrangian_values_vectorized():
    m = models()[0]
    x = np.linspace(0, 1, 7)[:, None]
    v = np.linspace(-1, 1, 7)[:, None]
    got = lagrangian_values(m, x, np.zeros(7), v)
    expect = 0.5 * v[:, 0] ** 2 - np.cos(2 * np.pi * x[:, 0])
    assert np.allclose(got, expect)


def test_L_properties_audit():
    for m in models()[:3]:
        audit = check_L_properties(m, BOX, 512)
        assert audit.passed, audit.worst
