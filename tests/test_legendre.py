"""The closed-form Legendre conjugate of the catalog against a Newton maximizer."""

import numpy as np
import pytest

from oracles import lagrangian_values
from weakkam.errors import NumericError
from weakkam.models import HamiltonianModel, PiecewiseLinearMap, TrigPotential, eval_H, grad_H


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


def _hessian_p(model, x, u, p, h=1e-6):
    d = model.dim
    hess = np.zeros((d, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        _, _, hp_plus = grad_H(model, x, u, p + e)
        _, _, hp_minus = grad_H(model, x, u, p - e)
        hess[:, k] = (np.asarray(hp_plus) - np.asarray(hp_minus)).reshape(d) / (2 * h)
    return 0.5 * (hess + hess.T)


def newton_transform(model, x, u, v, tol=1e-12, max_iter=100):
    """(L, argmax p) by a safeguarded Newton iteration maximizing
    p -> <v,p> - H(x,u,p): the reference for the closed form."""
    v = np.asarray(v, dtype=float).reshape(model.dim)
    p = np.zeros(model.dim)

    def objective(pp):
        return float(np.dot(v, pp)) - float(eval_H(model, x, u, pp))

    obj = objective(p)
    for _ in range(max_iter):
        _, _, hp = grad_H(model, x, u, p)
        grad = v - np.asarray(hp, dtype=float).reshape(model.dim)
        if np.max(np.abs(grad)) < tol:
            return obj, p
        hess = _hessian_p(model, x, u, p)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = grad
        # step halving until the strictly concave objective increases
        scale = 1.0
        for _ in range(60):
            cand = p + scale * step
            cand_obj = objective(cand)
            if cand_obj >= obj:
                break
            scale *= 0.5
        else:
            raise NumericError("Newton line search stalled", last_iterate=p)
        p, obj = cand, cand_obj
    raise NumericError("Newton maximizer did not converge", last_iterate=p)


def test_closed_form_conjugacy_identity():
    # L(x,u,v) + H(x,u,p) = <v,p> at the argmax p = v, for every catalog member
    rng = np.random.default_rng(1)
    for m in models():
        for _ in range(20):
            x = rng.uniform(0, 1, m.dim)
            u = rng.uniform(-1, 1)
            v = rng.uniform(-2, 2, m.dim)
            total = float(lagrangian_values(m, x, u, v)[0]) + eval_H(m, x, u, v)
            assert total == pytest.approx(float(np.dot(v, v)), abs=1e-12)


def test_newton_agrees_with_closed_form():
    rng = np.random.default_rng(2)
    for m in models():
        for _ in range(5):
            x = rng.uniform(0, 1, m.dim)
            u = rng.uniform(-1, 1)
            v = rng.uniform(-2, 2, m.dim)
            value, argmax_p = newton_transform(m, x, u, v)
            assert value == pytest.approx(float(lagrangian_values(m, x, u, v)[0]), abs=1e-9)
            assert np.allclose(argmax_p, v, atol=1e-9)


def test_inverse_roundtrip():
    # the inverse Legendre map v = H_p(x,u,p) is undone by the maximizer
    m = models()[1]
    p = np.array([0.8])
    _, _, v = grad_H(m, [0.3], 0.1, p)
    assert np.allclose(newton_transform(m, [0.3], 0.1, v)[1], p)


def test_lagrangian_values_vectorized():
    m = models()[0]
    x = np.linspace(0, 1, 7)[:, None]
    v = np.linspace(-1, 1, 7)[:, None]
    got = lagrangian_values(m, x, np.zeros(7), v)
    expect = 0.5 * v[:, 0] ** 2 - np.cos(2 * np.pi * x[:, 0])
    assert np.allclose(got, expect)
