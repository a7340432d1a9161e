"""Legendre transform L(x,u,v) = sup_p { <v,p> - H(x,u,p) } and inverses.

For the quadratic catalog the conjugate has the closed form

    L(x,u,v) = |v|^2/2 - coupling(u) - V(x) + action_shift,   argmax p = v.

The kernel (and its per-axis row split), the Lax-Friedrichs stepper and
the characteristic field hard-code the kinetic term |p|^2/2.  The guarded
Newton maximizer is called nowhere in the package: it is the tests'
reference for the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .models import AssumptionAudit, HamiltonianModel, eval_H, grad_H


@dataclass
class LagrangianValue:
    value: float
    argmax_p: np.ndarray
    converged: bool = True


def lagrangian_values(model: HamiltonianModel, x, u, v):
    """Vectorized closed-form L(x,u,v) for the catalog (value only)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    vv = np.asarray(v, dtype=float).reshape(-1, model.dim)
    uu = np.asarray(u, dtype=float).ravel()
    return (
        0.5 * np.sum(vv * vv, axis=1)
        - model.coupling(uu)
        - model.potential(x)
        + model.action_shift
    )


def legendre_transform(
    model: HamiltonianModel, x, u, v, use_closed_form: bool = True
) -> LagrangianValue:
    """L(x,u,v) with the maximizing momentum.

    The closed form is used for catalog families unless ``use_closed_form``
    is False, in which case a safeguarded Newton iteration maximizes
    p -> <v,p> - H(x,u,p) (tolerance 1e-12, at most 100 iterations).
    """
    v = np.asarray(v, dtype=float).reshape(model.dim)
    if use_closed_form:
        val = float(lagrangian_values(model, x, u, v)[0])
        return LagrangianValue(value=val, argmax_p=v.copy(), converged=True)
    return _newton_transform(model, x, u, v)


def _newton_transform(model, x, u, v, tol=1e-12, max_iter=100):
    p = np.zeros(model.dim)

    def objective(pp):
        return float(np.dot(v, pp)) - float(eval_H(model, x, u, pp))

    obj = objective(p)
    for _ in range(max_iter):
        _, _, hp = grad_H(model, x, u, p)
        grad = v - np.asarray(hp, dtype=float).reshape(model.dim)
        if np.max(np.abs(grad)) < tol:
            return LagrangianValue(value=obj, argmax_p=p, converged=True)
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


def legendre_inverse(model: HamiltonianModel, x, u, p):
    """Velocity v = H_p(x,u,p) (the inverse Legendre map)."""
    _, _, hp = grad_H(model, x, u, p)
    return np.asarray(hp, dtype=float).reshape(model.dim)


def check_L_properties(model: HamiltonianModel, sample_box, n_samples: int) -> AssumptionAudit:
    """Sampled audit of (L1) convexity, (L4) Lipschitz in u, (L5) dL/du <= 0."""
    from .models import _halton_samples

    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    d = model.dim
    # reuse the p-bounds of the box as velocity bounds (identity conjugacy)
    bounds = [sample_box["x"]] * d + [sample_box["u"]] * 2 + [sample_box["p"]] * (2 * d)
    s = _halton_samples(bounds, n_samples)
    x = s[:, :d]
    u1, u2 = s[:, d], s[:, d + 1]
    v1 = s[:, d + 2 : 2 * d + 2]
    v2 = s[:, 2 * d + 2 :]
    tol = AssumptionAudit.TOL

    L11 = lagrangian_values(model, x, u1, v1)
    L21 = lagrangian_values(model, x, u2, v1)
    L12 = lagrangian_values(model, x, u1, v2)
    Lmid = lagrangian_values(model, x, u1, 0.5 * (v1 + v2))

    verdicts, worst = {}, {}

    gap2 = np.sum((v1 - v2) ** 2, axis=1)
    margin_l1 = 0.5 * (L11 + L12) - Lmid - gap2 / 8.0
    i = int(np.argmin(margin_l1))
    verdicts["L1"] = bool(margin_l1[i] >= -tol)
    worst["L1"] = (float(margin_l1[i]), s[i].tolist())

    lam = model.lipschitz_u
    margin_l4 = lam * np.abs(u1 - u2) - np.abs(L11 - L21)
    i = int(np.argmin(margin_l4))
    verdicts["L4"] = bool(margin_l4[i] >= -tol)
    worst["L4"] = (float(margin_l4[i]), s[i].tolist())

    dLdu = -model.coupling_derivative(u1)
    i = int(np.argmax(dLdu))
    verdicts["L5"] = bool(dLdu[i] <= tol)
    worst["L5"] = (float(dLdu[i]), s[i].tolist())

    du = np.abs(u1 - u2)
    ok = du > 1e-9
    emp = float(np.max(np.abs(L11 - L21)[ok] / du[ok])) if np.any(ok) else 0.0

    return AssumptionAudit(
        verdicts=verdicts,
        worst=worst,
        max_Hp=0.0,
        empirical_lipschitz_u=emp,
        n_samples=n_samples,
    )
