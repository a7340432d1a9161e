"""Catalog of Hamiltonian families H(x,u,p) on the torus.

Every family is quadratic in the momentum with an additive coupling in u:

    quadratic-mechanical:   H = |p|^2/2 + V(x)
    quadratic-discounted:   H = |p|^2/2 + lam*u + V(x)
    quadratic-nonlinear-u:  H = |p|^2/2 + f(u) + V(x)

with V a trigonometric polynomial and f a globally Lipschitz piecewise-linear
map.  The family picks the coupling g(u): ``lam * u`` when no f is set (the
mechanical family is lam = 0) and f(u) otherwise, so each family rejects
the parameter it does not read, a nonzero lam outside the discounted
family and an f outside nonlinear-u.  The map may decrease: monotonicity
in u is the audited (H5), not a condition of the model.  An optional
additive normalization shifts H by -c (equivalently the Lagrangian by +c),
used to set the critical value to zero.

The Legendre conjugate L(x,u,v) = sup_p { <v,p> - H(x,u,p) } has the closed
form L = |v|^2/2 - coupling(u) - V(x) + action_shift with argmax p = v, so
the assumptions on L follow from those audited on H.

The partial derivatives have closed forms: H_p = p, H_u = f'(u) (or lam)
from ``coupling_derivative``, and H_x the gradient of V, which only the
characteristic flow forms.  The standing structural assumptions (strict
convexity in p, uniform Lipschitz continuity and monotonicity in u) are
audited on sampled boxes, with H_u and H_p read from those closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILIES = ("quadratic-mechanical", "quadratic-discounted", "quadratic-nonlinear-u")


@dataclass(frozen=True)
class TrigPotential:
    """V(x) = sum_m amplitude_m * cos(2*pi * k_m . x) on the d-torus."""

    dim: int
    modes: tuple = ()  # ((k_vector, amplitude), ...)

    def __post_init__(self):
        norm = []
        for k, a in self.modes:
            kv = tuple(int(v) for v in np.atleast_1d(k))
            if len(kv) != self.dim:
                raise ValueError(f"mode {k} has wrong dimension for d={self.dim}")
            norm.append((kv, float(a)))
        object.__setattr__(self, "modes", tuple(norm))

    def __call__(self, x):
        """V at the points whose coordinates run along the last axis of x:
        shape x.shape[:-1], at least (1,)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape[:-1])
        for k, a in self.modes:
            out += a * np.cos(2.0 * np.pi * (x @ np.asarray(k, dtype=float)))
        return out

    def segment_average(self, x0, disp):
        """Exact average of V along the straight segment x0 + s*disp, s in [0,1].

        For each mode the line integral of cos(2*pi k.x) has the closed form
        cos(2*pi k.(x0 + disp/2)) * sinc(k.disp).  The coordinates run along
        the last axis of x0 and disp, whose other axes broadcast: a
        displacement shared by many points is given once.  k.disp is summed
        in axis order, so its bits do not depend on how disp is broadcast.
        """
        x0 = np.atleast_2d(np.asarray(x0, dtype=float))
        disp = np.atleast_2d(np.asarray(disp, dtype=float))
        out = np.zeros(np.broadcast_shapes(x0.shape[:-1], disp.shape[:-1]))
        for k, a in self.modes:
            kd = sum(disp[..., i] * float(ki) for i, ki in enumerate(k))
            phase = x0 @ np.asarray(k, dtype=float) + 0.5 * kd
            out += a * np.cos(2.0 * np.pi * phase) * np.sinc(kd)
        return out


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Piecewise-linear map u -> f(u), extended with end slopes."""

    knots_u: tuple
    knots_f: tuple

    def __post_init__(self):
        u = np.asarray(self.knots_u, dtype=float)
        f = np.asarray(self.knots_f, dtype=float)
        if u.size < 2 or u.size != f.size:
            raise ValueError("piecewise-linear map needs >= 2 matching knots")
        if np.any(np.diff(u) <= 0):
            raise ValueError("knot abscissae must be strictly increasing")
        object.__setattr__(self, "knots_u", tuple(float(v) for v in u))
        object.__setattr__(self, "knots_f", tuple(float(v) for v in f))
        # the knot arrays and slopes, formed once: the coupling runs every step
        ku, kf = np.array(self.knots_u), np.array(self.knots_f)
        for name, arr in (("_ku", ku), ("_kf", kf), ("_slopes", np.diff(kf) / np.diff(ku))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        ku, kf, s = self._ku, self._kf, self._slopes
        out = np.asarray(np.interp(u, ku, kf))
        # the end slopes only where u leaves the knots (NaN stays interp's NaN)
        lo, hi = u < ku[0], u > ku[-1]
        if lo.any():
            out[lo] = kf[0] + s[0] * (u[lo] - ku[0])
        if hi.any():
            out[hi] = kf[-1] + s[-1] * (u[hi] - ku[-1])
        return out

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        idx = np.searchsorted(self._ku, u, side="right") - 1
        return self._slopes[np.clip(idx, 0, self._slopes.size - 1)]

    def lipschitz_constant(self) -> float:
        return float(np.max(np.abs(self._slopes)))


@dataclass(frozen=True)
class HamiltonianModel:
    """One member of the quadratic catalog, with its normalization shift.

    ``action_shift`` c means the effective Hamiltonian is H - c and the
    effective Lagrangian is L + c.
    """

    family: str
    dim: int = 1
    potential: TrigPotential = None
    lam: float = 0.0
    f: PiecewiseLinearMap = None
    action_shift: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.potential is None:
            object.__setattr__(self, "potential", TrigPotential(self.dim))
        if self.potential.dim != self.dim:
            raise ValueError("potential dimension does not match model")
        if self.lam != 0.0 and self.family != "quadratic-discounted":
            raise ValueError(f"{self.family} does not read model.lambda, got {self.lam!r}")
        if self.f is not None and self.family != "quadratic-nonlinear-u":
            raise ValueError(f"{self.family} does not read model.f")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.family == "quadratic-nonlinear-u" and self.f is None:
            raise ValueError("nonlinear-u family requires f")

    # u-coupling term g(u) and its derivative
    def coupling(self, u):
        u = np.asarray(u, dtype=float)
        return self.lam * u if self.f is None else self.f(u)

    def coupling_derivative(self, u):
        u = np.asarray(u, dtype=float)
        return np.full_like(u, self.lam) if self.f is None else self.f.derivative(u)

    @property
    def lipschitz_u(self) -> float:
        """Uniform Lipschitz constant of H (and L) in u, from the formula."""
        return float(self.lam) if self.f is None else self.f.lipschitz_constant()

    @property
    def kinks_u(self) -> tuple:
        """The u values where H_u jumps: the interior knots of f."""
        return () if self.f is None else self.f.knots_u[1:-1]


def eval_H(model: HamiltonianModel, x, u, p):
    """H(x,u,p) for the model's family at n points: x and p reshape to
    (n, dim) rows and u to n values; returns shape (n,), also for n = 1.
    A non-finite input raises ValueError."""
    pts = np.asarray(x, dtype=float).reshape(-1, model.dim)
    pv = np.asarray(p, dtype=float).reshape(-1, model.dim)
    uv = np.asarray(u, dtype=float).ravel()
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(pv)) and np.all(np.isfinite(uv))):
        raise ValueError("non-finite input to eval_H")
    val = 0.5 * np.sum(pv * pv, axis=1) + model.coupling(uv) + model.potential(pts)
    return val - model.action_shift


@dataclass
class AssumptionAudit:
    """Sampled pass/fail verdicts for the standing assumptions."""

    verdicts: dict  # name -> bool
    worst: dict  # name -> (margin, sample) for the tightest/violating sample
    max_Hp: float = 0.0

    TOL = 1e-12

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


def _halton_samples(bounds, n):
    """Unscrambled Halton points 0..n-1: per axis the radical inverse of the
    point index in the axis' prime base, scaled to the box."""
    primes = [c for c in range(2, 64) if all(c % p for p in range(2, c))]
    lo = np.asarray([b[0] for b in bounds], dtype=float)
    hi = np.asarray([b[1] for b in bounds], dtype=float)
    if np.any(hi <= lo):
        raise ValueError("empty sample box")
    unit = np.zeros((n, len(bounds)))
    for j in range(len(bounds)):
        base = primes[j]
        q, scale = np.arange(n), 1.0 / base
        while np.any(q):
            unit[:, j] += (q % base) * scale
            scale /= base
            q //= base
    return lo + unit * (hi - lo)


def audit_assumptions(model: HamiltonianModel, sample_box, n_samples: int) -> AssumptionAudit:
    """Audit (H1), (H4), (H5) by deterministic low-discrepancy sampling.

    ``sample_box`` is {"x": (lo, hi), "u": (lo, hi), "p": (lo, hi)} with the
    x and p bounds applied per axis.  (H2) superlinearity is automatic for
    quadratic families and (H3) completeness is a documented consequence of
    the globally Lipschitz characteristic field; neither is sampled.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    d = model.dim
    bounds = [sample_box["x"]] * d + [sample_box["u"]] * 2 + [sample_box["p"]] * (2 * d)
    s = _halton_samples(bounds, n_samples)
    x = s[:, :d]
    u1, u2 = s[:, d], s[:, d + 1]
    p1 = s[:, d + 2 : 2 * d + 2]
    p2 = s[:, 2 * d + 2 :]
    tol = AssumptionAudit.TOL

    H_u1p1 = eval_H(model, x, u1, p1)
    H_u2p1 = eval_H(model, x, u2, p1)
    H_u1p2 = eval_H(model, x, u1, p2)
    H_mid = eval_H(model, x, u1, 0.5 * (p1 + p2))
    # the catalog's closed forms at (x, u1, p1): H_u is the coupling's derivative, H_p = p
    hu = model.coupling_derivative(u1)

    verdicts, worst = {}, {}

    # (H1): midpoint convexity with the quadratic margin |p1-p2|^2/8
    gap2 = np.sum((p1 - p2) ** 2, axis=1)
    margin_h1 = 0.5 * (H_u1p1 + H_u1p2) - H_mid - gap2 / 8.0
    i = int(np.argmin(margin_h1))
    verdicts["H1"] = bool(margin_h1[i] >= -tol)
    worst["H1"] = (float(margin_h1[i]), s[i].tolist())

    # (H4): |H(u1) - H(u2)| <= lipschitz_u * |u1 - u2|
    lam = model.lipschitz_u
    margin_h4 = lam * np.abs(u1 - u2) - np.abs(H_u1p1 - H_u2p1)
    i = int(np.argmin(margin_h4))
    verdicts["H4"] = bool(margin_h4[i] >= -tol)
    worst["H4"] = (float(margin_h4[i]), s[i].tolist())

    # (H5): dH/du >= 0 everywhere sampled
    i = int(np.argmin(hu))
    verdicts["H5"] = bool(hu[i] >= -tol)
    worst["H5"] = (float(hu[i]), s[i].tolist())

    return AssumptionAudit(
        verdicts=verdicts,
        worst=worst,
        max_Hp=float(np.max(np.sqrt(np.sum(p1**2, axis=1)))),
    )
