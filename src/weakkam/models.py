"""Catalog of Hamiltonian families H(x,u,p) on the torus.

Every family is quadratic in the momentum with an additive coupling in u:

    quadratic-mechanical:   H = |p|^2/2 + V(x)
    quadratic-discounted:   H = |p|^2/2 + lam*u + V(x)
    quadratic-nonlinear-u:  H = |p|^2/2 + f(u) + V(x)

with V a trigonometric polynomial and f a non-decreasing globally Lipschitz
piecewise-linear map.  An optional additive normalization shifts H by -c
(equivalently the Lagrangian by +c), used to set the critical value to zero.

The Legendre conjugate L(x,u,v) = sup_p { <v,p> - H(x,u,p) } has the closed
form L = |v|^2/2 - coupling(u) - V(x) + action_shift with argmax p = v, so
the assumptions on L follow from those audited on H.

Partial derivatives are analytic; the standing structural assumptions
(strict convexity in p, uniform Lipschitz continuity and monotonicity in u)
can be audited on sampled boxes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape[0])
        for k, a in self.modes:
            out += a * np.cos(2.0 * np.pi * (x @ np.asarray(k, dtype=float)))
        return out

    def gradient(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        for k, a in self.modes:
            kv = np.asarray(k, dtype=float)
            out += (-a * 2.0 * np.pi * np.sin(2.0 * np.pi * (x @ kv)))[:, None] * kv
        return out

    def segment_average(self, x0, disp):
        """Exact average of V along the straight segment x0 + s*disp, s in [0,1].

        For each mode the line integral of cos(2*pi k.x) has the closed form
        cos(2*pi k.(x0 + disp/2)) * sinc(k.disp).
        """
        x0 = np.atleast_2d(np.asarray(x0, dtype=float))
        disp = np.atleast_2d(np.asarray(disp, dtype=float))
        out = np.zeros(x0.shape[0])
        for k, a in self.modes:
            kv = np.asarray(k, dtype=float)
            phase = x0 @ kv + 0.5 * (disp @ kv)
            out += a * np.cos(2.0 * np.pi * phase) * np.sinc(disp @ kv)
        return out


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Monotone piecewise-linear map u -> f(u), extended with end slopes."""

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

    def _slopes(self):
        u = np.asarray(self.knots_u)
        f = np.asarray(self.knots_f)
        return np.diff(f) / np.diff(u)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        ku = np.asarray(self.knots_u)
        kf = np.asarray(self.knots_f)
        s = self._slopes()
        core = np.interp(u, ku, kf)
        lo = kf[0] + s[0] * (u - ku[0])
        hi = kf[-1] + s[-1] * (u - ku[-1])
        return np.where(u < ku[0], lo, np.where(u > ku[-1], hi, core))

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        ku = np.asarray(self.knots_u)
        s = self._slopes()
        idx = np.clip(np.searchsorted(ku, u, side="right") - 1, 0, s.size - 1)
        return s[idx]

    def lipschitz_constant(self) -> float:
        return float(np.max(np.abs(self._slopes())))

    def is_monotone(self) -> bool:
        return bool(np.all(self._slopes() >= 0))


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
    check_monotone: bool = field(default=True, repr=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.potential is None:
            object.__setattr__(self, "potential", TrigPotential(self.dim))
        if self.potential.dim != self.dim:
            raise ValueError("potential dimension does not match model")
        if self.family == "quadratic-discounted" and self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.family == "quadratic-nonlinear-u":
            if self.f is None:
                raise ValueError("nonlinear-u family requires f")
            if self.check_monotone and not self.f.is_monotone():
                raise ValueError("f must be non-decreasing")

    # u-coupling term g(u) and its derivative
    def coupling(self, u):
        u = np.asarray(u, dtype=float)
        if self.family == "quadratic-mechanical":
            return np.zeros_like(u)
        if self.family == "quadratic-discounted":
            return self.lam * u
        return self.f(u)

    def coupling_derivative(self, u):
        u = np.asarray(u, dtype=float)
        if self.family == "quadratic-mechanical":
            return np.zeros_like(u)
        if self.family == "quadratic-discounted":
            return np.full_like(u, self.lam)
        return self.f.derivative(u)

    @property
    def lipschitz_u(self) -> float:
        """Uniform Lipschitz constant of H (and L) in u, from the formula."""
        if self.family == "quadratic-mechanical":
            return 0.0
        if self.family == "quadratic-discounted":
            return float(self.lam)
        return self.f.lipschitz_constant()

    @property
    def kinks_u(self) -> tuple:
        """The u values where H_u jumps: the interior knots of f."""
        return self.f.knots_u[1:-1] if self.family == "quadratic-nonlinear-u" else ()


def _as_points(x, dim):
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x) if x.ndim >= 1 else x.reshape(1, 1)
    if pts.shape[-1] != dim:
        pts = pts.reshape(-1, dim)
    return pts


def eval_H(model: HamiltonianModel, x, u, p):
    """H(x,u,p) for the model's family; vectorized over leading axes."""
    pts = _as_points(x, model.dim)
    pv = np.asarray(p, dtype=float).reshape(-1, model.dim)
    uv = np.asarray(u, dtype=float).ravel()
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(pv)) and np.all(np.isfinite(uv))):
        raise ValueError("non-finite input to eval_H")
    val = 0.5 * np.sum(pv * pv, axis=1) + model.coupling(uv) + model.potential(pts)
    val = val - model.action_shift
    return val if val.size > 1 else float(val[0])


def grad_H(model: HamiltonianModel, x, u, p):
    """Analytic partials (H_x, H_u, H_p) of the family formula."""
    pts = _as_points(x, model.dim)
    pv = np.asarray(p, dtype=float).reshape(-1, model.dim)
    uv = np.asarray(u, dtype=float).ravel()
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(pv)) and np.all(np.isfinite(uv))):
        raise ValueError("non-finite input to grad_H")
    hx = model.potential.gradient(pts)
    hu = model.coupling_derivative(uv)
    hp = pv.copy()
    if pts.shape[0] == 1:
        return hx[0], float(hu[0]), hp[0]
    return hx, hu, hp


@dataclass
class AssumptionAudit:
    """Sampled pass/fail verdicts for the standing assumptions."""

    verdicts: dict  # name -> bool
    worst: dict  # name -> (margin, sample) for the tightest/violating sample
    max_Hp: float = 0.0
    empirical_lipschitz_u: float = 0.0
    n_samples: int = 0

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
    _, hu, hp = grad_H(model, x, u1, p1)
    H_u1p1 = np.atleast_1d(H_u1p1)
    H_u2p1 = np.atleast_1d(H_u2p1)
    H_u1p2 = np.atleast_1d(H_u1p2)
    H_mid = np.atleast_1d(H_mid)
    hu = np.atleast_1d(hu)

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

    du = np.abs(u1 - u2)
    ok = du > 1e-9
    emp = float(np.max(np.abs(H_u1p1 - H_u2p1)[ok] / du[ok])) if np.any(ok) else 0.0

    return AssumptionAudit(
        verdicts=verdicts,
        worst=worst,
        max_Hp=float(np.max(np.sqrt(np.sum(hp**2, axis=1)))),
        empirical_lipschitz_u=emp,
        n_samples=n_samples,
    )
