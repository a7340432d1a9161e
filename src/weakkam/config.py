"""Run configuration: YAML schema, total validation, model construction.

The schema is a small set of nested blocks with flat keys.  Validation is
total: every key is checked before any computation starts, and every
failure message names the offending key so batch runs fail loudly and
early.  Unknown keys are rejected rather than ignored.

Schema (defaults in parentheses):

    model:
      family: quadratic-mechanical | quadratic-discounted | quadratic-nonlinear-u
      dim: 1 | 2                     (1)
      lambda: float >= 0             (0.0; discounted family only, else
                                      rejected naming model.family unless 0)
      potential: [[k..., amplitude], ...]   ([], meaning V = 0)
      f: {knots_u: [...], knots_f: [...]}   (nonlinear-u family only, where it
                                      is required; else rejected naming
                                      model.family)
      action_shift: float            (0.0)
    grid:
      N: int >= 2
      dt: float > 0
      v_max: float > 0               (2*(1 + max |H_p| over the audit box))
    solver:
      T: float > 0                   (1.0)
      tol: float >= 0                (1e-10, see below)
      stop_eps: float > 0            (1e-6)
      checkpoints: [floats]          ([50.0], converge marches to the largest;
                                      the others are only recorded)
      quadrature: left|midpoint|exact  (left)
      a: float                       (0.0, frozen u-level for action/critical)
      T_max: float >= 4              (64.0, only recorded in the manifest)
      phi: [[k..., amplitude], ...]  ([], initial datum as trig modes)
    char:                            (required by the char command)
      x0: [floats]                   (dim entries)
      u0: float                      (0.0)
      p0: [floats]                   (dim entries)
      t: float > 0                   (1.0)
      dt_ode: float > 0              (1e-3)
    oracle:
      alpha: float                   (audited max |H_p| + 0.1)
      dt_fd: float                   (min(1e-3, the largest step both
                                      conditions of the oracle allow))
    output:
      directory: str                 (overridden by --out)
    seed: int >= 0                   (0, only recorded in the manifest)

Every number, a list entry or a mode's wavenumbers and amplitude too, is
checked by ``_number`` (a finite float) or ``_integer``; a mode list's
amplitudes must also have a finite sum of absolute values, which bounds
|V| and |phi| without evaluating them.  ``RunConfig.kernel()`` and
``RunConfig.lf()`` build the run's two discretizations; the library's own
checks (``PiecewiseLinearMap``, ``HamiltonianModel``, ``check_dt_lambda``,
``stencil_offsets``, ``LFConfig``) run through ``_named``, which re-raises
a failure naming the key.  What depends on the command (stepped horizons,
their least step counts, memory and work) ``weakkam.cli._plan`` checks
as it builds the command's run plan, before the output directory is made.

The semigroup is computed by the forward march, which is its exact fixed
point, and ``solve``'s slab is always that march.  ``solver.tol`` only
decides where the Picard certificate in ``fixedpoint.csv`` ends (the first
gap that is 0, or below tol when tol > 0, within n_steps + 1 iterations);
``check`` also allows property gaps up to 2*max(tol, 1e-12).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ConfigurationError
from .fdoracle import LFConfig, _stable_step
from .kernels import QUADRATURES, StepKernel, check_dt_lambda
from .models import (
    AssumptionAudit,
    HamiltonianModel,
    PiecewiseLinearMap,
    TrigPotential,
    audit_assumptions,
)
from .torus import Grid, GridField, stencil_offsets

# libyaml's parser where PyYAML was built with it; it builds the same objects
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_BLOCKS = {"model", "grid", "solver", "char", "oracle", "output", "seed"}
_MODEL_KEYS = {"family", "dim", "lambda", "potential", "f", "action_shift"}
_GRID_KEYS = {"N", "dt", "v_max"}
_SOLVER_KEYS = {"T", "tol", "stop_eps", "checkpoints", "quadrature", "a", "T_max", "phi"}
_CHAR_KEYS = {"x0", "u0", "p0", "t", "dt_ode"}
_ORACLE_KEYS = {"alpha", "dt_fd"}
_OUTPUT_KEYS = {"directory"}

DEFAULT_SAMPLE_BOX = {"x": (0.0, 1.0), "u": (-3.0, 3.0), "p": (-4.0, 4.0)}


def _require(cond, key, msg):
    if not cond:
        raise ConfigurationError(f"config key `{key}`: {msg}")


def _lookup(block, block_name, key, default):
    """block[key] and its name: block_name.key in a mapping (key alone at the
    top level, block_name ""), block_name[key] in a list."""
    if isinstance(block, list):
        return block[key], f"{block_name}[{key}]"
    return block.get(key, default), f"{block_name}.{key}" if block_name else key


def _number(block, block_name, key, default=None, lo=None, lo_strict=False):
    """block[key] as a finite float."""
    raw, full = _lookup(block, block_name, key, default)
    _require(raw is not None, full, "is required")
    _require(isinstance(raw, (int, float)) and not isinstance(raw, bool), full, "must be a number")
    try:
        v = float(raw)
    except OverflowError:  # an integer past the float range
        v = np.inf
    _require(np.isfinite(v), full, "must be finite")
    if lo is not None:
        if lo_strict:
            _require(v > lo, full, f"must be > {lo:g}, got {v:g}")
        else:
            _require(v >= lo, full, f"must be >= {lo:g}, got {v:g}")
    return v


def _integer(block, block_name, key, default=None, lo=None):
    raw, full = _lookup(block, block_name, key, default)
    _require(raw is not None, full, "is required")
    _require(isinstance(raw, int) and not isinstance(raw, bool), full, "must be an integer")
    if lo is not None:
        _require(raw >= lo, full, f"must be >= {lo}, got {raw}")
    return int(raw)


def _named(key, build, *args, **kwargs):
    """build(*args, **kwargs), a failure of its own checks re-raised naming key."""
    try:
        return build(*args, **kwargs)
    except (ValueError, TypeError) as e:
        _require(False, key, e)


def _check_keys(block, block_name, allowed):
    _require(isinstance(block, dict), block_name, "must be a mapping")
    for k in block:
        _require(k in allowed, f"{block_name}.{k}", "is not a recognized key")


def _parse_modes(raw, dim, key):
    """[[k..., amplitude], ...] with dim integer wavenumbers per entry and a
    finite sum of |amplitude|, which bounds the trig sum."""
    if raw is None:
        return ()
    _require(isinstance(raw, list), key, "must be a list of [k..., amplitude] entries")
    modes = []
    for i, entry in enumerate(raw):
        full = f"{key}[{i}]"
        _require(isinstance(entry, list) and len(entry) == dim + 1, full,
                 f"must have {dim} wavenumber(s) plus an amplitude")
        modes.append((tuple(_integer(entry, full, d) for d in range(dim)),
                      _number(entry, full, dim)))
    _require(np.isfinite(sum(abs(a) for _, a in modes)), key,
             "the sum of |amplitude| is past the float range")
    return tuple(modes)


@dataclass
class RunConfig:
    """Validated run configuration with every default resolved."""

    model: HamiltonianModel
    grid: Grid
    dt: float
    v_max: float
    T: float
    tol: float
    stop_eps: float
    checkpoints: tuple
    quadrature: str
    a: float
    t_max: float
    phi_modes: tuple
    char: dict | None
    alpha: float
    dt_fd: float
    out_dir: str | None
    seed: int
    audit: AssumptionAudit = field(repr=False)

    def resolved(self) -> dict:
        """Flat resolved-config mapping for the run manifest."""
        m = self.model
        return {
            "model.family": m.family,
            "model.dim": m.dim,
            "model.lambda": m.lam,
            "model.potential": [list(k) + [a] for k, a in m.potential.modes],
            "model.f": None if m.f is None else {
                "knots_u": list(m.f.knots_u), "knots_f": list(m.f.knots_f)},
            "model.action_shift": m.action_shift,
            "grid.N": self.grid.n,
            "grid.dt": self.dt,
            "grid.v_max": self.v_max,
            "solver.T": self.T,
            "solver.tol": self.tol,
            "solver.stop_eps": self.stop_eps,
            "solver.checkpoints": list(self.checkpoints),
            "solver.quadrature": self.quadrature,
            "solver.a": self.a,
            "solver.T_max": self.t_max,
            "solver.phi": [list(k) + [a] for k, a in self.phi_modes],
            "char": self.char,
            "oracle.alpha": self.alpha,
            "oracle.dt_fd": self.dt_fd,
            "output.directory": self.out_dir,
            "seed": self.seed,
        }

    def kernel(self) -> StepKernel:
        """The run's discretization: the step kernel every solver takes."""
        return StepKernel(self.model, self.grid, self.dt, self.v_max, self.quadrature)

    def lf(self) -> LFConfig:
        """The oracle's discretization: the Lax-Friedrichs scheme on the run's grid."""
        return LFConfig(self.model, self.grid, self.alpha, self.dt_fd)

    @property
    def T_fd(self) -> float:
        """T rounded to a whole number (at least 1) of oracle steps."""
        steps = self.T / self.dt_fd
        _require(np.isfinite(steps), "solver.T",
                 f"{self.T:g} is past the float range of oracle steps of dt_fd={self.dt_fd:g}")
        return max(1, int(round(steps))) * self.dt_fd

    def phi_field(self):
        pot = TrigPotential(self.model.dim, self.phi_modes)
        return GridField(self.grid, pot(self.grid.points()))


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed mapping and resolve every default.

    All numeric coupling constraints (dt*lambda_L <= 1, non-empty stencil,
    both conditions of the difference oracle) are checked here so no
    command starts work on an invalid configuration.
    """
    _check_keys(data, "config", _BLOCKS)

    mblock = data.get("model", {})
    _check_keys(mblock, "model", _MODEL_KEYS)
    family = mblock.get("family")
    _require(isinstance(family, str), "model.family", "is required and must be a string")
    dim = _integer(mblock, "model", "dim", default=1)
    _require(dim in (1, 2), "model.dim", f"must be 1 or 2, got {dim}")
    lam = _number(mblock, "model", "lambda", default=0.0, lo=0.0)
    shift = _number(mblock, "model", "action_shift", default=0.0)
    modes = _parse_modes(mblock.get("potential"), dim, "model.potential")
    fmap = None
    if "f" in mblock:
        fraw = mblock["f"]
        _check_keys(fraw, "model.f", {"knots_u", "knots_f"})
        fmap = _named("model.f", PiecewiseLinearMap,
                      tuple(fraw.get("knots_u", ())), tuple(fraw.get("knots_f", ())))
    # monotonicity of f is a model assumption audited by the check command,
    # not a configuration validity issue
    model = _named("model.family", HamiltonianModel, family=family, dim=dim,
                   potential=TrigPotential(dim, modes), lam=lam, f=fmap, action_shift=shift)

    gblock = data.get("grid", {})
    _check_keys(gblock, "grid", _GRID_KEYS)
    n = _integer(gblock, "grid", "N", lo=2)
    dt = _number(gblock, "grid", "dt", lo=0.0, lo_strict=True)
    grid = Grid(dim, n)
    _named("grid.dt", check_dt_lambda, model, dt)
    audit = audit_assumptions(model, DEFAULT_SAMPLE_BOX, 512)
    if "v_max" in gblock:
        v_max = _number(gblock, "grid", "v_max", lo=0.0, lo_strict=True)
    else:
        v_max = 2.0 * (1.0 + audit.max_Hp)
    _named("grid.dt", stencil_offsets, grid, v_max, dt)

    sblock = data.get("solver", {})
    _check_keys(sblock, "solver", _SOLVER_KEYS)
    T = _number(sblock, "solver", "T", default=1.0, lo=0.0, lo_strict=True)
    tol = _number(sblock, "solver", "tol", default=1e-10, lo=0.0)
    stop_eps = _number(sblock, "solver", "stop_eps", default=1e-6, lo=0.0, lo_strict=True)
    cps = sblock.get("checkpoints", [50.0])
    _require(isinstance(cps, list) and cps, "solver.checkpoints", "must be a non-empty list")
    cps = [_number(cps, "solver.checkpoints", i, lo=0.0, lo_strict=True) for i in range(len(cps))]
    quad = sblock.get("quadrature", "left")
    _require(quad in QUADRATURES, "solver.quadrature",
             f"must be left, midpoint or exact, got {quad!r}")
    a = _number(sblock, "solver", "a", default=0.0)
    t_max = _number(sblock, "solver", "T_max", default=64.0, lo=4.0)
    phi_modes = _parse_modes(sblock.get("phi"), dim, "solver.phi")

    char = None
    if "char" in data:
        cblock = data["char"]
        _check_keys(cblock, "char", _CHAR_KEYS)
        x0 = cblock.get("x0")
        p0 = cblock.get("p0")
        _require(isinstance(x0, list) and len(x0) == dim, "char.x0", f"must be a list of {dim} numbers")
        _require(isinstance(p0, list) and len(p0) == dim, "char.p0", f"must be a list of {dim} numbers")
        char = {
            "x0": [_number(x0, "char.x0", i) for i in range(dim)],
            "u0": _number(cblock, "char", "u0", default=0.0),
            "p0": [_number(p0, "char.p0", i) for i in range(dim)],
            "t": _number(cblock, "char", "t", default=1.0, lo=0.0, lo_strict=True),
            "dt_ode": _number(cblock, "char", "dt_ode", default=1e-3, lo=0.0, lo_strict=True),
        }

    oblock = data.get("oracle", {})
    _check_keys(oblock, "oracle", _ORACLE_KEYS)
    alpha_default = audit.max_Hp + 0.1
    alpha = _number(oblock, "oracle", "alpha", default=alpha_default, lo=0.0, lo_strict=True)
    _require(alpha >= audit.max_Hp + 0.1 - 1e-12, "oracle.alpha",
             f"{alpha:g} is below the audited max |H_p| {audit.max_Hp:g} + 0.1")
    dt_fd_default = min(_stable_step(model, grid, alpha), 1e-3)
    dt_fd = _number(oblock, "oracle", "dt_fd", default=dt_fd_default, lo=0.0, lo_strict=True)
    _named("oracle.dt_fd", LFConfig, model, grid, alpha, dt_fd)

    outblock = data.get("output", {})
    _check_keys(outblock, "output", _OUTPUT_KEYS)
    out_dir = outblock.get("directory")
    if out_dir is not None:
        _require(isinstance(out_dir, str), "output.directory", "must be a string")

    seed = _integer(data, "", "seed", default=0, lo=0)

    return RunConfig(
        model=model, grid=grid, dt=dt, v_max=v_max, T=T, tol=tol, stop_eps=stop_eps,
        checkpoints=tuple(cps), quadrature=quad, a=a, t_max=t_max,
        phi_modes=phi_modes, char=char, alpha=alpha, dt_fd=dt_fd, out_dir=out_dir,
        seed=seed, audit=audit,
    )


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        try:
            data = yaml.load(fh, Loader=_LOADER)
        except yaml.YAMLError as e:
            raise ConfigurationError(f"config file is not valid YAML: {e}") from e
    if data is None:
        data = {}
    return parse_config(data)
