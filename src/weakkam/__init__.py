"""Numerical toolkit for evolutionary Hamilton-Jacobi equations
u_t + H(x, u, Du) = 0 with u-dependent Hamiltonians on the flat torus.

Two independent solution paths are provided: a variational dynamic
programming semigroup, solved by the explicit forward march that is the
exact fixed point of the path-infimum operator, with the Picard iterates'
contraction certificate computed in the same march, and a monotone
Lax-Friedrichs finite-difference oracle.  Around them sit minimal action
tables, the discrete critical value (exact, by Howard policy iteration,
with a certifying residual), characteristic flows and the diagnostic
battery tying them together.  The paper's objects that only check the
solver (the semigroup law, the Legendre conjugate L, the subsolution
inequality, the Peierls barrier) are test oracles in ``tests/oracles.py``,
not part of the package.
"""

__version__ = "0.1.0"

from .action import (
    ActionTable,
    CriticalValueResult,
    critical_value,
    min_action,
)
from .characteristics import (
    CharacteristicState,
    Trajectory,
    dH_law_residual,
    flow,
    match_calibrated,
)
from .errors import ConfigurationError, NumericError
from .fdoracle import LFConfig, lf_final
from .kernels import StepKernel
from .models import (
    HamiltonianModel,
    PiecewiseLinearMap,
    TrigPotential,
    audit_assumptions,
    eval_H,
    grad_H,
)
from .semigroup import (
    CalibratedCurve,
    ConvergenceReport,
    FixedPointReport,
    check_properties,
    converge,
    extract_calibrated_curve,
    fixed_point,
    weak_kam_residual,
)
from .torus import Grid, GridField, SpaceTimeField

__all__ = [
    "ActionTable",
    "CalibratedCurve",
    "CharacteristicState",
    "ConfigurationError",
    "ConvergenceReport",
    "CriticalValueResult",
    "FixedPointReport",
    "Grid",
    "GridField",
    "HamiltonianModel",
    "LFConfig",
    "NumericError",
    "PiecewiseLinearMap",
    "SpaceTimeField",
    "StepKernel",
    "Trajectory",
    "TrigPotential",
    "audit_assumptions",
    "check_properties",
    "converge",
    "critical_value",
    "dH_law_residual",
    "eval_H",
    "extract_calibrated_curve",
    "fixed_point",
    "flow",
    "grad_H",
    "lf_final",
    "match_calibrated",
    "min_action",
    "weak_kam_residual",
]
