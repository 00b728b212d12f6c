"""Normal extremals of left-invariant time-optimal problems on step-2 free
Carnot groups with strictly convex control sets.

The library evaluates support functions of convex control sets, analyzes the
Lie-Poisson structure (Casimirs, symplectic leaves), integrates the vertical
covector flow with invariant monitoring, lifts extremal controls to group
trajectories, and classifies k = 3 extremals as constant or periodic.
"""

from .algebra import (
    AlgebraSpec,
    CasimirBasis,
    LeafClass,
    SkewMatrix,
    kernel_basis,
    leaf_classify,
)
from .bodies import ControlBody, Ellipsoid, LpBall, TranslatedEllipsoid, ValidationReport
from .config import RunConfig, load_config, parse_config
from .errors import (
    AbnormalCovectorError,
    CarnotError,
    DriftExceededError,
    HorizonExhaustedError,
    InputError,
    IntegrationError,
    UnsupportedRankError,
)
from .flow import (
    ExtremalClass,
    IntegrationOptions,
    PeriodResult,
    QuasiPeriodResult,
    Trajectory,
    classify_k3,
    classify_sweep,
    detect_period,
    quasi_periodicity_check,
)
from .lift import GroupPoint, HorizontalTrajectory, integrate_horizontal

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec",
    "AbnormalCovectorError",
    "CarnotError",
    "CasimirBasis",
    "ControlBody",
    "DriftExceededError",
    "Ellipsoid",
    "ExtremalClass",
    "GroupPoint",
    "HorizonExhaustedError",
    "HorizontalTrajectory",
    "InputError",
    "IntegrationError",
    "IntegrationOptions",
    "LeafClass",
    "LpBall",
    "PeriodResult",
    "QuasiPeriodResult",
    "RunConfig",
    "SkewMatrix",
    "Trajectory",
    "TranslatedEllipsoid",
    "UnsupportedRankError",
    "ValidationReport",
    "classify_k3",
    "classify_sweep",
    "detect_period",
    "integrate_horizontal",
    "kernel_basis",
    "leaf_classify",
    "load_config",
    "parse_config",
    "quasi_periodicity_check",
]
