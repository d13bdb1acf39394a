"""nklab: chart-based verification laboratory for nearly Kahler 6-manifolds.

The package evaluates differential-geometric identities numerically on
concrete models (S3 x S3, the round 6-sphere, S2 x S2 and an inverse
construction over S2 x S2) and reports residuals against pinned
tolerances.  Everything is built on truncated multivariate Taylor
arithmetic (``jets``) so that curvature and Laplacian identities are
checked to near machine precision, with finite-difference root jets
(``findiff.fd_chart``) as a cross-check of the chart fields' derivatives.
"""

__version__ = "0.1.0"

from .chart import (
    ChartMap,
    ConfigError,
    DegenerateFrameError,
    DegenerateMetricError,
    DegeneratePairError,
    EvalContext,
    InvariantViolation,
    NKLabError,
    NonEinsteinBaseError,
    OutOfDomainError,
)

__all__ = [
    "__version__",
    "ChartMap",
    "EvalContext",
    "NKLabError",
    "OutOfDomainError",
    "DegenerateMetricError",
    "DegenerateFrameError",
    "DegeneratePairError",
    "NonEinsteinBaseError",
    "InvariantViolation",
    "ConfigError",
]
