"""tiplab: rate-induced tipping as loss of forward attraction.

Numerical tools for nonautonomous ODEs with parameter ramps: pullback
attractor/repeller estimation, quasi-static equilibrium continuation,
forward-attraction and end-point-tracking diagnostics, and critical-rate
bracketing, over a catalog of scalar and planar example systems with
closed-form reference curves.
"""
from .integrate import (
    COMPLETED,
    ESCAPED,
    STEP_UNDERFLOW,
    IntegratorConfig,
    Trajectory,
    VectorFieldHandle,
    integrate,
)
from .models import (
    ComovingDescriptor,
    CurveUndefined,
    MODEL_NAMES,
    ModelSpec,
    NoComovingFrame,
    RampDescriptor,
    TiplabError,
    comoving_transform,
    eval_rhs,
    make_model,
    oracle_curve,
)
from .analysis import (
    Diagnostic,
    PullbackEstimate,
    QseBranch,
    QseSample,
    comoving_consistency_check,
    endpoint_tracking_test,
    estimate_pullback,
    forward_attraction_test,
    qse_continuation,
)
from .tipping import (
    CriticalRateBracket,
    RateDiagnostics,
    TippingReport,
    find_critical_rate,
    locality_probe,
    rate_diagnostics,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "COMPLETED",
    "ESCAPED",
    "STEP_UNDERFLOW",
    "IntegratorConfig",
    "Trajectory",
    "VectorFieldHandle",
    "integrate",
    "ComovingDescriptor",
    "CurveUndefined",
    "MODEL_NAMES",
    "ModelSpec",
    "NoComovingFrame",
    "RampDescriptor",
    "TiplabError",
    "comoving_transform",
    "eval_rhs",
    "make_model",
    "oracle_curve",
    "Diagnostic",
    "PullbackEstimate",
    "QseBranch",
    "QseSample",
    "comoving_consistency_check",
    "endpoint_tracking_test",
    "estimate_pullback",
    "forward_attraction_test",
    "qse_continuation",
    "CriticalRateBracket",
    "RateDiagnostics",
    "TippingReport",
    "find_critical_rate",
    "locality_probe",
    "rate_diagnostics",
    "sweep",
    "__version__",
]
