"""Numerical construction of complete steady gradient Ricci solitons on
multiply warped products, with a verification suite for every limit,
inequality, and asymptotic regime the construction is supposed to satisfy.

Pipeline: a first-order phase-space flow is launched from the unstable
manifold of a hyperbolic critical point and, for a soliton, ends on the
slow manifold at the origin (``flow``, ``manifold``), the metric and soliton
potential are reconstructed from the trajectory (``reconstruct``), curvature
is evaluated in closed form (``geometry``), an independent second-order
integration cross-validates the result (``oracle``), and ``verify`` turns
each analytic claim into a named, tolerance-checked test.
"""

from .errors import SolitonForgeError, ValidationError
from .flow import Trajectory, integrate, run, seed
from .geometry import (
    AsymptoticsReport,
    CurvatureReport,
    asymptotics,
    ricci_components,
    sectional_curvatures,
)
from .model import (
    Constants,
    FactorSpec,
    Mode,
    ProblemSpec,
    StepControls,
    constants,
    critical_point,
    validate_spec,
)
from .oracle import (
    OracleRun,
    SecondOrderState,
    compare_profiles,
    init_from_profile,
    integrate_second_order,
)
from .reconstruct import MetricProfile, build_profile
from .verify import VerifyReport, richardson_extrapolate, run_suite

__version__ = "0.1.0"

# ``cli`` is imported on first use rather than here, so that
# ``python -m solitonforge.cli`` does not find it already in sys.modules
# (which makes runpy warn) when it imports the package first.
_CLI_NAMES = ("RunConfig", "parse_config")


def __getattr__(name: str):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AsymptoticsReport",
    "Constants",
    "CurvatureReport",
    "FactorSpec",
    "MetricProfile",
    "Mode",
    "OracleRun",
    "ProblemSpec",
    "RunConfig",
    "SecondOrderState",
    "SolitonForgeError",
    "StepControls",
    "Trajectory",
    "ValidationError",
    "VerifyReport",
    "asymptotics",
    "build_profile",
    "compare_profiles",
    "constants",
    "critical_point",
    "init_from_profile",
    "integrate",
    "integrate_second_order",
    "parse_config",
    "ricci_components",
    "richardson_extrapolate",
    "run",
    "run_suite",
    "sectional_curvatures",
    "seed",
    "validate_spec",
    "__version__",
]
