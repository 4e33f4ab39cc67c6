"""Domain types and closed-form constants of the warped-product soliton problem.

A problem is a list of Einstein factors (dimension, Einstein constant),
a negative gauge constant, seed coefficients for the unstable directions,
and integration controls.  The first factor is the round sphere that
collapses smoothly at t = 0, which forces lambda_1 = d_1 - 1 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import (
    BadNormalization,
    BadSeedSign,
    DimensionTooSmall,
    NonNegativeGauge,
    ValidationError,
)


class Mode(Enum):
    SOLITON = "soliton"
    RICCI_FLAT = "ricci_flat"


@dataclass(frozen=True)
class FactorSpec:
    """One Einstein factor: real dimension and Einstein constant."""

    dim: int
    einstein_const: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"factor dimension must be >= 1, got {self.dim}")
        if not (math.isfinite(self.einstein_const) and self.einstein_const > 0):
            raise ValidationError(
                f"Einstein constant must be finite and positive, got {self.einstein_const}"
            )


# The smallest rtol the Radau stepper is given: below it the error test
# asks for less than about a hundred ulps of each component.
RTOL_FLOOR = 100 * np.finfo(float).eps


@dataclass(frozen=True)
class StepControls:
    """Adaptive-integration controls."""

    rtol: float = 1e-10
    atol: float = 1e-10
    max_steps: int = 100_000

    def __post_init__(self):
        if not (math.isfinite(self.rtol) and self.rtol >= RTOL_FLOOR):
            raise ValidationError(
                f"rtol must be a finite number >= 100 * machine epsilon "
                f"({RTOL_FLOOR:.3g}), got {self.rtol!r}"
            )
        if not (math.isfinite(self.atol) and self.atol > 0):
            raise ValidationError(f"atol must be a finite number > 0, got {self.atol!r}")


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem: factors, gauge, seeding, and integration controls.

    seed_coeffs has length r: entry 0 multiplies the fast unstable
    eigenvector in the (X1, Y1) plane, entries 1..r-1 multiply the unit
    Y_i directions (i = 2..r).
    """

    factors: tuple[FactorSpec, ...]
    gauge_C: float = -1.0
    seed_coeffs: tuple[float, ...] = ()
    s_max: float = 1e18
    origin_tol: float = 1e-8
    step_controls: StepControls = field(default_factory=StepControls)
    mode: Mode = Mode.SOLITON

    def __post_init__(self):
        if not self.seed_coeffs:
            object.__setattr__(
                self, "seed_coeffs", _default_seed_coeffs(len(self.factors), self.mode)
            )

    @property
    def r(self) -> int:
        return len(self.factors)

    @property
    def dims(self) -> np.ndarray:
        return np.array([f.dim for f in self.factors], dtype=float)

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([f.einstein_const for f in self.factors], dtype=float)

    def with_seed_coeffs(self, coeffs) -> "ProblemSpec":
        return replace(self, seed_coeffs=tuple(float(c) for c in coeffs))


def _default_seed_coeffs(r: int, mode: Mode) -> tuple[float, ...]:
    eps0 = 0.0 if mode is Mode.RICCI_FLAT else -1e-4
    return (eps0,) + (1e-4,) * (r - 1)


@dataclass(frozen=True)
class Constants:
    """Closed-form constants attached to a problem."""

    beta: float
    beta_hat: float


def validate_spec(spec: ProblemSpec) -> ProblemSpec:
    """Check the standing hypotheses; return the spec unchanged if they hold.

    Raises:
        DimensionTooSmall: first factor has dimension < 2.
        BadNormalization: first factor's Einstein constant is not d_1 - 1.
        NonNegativeGauge: the gauge constant is >= 0.
        BadSeedSign: seed coefficients have the wrong sign for the mode.
        ValidationError: other structural problems, such as Ricci-flat
            mode with a single factor, or an origin_tol that is not a
            finite number > 0.
    """
    if spec.r < 1:
        raise ValidationError("at least one factor is required")
    d1 = spec.factors[0].dim
    if d1 < 2:
        raise DimensionTooSmall(f"first factor must have dim >= 2, got {d1}")
    lam1 = spec.factors[0].einstein_const
    if lam1 != d1 - 1:
        raise BadNormalization(
            f"first factor requires einstein_const = dim - 1 = {d1 - 1}, got {lam1}"
        )
    if not spec.gauge_C < 0:
        raise NonNegativeGauge(f"gauge constant must be negative, got {spec.gauge_C}")
    if len(spec.seed_coeffs) != spec.r:
        raise ValidationError(
            f"expected {spec.r} seed coefficients, got {len(spec.seed_coeffs)}"
        )
    eps0 = spec.seed_coeffs[0]
    rest = spec.seed_coeffs[1:]
    if spec.mode is Mode.SOLITON:
        if not eps0 < 0:
            raise BadSeedSign(f"soliton mode requires eps0 < 0, got {eps0}")
        if any(not e > 0 for e in rest):
            raise BadSeedSign(f"soliton mode requires eps_i > 0 for i >= 2, got {rest}")
    else:
        if spec.r == 1:
            raise ValidationError(
                "mode ricci_flat needs at least two factors, got one: with r = 1 "
                "the Ricci-flat set {L = 0, H = 1} is just the two rest points, "
                "so there is no trajectory to integrate"
            )
        if any(e < 0 for e in rest):
            raise BadSeedSign(f"ricci-flat mode requires eps_i >= 0, got {rest}")
    if not spec.s_max > 0:
        raise ValidationError(f"s_max must be > 0, got {spec.s_max!r}")
    if not (math.isfinite(spec.origin_tol) and spec.origin_tol > 0):
        raise ValidationError(
            f"origin_tol must be a finite number > 0, got {spec.origin_tol!r}")
    return spec


def constants(spec: ProblemSpec) -> Constants:
    """beta = 1/sqrt(d_1) and beta_hat = +sqrt(1 - beta^2)."""
    beta = 1.0 / math.sqrt(spec.factors[0].dim)
    return Constants(beta=beta, beta_hat=math.sqrt(1.0 - beta * beta))


def critical_point(spec: ProblemSpec) -> np.ndarray:
    """The hyperbolic rest point, packed as [X, Y]: X_1 = beta,
    Y_1 = beta_hat, others zero."""
    c = constants(spec)
    y = np.zeros(2 * spec.r)
    y[0] = c.beta
    y[spec.r] = c.beta_hat
    return y
