"""Exception hierarchy shared across the package."""


class SolitonForgeError(Exception):
    """Base class for all errors raised by this package."""


# --- model / validation ---

class ValidationError(SolitonForgeError):
    """A problem specification violates a structural invariant."""


class DimensionTooSmall(ValidationError):
    """The collapsing factor must have dimension at least 2."""


class BadNormalization(ValidationError):
    """The collapsing factor must satisfy lambda_1 = d_1 - 1."""


class NonNegativeGauge(ValidationError):
    """The gauge constant must be strictly negative."""


class BadSeedSign(ValidationError):
    """Seed coefficients have the wrong sign for the requested mode."""


# --- flow ---

class SeedLeavesWrongRegion(SolitonForgeError):
    """The seeded point does not enter the required invariant region."""


class NonPositiveY(SolitonForgeError):
    """A Y component is non-positive where positivity is required."""


class StepLimitExceeded(SolitonForgeError):
    """The integrator exceeded its step budget."""


class InvariantViolated(SolitonForgeError):
    """A monitored invariant failed during integration.

    Attributes carry the failing invariant name and the value of the
    independent variable at which it failed.
    """

    def __init__(self, invariant: str, s: float, detail: str = ""):
        self.invariant = invariant
        self.s = s
        msg = f"invariant '{invariant}' violated at s={s:.6g}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class OutOfRange(SolitonForgeError):
    """A requested abscissa lies outside the computed range."""


# --- reconstruction ---

class NonNegativeL(SolitonForgeError):
    """The Lyapunov value must be negative for this operation."""


class QuadratureFailure(SolitonForgeError):
    """Cumulative quadrature produced a non-finite or non-monotone result."""


class ZeroY(SolitonForgeError):
    """A Y component vanished where a division by Y is required."""


class ZeroG(SolitonForgeError):
    """A warping function vanished where a division by g is required."""


class InsufficientTail(SolitonForgeError):
    """The trajectory was not integrated far enough for asymptotic fits."""


# --- oracle ---

class BlowUp(SolitonForgeError):
    """The second-order integration left the admissible region."""


class NoOverlap(SolitonForgeError):
    """Two profiles have no common range of t."""


# --- verify ---

class TooFewSamples(SolitonForgeError):
    """Not enough samples for the requested extrapolation order."""


class IncompleteInputs(SolitonForgeError):
    """The verification suite was given incomplete pipeline outputs."""


# --- cli ---

class ParseError(SolitonForgeError):
    """A configuration document could not be parsed."""


class IoError(SolitonForgeError):
    """An export could not be written."""
