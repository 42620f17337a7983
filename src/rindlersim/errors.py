"""Exception hierarchy shared by all rindlersim modules."""


class RindlerSimError(Exception):
    """Base class for every error raised by this package."""


class CoordinateDomainError(RindlerSimError, ValueError):
    """Input lies outside the mathematical domain of a coordinate map."""


class HorizonError(CoordinateDomainError):
    """Event lies on or beyond the horizon x = |t| and is causally
    disconnected from the accelerated observer's wedge."""


class SingularityError(RindlerSimError, ArithmeticError):
    """The generator denominator vanishes (or is inside the configured
    safety margin), so the even/odd dynamics cannot be recast in
    Dirac-like form at this point."""


class ConfigError(RindlerSimError, ValueError):
    """A simulation configuration violates an invariant (bad window,
    unknown field, out-of-range parameter).  Maps to exit code 2."""


class InstabilityError(RindlerSimError, ArithmeticError):
    """Non-finite values appeared during time stepping, or in the
    observables of a snapshot.  Maps to exit code 3."""

    def __init__(self, step_index: int, message: str = ""):
        self.step_index = step_index
        super().__init__(message or f"non-finite field values at step {step_index}")


class GridMismatchError(RindlerSimError, ValueError):
    """Two grid-bound objects with incompatible grids were combined."""


class OracleCoverageError(RindlerSimError, ValueError):
    """A characteristic trace left the region where the reference
    solution is defined; shrink t or enlarge the window."""
