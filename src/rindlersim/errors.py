"""Exception hierarchy shared by all rindlersim modules."""


class RindlerSimError(Exception):
    """Base class for every error raised by this package.  The command
    line maps every one of them to exit code 2, except InstabilityError,
    which exits 3."""


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
    """The observables of a snapshot are not finite, or the norm of the
    inertial field psi that the scheme bounds (the SBP norm for central4)
    grew past its initial value at a snapshot.  Maps to exit code 3."""

    def __init__(self, step_index: int, message: str = ""):
        self.step_index = step_index
        super().__init__(message or f"non-finite field values at step {step_index}")


class GridMismatchError(RindlerSimError, ValueError):
    """Two grid-bound objects with incompatible grids were combined."""


class OracleCoverageError(RindlerSimError, ValueError):
    """The characteristics reference is not defined where it was asked
    for: a point, or an RK4 trace of `backtrace_origins`, lies outside
    the valid region, a trace meets a speed that is not finite, or the
    travel-time table does not resolve the speed there (lower the
    substep).  A characteristic that entered through an edge of the
    window is no error: the reference reads the zero inflow data."""
