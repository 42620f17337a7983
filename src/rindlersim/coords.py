"""Coordinate maps between an inertial observer and a uniformly
accelerated one, in 1+1 dimensions with natural units (c = hbar = 1).

The accelerated observer with proper acceleration a sits at constant
position chi = 1/a in its adapted coordinates (tau, chi) and covers the
right wedge x > |t| of the inertial plane:

    t = chi * sinh(tau / chi),    x = chi * cosh(tau / chi)

The inverse map is chi = sqrt(x^2 - t^2), tau = chi * arctanh(t / x).
All operations here are pure functions; the left/future/past wedges are
out of scope and horizon contact is an error, never a NaN.

The right wedge in u = a*x ends at U_MAX, and the generator of
`hamiltonian` is singular at the root U_STAR of its denominator, which
depends on u alone.  U_STAR is tabulated here, so `find_singularity`
reports the singular point, and `SingularPoint.branch` the side of the
band U_STAR +- SINGULAR_MARGIN that a window lies on, without numpy.
"""

from dataclasses import dataclass
import math

from .errors import CoordinateDomainError, HorizonError, number

__all__ = [
    "Acceleration",
    "MinkowskiEvent",
    "RindlerEvent",
    "Boost",
    "in_right_wedge",
    "rindler_to_minkowski",
    "minkowski_to_rindler",
    "boost_of",
    "u_of_delta",
    "SingularPoint",
    "U_STAR",
    "U_MAX",
    "SINGULAR_MARGIN",
    "find_singularity",
]

# The root of the generator denominator D(u) = u + s - u*arccosh(u),
# s = sqrt(u^2 - 1): the float bisect(denominator, 1.001, 20) of
# `hamiltonian` returns, which the tests re-derive bit for bit.
U_STAR = 3.6241998947013805
# half-width of the excluded band around the denominator root, in u
SINGULAR_MARGIN = 0.05
# Largest u in the domain: u*r and (u + s)(1 - r/2) overflow from about
# 2.5e305, which would make D and f infinite or NaN.
U_MAX = 1e305


@dataclass(frozen=True)
class Acceleration:
    """Proper acceleration a > 0 (units of inverse length), held as a
    float.  a is at least 2.016e-308, so that the singular point
    x_star = U_STAR / a is a finite double."""

    a: float

    def __post_init__(self):
        a = number(self.a, "a")
        object.__setattr__(self, "a", a)
        if not (a > 0.0 and U_STAR / a < math.inf):
            raise CoordinateDomainError(
                f"acceleration must be positive, with U_STAR / a finite "
                f"(a >= 2.016028110926149e-308), got {a}"
            )


@dataclass(frozen=True)
class MinkowskiEvent:
    """Inertial-frame event (t, x)."""

    t: float
    x: float


@dataclass(frozen=True)
class RindlerEvent:
    """Accelerated-frame event (tau, chi), chi > 0."""

    tau: float
    chi: float

    def __post_init__(self):
        if not (self.chi > 0.0 and math.isfinite(self.chi)):
            raise CoordinateDomainError(f"chi must be positive, got {self.chi}")


@dataclass(frozen=True)
class Boost:
    """Instantaneous boost of the accelerated observer relative to the
    inertial frame that coincides with it at t = tau = 0.

    rapidity = a * tau, velocity = tanh(rapidity), and the dimensionless
    position u = a * x = cosh(rapidity) along the trajectory.
    """

    rapidity: float
    velocity: float
    u: float


def in_right_wedge(t: float, x: float) -> bool:
    """True when the event (t, x) lies strictly inside the right wedge."""
    return x > abs(t)


def rindler_to_minkowski(e: RindlerEvent) -> MinkowskiEvent:
    """Map (tau, chi) to (t, x); the image always lies in the right wedge."""
    ratio = e.tau / e.chi
    return MinkowskiEvent(t=e.chi * math.sinh(ratio), x=e.chi * math.cosh(ratio))


def minkowski_to_rindler(e: MinkowskiEvent) -> RindlerEvent:
    """Map a right-wedge event (t, x) to (tau, chi).

    Raises HorizonError for x <= |t|: the event is on or beyond the
    horizon and carries no accelerated-frame coordinates.
    """
    if not in_right_wedge(e.t, e.x):
        raise HorizonError(
            f"event (t={e.t}, x={e.x}) is on or beyond the horizon x = |t|"
        )
    # factored form avoids cancellation when x is close to |t|
    chi = math.sqrt((e.x - e.t) * (e.x + e.t))
    tau = chi * math.atanh(e.t / e.x)
    return RindlerEvent(tau=tau, chi=chi)


def boost_of(a: Acceleration, tau: float) -> Boost:
    """Boost parameters after proper time tau at acceleration a."""
    phi = a.a * tau
    return Boost(rapidity=phi, velocity=math.tanh(phi), u=math.cosh(phi))


def u_of_delta(delta: float) -> float:
    """Dimensionless position u = cosh(arctanh(1 - delta)) for a
    near-light-speed observer with velocity v = 1 - delta.

    Computed as 1/sqrt(delta*(2 - delta)), which is exact for
    v in (-1, 1) and avoids cancellation for small delta.
    """
    if not (0.0 < delta < 1.0):
        raise CoordinateDomainError(f"delta must lie in (0, 1), got {delta}")
    return 1.0 / math.sqrt(delta * (2.0 - delta))


@dataclass(frozen=True)
class SingularPoint:
    """Location where the generator denominator vanishes."""

    u_star: float
    x_star: float
    v_star: float

    def branch(self, a: Acceleration, x: float) -> tuple[float, float]:
        """The closed x-interval of x's side of the singular band, where
        windows and characteristic traces may lie at acceleration a.  The
        1e-12 keeps a*x inside [1, U_MAX] at either end of the wedge, as
        a*(1/a) can round below 1 (a = 49) and a*(U_MAX/a) above U_MAX
        (a = 1.1)."""
        a = a.a
        if a * x > self.u_star:
            return (self.u_star + SINGULAR_MARGIN) / a, U_MAX * (1.0 - 1e-12) / a
        return (1.0 + 1e-12) / a, (self.u_star - SINGULAR_MARGIN) / a


def find_singularity(a: Acceleration) -> SingularPoint:
    """The singular point at acceleration a: the denominator root U_STAR,
    its physical position x_star = U_STAR / a and the boost velocity
    there, v_star = sqrt(1 - 1/U_STAR^2)."""
    v_star = math.sqrt(1.0 - 1.0 / (U_STAR * U_STAR))
    return SingularPoint(u_star=U_STAR, x_star=U_STAR / a.a, v_star=v_star)
