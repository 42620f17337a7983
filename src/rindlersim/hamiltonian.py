"""Coefficients of the enlarged-space generator -i[f(x) I + g(x) sigma_x] d/dx.

Everything is expressed through the dimensionless position u = a*x >= 1
and the two auxiliary quantities

    s = sqrt(u^2 - 1),        r = arctanh(s / u) = arccosh(u),

in terms of which the closed forms read

    D = u + s - u*r                      (shared denominator)
    f = (u + s) * (1 - r/2) / D
    g = r * (s - u) / (2 * D) = -r / (2 * D * (u + s))

so that f + g = 1 identically: the inertial combination psi_e + psi_o
keeps obeying the original massless transport equation.  D has a single
root u_star ~ 3.624 where the even/odd system cannot be inverted into
Dirac-like form; windows and characteristic traces keep to one side of
the band u_star +- SINGULAR_MARGIN (`SingularPoint.branch`).  The root
does not depend on a: `coords` holds it as U_STAR, the float that
`bisect(denominator, *_SINGULAR_BRACKET)` returns, and its
`find_singularity` reads it from there.  SingularPoint, U_STAR, U_MAX,
SINGULAR_MARGIN and find_singularity live in `coords`, which loads no
numpy; this module imports only U_MAX from there, the end of its domain.

r is evaluated as log1p((u - 1) + s) and g in its last form, which avoid
the cancellations in arctanh(s/u) and s - u, so f and g keep full
accuracy from u = 1 + 1e-12 up.  The domain ends at U_MAX = 1e305,
below the overflow of u*r; products that overflow earlier (u^2 - 1 from
u ~ 1.3e154, D (u + s) from u ~ 3.6e152) are taken apart there.

`coefficients_via_inversion` rebuilds (f, g) from the even/odd
derivative-operator expansion and a literal 2x2 matrix inversion.  It
is kept deliberately independent of the closed forms above and acts as
a derivation oracle for them (g's denominator is easy to get wrong by
hand; the matrix route and the sum rule pin it down).

Small-velocity and near-light-speed approximations of (f, g) are
provided as `galileo_coefficients` and `ultra_coefficients`;
`check_galileo_velocity` is the one range rule of the first, which the
solver's galileo mode applies too.
`coefficient_arrays` is the one definition of the coefficient modes
that the solver, the oracle and the coefficient scan sample.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .coords import U_MAX, u_of_delta
from .errors import ConfigError, CoordinateDomainError, SingularityError, number

__all__ = [
    "CoefficientPoint",
    "SINGULAR_EPS",
    "COEFFICIENT_CAP",
    "GALILEO_V_MAX",
    "GALILEO_V_WARN",
    "ULTRA_SINGULAR_MARGIN",
    "hyperbolic_factors",
    "denominator",
    "coefficients",
    "coefficient_arrays",
    "coefficients_via_inversion",
    "check_galileo_velocity",
    "galileo_coefficients",
    "ultra_f_delta",
    "ultra_f_delta_coarse",
    "ultra_coefficients",
    "bisect",
]

# |D| at or below this is treated as singular.
SINGULAR_EPS = 1e-9
# the coefficient scan flags rows with |f| above this cap
COEFFICIENT_CAP = 10.0
# |v| above MAX is outside the small-velocity limit, above WARN marginal
GALILEO_V_MAX = 0.2
GALILEO_V_WARN = 0.1
# minimum allowed distance of log(delta/2) from the singular value -4
ULTRA_SINGULAR_MARGIN = 0.5

_MODES = ("exact", "galileo", "ultra")

# the bracket whose bisection gives coords.U_STAR
_SINGULAR_BRACKET = (1.001, 20.0)


@dataclass(frozen=True)
class CoefficientPoint:
    """Sampled generator coefficients at dimensionless position u."""

    u: float
    f: float
    g: float
    denominator: float


def hyperbolic_factors(u):
    """Return (s, r) = (sqrt(u^2-1), arccosh u) for scalar or array u in
    [1, U_MAX], with r = log1p((u - 1) + s).

    NaN, inf and u above U_MAX lie outside the domain.  s and r are fresh
    arrays shaped like u, or numpy scalars for 0-d u, each computed in
    place on its own buffer.  s is sqrt((u + 1)(u - 1)), and
    sqrt(u - 1) sqrt(u + 1) where that product overflows.
    """
    u = np.asarray(u, dtype=float)
    # the negated form also rejects NaN
    if u.size and not (u.min() >= 1.0 and u.max() <= U_MAX):
        raise CoordinateDomainError(
            f"u = a*x must be finite and lie in [1, {U_MAX:g}] (right-wedge positions only)"
        )
    if u.ndim == 0:
        s, r = hyperbolic_factors(u.reshape(1))
        return s[0], r[0]
    r = u - 1.0
    s = u + 1.0
    with np.errstate(over="ignore"):
        s *= r
    np.sqrt(s, out=s)
    big = np.isinf(s)
    if big.any():
        s[big] = np.sqrt(r[big]) * np.sqrt(u[big] + 1.0)
    r += s
    np.log1p(r, out=r)
    return s, r


def denominator(u):
    """Shared denominator D(u) = u + s - u*r; scalar in, scalar out."""
    s, r = hyperbolic_factors(u)
    result = np.asarray(u, dtype=float) + s - np.asarray(u, dtype=float) * r
    return float(result) if result.ndim == 0 else result


def coefficient_arrays(
    u, mode: str = "exact", delta: float | None = None, eps: float = SINGULAR_EPS
):
    """Vectorized (f, g, D) over an array of u values in one mode: 'exact'
    (the closed forms), 'galileo' (f = 1 + v/2, g = -v/2 at the local
    v = s/u) or 'ultra' (f = 1 + f_delta, g = -f_delta; needs delta).
    D is NaN outside 'exact'.  Bad mode/delta pairs raise ConfigError.

    'exact' raises SingularityError if any sample sits within eps of
    the root of D; flagged scans pass eps = -inf and test D themselves.
    """
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
    if mode == "ultra":
        if delta is None:
            raise ConfigError("mode 'ultra' requires a delta parameter")
        shape = np.shape(u)
        fd = ultra_f_delta(delta)
        return np.full(shape, 1.0 + fd), np.full(shape, -fd), np.full(shape, np.nan)
    if delta is not None:
        raise ConfigError(f"mode {mode!r} takes no delta parameter")
    u = np.asarray(u, dtype=float)
    if mode == "galileo":
        s, _ = hyperbolic_factors(u)
        v = s / u
        return 1.0 + v / 2.0, -v / 2.0, np.full(u.shape, np.nan)
    if u.ndim == 0:
        f, g, D = coefficient_arrays(u.reshape(1), eps=eps)
        return f[0], g[0], D[0]
    # The closed forms in their operation order, in place on fresh buffers:
    # D = (u + s) - u*r, f = ((u + s) * (1 - r/2)) / D, g = -r / ((2*D) * (u + s)).
    s, r = hyperbolic_factors(u)
    u_plus_s = u + s
    D = u * r
    np.subtract(u_plus_s, D, out=D)
    abs_D = np.abs(D)
    if abs_D.size and abs_D.min() <= eps:
        bad = float(u.reshape(-1)[int(np.argmin(abs_D))])
        raise SingularityError(f"generator denominator vanishes near u = {bad}")
    f = r / 2.0
    np.subtract(1.0, f, out=f)
    f *= u_plus_s
    f /= D
    g = np.multiply(2.0, D, out=abs_D)
    with np.errstate(over="ignore"):
        g *= u_plus_s
    big = np.isinf(g)
    np.divide(r, g, out=g)
    np.negative(g, out=g)
    if big.any():
        # 2 D (u + s) overflowed: divide by its factors in turn
        g[big] = -(r[big] / (2.0 * D[big])) / u_plus_s[big]
    return f, g, D


def coefficients(u: float) -> CoefficientPoint:
    """Closed-form generator coefficients at a single position u >= 1."""
    f, g, D = coefficient_arrays(float(u))
    return CoefficientPoint(u=float(u), f=float(f), g=float(g), denominator=float(D))


def coefficients_via_inversion(u: float) -> CoefficientPoint:
    """Generator coefficients derived by inverting the even/odd operator system.

    The even/odd split of the time and space derivatives expands as

        dt_{e,o} = 1/2 [dt +- (s dx + u dt)]
        dx_{e,o} = 1/2 [dx +- ((u - s*r) dx + (s - u*r) dt)]

    Collecting the dt and dx coefficient matrices A and B of the
    two-component system i A dt Psi = -i B dx Psi and forming
    M = A^{-1} B yields M = f I + g sigma_x.  A is singular exactly
    where the closed-form denominator vanishes (det A = D).
    """
    u = float(u)
    s, r = hyperbolic_factors(u)
    s, r = float(s), float(r)

    # dt coefficients: from the dt_{e,o} expansion and the dt part of dx_{e,o}
    a_even = 0.5 * (1.0 + u) + 0.5 * (s - u * r)
    a_odd = 0.5 * (1.0 - u) - 0.5 * (s - u * r)
    # dx coefficients: from the dx part of dt_{e,o} and the dx_{e,o} expansion
    b_even = 0.5 * s + 0.5 * (1.0 + u - s * r)
    b_odd = -0.5 * s + 0.5 * (1.0 - u + s * r)

    A = np.array([[a_even, a_odd], [a_odd, a_even]])
    B = np.array([[b_even, b_odd], [b_odd, b_even]])
    det = float(np.linalg.det(A))
    if abs(det) <= SINGULAR_EPS:
        raise SingularityError(
            f"even/odd time-derivative matrix is singular at u = {u} (det = {det})"
        )
    M = np.linalg.solve(A, B)
    f = 0.5 * float(M[0, 0] + M[1, 1])
    g = 0.5 * float(M[0, 1] + M[1, 0])
    return CoefficientPoint(u=u, f=f, g=g, denominator=det)


def bisect(fn, lo: float, hi: float) -> float:
    """Bisection root of fn on [lo, hi] to within 1e-12, in at most 200
    halvings; requires a sign change."""
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"no sign change of target function on [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0 or (hi - lo) < 1e-12:
            return mid
        if flo * fm < 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def check_galileo_velocity(v: float):
    """The range of the small-velocity limit: ConfigError for a speed v
    above GALILEO_V_MAX, a warning above GALILEO_V_WARN that points at the
    caller's caller."""
    if v > GALILEO_V_MAX:
        raise ConfigError(f"small-velocity limit needs |v| <= {GALILEO_V_MAX}, got v = {v:.4g}")
    if v > GALILEO_V_WARN:
        warnings.warn(
            f"small-velocity approximation is marginal at v = {v:.4g} > {GALILEO_V_WARN}",
            stacklevel=3,
        )


def galileo_coefficients(v: float) -> CoefficientPoint:
    """Small-velocity limit f = 1 + v/2, g = -v/2 at u = 1/sqrt(1 - v^2).

    Valid for 0 <= v << 1: u(v) = u(-v), and the exact coefficients at
    u belong to v = s/u >= 0, so a negative v is a CoordinateDomainError.
    Past that, check_galileo_velocity holds v to its range.  The
    denominator concept does not apply in this regime, so the returned
    point carries NaN there.
    """
    if not (v >= 0.0):
        raise CoordinateDomainError(f"small-velocity coefficients need v >= 0, got {v}")
    check_galileo_velocity(v)
    u = 1.0 / math.sqrt((1.0 - v) * (1.0 + v))
    return CoefficientPoint(u=u, f=1.0 + v / 2.0, g=-v / 2.0, denominator=math.nan)


def ultra_f_delta(delta: float) -> float:
    """Expansion coefficient f(delta) = -delta / (2 (1 + 4/log(delta/2))).

    delta = 1 - v is a number (errors.number) in (0, 1) and must stay
    away from the singular value where log(delta/2) = -4:
    |log(delta/2) + 4| must exceed ULTRA_SINGULAR_MARGIN.  This is the
    one check of delta, which the 'ultra' mode of coefficient_arrays,
    and through it build_generator and oracle.transport_speed, applies.
    """
    delta = number(delta, "delta")
    if not (0.0 < delta < 1.0):
        raise CoordinateDomainError(f"delta must lie in (0, 1), got {delta}")
    log_half = math.log(delta / 2.0)
    if abs(log_half + 4.0) <= ULTRA_SINGULAR_MARGIN:
        raise SingularityError(
            f"delta = {delta} is within the singular margin: |log(delta/2) + 4| = "
            f"{abs(log_half + 4.0):.3g} <= {ULTRA_SINGULAR_MARGIN}"
        )
    return -delta / (2.0 * (1.0 + 4.0 / log_half))


def ultra_f_delta_coarse(delta: float) -> float:
    """Leading-order coefficient without the log correction, -delta/2."""
    return -delta / 2.0


def ultra_coefficients(delta: float) -> CoefficientPoint:
    """Near-light-speed limit f = 1 + f_delta, g = -f_delta: the 'ultra'
    mode of coefficient_arrays at u = u_of_delta(delta).

    As delta -> 0 this reduces to the trivial generator (f, g) = (1, 0):
    at v = 1 the frame change is an ordinary time-independent boost and
    leaves the transport dynamics invariant.
    """
    u = u_of_delta(delta)
    f, g, D = coefficient_arrays(u, "ultra", delta)
    return CoefficientPoint(u=u, f=float(f), g=float(g), denominator=float(D))
