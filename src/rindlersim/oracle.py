"""Independent reference solutions for verifying the transport solver.

The inertial combination obeys pure unit-speed advection, so its exact
solution is the analytic packet evaluated at x - t.  The
accelerated-frame combination obeys value transport at the variable
speed c_minus(x); its reference solution follows from the method of
characteristics: find the origin X0 of the characteristic through each
grid point and read the analytic initial packet there.  Evaluating the
analytic formula at the origin (as opposed to interpolating grid data)
keeps interpolation error out of solver/oracle comparisons.  The speed
comes from the coefficient modes the solver samples too: the oracle
checks the transport, not the coefficients.

The reference solves the solver's own problem on its window: zero data
enter through an inflow edge, so where a characteristic entered through
an edge within t the reference is 0.  It holds at any t, with no window
larger than the run's.

There are two independent routes to the origins:

- `travel_time_origins`, the one `characteristics_rindler` takes:
  c_minus does not depend on time, so tau(X0) = tau(x) - t with the
  travel time tau = integral of dx / c_minus, from one quadrature table
  (see `_travel_time`) and a few Newton steps;
- `backtrace_origins`, a plain RK4 trace of dX/ds = -c_minus(X), which
  no end-to-end path takes: the tests hold the first route against it.

`substep` is the resolution of either route: the RK4 step, or the
travel time a table cell spans (16 substeps at the table's top speed).
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _travel_time
from .embedding import Grid, ScalarField, _require_same_grid, field_norm
from .errors import OracleCoverageError
from .evolution import GridWindow, WavepacketSpec
from .hamiltonian import coefficient_arrays
# Not called here any more, but the traced benchmark (perfbench/tracing.py)
# wraps this name on this module, so it must stay importable from it.
from .coords import find_singularity  # noqa: F401

__all__ = [
    "ErrorReport",
    "exact_inertial",
    "transport_speed",
    "backtrace_origins",
    "travel_time_origins",
    "characteristics_rindler",
    "compare",
]


def exact_inertial(packet: WavepacketSpec, grid: Grid, t: float) -> ScalarField:
    """Exact unit-speed advection: psi(x, t) = psi0(x - t)."""
    return ScalarField(grid=grid, values=packet.evaluate(grid.points() - t))


def transport_speed(
    window: GridWindow, mode: str = "exact", delta: float | None = None
) -> Callable[[np.ndarray], np.ndarray]:
    """Speed profile c_minus(x) = f - g of the accelerated-frame component
    for the given coefficient mode, evaluable at arbitrary positions.  The
    mode's own rules apply when it is evaluated, as in build_generator: a
    bad mode or delta, or galileo positions past v = GALILEO_V_MAX, raise
    ConfigError, and galileo positions past GALILEO_V_WARN warn."""
    a = window.a.a

    def speed(x):
        f, g, _ = coefficient_arrays(a * np.asarray(x, dtype=float), mode, delta)
        f -= g
        return f

    return speed


def _covered(values, valid_lo, valid_hi):
    """values, once they are checked to lie in [valid_lo, valid_hi]."""
    # one min and one max; the negated form also rejects NaN
    if values.size and not (valid_lo <= values.min() and values.max() <= valid_hi):
        raise OracleCoverageError(
            "a point or an RK4 trace lies outside the valid region "
            f"[{valid_lo:.6g}, {valid_hi:.6g}]"
        )
    return values


def backtrace_origins(
    x: np.ndarray,
    t: float,
    speed: Callable[[np.ndarray], np.ndarray],
    substep: float,
    valid_lo: float = -math.inf,
    valid_hi: float = math.inf,
) -> np.ndarray:
    """Integrate dX/ds = -speed(X) from X(0) = x over duration t (RK4).

    Raises OracleCoverageError as soon as any trace leaves the interval
    [valid_lo, valid_hi] or turns NaN.
    """
    X = _covered(np.array(x, dtype=float), valid_lo, valid_hi)
    if t == 0.0:
        return X
    n_sub = max(1, int(math.ceil(abs(t) / substep - 1e-12)))
    h = t / n_sub
    for _ in range(n_sub):
        k1 = -speed(X)
        k2 = -speed(_covered(X + 0.5 * h * k1, valid_lo, valid_hi))
        k3 = -speed(_covered(X + 0.5 * h * k2, valid_lo, valid_hi))
        k4 = -speed(_covered(X + h * k3, valid_lo, valid_hi))
        X = _covered(X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), valid_lo, valid_hi)
    return X


def travel_time_origins(
    x: np.ndarray,
    t: float,
    speed: Callable[[np.ndarray], np.ndarray],
    substep: float,
    valid_lo: float = -math.inf,
    valid_hi: float = math.inf,
) -> np.ndarray:
    """Origins X0 of the characteristics dX/ds = speed(X) that reach x at
    s = t, from the travel time tau(X) = integral of dX / speed.

    The speed does not depend on time, so tau(X0) = tau(x) - t.  One
    table of tau spans what the traces can reach in time t inside
    [valid_lo, valid_hi].  It is split at every zero of the speed, which
    no trace crosses; next to a zero z it is tabulated in w = ln|X - z|,
    where dtau/dw = (X - z) / speed is smooth, and continued linearly in
    w below its floor (the linearised flow at z).  Each cell integrates
    the interpolant of the integrand at 8 Gauss-Legendre nodes.  A plain
    cell spans 16 substeps of travel at the table's top speed (fewer
    where the speed is slower), so halving substep halves every cell.  An
    origin comes from a guess interpolated in the table and Newton steps
    on its cell's integral, until the update moves X by a few ulp.

    The origin is NaN where the trace crossed an edge of [valid_lo,
    valid_hi] within t: for t > 0, where the characteristic entered
    through an inflow edge.  Raises OracleCoverageError for a point
    outside [valid_lo, valid_hi], for a speed that is NaN or infinite on
    the table, and for a Newton inversion that does not converge within
    its cap.  Points where the speed is exactly zero stay where they are;
    at t = 0 the origins are x, bit for bit.  speed may return a scalar,
    its input or a buffer of its own.
    """
    X = _covered(np.array(x, dtype=float), valid_lo, valid_hi)
    if t == 0.0 or X.size == 0:
        return X
    flat = X.reshape(-1)
    c = _travel_time.speed_at(speed, flat)
    moving = np.flatnonzero(c)
    if moving.size:
        flat[moving] = _travel_time.origins(
            speed, flat[moving], c[moving], t, substep, valid_lo, valid_hi
        )
    return X


def characteristics_rindler(
    packet: WavepacketSpec,
    t: float,
    window: GridWindow,
    mode: str = "exact",
    delta: float | None = None,
    substep: float | None = None,
    grid: Grid | None = None,
) -> ScalarField:
    """Reference accelerated-frame field psi'(x, t) of the solver's own
    problem on the window: transport at c_minus with zero data entering
    through an inflow edge.  It is the packet at the origins from
    `travel_time_origins` inside the window, and 0 where the
    characteristic entered through an edge within t.

    The output grid defaults to the window grid but may be any grid
    inside it.  substep sets the resolution of the travel-time table;
    the default, a quarter of the CFL-limited solver step at cfl = 1,
    dx / (4 max|c|), gives origins within about 1e-13 of a converged RK4
    trace on the demos/04 geometry, and halving it is a convergence
    check of the same route.
    """
    grid = window.grid() if grid is None else grid
    speed = transport_speed(window, mode=mode, delta=delta)
    if substep is None:
        # quarter of the CFL-limited solver step at cfl = 1
        cmax = float(np.max(np.abs(speed(grid.points()))))
        substep = 0.25 * grid.dx / cmax
    origins = travel_time_origins(
        grid.points(), t, speed, substep, valid_lo=window.x_min, valid_hi=window.x_max
    )
    values = packet.evaluate(origins)
    values[np.isnan(origins)] = 0.0  # entered through an inflow edge
    return ScalarField(grid=grid, values=values)


@dataclass(frozen=True)
class ErrorReport:
    """Discrete error norms between a candidate field and a reference."""

    l2_abs: float
    l2_rel: float
    linf_abs: float
    linf_rel: float
    x_of_max: float


def compare(candidate: ScalarField, reference: ScalarField) -> ErrorReport:
    """L2 and Linf errors of candidate against reference (same grid)."""
    _require_same_grid(candidate.grid, reference.grid)
    dx = reference.grid.dx
    diff = np.abs(candidate.values - reference.values)
    l2_abs = field_norm(diff, dx)
    ref_l2 = field_norm(reference.values, dx)
    linf_abs = float(np.max(diff))
    ref_linf = float(np.max(np.abs(reference.values)))
    imax = int(np.argmax(diff))
    return ErrorReport(
        l2_abs=l2_abs,
        l2_rel=l2_abs / ref_l2 if ref_l2 > 0 else math.inf if l2_abs > 0 else 0.0,
        linf_abs=linf_abs,
        linf_rel=linf_abs / ref_linf if ref_linf > 0 else math.inf if linf_abs > 0 else 0.0,
        x_of_max=float(reference.grid.points()[imax]),
    )
