"""Independent reference solutions for verifying the transport solver.

The inertial combination obeys pure unit-speed advection, so its exact
solution is the analytic packet evaluated at x - t.  The
accelerated-frame combination obeys value transport at the variable
speed c_minus(x); its reference solution follows from the method of
characteristics: trace each grid point backward along
dX/ds = -c_minus(X) with RK4 and read the analytic initial packet at
the origin.  Evaluating the analytic formula at the traced origin (as
opposed to interpolating grid data) keeps interpolation error out of
solver/oracle comparisons.  The speed comes from the coefficient modes
the solver samples too: the oracle checks the transport, not the
coefficients.

The trace is allocation-lean: three buffers per call (stage input,
accumulator, weighted term), with every RK4 stage and the weighted sum
done in place.  Its origins are bit-identical to plain RK4 on
dX/ds = -c_minus(X).
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .embedding import Grid, ScalarField
from .errors import GridMismatchError, OracleCoverageError
from .evolution import DEFAULT_SINGULAR_MARGIN, GridWindow, WavepacketSpec
from .hamiltonian import coefficient_arrays, find_singularity

__all__ = [
    "ErrorReport",
    "exact_inertial",
    "transport_speed",
    "backtrace_origins",
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
    for the given coefficient mode, evaluable at arbitrary positions; a bad
    mode or delta raises ConfigError when it is evaluated."""
    a = window.a.a

    def speed(x):
        f, g, _ = coefficient_arrays(a * np.asarray(x, dtype=float), mode, delta)
        f -= g
        return f

    return speed


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
    [valid_lo, valid_hi] or turns NaN.  Each stage is X - (h/2) c rather
    than X + (h/2) (-c), and the update X - (h/6) (c1 + 2 c2 + 2 c3 + c4)
    sums in the same order; negation is exact, so the origins are those
    of plain RK4 on k = -c bit for bit.  Every speed value is consumed
    before the next call, so speed may return its input or reuse a
    buffer of its own.
    """
    X = np.array(x, dtype=float)

    def guard(values):
        # one min and one max; the negated form also rejects NaN
        if values.size and not (valid_lo <= values.min() and values.max() <= valid_hi):
            raise OracleCoverageError(
                "characteristic trace left the valid region "
                f"[{valid_lo:.6g}, {valid_hi:.6g}]; shrink t or enlarge the window"
            )
        return values

    guard(X)
    if t == 0.0:
        return X
    n_sub = max(1, int(math.ceil(t / substep - 1e-12)))
    h = t / n_sub
    half_h, sixth_h = 0.5 * h, h / 6.0
    stage, acc, term = np.empty_like(X), np.empty_like(X), np.empty_like(X)
    for _ in range(n_sub):
        c = speed(X)
        np.copyto(acc, c)
        np.subtract(X, np.multiply(half_h, c, out=stage), out=stage)
        c = speed(guard(stage))
        acc += np.multiply(2.0, c, out=term)
        np.subtract(X, np.multiply(half_h, c, out=stage), out=stage)
        c = speed(guard(stage))
        acc += np.multiply(2.0, c, out=term)
        np.subtract(X, np.multiply(h, c, out=stage), out=stage)
        acc += speed(guard(stage))
        acc *= sixth_h
        X -= acc
        guard(X)
    return X


def characteristics_rindler(
    packet: WavepacketSpec,
    t: float,
    window: GridWindow,
    mode: str = "exact",
    delta: float | None = None,
    substep: float | None = None,
    grid: Grid | None = None,
    strict_window: bool = True,
    margin: float = DEFAULT_SINGULAR_MARGIN,
) -> ScalarField:
    """Reference accelerated-frame field psi'(x, t).

    The window bounds the region characteristics may traverse; the
    output grid defaults to the window grid but may be any grid inside
    it.  With strict_window=True a trace leaving the window raises
    OracleCoverageError (shrink t, or enlarge the window relative to
    the output grid so upstream origins stay covered).  With
    strict_window=False traces may roam wherever the coefficients are
    valid: the same side of the singular band as the window, at
    positions with a*x > 1.
    """
    grid = window.grid() if grid is None else grid
    speed = transport_speed(window, mode=mode, delta=delta)
    if substep is None:
        # quarter of the CFL-limited solver step at cfl = 1
        cmax = float(np.max(np.abs(speed(grid.points()))))
        substep = 0.25 * grid.dx / cmax
    if strict_window:
        lo, hi = window.x_min, window.x_max
    else:
        a = window.a.a
        u_star = find_singularity(window.a).u_star
        if window.a.a * window.x_min > u_star:
            lo, hi = (u_star + margin) / a, math.inf
        else:
            lo, hi = (1.0 + 1e-12) / a, (u_star - margin) / a
    origins = backtrace_origins(
        grid.points(), t, speed, substep, valid_lo=lo, valid_hi=hi
    )
    return ScalarField(grid=grid, values=packet.evaluate(origins))


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
    if candidate.grid != reference.grid:
        raise GridMismatchError(
            f"grids differ: {candidate.grid} vs {reference.grid}"
        )
    dx = reference.grid.dx
    diff = np.abs(candidate.values - reference.values)
    l2_abs = float(np.sqrt(np.sum(diff**2) * dx))
    ref_l2 = float(np.sqrt(np.sum(np.abs(reference.values) ** 2) * dx))
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
