import math
import warnings

import numpy as np
import pytest

from rindlersim.coords import Acceleration
from rindlersim.embedding import Grid, ScalarField
from rindlersim.errors import ConfigError, GridMismatchError, OracleCoverageError
from rindlersim.evolution import GridWindow, WavepacketSpec, build_generator
from rindlersim.oracle import (
    backtrace_origins,
    characteristics_rindler,
    compare,
    exact_inertial,
    transport_speed,
)

A1 = Acceleration(1.0)
WINDOW = GridWindow(x_min=4.5, x_max=12.0, n=512, a=A1)
PACKET = WavepacketSpec(x0=6.0, sigma=0.5, k0=0.0)


def test_exact_inertial_at_t_zero():
    grid = WINDOW.grid()
    field = exact_inertial(PACKET, grid, 0.0)
    assert np.array_equal(field.values, PACKET.evaluate(grid.points()))


def test_exact_inertial_translates():
    grid = WINDOW.grid()
    field = exact_inertial(PACKET, grid, 1.0)
    x = grid.points()
    # a Gaussian at 6 moved to 7, same shape (peak sampled within dx/2)
    peak = x[np.argmax(np.abs(field.values))]
    assert peak == pytest.approx(7.0, abs=2 * grid.dx)
    assert np.max(np.abs(field.values)) == pytest.approx(1.0, abs=1e-4)


def test_exact_inertial_group_property():
    grid = WINDOW.grid()
    once = exact_inertial(PACKET, grid, 0.7)
    # shifting the packet center by t1 and evolving t2 equals evolving t1+t2
    shifted_spec = WavepacketSpec(
        x0=PACKET.x0 + 0.3, sigma=PACKET.sigma, k0=PACKET.k0, amplitude=PACKET.amplitude
    )
    composed = exact_inertial(shifted_spec, grid, 0.4)
    direct = exact_inertial(PACKET, grid, 0.7 + 0.4 - 0.4)
    assert np.allclose(once.values, direct.values, atol=1e-15)
    assert np.allclose(
        composed.values, exact_inertial(PACKET, grid, 0.7).values, atol=1e-15
    )


def test_characteristics_at_t_zero():
    field = characteristics_rindler(PACKET, 0.0, WINDOW)
    assert np.array_equal(field.values, PACKET.evaluate(WINDOW.grid().points()))


def test_constant_speed_matches_exact_advection():
    speed = lambda x: np.ones_like(np.asarray(x, dtype=float))
    grid = WINDOW.grid()
    origins = backtrace_origins(grid.points(), 1.0, speed, substep=0.01)
    assert np.allclose(origins, grid.points() - 1.0, atol=1e-12)


def test_ultra_mode_speed_is_constant_and_near_unity():
    speed = transport_speed(WINDOW, mode="ultra", delta=1e-8)
    values = speed(WINDOW.grid().points())
    assert np.ptp(values) == 0.0
    assert values[0] == pytest.approx(1.0, abs=1e-7)
    for mode in ("ultra", "warp"):  # ultra without delta, unknown mode
        with pytest.raises(ConfigError):
            transport_speed(WINDOW, mode=mode)(WINDOW.grid().points())


@pytest.mark.parametrize(
    "window, mode, delta",
    [
        (WINDOW, "exact", None),
        (GridWindow(x_min=1.001, x_max=1.02, n=512, a=A1), "galileo", None),
        (WINDOW, "ultra", 1e-8),
    ],
    ids=["exact", "galileo", "ultra"],
)
def test_transport_speed_is_the_solver_speed_bit_for_bit(window, mode, delta):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # this galileo window is marginal
        generator = build_generator(window, mode=mode, delta=delta)
    speed = transport_speed(window, mode=mode, delta=delta)
    assert np.array_equal(speed(window.grid().points()), generator.c_minus)


def test_characteristic_trace_lands_near_expected_origin():
    # forward displacement of the packet center over t=1 is ~0.9449,
    # so the backtraced origin of x=6.9449 is ~6
    field = characteristics_rindler(PACKET, 1.0, WINDOW, strict_window=False)
    x = WINDOW.grid().points()
    peak = x[np.argmax(np.abs(field.values))]
    assert peak == pytest.approx(6.9449, abs=3 * WINDOW.dx)


def test_backtrace_monotone_origins():
    speed = transport_speed(WINDOW, mode="exact")
    x = WINDOW.grid().points()
    origins = backtrace_origins(x, 1.0, speed, substep=1e-3, valid_lo=3.68)
    assert np.all(np.diff(origins) > 0.0)


def test_richardson_substep_consistency():
    coarse = characteristics_rindler(PACKET, 1.0, WINDOW, substep=8e-3, strict_window=False)
    fine = characteristics_rindler(PACKET, 1.0, WINDOW, substep=4e-3, strict_window=False)
    assert np.max(np.abs(coarse.values - fine.values)) <= 1e-8


def test_strict_window_coverage_error_and_enlargement():
    # the window-edge grid point backtraces out of the window at once
    with pytest.raises(OracleCoverageError):
        characteristics_rindler(PACKET, 1.0, WINDOW, strict_window=True)
    # enlarging the coverage window relative to the output grid fixes it
    big = GridWindow(x_min=3.7, x_max=12.0, n=512, a=A1)
    field = characteristics_rindler(
        PACKET, 1.0, big, grid=WINDOW.grid(), strict_window=True
    )
    assert np.all(np.isfinite(field.values))
    relaxed = characteristics_rindler(PACKET, 1.0, WINDOW, strict_window=False)
    assert np.allclose(field.values, relaxed.values, atol=1e-12)


def test_backtraces_stagnate_before_the_singular_band():
    # right of the band the transport speed has a zero, so backtraces
    # asymptote to it instead of crossing into the excluded region
    speed = transport_speed(WINDOW, mode="exact")
    origins = backtrace_origins(
        np.array([4.5]), 5.0, speed, substep=1e-2, valid_lo=3.675
    )
    assert 3.87 < origins[0] < 3.95


def test_left_branch_traces_hit_the_domain_edge():
    # left of the band psi' moves faster than light toward u = 1; long
    # horizons push origins below the valid region and must error out
    window = GridWindow(x_min=1.5, x_max=3.0, n=128, a=A1)
    packet = WavepacketSpec(x0=2.2, sigma=0.1)
    with pytest.raises(OracleCoverageError):
        characteristics_rindler(packet, 1.0, window, strict_window=False)


def reference_backtrace(x, t, speed, substep, valid_lo=-math.inf, valid_hi=math.inf):
    """Plain allocating RK4 on k = -speed(X), as the oracle first traced."""
    X = np.array(x, dtype=float)

    def guard(values):
        if np.any(values < valid_lo) or np.any(values > valid_hi):
            raise OracleCoverageError("left the valid region")
        return values

    guard(X)
    if t == 0.0:
        return X
    n_sub = max(1, int(math.ceil(t / substep - 1e-12)))
    h = t / n_sub
    for _ in range(n_sub):
        k1 = -speed(X)
        k2 = -speed(guard(X + 0.5 * h * k1))
        k3 = -speed(guard(X + 0.5 * h * k2))
        k4 = -speed(guard(X + h * k3))
        X = guard(X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return X


def reference_exact_speed(a):
    """c_minus = f - g from the stable closed forms, in their operation order."""

    def speed(x):
        u = a * np.asarray(x, dtype=float)
        s = np.sqrt((u - 1.0) * (u + 1.0))
        r = np.log1p((u - 1.0) + s)
        D = u + s - u * r
        f = (u + s) * (1.0 - r / 2.0) / D
        g = -r / (2.0 * D * (u + s))
        return f - g

    return speed


def test_exact_backtrace_matches_plain_rk4_bit_for_bit_on_demo04_geometry():
    # demos/04 grid [4.5, 12] (N = 2048) inside the coverage window [3.7, 12],
    # default substep, at t = 0.1 instead of 1
    grid = Grid(4.5, 12.0, 2048)
    x = grid.points()
    speed = transport_speed(GridWindow(x_min=3.7, x_max=12.0, n=2048, a=A1))
    substep = 0.25 * grid.dx / float(np.max(np.abs(speed(x))))
    got = backtrace_origins(x, 0.1, speed, substep, valid_lo=3.7, valid_hi=12.0)
    want = reference_backtrace(
        x, 0.1, reference_exact_speed(1.0), substep, valid_lo=3.7, valid_hi=12.0
    )
    assert np.array_equal(got, want)


def test_exact_backtrace_matches_plain_rk4_where_the_speed_changes_sign():
    # on [3.75, 6] c_minus runs from -1.2 to 0.93: both edges are outflow
    window = GridWindow(x_min=3.75, x_max=6.0, n=512, a=A1)
    x = window.grid().points()
    speed = transport_speed(window)
    assert speed(x)[0] < 0.0 < speed(x)[-1]
    got = backtrace_origins(x, 2.0, speed, 2e-3, valid_lo=3.75, valid_hi=6.0)
    want = reference_backtrace(
        x, 2.0, reference_exact_speed(1.0), 2e-3, valid_lo=3.75, valid_hi=6.0
    )
    assert np.array_equal(got, want)


def buffered_sin(n):
    """A speed that writes every result into the same buffer of its own."""
    out = np.empty(n)
    return lambda X: np.sin(X, out=out)


@pytest.mark.parametrize(
    "x, t, speed, bounds",
    [
        (
            np.linspace(1.01, 1.02, 256),
            0.005,
            transport_speed(GridWindow(1.001, 1.02, 512, A1), mode="galileo"),
            (1.001, 1.02),
        ),
        (
            np.linspace(6.0, 12.0, 300),
            1.0,
            transport_speed(WINDOW, mode="ultra", delta=1e-3),
            (4.5, 12.0),
        ),
        (np.linspace(0.0, 3.0, 200), 1.5, lambda X: np.sin(X), (-1.0, 4.0)),
        (np.linspace(0.5, 3.0, 200), 1.5, lambda X: X, (0.0, 4.0)),
        (np.linspace(0.0, 3.0, 200), 1.5, buffered_sin(200), (-1.0, 4.0)),
        (np.linspace(2.0, 3.0, 200), 1.5, lambda X: 0.75, (0.0, 4.0)),
        (np.linspace(4.5, 12.0, 64), 0.0, transport_speed(WINDOW), (4.5, 12.0)),
    ],
    ids=["galileo", "ultra", "lambda", "returns-its-input", "reuses-its-buffer", "scalar", "t-zero"],
)
def test_backtrace_matches_plain_rk4_bit_for_bit(x, t, speed, bounds):
    got = backtrace_origins(x, t, speed, 1e-2, *bounds)
    assert np.array_equal(got, reference_backtrace(x, t, speed, 1e-2, *bounds))
    assert got.shape == x.shape


def test_nan_speed_is_a_coverage_error():
    x = WINDOW.grid().points()
    with pytest.raises(OracleCoverageError):
        backtrace_origins(x, 1.0, lambda X: math.nan, substep=0.1)
    with pytest.raises(OracleCoverageError):
        backtrace_origins(np.array([5.0, math.nan]), 0.0, transport_speed(WINDOW), 0.1)


def test_compare_identical_fields():
    grid = WINDOW.grid()
    field = exact_inertial(PACKET, grid, 0.3)
    report = compare(field, field)
    assert report.l2_abs == 0.0
    assert report.linf_abs == 0.0
    assert report.l2_rel == 0.0
    assert report.linf_rel == 0.0


def test_compare_uniform_offset():
    grid = WINDOW.grid()
    ref = exact_inertial(PACKET, grid, 0.0)
    shifted = ScalarField(grid, ref.values + 1e-6)
    report = compare(shifted, ref)
    assert report.linf_abs == pytest.approx(1e-6, rel=1e-9)
    assert report.l2_abs == pytest.approx(
        1e-6 * np.sqrt(grid.dx * grid.n), rel=1e-6
    )


def test_compare_grid_mismatch():
    ref = exact_inertial(PACKET, WINDOW.grid(), 0.0)
    other = exact_inertial(PACKET, Grid(4.5, 12.0, 256), 0.0)
    with pytest.raises(GridMismatchError):
        compare(ref, other)


def test_compare_locates_the_worst_point():
    grid = WINDOW.grid()
    ref = exact_inertial(PACKET, grid, 0.0)
    values = ref.values.copy()
    values[100] += 0.5
    report = compare(ScalarField(grid, values), ref)
    assert report.x_of_max == pytest.approx(grid.points()[100])
    assert report.linf_abs == pytest.approx(0.5)
