import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from rindlersim import _travel_time, oracle
from rindlersim.coords import Acceleration, find_singularity
from rindlersim.embedding import Grid, ScalarField
from rindlersim.errors import ConfigError, GridMismatchError, OracleCoverageError
from rindlersim.evolution import GridWindow, WavepacketSpec, build_generator
from rindlersim.oracle import (
    backtrace_origins,
    characteristics_rindler,
    compare,
    exact_inertial,
    transport_speed,
    travel_time_origins,
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


@pytest.mark.filterwarnings("ignore:small-velocity approximation is marginal")
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


def test_the_oracle_samples_the_galileo_mode_with_its_range():
    # the solver's rule reaches the oracle: refused past v = 0.2 with the
    # same message, and a warning on the marginal window
    window = GridWindow(1.05, 2.0, 256, A1)
    with pytest.raises(ConfigError) as built:
        build_generator(window, mode="galileo")
    with pytest.raises(ConfigError) as sampled:
        characteristics_rindler(WavepacketSpec(1.5, 0.1), 0.5, window, mode="galileo")
    assert str(sampled.value) == str(built.value)
    marginal = GridWindow(1.001, 1.02, 512, A1)
    with pytest.warns(UserWarning, match="small-velocity approximation is marginal"):
        transport_speed(marginal, mode="galileo")(marginal.grid().points())


def test_characteristic_trace_lands_near_expected_origin():
    # forward displacement of the packet center over t=1 is ~0.9449,
    # so the backtraced origin of x=6.9449 is ~6
    field = characteristics_rindler(PACKET, 1.0, WINDOW)
    x = WINDOW.grid().points()
    peak = x[np.argmax(np.abs(field.values))]
    assert peak == pytest.approx(6.9449, abs=3 * WINDOW.dx)


def test_backtrace_monotone_origins():
    speed = transport_speed(WINDOW, mode="exact")
    x = WINDOW.grid().points()
    origins = backtrace_origins(x, 1.0, speed, substep=1e-3, valid_lo=3.68)
    assert np.all(np.diff(origins) > 0.0)


def test_richardson_substep_consistency():
    coarse = characteristics_rindler(PACKET, 1.0, WINDOW, substep=8e-3)
    fine = characteristics_rindler(PACKET, 1.0, WINDOW, substep=4e-3)
    assert np.max(np.abs(coarse.values - fine.values)) <= 1e-8


def test_the_reference_is_zero_where_characteristics_entered():
    # on [4.5, 12] c_minus > 0, so the left edge is the inflow edge; with
    # a packet whose tail reaches past it, the origins the RK4 trace finds
    # below 4.5 must read 0 (zero inflow data), and the others the packet
    packet = WavepacketSpec(x0=5.0, sigma=0.5)
    x = WINDOW.grid().points()
    speed = transport_speed(WINDOW)
    field = characteristics_rindler(packet, 1.0, WINDOW)
    traced = backtrace_origins(x, 1.0, speed, 1e-3, valid_lo=3.9)
    entered = traced < 4.5
    assert entered.sum() > 50 and np.max(np.abs(packet.evaluate(traced[entered]))) > 0.05
    assert np.all(field.values[entered] == 0.0)
    assert entered[0]  # the inflow edge itself
    inside = traced > 4.5 + 1e-9
    assert np.max(np.abs(field.values[inside] - packet.evaluate(traced[inside]))) <= 1e-9


def test_backtraces_stagnate_before_the_singular_band():
    # right of the band the transport speed has a zero, so backtraces
    # asymptote to it instead of crossing into the excluded region
    speed = transport_speed(WINDOW, mode="exact")
    origins = backtrace_origins(
        np.array([4.5]), 5.0, speed, substep=1e-2, valid_lo=3.675
    )
    assert 3.87 < origins[0] < 3.95


def test_own_window_reference_matches_a_wider_window_on_demo04():
    # on the demos/04 geometry no characteristic that enters through 4.5
    # carries more than the packet's far tail: the reference on the run's
    # window equals that of a window reaching down to 3.7, on the same grid
    window = GridWindow(4.5, 12.0, 2048, A1)
    packet = WavepacketSpec(x0=6.0, sigma=0.15)
    own = characteristics_rindler(packet, 1.0, window)
    wider = GridWindow(3.7, 12.0, 2048, A1)
    wide = characteristics_rindler(packet, 1.0, wider, grid=window.grid())
    assert own.grid == wide.grid
    assert np.max(np.abs(own.values - wide.values)) <= 1e-13


def test_left_branch_traces_hit_the_domain_edge():
    # left of the band psi' moves faster than light toward u = 1; the
    # traces of the lower part of [1.5, 3] reach the inflow edge 1.5
    # within t = 1, and there the reference reads the zero inflow data.
    # The boundary characteristic starts at 1.5: the RK4 trace gives
    # where it is at t = 1.
    window = GridWindow(x_min=1.5, x_max=3.0, n=128, a=A1)
    packet = WavepacketSpec(x0=2.2, sigma=0.1)
    x = window.grid().points()
    speed = transport_speed(window)
    boundary = backtrace_origins(np.array([1.5]), -1.0, speed, 1e-3)[0]
    assert 2.5 < boundary < 3.0
    field = characteristics_rindler(packet, 1.0, window)
    assert np.all(field.values[x < boundary - 1e-9] == 0.0)
    later = x > boundary + 1e-9
    traced = backtrace_origins(x[later], 1.0, speed, 1e-3, valid_lo=1.5)
    assert np.max(np.abs(field.values[later] - packet.evaluate(traced))) <= 1e-9
    # by t = 2 every characteristic in the window entered through 1.5
    assert np.all(characteristics_rindler(packet, 2.0, window).values == 0.0)


@pytest.mark.parametrize("a", [0.1, 1.0, 1.1, 3.0, 49.0])
def test_windows_the_solver_accepts_are_covered_by_the_oracle(a):
    # on every window that can be built, the oracle on that window returns
    # the packet itself at t = 0, and a finite field at t = 1.  Each window
    # has one edge at, just below or just above a branch end.
    acc = Acceleration(a)
    point = find_singularity(acc)
    windows = []
    for branch in (point.branch(acc, 2.0 / a), point.branch(acc, 10.0 / a)):
        for end in branch:
            for x in (np.nextafter(end, 0.0), end, np.nextafter(end, math.inf)):
                windows += [(x, x + 1.0 / a), (x / 2.0, x)]
    packet = WavepacketSpec(x0=1.0, sigma=1.0)
    accepted = 0
    for x_min, x_max in windows:
        try:
            window = GridWindow(x_min, x_max, 64, acc)
        except ConfigError:
            continue
        accepted += 1
        got = characteristics_rindler(packet, 0.0, window)
        assert np.array_equal(got.values, packet.evaluate(window.grid().points()))
        assert np.all(np.isfinite(characteristics_rindler(packet, 1.0, window).values))
    # x_min at and above the lower end of each branch, x_max at and below
    # the upper end of each
    assert accepted == 8


def test_the_oracle_is_never_given_a_window_across_the_band(monkeypatch):
    # the window fails when it is built, so the oracle never samples the
    # coefficients next to the root of D
    sampled = []
    monkeypatch.setattr(oracle, "coefficient_arrays", lambda *args: sampled.append(args))
    with pytest.raises(ConfigError, match="side of the singular band"):
        characteristics_rindler(PACKET, 1.0, GridWindow(3.0, 4.0, 128, A1))
    assert not sampled


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
    # demos/04 grid [4.5, 12] (N = 2048) inside the valid region [3.7, 12],
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


@pytest.mark.filterwarnings("ignore:small-velocity approximation is marginal")
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


# Lower edge of the right branch, where solver windows may start.
RIGHT_BRANCH_LO = find_singularity(A1).branch(A1, 5.0)[0]


def default_substep(x, speed):
    """The default substep of characteristics_rindler: dx / (4 max|c|)."""
    return 0.25 * (x[1] - x[0]) / float(np.max(np.abs(speed(x))))


def route_cases():
    """(x, t, speed, bounds) on which the two routes are compared."""
    galileo = GridWindow(1.001, 1.02, 512, A1)
    left = GridWindow(1.5, 3.0, 512, A1)
    straddle = GridWindow(3.75, 6.0, 512, A1)
    x_left, x_galileo = left.grid().points(), galileo.grid().points()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # this galileo window is marginal
        galileo_speed = transport_speed(galileo, mode="galileo")
    return {
        # the demos/04 grid inside the valid region [3.7, 12]; the first
        # origins approach the zero of c_minus at x ~ 3.89
        "demo04": (
            Grid(4.5, 12.0, 2048).points(),
            1.0,
            transport_speed(GridWindow(3.7, 12.0, 2048, A1)),
            (3.7, 12.0),
        ),
        # the zero of c_minus inside the grid: origins close in on it
        # from both sides
        "straddle": (
            straddle.grid().points(),
            1.0,
            transport_speed(straddle),
            (RIGHT_BRANCH_LO, math.inf),
        ),
        "left-branch": (x_left[x_left >= 1.8], 0.2, transport_speed(left), (1.5, 3.0)),
        "galileo": (x_galileo[x_galileo >= 1.011], 0.005, galileo_speed, (1.001, 1.02)),
        "ultra": (
            np.linspace(6.0, 12.0, 300),
            1.0,
            transport_speed(WINDOW, mode="ultra", delta=1e-3),
            (4.5, 12.0),
        ),
        "t-zero": (WINDOW.grid().points(), 0.0, transport_speed(WINDOW), (4.5, 12.0)),
        # t < 0: the traces run downstream, to higher x
        "negative-t": (
            WINDOW.grid().points()[100:400], -1.0, transport_speed(WINDOW), (4.5, 12.0)
        ),
    }


@pytest.mark.filterwarnings("ignore:small-velocity approximation is marginal")
@pytest.mark.parametrize("case", list(route_cases()))
def test_travel_time_route_agrees_with_the_rk4_trace(case):
    # At the default substep RK4's own error lies well below the bound:
    # its origins at h and h/2 agree to 3.5e-13 or better on these cases.
    x, t, speed, bounds = route_cases()[case]
    substep = default_substep(x, speed)
    got = travel_time_origins(x, t, speed, substep, *bounds)
    want = backtrace_origins(x, t, speed, substep, *bounds)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize(
    "speed, x, t, bounds, exact",
    [
        (lambda X: np.ones_like(X), np.linspace(0.0, 1.0, 50), 1.5, (-2.0, 1.0),
         lambda x, t: x - t),
        (lambda X: 0.75, np.linspace(2.0, 3.0, 50), 1.5, (0.0, 4.0), lambda x, t: x - 0.75 * t),
        # a zero at 0 that the table holds
        (lambda X: X, np.linspace(0.5, 3.0, 200), 1.5, (0.0, 4.0),
         lambda x, t: x * np.exp(-t)),
        # traces running away from the zero at 0, on both sides of it
        (lambda X: -X, np.linspace(-3.0, 3.0, 201), 1.5, (-30.0, 30.0),
         lambda x, t: x * np.exp(t)),
        # zeros at 0 and pi, a slow speed next to pi
        (np.sin, np.linspace(0.1, 3.0, 200), 1.5, (-1.0, 4.0),
         lambda x, t: 2.0 * np.arctan(np.tan(x / 2.0) * np.exp(-t))),
        # segments between two zeros, -pi to 0 and 0 to pi; x = 0 stays
        (np.sin, np.linspace(-3.0, 3.0, 201), 1.5, (-4.0, 4.0),
         lambda x, t: 2.0 * np.arctan(np.tan(x / 2.0) * np.exp(-t))),
    ],
    ids=["constant", "scalar", "zero-attracts", "zero-repels", "sine", "sine-two-zeros"],
)
def test_travel_time_route_matches_closed_form_origins(speed, x, t, bounds, exact):
    got = travel_time_origins(x, t, speed, 1e-2, *bounds)
    assert np.max(np.abs(got - exact(x, t))) <= 1e-13 * max(1.0, np.max(np.abs(got)))


def test_origins_below_the_table_floor_keep_their_relative_accuracy():
    # over t = 25 the traces of dX/ds = X close in on the zero at 0 to
    # within 1e-10, far below the floor of the log cells (2^-24 of their
    # outer end), where tau is continued linearly in ln X, exactly for
    # this speed; the slope of that line carries the rounding of the
    # cell's polynomial (about 1e-13), which grows with the distance
    # below the floor
    x = np.linspace(0.5, 3.0, 200)
    for t in (25.0, -1.0):
        got = travel_time_origins(x, t, lambda X: X, 1e-2, 0.0, 10.0)
        assert np.max(np.abs(got / (x * np.exp(-t)) - 1.0)) <= 1e-10
    # the other way round: from below the floor out into the table
    x = np.array([1e-12, 3e-9])
    got = travel_time_origins(x, -20.0, lambda X: X, 1e-2, 0.0, 10.0)
    assert np.allclose(got, x * np.exp(20.0), rtol=1e-10, atol=0.0)


def test_travel_time_route_runs_both_ways():
    # origins at -t are the points the traces reach at t: back again at +t
    speed = transport_speed(WINDOW)
    x = np.linspace(5.0, 10.0, 300)
    ahead = travel_time_origins(x, -1.0, speed, 1e-3, 3.7, 12.0)
    assert np.all(ahead > x)
    back = travel_time_origins(ahead, 1.0, speed, 1e-3, 3.7, 12.0)
    assert np.max(np.abs(back - x)) <= 1e-13


def test_travel_time_origins_stay_on_their_side_of_the_zero():
    # [3.75, 6] straddles the zero of c_minus; the traces of both sides
    # close in on it and never cross it
    window = GridWindow(3.75, 6.0, 512, A1)
    x = window.grid().points()
    speed = transport_speed(window)
    c = speed(x)
    assert c[0] < 0.0 < c[-1]
    for t in (1.0, 5.0, 40.0):
        origins = travel_time_origins(x, t, speed, 1e-3, RIGHT_BRANCH_LO)
        assert np.all(np.diff(origins) >= 0.0)
        assert origins[c < 0.0].max() < origins[c > 0.0].min()
        assert np.all(origins[c < 0.0] >= x[c < 0.0])
        assert np.all(origins[c > 0.0] <= x[c > 0.0])
    assert np.all(np.diff(travel_time_origins(x, 1.0, speed, 1e-3, RIGHT_BRANCH_LO)) > 0.0)
    # both edges are outflow edges: no characteristic enters
    field = characteristics_rindler(PACKET, 40.0, window)
    assert np.all(field.values == PACKET.evaluate(travel_time_origins(
        x, 40.0, speed, default_substep(x, speed), 3.75, 6.0)))


def test_travel_time_point_outside_the_valid_region_is_a_coverage_error():
    x = WINDOW.grid().points()
    speed = transport_speed(WINDOW)
    with pytest.raises(OracleCoverageError):
        travel_time_origins(x, 1.0, speed, 1e-3, valid_lo=5.0)
    with pytest.raises(OracleCoverageError):
        travel_time_origins(x, 1.0, speed, 1e-3, valid_hi=np.nextafter(12.0, 0.0))
    # a valid region of one point holds that point, but no table: the
    # trace has nowhere to come from, either way in time
    for t in (1.0, -1.0):
        with pytest.raises(OracleCoverageError, match="spans no interval"):
            travel_time_origins(np.array([5.0]), t, speed, 1e-3, 5.0, 5.0)
    # a speed that keeps growing away from the point: each pass of the
    # table's reach finds a faster speed, and no valid bound stops it
    with pytest.raises(OracleCoverageError, match="could not bound"):
        travel_time_origins(np.array([0.0]), 1.0, lambda X: 1.0 + np.abs(X), 1e-2)


def test_travel_time_origins_past_an_edge_of_the_valid_region_are_nan():
    # the table ends at valid_lo = 4.5: origins past it, and the inflow
    # edge itself, are NaN (the trace entered there); the others agree
    # with those of a table that reaches down to 3.9
    x = WINDOW.grid().points()
    speed = transport_speed(WINDOW)
    got = travel_time_origins(x, 1.0, speed, 1e-3, 4.5, 12.0)
    wide = travel_time_origins(x, 1.0, speed, 1e-3, 3.9, 12.0)
    assert np.array_equal(np.isnan(got), wide < 4.5)
    assert np.isnan(got[0])
    assert np.isnan(travel_time_origins(np.array([4.5]), 1.0, speed, 1e-3, 4.5, 12.0))
    assert np.max(np.abs(got[wide >= 4.5] - wide[wide >= 4.5])) <= 1e-12
    # at t < 0 the traces run downstream: NaN where they leave through 12
    ahead = travel_time_origins(x, -1.0, speed, 1e-3, 4.5, 12.0)
    assert np.isnan(ahead[-1]) and not np.isnan(ahead[0])


def test_travel_time_past_the_table_edge_is_a_coverage_error(monkeypatch):
    # the table reaches |t| times its top speed past the points; an origin
    # beyond an end that is not an edge of the valid region means it
    # missed a faster speed, here by cutting two cells off the table
    full = _travel_time.table_edges

    def short(*args):
        edges, c_edges, top = full(*args)
        return edges[2:], c_edges[2:], top

    monkeypatch.setattr(_travel_time, "table_edges", short)
    x = np.linspace(5.0, 6.0, 50)
    with pytest.raises(OracleCoverageError, match="reach"):
        travel_time_origins(x, 1.0, lambda X: np.ones_like(X), 1e-2)


def test_origins_on_the_ends_of_table_cells_converge():
    # a constant speed, and t one grid cell of travel: the origins are the
    # grid points one cell upstream, on the ends of table cells, where a
    # cell's polynomial can fall short of its end by rounding
    window = GridWindow(1.0 + 1e-12, 3.5741998947013776, 65, A1)
    speed = transport_speed(window, mode="ultra", delta=0.5)
    x = window.grid().points()
    c = float(speed(x)[0])
    t = 0.03179099371325664  # dx / c
    assert t * c == pytest.approx(window.dx, rel=1e-15)
    got = travel_time_origins(x, t, speed, 0.25 * window.dx / c, window.x_min, window.x_max)
    assert np.all(np.isnan(got[:2])) and not np.any(np.isnan(got[2:]))
    assert np.max(np.abs(got[2:] - x[1:-1])) <= 4e-15


def test_a_zero_in_a_table_cell_wider_than_the_floats_is_bracketed():
    # on [3.6742, 6e152] at N = 64 the first table cell spans 1e151 and
    # holds the zero of c_minus at 3.89: bisection takes it down to
    # adjacent floats, and the traces left of it close in on it
    window = GridWindow(3.6741998947013803, 6.06151787484074e152, 64, A1)
    x = window.grid().points()
    speed = transport_speed(window)
    substep = default_substep(x, speed)
    got = travel_time_origins(x, 2e150, speed, substep, window.x_min, window.x_max)
    assert 3.89 < got[0] < 3.891 and np.all(got[1:] < x[1:])


def test_nan_speed_on_a_crossed_span_is_a_coverage_error():
    x = np.linspace(4.0, 5.0, 64)
    # NaN below 3.5, which traces from [4, 5] cross within t = 1
    speed = lambda X: np.where(X < 3.5, math.nan, 1.0)
    with pytest.raises(OracleCoverageError):
        travel_time_origins(x, 1.0, speed, 1e-2)
    # the same speed is fine over a horizon that stays above 3.5
    assert np.allclose(travel_time_origins(x, 0.25, speed, 1e-2), x - 0.25, atol=1e-13)
    with pytest.raises(OracleCoverageError):
        travel_time_origins(x, 0.25, lambda X: math.nan, 1e-2)


def test_points_where_the_speed_vanishes_stay_put():
    x = np.array([-1.0, 0.0, 1.0])
    got = travel_time_origins(x, 2.0, lambda X: X, 1e-2, -2.0, 2.0)
    assert got[1] == 0.0
    assert np.allclose(got, x * math.exp(-2.0), atol=1e-15)


def test_unconverged_newton_inversion_raises(monkeypatch):
    monkeypatch.setattr(_travel_time, "NEWTON_CAP", 1)
    x = WINDOW.grid().points()
    with pytest.raises(OracleCoverageError, match="did not converge"):
        travel_time_origins(x, 0.5, transport_speed(WINDOW), 1e-3, 3.7, 12.0)


def test_halving_the_substep_refines_the_table():
    # the travel-time route's h and h/2 agree, as the RK4 trace's do
    x = Grid(4.5, 12.0, 2048).points()
    speed = transport_speed(GridWindow(3.7, 12.0, 2048, A1))
    h = default_substep(x, speed)
    coarse = travel_time_origins(x, 1.0, speed, 4.0 * h, 3.7, 12.0)
    fine = travel_time_origins(x, 1.0, speed, h, 3.7, 12.0)
    assert 0.0 < np.max(np.abs(coarse - fine)) <= 1e-11


def test_gauss_legendre_table_and_antiderivative():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert np.allclose(_travel_time.GL_NODES, nodes, rtol=0.0, atol=1e-16)
    assert np.allclose(_travel_time.GL_WEIGHTS, weights, rtol=0.0, atol=1e-16)
    # from the values of a degree-7 integrand at the nodes, the integral
    # from -1 to xi and its slope, exactly
    integrand = np.polynomial.Polynomial(np.random.default_rng(7).standard_normal(8))
    integral = integrand.integ(lbnd=-1.0)
    coefficients = (_travel_time.antiderivative() @ integrand(nodes))[None]
    xi = np.linspace(-1.0, 1.0, 11)
    value, slope = _travel_time.polynomial(coefficients, np.zeros(xi.size, dtype=int), xi)
    assert np.allclose(value, integral(xi), rtol=0.0, atol=1e-13)
    assert np.allclose(slope, integrand(xi), rtol=0.0, atol=1e-13)
    assert value[-1] == pytest.approx(weights @ integrand(nodes), abs=1e-14)


def test_the_cli_loads_no_quadrature_library():
    # the package does not import the oracle, and the oracle's
    # Gauss-Legendre table is hard-coded, so neither a CLI process nor the
    # oracle loads numpy.polynomial or scipy
    code = (
        "import sys, rindlersim.cli\n"
        "assert 'rindlersim.oracle' not in sys.modules\n"
        "import rindlersim.oracle\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')]\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


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
