import math
import tracemalloc

import numpy as np
import pytest

from rindlersim.coords import Acceleration
from rindlersim.embedding import EnlargedSpinorField, Grid, field_norm
from rindlersim import evolution
from rindlersim.errors import ConfigError, InstabilityError
from rindlersim.hamiltonian import find_singularity
from rindlersim._sbp import derivative as _derivative_central4, norm_weights
from rindlersim.evolution import (
    NORM_GROWTH_TOL,
    GridWindow,
    SolverConfig,
    TransportStepper,
    WavepacketSpec,
    _report_row,
    build_generator,
    cfl_dt,
    evolve,
)

A1 = Acceleration(1.0)
WINDOW = GridWindow(x_min=4.5, x_max=12.0, n=512, a=A1)
# 10+ sigma clear of both boundaries, so boundary closures stay silent
PACKET = WavepacketSpec(x0=7.5, sigma=0.3, k0=0.0)


def test_build_generator_standard_window():
    gen = build_generator(WINDOW)
    assert gen.x.shape == (512,)
    # f + g = 1 characteristic: the inertial speed is unity everywhere
    assert np.max(np.abs(gen.c_plus - 1.0)) <= 1e-10
    assert np.all(np.isfinite(gen.f)) and np.all(np.isfinite(gen.g))


def test_build_generator_rejects_singular_window():
    with pytest.raises(ConfigError):
        build_generator(GridWindow(x_min=3.0, x_max=4.0, n=128, a=A1))


def test_build_generator_rejects_sub_unit_positions():
    with pytest.raises(ConfigError):
        build_generator(GridWindow(x_min=0.5, x_max=2.0, n=128, a=A1))


def test_build_generator_rejects_margin_contact():
    # entirely on one side but touching the excluded band
    with pytest.raises(ConfigError):
        build_generator(GridWindow(x_min=3.63, x_max=4.5, n=128, a=A1))


_RIGHT_END = find_singularity(A1).branch(A1, 10.0)[1]
_BAND = "its side of the singular band at u = a*x = 3.6242 (with a*x > 1)"


@pytest.mark.parametrize(
    "x_min, x_max, n, message",
    [
        (3.0, 4.0, 128, f"window [3, 4] must lie in [1, 3.5742], {_BAND}"),
        (0.5, 2.0, 128, f"window [0.5, 2] must lie in [1, 3.5742], {_BAND}"),
        (3.63, 4.5, 128, f"window [3.63, 4.5] must lie in [3.6742, 1e+305], {_BAND}"),
        (4.5, 12.0, 32, "evolution needs at least 64 grid points, got 32"),
        (4.5, float(np.nextafter(_RIGHT_END, math.inf)), 128,
         f"window [4.5, 1e+305] must lie in [3.6742, 1e+305], {_BAND}"),
    ],
    ids=["across-the-band", "below-u-1", "margin-contact", "n-32", "past-the-right-end"],
)
def test_an_invalid_window_is_rejected_when_it_is_built(x_min, x_max, n, message):
    with pytest.raises(ConfigError) as caught:
        GridWindow(x_min, x_max, n, A1)
    assert str(caught.value) == message


def test_build_generator_respects_acceleration_scaling():
    # same u-range as the standard window, realized at a = 2
    gen = build_generator(GridWindow(x_min=2.25, x_max=6.0, n=128, a=Acceleration(2.0)))
    ref = build_generator(GridWindow(x_min=4.5, x_max=12.0, n=128, a=A1))
    assert np.allclose(gen.f, ref.f, rtol=1e-13)
    assert np.allclose(gen.g, ref.g, rtol=1e-13)


def test_small_grid_rejected():
    with pytest.raises(ConfigError):
        build_generator(GridWindow(x_min=4.5, x_max=12.0, n=32, a=A1))
    # a window is a Grid, and fails Grid's checks when it is built
    with pytest.raises(ConfigError, match="at least 8 samples"):
        GridWindow(x_min=4.5, x_max=12.0, n=7, a=A1)
    with pytest.raises(ConfigError, match="empty grid interval"):
        GridWindow(x_min=6.0, x_max=6.0, n=128, a=A1)


def test_galileo_mode_window_bounds():
    # v <= 0.2 limits the window to u <= 1.0206
    window = GridWindow(x_min=1.001, x_max=1.005, n=128, a=A1)
    gen = build_generator(window, mode="galileo")
    assert np.max(np.abs(gen.c_plus - 1.0)) <= 1e-14
    with pytest.warns(UserWarning):
        build_generator(GridWindow(x_min=1.001, x_max=1.02, n=128, a=A1), mode="galileo")
    with pytest.raises(ConfigError):
        build_generator(GridWindow(x_min=1.05, x_max=2.0, n=128, a=A1), mode="galileo")


def test_ultra_mode_constant_coefficients():
    gen = build_generator(WINDOW, mode="ultra", delta=0.01)
    assert np.ptp(gen.f) == 0.0
    assert np.ptp(gen.g) == 0.0
    assert gen.f[0] == pytest.approx(1.0 - 0.020404554013766268, rel=1e-13)
    with pytest.raises(ConfigError):
        build_generator(WINDOW, mode="ultra")  # delta missing
    with pytest.raises(ConfigError):
        build_generator(WINDOW, mode="exact", delta=0.3)  # delta on another mode


def test_cfl_dt_standard_window():
    gen = build_generator(WINDOW)
    # on this window max speed is the unit inertial speed, so dt = cfl*dx
    assert cfl_dt(WINDOW, gen, 0.5) == pytest.approx(0.5 * WINDOW.dx, rel=1e-13)
    assert cfl_dt(WINDOW, gen, 0.25) == pytest.approx(0.5 * cfl_dt(WINDOW, gen, 0.5))


def test_cfl_dt_halves_with_dx():
    fine = GridWindow(x_min=4.5, x_max=12.0, n=1023, a=A1)
    finer = GridWindow(x_min=4.5, x_max=12.0, n=2045, a=A1)
    g1, g2 = build_generator(fine), build_generator(finer)
    assert cfl_dt(finer, g2, 0.5) == pytest.approx(0.5 * cfl_dt(fine, g1, 0.5), rel=1e-3)


def test_cfl_dt_uses_fast_component_on_left_branch():
    # left of the singularity the accelerated-frame speed exceeds 1
    window = GridWindow(x_min=1.5, x_max=3.0, n=128, a=A1)
    gen = build_generator(window)
    assert gen.max_speed > 1.0
    assert cfl_dt(window, gen, 0.5) == pytest.approx(
        0.5 * window.dx / gen.max_speed, rel=1e-13
    )


def test_single_step_translates_packet():
    gen = build_generator(WINDOW)
    solver = SolverConfig(t_final=1.0)
    x = WINDOW.grid().points()
    # (psi, psi') of the state (even, odd) = (packet, 0)
    pair = np.stack((PACKET.evaluate(x), PACKET.evaluate(x)))
    dt = cfl_dt(WINDOW, gen, 0.5)
    TransportStepper(gen, solver).step_eigen(pair, dt)
    shifted = PACKET.evaluate(x - dt)
    err = np.max(np.abs(pair[0] - shifted))
    # single-step truncation ~ dt * dx^4/30 * max|psi^(5)| ~ 3e-8 here
    assert err <= 1e-7
    # and refinement shrinks it at 4th order in space (x2 in dt, x2 in dx)
    fine = GridWindow(x_min=4.5, x_max=12.0, n=1023, a=A1)
    gen_f = build_generator(fine)
    xf = fine.grid().points()
    pair_f = np.stack((PACKET.evaluate(xf), PACKET.evaluate(xf)))
    dt_f = cfl_dt(fine, gen_f, 0.5)
    TransportStepper(gen_f, solver).step_eigen(pair_f, dt_f)
    err_f = np.max(np.abs(pair_f[0] - PACKET.evaluate(xf - dt_f)))
    assert err_f <= err / 8.0


def test_step_preserves_zero_field():
    gen = build_generator(WINDOW)
    pair = np.zeros((2, WINDOW.n), dtype=complex)
    TransportStepper(gen, SolverConfig()).step_eigen(pair, cfl_dt(WINDOW, gen, 0.5))
    assert np.all(pair == 0.0)


def test_uniform_speed_advects_both_components_identically():
    # with position-independent coefficients both components move together
    gen = build_generator(WINDOW, mode="ultra", delta=1e-10)
    stepper = TransportStepper(gen, SolverConfig())
    values = PACKET.evaluate(WINDOW.grid().points())
    pair = np.stack((values, values))
    dt = cfl_dt(WINDOW, gen, 0.5)
    for _ in range(10):
        stepper.step_eigen(pair, dt)
    # odd = (psi - psi') / 2 stays zero iff psi and psi' evolved identically
    even, odd = 0.5 * (pair[0] + pair[1]), 0.5 * (pair[0] - pair[1])
    assert np.max(np.abs(odd)) <= 1e-9 * np.max(np.abs(even))


def _stepper(window, solver):
    return TransportStepper(build_generator(window), solver)


# The ids keep the name "sponge", the config value of the SBP-SAT boundary.
@pytest.mark.parametrize(
    "x_min, x_max, x0",
    [
        (4.5, 12.0, 7.5),
        (1.5, 3.0, 2.2),  # left of u*, where c_minus > 1
        (3.7, 3.85, 3.775),  # c_minus < 0: psi' flows in at the right edge
    ],
    ids=["right-sponge", "left-sponge", "right-inflow"],
)
def test_decoupled_and_coupled_paths_agree(x_min, x_max, x0):
    window = GridWindow(x_min=x_min, x_max=x_max, n=512, a=A1)
    stepper = _stepper(window, SolverConfig())
    # packet width and offset scale with the window: 0.3 on [4.5, 12]
    width = 0.04 * (x_max - x_min)
    packet = WavepacketSpec(x0=x0, sigma=width)
    rng = np.random.default_rng(41)
    x = window.grid().points()
    # a wave across the whole window keeps both inflow penalties at work
    background = 0.2 * np.exp(2j * np.pi * (x - x_min) / (x_max - x_min))
    even = packet.evaluate(x) * (1.0 + 0.1 * rng.standard_normal(window.n)) + background
    odd = 0.5 * packet.evaluate(x - width) - 0.5 * background
    dt = cfl_dt(window, stepper.generator, 0.5)
    pe, po = even.copy(), odd.copy()
    pair = np.stack((even + odd, even - odd))
    for _ in range(50):
        pe, po = stepper.step_coupled(pe, po, dt)
        assert stepper.step_eigen(pair, dt) is pair
    again_even = 0.5 * (pair[0] + pair[1])
    again_odd = 0.5 * (pair[0] - pair[1])
    scale = np.max(np.abs(pe))
    assert np.max(np.abs(pe - again_even)) <= 1e-12 * scale
    assert np.max(np.abs(po - again_odd)) <= 1e-12 * scale


@pytest.mark.parametrize(
    "x_min, x_max", [(4.5, 12.0), (3.7, 3.85)], ids=["sponge", "right-inflow"]
)
def test_in_place_derivative_matches_central4_bit_for_bit(x_min, x_max):
    # same terms in the same order as the allocating reference, so the
    # fast stepper reproduces its floats exactly, except where it folds
    # the SAT penalty into an edge weight.  There the reference adds the
    # penalty explicitly, and the two differ by rounding: at most 5e-16 of
    # |reference| + |penalty| over 1800 random draws, bounded here by 1e-15
    # Both scale by the product with 1/(12 dx), so signed zeros match too:
    # 32 signed-zero draws follow the normal one, and their edge samples
    # are nonzero, so the same two entries are folded
    window = GridWindow(x_min=x_min, x_max=x_max, n=256, a=A1)
    stepper = _stepper(window, SolverConfig())
    rng = np.random.default_rng(7)
    normal = rng.standard_normal((2, window.n)) + 1j * rng.standard_normal((2, window.n))
    signed_zeros = (_signed_zero_pair(rng, window.n) for _ in range(32))
    gen = stepper.generator
    for pair in (normal, *signed_zeros):
        out = stepper._rhs(pair, np.empty_like(pair))
        folded = 0
        for row, speeds, values in zip(out, (gen.c_plus, gen.c_minus), pair):
            reference = -speeds * _derivative_central4(values, window.dx)
            sat = np.zeros_like(reference)
            for edge, inward in ((0, speeds[0] > 0.0), (-1, speeds[-1] < 0.0)):
                if inward:
                    sat[edge] = -abs(speeds[edge]) / (17.0 / 48.0 * window.dx) * values[edge]
            exact = sat == 0.0
            folded += np.count_nonzero(~exact)
            assert row[exact].tobytes() == reference[exact].tobytes()
            scale = np.abs(reference[~exact]) + np.abs(sat[~exact])
            want = reference[~exact] + sat[~exact]
            assert np.all(np.abs(row[~exact] - want) <= 1e-15 * scale)
        assert folded == 2  # psi at its left edge, psi' at its inflow edge


def _signed_zero_pair(rng, n):
    """Random complex (2, N) data with +0, -0 and -0 - 0j entries in both
    rows.  The first 8 samples of each row are imaginary and positive, the
    last 8 real and negative, each with a random signed zero in its other
    part: a closure row there sums six -0 terms in one part with
    probability 1/64."""
    zeros = np.array([0.0, -0.0])
    real = rng.standard_normal((2, n))
    imag = rng.standard_normal((2, n))
    for part in (real, imag):
        zero = rng.random((2, n)) < 0.2
        part[zero] = rng.choice(zeros, np.count_nonzero(zero))
    real[:, :8] = rng.choice(zeros, (2, 8))
    imag[:, :8] = np.abs(rng.standard_normal((2, 8)))
    real[:, -8:] = -np.abs(rng.standard_normal((2, 8)))
    imag[:, -8:] = rng.choice(zeros, (2, 8))
    pair = np.empty((2, n), dtype=complex)
    pair.real, pair.imag = real, imag
    return pair


# right of u*, left of u* (c_minus > 1), and [3.7, 3.85], where
# c_minus < 0 and psi' flows in at the right edge
_STEPPER_WINDOWS = pytest.mark.parametrize(
    "x_min, x_max",
    [(4.5, 12.0), (1.5, 3.0), (3.7, 3.85)],
    ids=["right-sponge", "left-sponge", "right-inflow"],
)


def _allocating_slope(stepper, pair):
    """-c d(pair)/dx with numpy temporaries: the central stencil row by
    row and the closure rows (stepper's tables) summed term by term."""
    out = np.empty(pair.shape, dtype=complex)
    out[:, 2:-2] = ((8.0 * pair[:, 3:-1] - pair[:, 4:]) - 8.0 * pair[:, 1:-3]) + pair[:, :-4]
    terms = pair.ravel().take(stepper._edge_sources) * stepper._edge_weights
    edges = terms[0]
    for term in terms[1:]:
        edges = edges + term
    out.put(stepper._edge_targets, edges)
    gen = stepper.generator
    speeds = np.stack((gen.c_plus, gen.c_minus))
    return -speeds * (out * (1.0 / (12.0 * stepper.dx)))


@_STEPPER_WINDOWS
def test_in_place_slope_keeps_signed_zeros(x_min, x_max):
    # the rows meet in one flat sweep and the closure sums start from -0,
    # so that every entry, signed zeros too, has the allocating route's bits
    window = GridWindow(x_min=x_min, x_max=x_max, n=64, a=A1)
    stepper = _stepper(window, SolverConfig())
    rng = np.random.default_rng(17)
    out = np.empty((2, window.n), dtype=complex)
    # 32 draws of 16 edge rows each: some rows sum six -0 terms
    for _ in range(32):
        pair = _signed_zero_pair(rng, window.n)
        want = _allocating_slope(stepper, pair).tobytes()
        assert stepper._rhs(pair, out).tobytes() == want
        assert stepper._rhs(np.asfortranarray(pair), out).tobytes() == want


def test_in_place_slope_refuses_an_out_it_cannot_flatten():
    # a flat view of a Fortran-ordered out would be a copy, and the slope
    # written to it would be lost
    window = GridWindow(x_min=4.5, x_max=12.0, n=64, a=A1)
    stepper = _stepper(window, SolverConfig())
    pair = np.ones((2, window.n), dtype=complex)
    with pytest.raises(ValueError, match="C-contiguous"):
        stepper._rhs(pair, np.empty((2, window.n), dtype=complex, order="F"))


@_STEPPER_WINDOWS
def test_one_row_steppers_step_each_row_as_the_pair_stepper_does(x_min, x_max):
    # the partner of a split run steps psi' alone, and its caller psi:
    # every float, signed zeros too, must be the pair stepper's
    window = GridWindow(x_min=x_min, x_max=x_max, n=64, a=A1)
    generator = build_generator(window)
    pair_stepper = TransportStepper(generator, SolverConfig())
    row_steppers = [TransportStepper(generator, SolverConfig(), rows=(row,)) for row in (0, 1)]
    dt = cfl_dt(window, generator, 0.5)
    rng = np.random.default_rng(23)
    for _ in range(8):
        pair = _signed_zero_pair(rng, window.n)
        rows = pair.copy()
        for h in (dt, dt, 0.3 * dt):
            pair_stepper.step_eigen(pair, h)
            for row, stepper in enumerate(row_steppers):
                assert stepper.step_eigen(rows[row:row + 1], h).base is rows
        assert rows.tobytes() == pair.tobytes()


needs_affinity = pytest.mark.skipif(
    not (hasattr(evolution.os, "fork") and hasattr(evolution.os, "sched_getaffinity")),
    reason="a partner needs os.fork and os.sched_getaffinity",
)


@needs_affinity
@pytest.mark.parametrize(
    "n, n_steps, split",
    [
        (16384, 274, True),  # fine_grid
        (16384, 4369, True),  # demos/04 at N = 16384
        (4096, 150, True),
        (2048, 546, False),  # demo04
        (2048, 35, False),  # snapshots
        (512, 6203, False),  # long_horizon
        (16384, 30, True),
        (4096, 100, True),
    ],
)
def test_partner_size_rule(monkeypatch, n, n_steps, split):
    # The step count does not enter the rule: short runs on a large grid
    # (16384 x 30, 4096 x 100) split as the long ones do.
    monkeypatch.setattr(evolution.os, "sched_getaffinity", lambda pid: {0, 1})
    assert evolution._split(n) is split


@needs_affinity
def test_partner_size_rule_at_its_cut_offs(monkeypatch):
    monkeypatch.setattr(evolution.os, "sched_getaffinity", lambda pid: {0, 1})
    assert evolution._split(evolution.PARTNER_MIN_POINTS)
    assert not evolution._split(evolution.PARTNER_MIN_POINTS - 1)


@needs_affinity
def test_no_partner_with_one_cpu_or_a_second_thread(monkeypatch):
    import threading

    monkeypatch.setattr(evolution.os, "sched_getaffinity", lambda pid: {0, 1})
    assert evolution._split(16384)
    monkeypatch.setattr(evolution.os, "sched_getaffinity", lambda pid: {0})
    assert not evolution._split(16384)
    monkeypatch.setattr(evolution.os, "sched_getaffinity", lambda pid: {0, 1})
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not evolution._split(16384)
    finally:
        release.set()
        thread.join()


def _slope(stepper):
    """The stepper's own slope, into a new array."""
    return lambda v: stepper._rhs(v, np.empty(v.shape, dtype=complex))


def _textbook_rk4(stepper, u, h):
    """One allocating RK4 step with the textbook stage weights."""
    rhs = _slope(stepper)
    k1 = rhs(u)
    k2 = rhs(u + (h / 2) * k1)
    k3 = rhs(u + (h / 2) * k2)
    k4 = rhs(u + h * k3)
    return u + (h / 6) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _horner_rk4(stepper, u, h):
    """One allocating RK4 step in Horner form,
    u + h L(u + h/2 L(u + h/3 L(u + h/4 L u))), from the stepper's slope."""
    rhs = _slope(stepper)
    k = rhs(u)
    for c in (h / 4.0, h / 3.0, h / 2.0):
        k = rhs(u + k * c)
    return u + k * h


@_STEPPER_WINDOWS
def test_step_eigen_matches_horner_rk4_bit_for_bit(x_min, x_max):
    window = GridWindow(x_min=x_min, x_max=x_max, n=128, a=A1)
    stepper = _stepper(window, SolverConfig())
    dt = cfl_dt(window, stepper.generator, 0.5)
    pair = _signed_zero_pair(np.random.default_rng(13), window.n)
    fortran = np.asfortranarray(pair)
    # three full steps, then a shortened final one
    for h in (dt, dt, dt, 0.37 * dt):
        want = _horner_rk4(stepper, pair.copy(), h)
        textbook = _textbook_rk4(stepper, pair.copy(), h)
        scale = np.max(np.abs(pair))
        assert stepper.step_eigen(pair, h) is pair
        assert stepper.step_eigen(fortran, h) is fortran
        assert pair.tobytes() == want.tobytes()
        assert fortran.tobytes() == want.tobytes()
        # the same scheme as the textbook stages, up to rounding
        assert np.max(np.abs(pair - textbook)) <= 1e-14 * scale


def _closure_matrix(n):
    """The SBP(4,2) derivative as a dense matrix on a unit-spaced grid."""
    return _derivative_central4(np.eye(n), 1.0)


def _norm_matrix(n):
    h = np.ones(n)
    h[:4] = h[-4:][::-1] = (17.0 / 48.0, 59.0 / 48.0, 43.0 / 48.0, 49.0 / 48.0)
    return np.diag(h)


def test_closure_is_summation_by_parts():
    n = 64
    H = _norm_matrix(n)
    # the norm the solver measures psi in is the literal one, so that
    # H D + D^T H = B holds for the solver's own (H, D)
    assert norm_weights(n).tobytes() == np.diag(H).tobytes()
    Q = H @ _closure_matrix(n)
    boundary = np.zeros((n, n))
    boundary[0, 0], boundary[-1, -1] = -1.0, 1.0
    assert np.max(np.abs(Q + Q.T - boundary)) <= 1e-14


def test_closure_accuracy_orders():
    # boundary rows are exact on polynomials up to degree 2, interior
    # rows up to degree 4
    n = 64
    D = _closure_matrix(n)
    x = np.arange(n) / (n - 1.0)
    edge = np.r_[0:4, n - 4 : n]
    for degree in range(6):
        error = np.abs(D @ x**degree * (n - 1.0) - degree * x ** max(degree - 1, 0))
        if degree <= 2:
            assert np.max(error[edge]) <= 1e-11
        assert (np.max(error[4:-4]) <= 1e-9) == (degree <= 4)


def _operators(stepper):
    """The two real (N, N) matrices of -c D plus SAT that _rhs applies."""
    n = stepper.generator.window.n
    operators = np.empty((2, n, n))
    unit = np.zeros((2, n), dtype=complex)
    out = np.empty_like(unit)
    for column in range(n):
        unit[:, column] = 1.0
        operators[:, :, column] = stepper._rhs(unit, out).real
        unit[:, column] = 0.0
    return operators


@pytest.mark.parametrize(
    "x_min, x_max", [(4.5, 12.0), (1.5, 3.0), (3.75, 6.0)], ids=["right", "left", "mid"]
)
def test_central_scheme_has_no_growing_mode(x_min, x_max):
    # on [3.75, 6] c_minus vanishes inside the window: psi' has a physical
    # zero mode there, which eig puts within 1e-13 of 0
    for n in (128, 256, 512):
        stepper = _stepper(GridWindow(x_min, x_max, n, A1), SolverConfig())
        for operator in _operators(stepper):
            assert np.max(np.linalg.eigvals(operator).real) <= 1e-10


def _step_matrix(generator, cfl, row):
    """P, the RK4 step of one row as a real (N, N) matrix: a stepper for N
    copies of the row steps the N unit vectors at once, as its rows."""
    n = generator.window.n
    stepper = TransportStepper(generator, SolverConfig(cfl=cfl), rows=(row,) * n)
    units = np.eye(n, dtype=complex)
    stepper.step_eigen(units, cfl_dt(generator.window, generator, cfl))
    assert not units.imag.any()
    return units.real.T


# the powers k of P whose H-norms are held: 1 to 16 one by one, then by squaring
_POWERS = (*range(1, 17), 32, 64, 128, 256)


def _h_norms(step):
    """||P^k||_H = ||H^(1/2) P^k H^(-1/2)||_2 for each k of _POWERS."""
    root = np.sqrt(norm_weights(len(step)))
    scaled = root[:, None] * step / root
    powers = [scaled]
    while len(powers) < 16:
        powers.append(scaled @ powers[-1])
    while len(powers) < len(_POWERS):
        powers.append(powers[-1] @ powers[-1])
    return dict(zip(_POWERS, np.linalg.norm(np.array(powers), 2, axis=(1, 2))))


@pytest.mark.parametrize(
    "x_min, x_max, mode, delta, psi_prime_bound",
    [
        (4.5, 12.0, "exact", None, 1.5),
        (1.5, 3.0, "exact", None, 1.5),
        # c_minus vanishes inside: psi' has a zero mode, and P^k grows it
        # in H to 11.3 (cfl 1, k = 256)
        (3.75, 6.0, "exact", None, 16.0),
        (1.0 + 1e-9, 1.4, "exact", None, 1.5),
        (1e6, 1.5e6, "exact", None, 1.5),
        (1.001, 1.005, "galileo", None, 1.5),  # v <= 0.1
        (4.5, 12.0, "ultra", 1e-2, 1.5),
    ],
    ids=["right", "left", "mid", "horizon", "far", "galileo", "ultra"],
)
def test_rk4_step_is_stable_in_the_sbp_norm(x_min, x_max, mode, delta, psi_prime_bound):
    # The fully discrete step P of each row at N = 128, cfl 0.5 and 1.
    # Measured: rho(P) - 1 <= 2.7e-15 (psi''s zero mode on [3.75, 6]);
    # for psi, ||P||_H - 1 <= 1.26e-3 (cfl 1, [4.5, 12]), and every longer
    # product contracts (||P^k||_H <= 1 - 2e-13 for k >= 2): RK4's two-step strong
    # stability for an operator that is semi-negative in H (Sun & Shu
    # 2017, Ann. Math. Sci. Appl. 2).  psi''s generator is not Hermitian,
    # so P^k may grow it: to 1.12 at most outside [3.75, 6].  With the SAT
    # penalty at 0.3 of its strength, rho(P) - 1 reaches 1e-2.  The 28
    # cases of the 7 windows take 1.6-1.7 s on 2 CPUs
    generator = build_generator(GridWindow(x_min, x_max, 128, A1), mode, delta)
    for cfl in (0.5, 1.0):
        for row in (0, 1):
            step = _step_matrix(generator, cfl, row)
            assert np.max(np.abs(np.linalg.eigvals(step))) <= 1.0 + 1e-13
            norms = _h_norms(step)
            if row == 0:
                assert norms[1] - 1.0 <= 2e-3
                assert max(norms[k] for k in _POWERS[1:]) <= 1.0 + 1e-13
            else:
                assert max(norms.values()) <= psi_prime_bound


@pytest.mark.parametrize(
    "x_min, x_max, t_final",
    [(4.5, 12.0, 12.0), (1.5, 3.0, 2.0), (3.75, 6.0, 8.0)],
    ids=["right", "left", "mid"],
)
def test_run_past_packet_exit_decays(x_min, x_max, t_final):
    # well past the time the packet needs to leave the window
    window = GridWindow(x_min=x_min, x_max=x_max, n=256, a=A1)
    width = x_max - x_min
    packet = WavepacketSpec(x0=x_min + 0.5 * width, sigma=0.04 * width)
    solver = SolverConfig(t_final=t_final, snapshot_stride=10)
    result = evolve(packet, build_generator(window), solver)
    norms = np.array([(row.norm_inertial, row.norm_rindler) for row in result.report])
    assert np.all(norms[-1] <= 1e-3 * norms[0])
    assert np.all(norms[-1] <= norms[len(norms) // 2])


@pytest.mark.parametrize(
    "x_min, x_max, packet, t_final",
    [
        (4.5, 12.0, WavepacketSpec(7.5, 0.3), 1.0),
        (1.5, 3.0, WavepacketSpec(2.2, 0.06), 0.3),
        (3.75, 6.0, WavepacketSpec(4.8, 0.09), 0.5),
    ],
    ids=["right", "left", "mid"],
)
def test_step_is_fourth_order_in_time(x_min, x_max, packet, t_final):
    # at fixed dx the difference from a cfl 0.05 run falls 16x per halving
    # of cfl (measured 15.9-16.1); with dt/5 in place of the Horner dt/4 the
    # step is of third order and it falls 8.0-8.1x.  The packets stay clear
    # of the edges, so that only the step's error shows
    generator = build_generator(GridWindow(x_min, x_max, 256, A1))

    def final_state(cfl):
        solver = SolverConfig(cfl=cfl, t_final=t_final, snapshot_stride=10**9)
        state = evolve(packet, generator, solver).snapshots[-1]
        return np.stack((state.even, state.odd))

    reference = final_state(0.05)
    errors = [np.max(np.abs(final_state(cfl) - reference)) for cfl in (0.8, 0.4, 0.2)]
    assert errors[0] / errors[1] >= 14.0 and errors[1] / errors[2] >= 14.0


def test_step_eigen_allocates_no_grid_sized_array():
    window = GridWindow(x_min=4.5, x_max=12.0, n=4096, a=A1)
    stepper = _stepper(window, SolverConfig())
    values = PACKET.evaluate(window.grid().points())
    pair = np.stack((values, values))
    dt = cfl_dt(window, stepper.generator, 0.5)
    tracemalloc.start()
    try:
        for _ in range(10):
            stepper.step_eigen(pair, dt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < window.n * np.dtype(complex).itemsize  # one complex row


def test_evolve_report_structure_and_t0():
    solver = SolverConfig(t_final=0.5, cfl=0.5, snapshot_stride=64)
    result = evolve(PACKET, build_generator(WINDOW), solver)
    assert result.times[0] == 0.0
    assert result.times[-1] == pytest.approx(0.5, abs=1e-12)
    assert all(t2 > t1 for t1, t2 in zip(result.times, result.times[1:]))
    assert len(result.times) == len(result.snapshots) == len(result.report)
    row0 = result.report[0]
    assert row0.x_inertial == pytest.approx(PACKET.x0, abs=1e-6)
    assert row0.x_rindler == pytest.approx(PACKET.x0, abs=1e-6)
    assert row0.norm_odd == 0.0
    assert row0.norm_even == pytest.approx(row0.norm_inertial, rel=1e-12)


@pytest.mark.parametrize(
    "n, t_final, stride, steps",
    [
        # 2.5 / dt is 42 + 8e-14: a time summed step by step ends short of 2.5
        (64, lambda dt: 2.5, 1, 42),
        # t_final / dt exceeds 9022 by 7e-12, past an absolute 1e-12 guard,
        # which takes a 9023rd step of size 0
        (512, lambda dt: _ulps_above(9022 * dt, 4), 9022, 9022),
    ],
    ids=["short-of-t-final", "zero-last-step"],
)
def test_evolve_ends_exactly_on_t_final(monkeypatch, n, t_final, stride, steps):
    window = GridWindow(x_min=4.5, x_max=12.0, n=n, a=A1)
    generator = build_generator(window)
    t_final = t_final(cfl_dt(window, generator, 0.5))
    sizes = []
    step = TransportStepper.step_eigen

    def recording_step(self, pair, dt):
        sizes.append(dt)
        return step(self, pair, dt)

    monkeypatch.setattr(TransportStepper, "step_eigen", recording_step)
    solver = SolverConfig(t_final=t_final, snapshot_stride=stride)
    times = evolve(PACKET, generator, solver).times
    assert times[-1] == t_final
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
    assert len(sizes) == steps and min(sizes) > 0.0


def _ulps_above(value, count):
    for _ in range(count):
        value = math.nextafter(value, math.inf)
    return value


def test_evolve_snapshots_are_copies_of_the_stepped_state():
    solver = SolverConfig(t_final=0.05, cfl=0.5, snapshot_stride=1)
    result = evolve(PACKET, build_generator(WINDOW), solver)
    x = WINDOW.grid().points()
    assert len(result.snapshots) > 3
    assert np.array_equal(result.snapshots[0].even, PACKET.evaluate(x))
    assert np.all(result.snapshots[0].odd == 0.0)
    assert not np.array_equal(result.snapshots[-2].even, result.snapshots[-1].even)


def test_report_norms_do_not_cancel_across_frames():
    # psi dwarfs psi' by 15 orders: a difference of two-component forms
    # would lose ||psi'|| entirely
    grid = WINDOW.grid()
    x = grid.points()
    psi = 1e6 * PACKET.evaluate(x)
    psi_prime = 1e-9 * WavepacketSpec(x0=9.0, sigma=0.4).evaluate(x)
    pair = np.stack((psi, psi_prime))
    state = EnlargedSpinorField(
        grid=grid, even=0.5 * (psi + psi_prime), odd=0.5 * (psi - psi_prime)
    )
    row = _report_row(0.0, state, pair)
    expected = field_norm(psi_prime, grid.dx)
    assert row.norm_rindler == pytest.approx(expected, rel=1e-12)
    assert row.norm_inertial == pytest.approx(field_norm(psi, grid.dx), rel=1e-12)


def test_report_centers_and_correlations_do_not_cancel_across_frames():
    # the same 15 orders: Pauli-block forms over (even, odd) read
    # x_rindler = 0 and corr_identity = 0 here
    grid = WINDOW.grid()
    x, dx = grid.points(), grid.dx
    psi = 1e6 * PACKET.evaluate(x)
    psi_prime = 1e-9 * WavepacketSpec(x0=9.0, sigma=0.4).evaluate(x)
    state = EnlargedSpinorField(
        grid=grid, even=0.5 * (psi + psi_prime), odd=0.5 * (psi - psi_prime)
    )
    row = _report_row(0.0, state, np.stack((psi, psi_prime)))

    def braket(u, v):
        return np.vdot(u, v) * dx

    x_rindler = braket(psi_prime, x * psi_prime).real / braket(psi_prime, psi_prime).real
    assert x_rindler == pytest.approx(9.0, abs=1e-6)
    assert row.x_rindler == pytest.approx(x_rindler, rel=1e-12)
    x_inertial = braket(psi, x * psi).real / braket(psi, psi).real
    assert row.x_inertial == pytest.approx(x_inertial, rel=1e-12)
    corr = braket(psi, psi_prime)
    assert abs(corr) > 1e-6
    assert row.corr_identity == pytest.approx(corr, rel=1e-12)
    assert row.corr_position == pytest.approx(braket(psi, x * psi_prime), rel=1e-12)


@pytest.mark.parametrize("k0", [3.0, -3.0])
def test_report_correlations_of_complex_fields_keep_their_sign(k0):
    # <psi|psi'> and <psi|x psi'> = sum conj(psi) psi' dx: their conjugates,
    # <psi'|psi>, differ only in the sign of the imaginary part, which a
    # moving packet (k0 != 0) gives the same sign as k0 once the frames part
    solver = SolverConfig(t_final=0.5, snapshot_stride=40)
    result = evolve(WavepacketSpec(x0=7.5, sigma=0.3, k0=k0), build_generator(WINDOW), solver)
    x, dx = WINDOW.grid().points(), WINDOW.dx
    for state, row in zip(result.snapshots[1:], result.report[1:]):
        psi, psi_prime = state.even + state.odd, state.even - state.odd
        corr = np.sum(np.conjugate(psi) * psi_prime) * dx
        assert row.corr_identity == pytest.approx(corr, rel=1e-12)
        assert row.corr_position == pytest.approx(np.sum(np.conjugate(psi) * x * psi_prime) * dx,
                                                  rel=1e-12)
        for value in (row.corr_identity, row.corr_position):
            assert math.copysign(1.0, k0) * value.imag > 1e-2 * abs(value)


def test_growth_between_snapshots_is_caught_at_the_first_snapshot_it_spans(monkeypatch):
    # psi's norm rises after step 13 and falls back after step 27: the
    # snapshot at step 20 sees it, the last snapshot (step 69) does not
    step = TransportStepper.step_eigen
    calls = []

    def rises_and_falls(self, pair, dt):
        step(self, pair, dt)
        calls.append(dt)
        if len(calls) == 13:
            pair *= 1.0 + 10.0 * NORM_GROWTH_TOL
        elif len(calls) == 27:
            pair /= 1.0 + 10.0 * NORM_GROWTH_TOL
        return pair

    monkeypatch.setattr(TransportStepper, "step_eigen", rises_and_falls)
    generator = build_generator(WINDOW)
    with pytest.raises(InstabilityError, match="by step 20 ") as info:
        evolve(PACKET, generator, SolverConfig(t_final=0.5, snapshot_stride=10))
    assert info.value.step_index == 20
    calls.clear()
    result = evolve(PACKET, generator, SolverConfig(t_final=0.5, snapshot_stride=100))
    assert len(calls) == 69 and len(result.times) == 2


def test_overflowing_observables_raise_instability():
    # far out on the right branch the packet's norm overflows though its
    # amplitude is allowed
    window = GridWindow(x_min=1e110, x_max=4e110, n=128, a=A1)
    packet = WavepacketSpec(x0=2.5e110, sigma=1e109, amplitude=1e100)
    with pytest.raises(InstabilityError) as info:
        evolve(packet, build_generator(window), SolverConfig(t_final=0.1))
    assert info.value.step_index == 0


def test_evolve_t_zero_returns_initial_state_only():
    solver = SolverConfig(t_final=0.0)
    result = evolve(PACKET, build_generator(WINDOW), solver)
    assert len(result.times) == 1
    assert result.report[0].t == 0.0
    assert result.report[0].x_inertial == pytest.approx(PACKET.x0, abs=1e-6)


def test_evolve_norm_conservation_and_amplitude_transport():
    solver = SolverConfig(t_final=1.0, cfl=0.5, snapshot_stride=100)
    result = evolve(PACKET, build_generator(WINDOW), solver)
    norms = [row.norm_inertial for row in result.report]
    assert max(abs(n / norms[0] - 1.0) for n in norms) <= 1e-6
    # value transport keeps the accelerated-frame peak within 2%
    peak0 = np.max(np.abs(result.snapshots[0].even - result.snapshots[0].odd))
    for snap in result.snapshots:
        peak = np.max(np.abs(snap.even - snap.odd))
        assert abs(peak / peak0 - 1.0) <= 0.02


def test_wide_packet_run_centers():
    # a sigma=0.5 packet only 3 sigma from the left edge: boundary noise
    # rules out tight error bounds, but the frame centers stay good
    window = GridWindow(x_min=4.5, x_max=12.0, n=2048, a=A1)
    solver = SolverConfig(t_final=1.0, cfl=0.5, snapshot_stride=2000)
    with pytest.warns(UserWarning):
        result = evolve(
            WavepacketSpec(x0=6.0, sigma=0.5), build_generator(window), solver
        )
    final = result.report[-1]
    assert final.x_inertial == pytest.approx(7.00, abs=0.01)
    assert final.x_rindler == pytest.approx(6.93, abs=0.02)


def test_packet_outside_window_is_rejected():
    solver = SolverConfig(t_final=0.1)
    with pytest.raises(ConfigError):
        evolve(WavepacketSpec(x0=20.0, sigma=0.3), build_generator(WINDOW), solver)


def test_packet_far_from_its_center_is_zero_without_warning():
    # (x - x0)^2 overflows here; exp(-inf) = 0 is the value
    assert WavepacketSpec(6.0, 0.3).evaluate([1e200]).tolist() == [0j]
    # a width close to the narrowest whose 2 sigma^2 is a nonzero double
    assert WavepacketSpec(0.0, 1e-161).evaluate([0.0, 1e-150]).tolist() == [1, 0]


@pytest.mark.parametrize("sigma", [1e-200, 1e200])
def test_packet_width_whose_square_is_not_a_double_is_rejected(sigma):
    # 2 sigma^2 would underflow to 0 or overflow, and evaluate divides by it
    with pytest.raises(ConfigError, match="packet width"):
        WavepacketSpec(x0=7.5, sigma=sigma)


@pytest.mark.parametrize(
    "amplitude", [1e-310, 1e-160, 1e-101, -1e-101, 1e101, 1e200, math.nan, math.inf]
)
def test_packet_amplitude_outside_the_normal_range_is_rejected(amplitude):
    # squares of such a packet leave the normal doubles: below, the report
    # norms lost digits (1e-160) or read 0; above, its observables
    # overflowed at t = 0 and the run exited as unstable
    with pytest.raises(ConfigError, match="packet amplitude"):
        WavepacketSpec(x0=7.5, sigma=0.3, amplitude=amplitude)


def test_marginal_packet_warns():
    solver = SolverConfig(t_final=0.0)
    with pytest.warns(UserWarning):
        evolve(WavepacketSpec(x0=6.0, sigma=0.5), build_generator(WINDOW), solver)


def test_instability_detected_for_oversized_steps(monkeypatch):
    import rindlersim.evolution as evolution

    # steps 50 times the cfl = 1 limit, which no SolverConfig allows
    def huge_dt(window, generator, cfl):
        return 50.0 * window.dx / generator.max_speed

    monkeypatch.setattr(evolution, "cfl_dt", huge_dt)
    gen = build_generator(WINDOW)
    solver = SolverConfig(t_final=400 * huge_dt(WINDOW, gen, 1.0), snapshot_stride=10**6)
    with pytest.raises(InstabilityError), np.errstate(over="ignore", invalid="ignore"):
        evolve(PACKET, gen, solver)


def test_step_count_is_bounded_before_the_first_step(monkeypatch):
    # a run of MAX_STEPS steps runs; one step more is a ConfigError
    monkeypatch.setattr(evolution, "MAX_STEPS", 40)
    generator = build_generator(WINDOW)
    dt = cfl_dt(WINDOW, generator, 0.5)
    result = evolve(PACKET, generator, SolverConfig(t_final=40.0 * dt, snapshot_stride=40))
    assert result.times[-1] == pytest.approx(40.0 * dt, rel=1e-12)
    with pytest.raises(ConfigError, match="too many steps"):
        evolve(PACKET, generator, SolverConfig(t_final=41.0 * dt))
    for cfl in (1e-200, 5e-324):  # 1e202 steps, and a step that underflows to 0
        with pytest.raises(ConfigError, match="too many steps"):
            evolve(PACKET, generator, SolverConfig(cfl=cfl))


@pytest.mark.parametrize("t_steps, stride", [(0, 1), (1, 1), (40, 1), (40, 3), (40, 40), (40, 41)])
def test_snapshot_samples_are_bounded_before_the_first_step(monkeypatch, t_steps, stride):
    # a run of MAX_SNAPSHOT_SAMPLES samples in its snapshots runs; one
    # sample fewer allowed is a ConfigError, raised before any stepper exists
    generator = build_generator(WINDOW)
    solver = SolverConfig(t_final=t_steps * cfl_dt(WINDOW, generator, 0.5), snapshot_stride=stride)
    samples = len(evolve(PACKET, generator, solver).snapshots) * WINDOW.n
    monkeypatch.setattr(evolution, "MAX_SNAPSHOT_SAMPLES", samples)
    assert len(evolve(PACKET, generator, solver).snapshots) * WINDOW.n == samples
    monkeypatch.setattr(evolution, "MAX_SNAPSHOT_SAMPLES", samples - 1)
    monkeypatch.setattr(evolution, "TransportStepper", None)
    with pytest.raises(ConfigError, match="too many snapshot samples"):
        evolve(PACKET, generator, solver)


@pytest.mark.parametrize("amplitude", [1e-100, -1e-100, 1e100])
def test_observables_are_linear_in_the_amplitude(amplitude):
    # at the ends of the allowed range the run completes, and its report
    # is the amplitude-1 report scaled
    window = GridWindow(x_min=3.75, x_max=6.0, n=256, a=A1)
    solver = SolverConfig(t_final=0.3, snapshot_stride=8)
    unit, scaled = (
        evolve(WavepacketSpec(x0=4.8, sigma=0.1, amplitude=amp), build_generator(window), solver)
        for amp in (1.0, amplitude)
    )
    assert scaled.times == unit.times
    for row, unit_row in zip(scaled.report, unit.report):
        for name in ("norm_even", "norm_odd", "norm_inertial", "norm_rindler"):
            expected = abs(amplitude) * getattr(unit_row, name)
            assert getattr(row, name) == pytest.approx(expected, rel=1e-13)
        assert row.x_inertial == pytest.approx(unit_row.x_inertial, rel=1e-13)
        assert row.x_rindler == pytest.approx(unit_row.x_rindler, rel=1e-13)
        expected = amplitude**2 * unit_row.corr_identity
        assert row.corr_identity == pytest.approx(expected, rel=1e-13)


def test_mass_crossing_the_edge_samples_is_not_growth():
    # SBP-SAT bounds the SBP norm of psi, not the plain one: while the
    # packet leaves through the right edge, its mass crosses samples of
    # norm weight above 1, and the plain norm rises
    window = GridWindow(x_min=4.5, x_max=12.0, n=256, a=A1)
    dx = window.dx
    packet = WavepacketSpec(x0=12.0 - 10.5 * dx, sigma=dx)
    solver = SolverConfig(t_final=30.0 * dx + 0.5, snapshot_stride=1)
    result = evolve(packet, build_generator(window), solver)
    norms = [row.norm_inertial for row in result.report]
    assert max(norms) > norms[0] * (1.0 + 100.0 * NORM_GROWTH_TOL)


def test_sbp_sat_outflow_lets_the_packet_leave():
    # run long enough for the packet to hit the right edge; the SBP-SAT
    # closure must let it out without reflecting or blowing up
    solver = SolverConfig(t_final=6.0, cfl=0.5, snapshot_stride=2000)
    result = evolve(WavepacketSpec(x0=8.0, sigma=0.3), build_generator(WINDOW), solver)
    final = result.report[-1]
    assert final.norm_inertial <= 0.05 * result.report[0].norm_inertial
    interior = np.abs(result.snapshots[-1].even + result.snapshots[-1].odd)[:400]
    assert np.max(interior) <= 1e-3


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(cfl=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(cfl=1.5)
    for t_final in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            SolverConfig(t_final=t_final)
    with pytest.raises(ConfigError):
        SolverConfig(snapshot_stride=0)
    with pytest.raises(ConfigError):
        WavepacketSpec(x0=6.0, sigma=0.0)
