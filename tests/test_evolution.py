import math
import tracemalloc

import numpy as np
import pytest

from rindlersim.coords import Acceleration
from rindlersim.embedding import EnlargedSpinorField, Grid, field_norm
from rindlersim import evolution
from rindlersim.errors import ConfigError, InstabilityError
from rindlersim.evolution import (
    NORM_GROWTH_TOL,
    GridWindow,
    SolverConfig,
    TransportStepper,
    WavepacketSpec,
    _derivative_central4,
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
    window = GridWindow(x_min=x_min, x_max=x_max, n=256, a=A1)
    stepper = _stepper(window, SolverConfig())
    rng = np.random.default_rng(7)
    pair = rng.standard_normal((2, window.n)) + 1j * rng.standard_normal((2, window.n))
    out = stepper._rhs(pair, np.empty_like(pair))
    gen = stepper.generator
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


def _closure_matrix(n):
    """The SBP(4,2) derivative as a dense matrix on a unit-spaced grid."""
    return _derivative_central4(np.eye(n), 1.0)


def _norm_matrix(n):
    h = np.ones(n)
    h[:4] = h[-4:][::-1] = (17.0 / 48.0, 59.0 / 48.0, 43.0 / 48.0, 49.0 / 48.0)
    return np.diag(h)


def test_closure_is_summation_by_parts():
    n = 64
    Q = _norm_matrix(n) @ _closure_matrix(n)
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


def test_upwind_norm_never_rises():
    """upwind1 takes one-sided differences, and at an inflow edge reads a
    zero sample beyond it: the SAT zero-inflow penalty of a first-order
    upwind operator.  Its norm never rises, and the field decays to 0
    once the packet has left."""
    solver = SolverConfig(scheme="upwind1", t_final=12.0, snapshot_stride=10)
    result = evolve(WavepacketSpec(x0=6.0, sigma=0.15), build_generator(WINDOW), solver)
    norms = [row.norm_inertial for row in result.report]
    assert all(n2 <= n1 for n1, n2 in zip(norms, norms[1:]))
    assert norms[-1] <= 1e-30 * norms[0]


@pytest.mark.parametrize(
    "scheme", ["central4", "upwind1"], ids=["central4-sponge", "upwind1-sponge"]
)
def test_step_eigen_allocates_no_grid_sized_array(scheme):
    window = GridWindow(x_min=4.5, x_max=12.0, n=4096, a=A1)
    stepper = _stepper(window, SolverConfig(scheme=scheme))
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


def test_upwind_scheme_is_stable_and_dissipative():
    solver = SolverConfig(scheme="upwind1", t_final=1.0, cfl=0.5, snapshot_stride=200)
    result = evolve(PACKET, build_generator(WINDOW), solver)
    norms = [row.norm_inertial for row in result.report]
    assert all(n2 <= n1 + 1e-12 for n1, n2 in zip(norms, norms[1:]))
    # still transports: the packet moved right by roughly t
    assert result.report[-1].x_inertial == pytest.approx(PACKET.x0 + 1.0, abs=0.05)


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(cfl=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(cfl=1.5)
    with pytest.raises(ConfigError):
        SolverConfig(scheme="spectral")
    for t_final in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            SolverConfig(t_final=t_final)
    with pytest.raises(ConfigError):
        SolverConfig(snapshot_stride=0)
    with pytest.raises(ConfigError):
        WavepacketSpec(x0=6.0, sigma=0.0)
