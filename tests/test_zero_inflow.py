"""psi' of the solver against the zero-inflow characteristics reference
on the run's own window: convergence gates and an absolute bound on the
demos/04 geometry.  tests/test_evolve_sweep.py checks the same reference
over drawn runs."""

import pytest

from rindlersim.coords import Acceleration
from rindlersim.embedding import extract_rindler
from rindlersim.evolution import GridWindow, SolverConfig, WavepacketSpec, build_generator, evolve
from rindlersim.oracle import characteristics_rindler, compare

A1 = Acceleration(1.0)


def psi_prime_error(x_min, x_max, n, packet, t_final):
    """Max |psi' - reference| at t_final on [x_min, x_max] with n points."""
    window = GridWindow(x_min, x_max, n, A1)
    solver = SolverConfig(t_final=t_final, snapshot_stride=10**9)
    result = evolve(packet, build_generator(window), solver)
    reference = characteristics_rindler(packet, result.times[-1], window)
    return compare(extract_rindler(result.snapshots[-1]), reference).linf_abs


@pytest.mark.parametrize(
    "x_min, x_max, packet, t_final, ratio",
    [
        (4.5, 12.0, WavepacketSpec(6.0, 0.15), 1.0, 14.0),
        (1.5, 3.0, WavepacketSpec(2.0, 0.05), 0.5, 14.0),
        (3.75, 6.0, WavepacketSpec(4.8, 0.1), 0.5, 14.0),
        (1.0 + 1e-9, 1.4, WavepacketSpec(1.16, 0.015), 0.1, 14.0),
        # crosses the outflow edge 12 by t = 1, where the closure is of order 2
        pytest.param(
            4.5, 12.0, WavepacketSpec(11.0, 0.15), 1.0, 7.0,
            marks=pytest.mark.filterwarnings("ignore:packet support:UserWarning"),
        ),
    ],
    ids=["right", "left", "straddle", "near-horizon", "outflow-crossing"],
)
def test_psi_prime_converges_to_the_zero_inflow_reference(x_min, x_max, packet, t_final, ratio):
    # the error falls at least `ratio` times per halving of dx, N 512 -> 1024 -> 2048
    errors = [psi_prime_error(x_min, x_max, n, packet, t_final) for n in (512, 1024, 2048)]
    assert errors[0] / errors[1] >= ratio and errors[1] / errors[2] >= ratio


def test_psi_prime_error_on_the_demo04_geometry():
    # measured 4.06e-7 of the packet peak at N = 2048
    assert psi_prime_error(4.5, 12.0, 2048, WavepacketSpec(6.0, 0.15), 1.0) <= 6e-7
