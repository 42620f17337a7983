"""Layer benches on pytest-benchmark: coefficient sampling, the
characteristics oracle and the RK4 stepper, each timed on its own.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/bench_layers.py --benchmark-only

The file name does not match test_*.py and benchmarks/ lies outside the
`testpaths` of pyproject.toml, so the tier-1 suite never collects it.
"""

import numpy as np
import pytest

from rindlersim import Acceleration, Grid, GridWindow, WavepacketSpec
from rindlersim.evolution import SolverConfig, TransportStepper, build_generator, cfl_dt
from rindlersim.hamiltonian import coefficient_arrays
from rindlersim.oracle import backtrace_origins, transport_speed

A1 = Acceleration(1.0)
# the demos/04 geometry: grid [4.5, 12], characteristics may cross down to 3.7
DEMO04_GRID = Grid(4.5, 12.0, 2048)
DEMO04_COVERAGE = GridWindow(3.7, 12.0, 2048, A1)


def test_coefficient_arrays_2048(benchmark):
    u = np.linspace(4.5, 12.0, 2048)
    f, g, _ = benchmark(coefficient_arrays, u)
    assert np.max(np.abs(f + g - 1.0)) <= 1e-10


def test_backtrace_origins_demo04(benchmark):
    # default substep dx / (4 max|c|) over t = 0.05: 55 RK4 substeps
    x = DEMO04_GRID.points()
    speed = transport_speed(DEMO04_COVERAGE)
    substep = 0.25 * DEMO04_GRID.dx / float(np.max(np.abs(speed(x))))
    origins = benchmark(backtrace_origins, x, 0.05, speed, substep, 3.7, 12.0)
    assert np.all(np.diff(origins) > 0.0)


@pytest.mark.parametrize("n", [512, 16384])
def test_step_eigen(benchmark, n):
    window = GridWindow(4.5, 12.0, n, A1)
    stepper = TransportStepper(build_generator(window), SolverConfig())
    values = WavepacketSpec(x0=7.5, sigma=0.3).evaluate(window.grid().points())
    start = np.stack((values, values))
    dt = cfl_dt(window, stepper.generator, 0.5)
    stepper.step_eigen(start.copy(), dt)  # caches exp(-dt sigma)
    # every round steps a fresh copy of the packet, so no round runs on a
    # field that has had time to grow at the inflow edge
    benchmark.pedantic(
        stepper.step_eigen,
        setup=lambda: ((start.copy(), dt), {}),
        rounds=200 if n <= 2048 else 40,
    )
