"""Layer benches on pytest-benchmark: the cold start of the singularity
and coeffs CLI children and of the imports of evolve, config loading,
coefficient sampling, both routes of the characteristics oracle, the
stepper's construction, the RK4 step at N = 512, 2048 and 16384 (in one
process), one whole evolve of the longest long_horizon run, of the
fine_grid geometry and of an N = 8192 run with a snapshot every 10
steps (in the last two psi' is stepped by a forked partner where evolve
splits, and the second sends its row across 28 times), one snapshot's
report row, one snapshot CSV at N = 2048 and at N = 16384, and the
report.json of a demos/04 run, each timed on its own.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/bench_layers.py --benchmark-only

The file name does not match test_*.py and benchmarks/ lies outside the
`testpaths` of pyproject.toml, so the tier-1 suite never collects it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rindlersim import Acceleration, GridWindow, WavepacketSpec
from rindlersim.embedding import EnlargedSpinorField, extract_inertial, extract_rindler
from rindlersim.evolution import (
    SolverConfig,
    TransportStepper,
    _report_row,
    build_generator,
    cfl_dt,
    evolve,
)
from rindlersim.hamiltonian import coefficient_arrays
from rindlersim.oracle import backtrace_origins, transport_speed, travel_time_origins
from rindlersim.runner import _report_payload, _write_snapshot, load_config

SRC = Path(__file__).resolve().parents[1] / "src"

A1 = Acceleration(1.0)
# the demos/04 geometry
DEMO04_WINDOW = GridWindow(4.5, 12.0, 2048, A1)
DEMO04_GRID = DEMO04_WINDOW.grid()
# The RK4 trace has no inflow rule: from the demos/04 grid its traces run
# below 4.5, so it gets a valid region down to 3.7.
TRACE_LO = 3.7
# the demos/04 configuration, without its output directory
DEMO04_CONFIG = {
    "a": 1.0,
    "window": {"x_min": 4.5, "x_max": 12.0, "N": 2048},
    "packet": {"x0": 6.0, "sigma": 0.15, "k0": 0.0, "amplitude": 1.0},
    "time": {"t_final": 1.0, "cfl": 0.5, "snapshot_stride": 250},
    "scheme": {"derivative": "central4", "boundary": "sponge"},
    "mode": "exact",
}


def test_load_config_demo04(benchmark):
    # validation plus the one generator build of a run
    config = benchmark(load_config, DEMO04_CONFIG)
    assert config.window.n == 2048


def test_coefficient_arrays_2048(benchmark):
    u = np.linspace(4.5, 12.0, 2048)
    f, g, _ = benchmark(coefficient_arrays, u)
    assert np.max(np.abs(f + g - 1.0)) <= 1e-10


def test_backtrace_origins_demo04(benchmark):
    # default substep dx / (4 max|c|) over t = 0.05: 55 RK4 substeps
    x = DEMO04_GRID.points()
    speed = transport_speed(DEMO04_WINDOW)
    substep = 0.25 * DEMO04_GRID.dx / float(np.max(np.abs(speed(x))))
    origins = benchmark(backtrace_origins, x, 0.05, speed, substep, TRACE_LO, 12.0)
    assert np.all(np.diff(origins) > 0.0)


def test_travel_time_origins_demo04(benchmark):
    # the route characteristics_rindler takes, at the default substep over
    # the whole t = 1 of a demos/04 run, on its window: NaN where a
    # characteristic entered through 4.5
    x = DEMO04_GRID.points()
    speed = transport_speed(DEMO04_WINDOW)
    substep = 0.25 * DEMO04_GRID.dx / float(np.max(np.abs(speed(x))))
    origins = benchmark(travel_time_origins, x, 1.0, speed, substep, 4.5, 12.0)
    entered = np.isnan(origins)
    assert entered[0] and np.all(np.diff(origins[~entered]) > 0.0)


def demo04_snapshot(grid=DEMO04_GRID):
    """A two-component state on the demos/04 grid, or on another grid of
    its window, with psi and psi' two packets apart, and its transported
    pair (psi, psi')."""
    x = grid.points()
    psi = WavepacketSpec(x0=7.0, sigma=0.15, k0=2.0).evaluate(x)
    psi_prime = WavepacketSpec(x0=6.9, sigma=0.14, k0=2.0).evaluate(x)
    state = EnlargedSpinorField(grid, 0.5 * (psi + psi_prime), 0.5 * (psi - psi_prime))
    return state, np.stack((extract_inertial(state).values, extract_rindler(state).values))


def test_report_row_2048(benchmark):
    state, pair = demo04_snapshot()
    row = benchmark(_report_row, 0.0, state, pair)
    assert row.norm_inertial > 0.0


def test_write_snapshot_2048(benchmark, tmp_path):
    state, _ = demo04_snapshot()
    path = tmp_path / "snapshot.csv"
    benchmark(_write_snapshot, path, DEMO04_GRID.points(), state)
    assert path.stat().st_size > 0


def test_write_snapshot_16384(benchmark, tmp_path):
    # the size of a fine_grid snapshot
    grid = GridWindow(4.5, 12.0, 16384, A1).grid()
    state, _ = demo04_snapshot(grid)
    path = tmp_path / "snapshot.csv"
    benchmark(_write_snapshot, path, grid.points(), state)
    assert path.stat().st_size > 0


def test_write_report_demo04(benchmark, tmp_path):
    # report.json of a demos/04 run (5 rows), as cmd_evolve writes it
    config = load_config(DEMO04_CONFIG)
    result = evolve(config.packet, config.generator, config.solver)
    path = tmp_path / "report.json"

    def write_report():
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(_report_payload(config, result), handle, indent=2, sort_keys=True)
            handle.write("\n")

    benchmark(write_report)
    assert len(json.loads(path.read_text())["rows"]) == len(result.snapshots)


@pytest.mark.parametrize("command", ["singularity", "coeffs", "runner"])
def test_cold_start(benchmark, tmp_path, command):
    # a fresh interpreter: the singularity and coeffs CLI children, and
    # the import of rindlersim.runner, which is what evolve loads.  No
    # bytecode is written (as in perfbench's children), so without a
    # __pycache__ under src every round compiles the sources
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    argv = {
        "singularity": ["-m", "rindlersim", "singularity", "--json"],
        "coeffs": ["-m", "rindlersim", "coeffs", "--out", str(tmp_path / "coeffs.csv")],
        "runner": ["-c", "import rindlersim.runner"],
    }[command]
    kwargs = {"env": env, "check": True, "stdout": subprocess.DEVNULL}
    benchmark.pedantic(subprocess.run, ([sys.executable, *argv],), kwargs, rounds=20)


def test_transport_stepper_2048(benchmark):
    # speeds, SBP closure rows with the folded SAT weights, work buffers
    generator = build_generator(GridWindow(4.5, 12.0, 2048, A1))
    benchmark(TransportStepper, generator, SolverConfig())


@pytest.mark.parametrize("n", [512, 2048, 16384])
def test_step_eigen(benchmark, n):
    window = GridWindow(4.5, 12.0, n, A1)
    stepper = TransportStepper(build_generator(window), SolverConfig())
    values = WavepacketSpec(x0=7.5, sigma=0.3).evaluate(window.grid().points())
    start = np.stack((values, values))
    dt = cfl_dt(window, stepper.generator, 0.5)
    # every round steps a fresh copy of the packet
    benchmark.pedantic(
        stepper.step_eigen,
        setup=lambda: ((start.copy(), dt), {}),
        rounds=200 if n <= 2048 else 40,
    )


def test_evolve_long_horizon(benchmark):
    # the longest run of perfbench's long_horizon workload: [1.5, 3] at
    # N = 512 to t = 2.5, 2657 steps, a snapshot every 106 of them
    window = GridWindow(1.5, 3.0, 512, A1)
    generator = build_generator(window)
    packet = WavepacketSpec(x0=2.0, sigma=0.05, k0=0.0)
    solver = SolverConfig(t_final=2.5, snapshot_stride=106)
    result = benchmark.pedantic(evolve, (packet, generator, solver), rounds=5)
    assert len(result.times) == 2657 // 106 + 2


def test_evolve_fine_grid(benchmark):
    # perfbench's fine_grid geometry: [4.5, 12] at N = 16384 to t = 0.0625,
    # 274 steps and two snapshots; evolve steps psi' in a forked partner
    # where its split rule admits the run (two CPUs or more)
    window = GridWindow(4.5, 12.0, 16384, A1)
    generator = build_generator(window)
    packet = WavepacketSpec(x0=7.5, sigma=0.15, k0=0.0)
    solver = SolverConfig(t_final=0.0625, snapshot_stride=1_000_000)
    result = benchmark.pedantic(evolve, (packet, generator, solver), rounds=10)
    assert len(result.times) == 2


def test_evolve_split_snapshots(benchmark):
    # [4.5, 12] at N = 8192 to t = 0.125, 274 steps with a snapshot every
    # 10 of them: where evolve splits, the partner sends psi' (128 KiB)
    # down its pipe at each of the 28 snapshots after t = 0
    window = GridWindow(4.5, 12.0, 8192, A1)
    generator = build_generator(window)
    packet = WavepacketSpec(x0=7.5, sigma=0.15, k0=0.0)
    solver = SolverConfig(t_final=0.125, snapshot_stride=10)
    result = benchmark.pedantic(evolve, (packet, generator, solver), rounds=10)
    assert len(result.times) == 29
