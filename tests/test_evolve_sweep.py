"""A property sweep of `rindlersim evolve` over windows on either
branch, grids, packets, cfl and modes: every run exits cleanly,
psi's SBP norm never rises, and psi' keeps near the zero-inflow
characteristics reference on the run's own window."""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import event, given, settings
from hypothesis import strategies as st

from rindlersim._sbp import norm_weights
from rindlersim.cli import main
from rindlersim.coords import Acceleration
from rindlersim.errors import RindlerSimError
from rindlersim.evolution import GridWindow, WavepacketSpec, cfl_dt
from rindlersim.hamiltonian import SINGULAR_MARGIN, U_MAX, find_singularity
from rindlersim.oracle import characteristics_rindler
from rindlersim.runner import load_config

U_STAR = find_singularity(Acceleration(1.0)).u_star  # of u = a x, the same for every a
# The sweep's bound on max|psi' - reference|, for runs of at most 40 steps:
# DX_BOUND * amplitude * dx / l, with l the packet's width shortened by
# its carrier wavelength, plus twice the packet's value at the window
# edges, from which the zero inflow data jump.  Of 11200 random draws
# (seven hypothesis seeds of 1600), 1815 ran with no such jump, and
# there the error reached 0.40 dx / l times the amplitude: the bound is
# four times that.
DX_BOUND = 1.6


def branch_u(left: bool, s: float) -> float:
    """u = a x on one branch, log-spaced in s from 0 to 1: from 1 + 1e-12
    to the lower edge of the singular band on the left, from its upper
    edge to U_MAX on the right."""
    if left:
        return 1.0 + 10.0 ** (-12.0 + s * (12.0 + math.log10(U_STAR - SINGULAR_MARGIN - 1.0)))
    low = U_STAR + SINGULAR_MARGIN
    return low * (U_MAX / low) ** s


@st.composite
def evolve_configs(draw):
    """An evolve config: a window on either branch, any grid, packet,
    cfl and mode, and t_final a drawn number of CFL steps (at
    most 40), so that every run is short."""
    a = draw(st.floats(0.1, 10.0))
    left = draw(st.booleans())
    s_lo = draw(st.floats(0.0, 1.0, exclude_max=True))
    s_hi = s_lo + (1.0 - s_lo) * draw(st.floats(0.0, 1.0, exclude_min=True))
    x_min, x_max = branch_u(left, s_lo) / a, branch_u(left, s_hi) / a
    width = x_max - x_min
    sigma = width * 10.0 ** -draw(st.floats(0.5, 3.0))
    mode = draw(st.sampled_from(["exact", "galileo", "ultra"]))
    config = {
        "a": a,
        "window": {"x_min": x_min, "x_max": x_max, "N": draw(st.integers(64, 1024))},
        "packet": {
            "x0": x_min + width * draw(st.floats(0.2, 0.8)),
            "sigma": sigma,
            "k0": draw(st.floats(-2.0, 2.0)) / sigma if sigma > 0.0 else 0.0,
            # half the draws inside the allowed range, half from
            # subnormals to near the largest double
            "amplitude": 10.0 ** draw(st.floats(-100.0, 100.0) | st.floats(-320.0, 308.0)),
        },
        "time": {
            "t_final": 0.0,
            "cfl": draw(st.floats(0.0, 1.0, exclude_min=True)),
            "snapshot_stride": draw(st.integers(1, 40)),
        },
        "scheme": {"derivative": "central4"},
        "mode": {"kind": "ultra", "delta": draw(st.floats(1e-12, 0.9))}
        if mode == "ultra"
        else mode,
    }
    steps = draw(st.integers(0, 40))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            loaded = load_config(config)
    except RindlerSimError:
        return config  # rejected before its run, whatever t_final is
    dt = cfl_dt(loaded.window, loaded.generator, loaded.solver.cfl)
    config["time"]["t_final"] = steps * dt
    return config


def run_cli(config):
    """(exit code, stderr, warnings, snapshot tables, report) of one
    `rindlersim evolve` run in this process."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(
            stderr
        ), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(["evolve", "--config", str(path), "--out", str(out)])
        tables, report = [], None
        if code == 0:
            tables = [
                np.loadtxt(snap, delimiter=",", skiprows=1, ndmin=2)
                for snap in sorted(out.glob("snapshot_*.csv"))
            ]
            report = json.loads((out / "report.json").read_text())
    return code, stderr.getvalue(), caught, tables, report


def sbp_norm(values):
    """The SBP norm over dx, summed on values scaled to their peak so that
    tiny values keep their digits."""
    weights = norm_weights(values.size)
    peak = np.max(np.abs(values))
    if peak == 0.0:
        return 0.0
    return peak * math.sqrt(np.sum(weights * np.abs(values / peak) ** 2))


def check_run(config):
    """Exit 0, 2 or 3 with no traceback or numpy warning; on exit 0 psi's
    SBP norm never rises from snapshot to snapshot and psi' keeps within
    the bound of the zero-inflow reference.  Returns the error over its
    bound (0 for a run that exits 2 or 3)."""
    code, stderr, caught, tables, report = run_cli(config)
    event(f"exit {code}")
    assert code in (0, 2, 3), stderr
    numpy_warnings = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not numpy_warnings, [str(w.message) for w in numpy_warnings]
    if code == 3:
        # only overflow: psi's SBP norm never rises
        assert stderr.startswith("instability: non-finite observables"), stderr
    if code != 0:
        return 0.0
    norms = [sbp_norm(table[:, 5] + 1j * table[:, 6]) for table in tables]
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(norms, norms[1:])), norms
    window, mode = config["window"], config["mode"]
    mode, delta = (mode, None) if isinstance(mode, str) else (mode["kind"], mode["delta"])
    grid_window = GridWindow(
        window["x_min"], window["x_max"], window["N"], Acceleration(config["a"])
    )
    packet = WavepacketSpec(**config["packet"])
    reference = characteristics_rindler(
        packet, report["rows"][-1]["t"], grid_window, mode, delta
    )
    final = tables[-1]
    error = np.max(np.abs(final[:, 7] + 1j * final[:, 8] - reference.values))
    length = packet.sigma / (1.0 + abs(packet.k0) * packet.sigma)
    jump = np.max(np.abs(packet.evaluate([grid_window.x_min, grid_window.x_max])))
    bound = DX_BOUND * packet.amplitude * grid_window.dx / length + 2.0 * jump
    return error / bound


@settings(max_examples=200)
@given(evolve_configs())
def test_every_drawn_run_exits_cleanly_and_tracks_the_reference(config):
    assert check_run(config) <= 1.0
