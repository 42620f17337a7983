"""The one validation path: each value type that sets up a run checks the
types of its own fields when it is built (errors.number and
errors.integer), and hamiltonian checks a mode's delta, so values built
in code meet the same rules as values read from a config file."""

import json
import math
import os

import numpy as np
import pytest

from rindlersim.cli import main
from rindlersim.coords import U_STAR, Acceleration
from rindlersim.embedding import Grid
from rindlersim.errors import ConfigError, CoordinateDomainError
from rindlersim.evolution import GridWindow, SolverConfig, WavepacketSpec, build_generator
from rindlersim.hamiltonian import ultra_coefficients, ultra_f_delta
from rindlersim.oracle import transport_speed
from rindlersim.runner import load_config
from rindlersim.scans import cmd_coeffs, cmd_limits

A1 = Acceleration(1.0)

# (type, valid arguments): each test changes one field
_VALID = {
    Acceleration: {"a": 1.0},
    Grid: {"x_min": 0.0, "x_max": 1.0, "n": 100},
    GridWindow: {"x_min": 4.5, "x_max": 12.0, "n": 256, "a": A1},
    WavepacketSpec: {"x0": 7.5, "sigma": 0.3, "k0": 0.0, "amplitude": 1.0},
    SolverConfig: {"cfl": 0.5, "t_final": 0.1, "snapshot_stride": 1},
}
# (type, field, the name its message gives)
_NUMBERS = [
    (Acceleration, "a", "a"),
    (Grid, "x_min", "x_min"),
    (Grid, "x_max", "x_max"),
    (GridWindow, "x_min", "x_min"),
    (GridWindow, "x_max", "x_max"),
    (WavepacketSpec, "x0", "x0"),
    (WavepacketSpec, "sigma", "sigma"),
    (WavepacketSpec, "k0", "k0"),
    (WavepacketSpec, "amplitude", "amplitude"),
    (SolverConfig, "cfl", "cfl"),
    (SolverConfig, "t_final", "t_final"),
]
_INTEGERS = [
    (Grid, "n", "N"),
    (GridWindow, "n", "N"),
    (SolverConfig, "snapshot_stride", "snapshot_stride"),
]


def _build(kind, field, value):
    return kind(**dict(_VALID[kind], **{field: value}))


def _ids(cases):
    return [f"{kind.__name__}.{field}" for kind, field, _ in cases]


@pytest.mark.parametrize("kind, field, name", _NUMBERS, ids=_ids(_NUMBERS))
@pytest.mark.parametrize(
    "value, message",
    [
        (True, "must be a number, got True"),
        ("0.3", "must be a number, got '0.3'"),
        (None, "must be a number, got None"),
        (math.nan, "must be finite, got nan"),
        (math.inf, "must be finite, got inf"),
        (-math.inf, "must be finite, got -inf"),
        (10**400, "must be finite, got an integer beyond a double"),
    ],
    ids=["bool", "string", "none", "nan", "inf", "-inf", "int-beyond-double"],
)
def test_a_number_field_of_the_wrong_type_is_rejected_when_built(
    kind, field, name, value, message
):
    with pytest.raises(ConfigError) as caught:
        _build(kind, field, value)
    assert str(caught.value) == f"{name} {message}"


@pytest.mark.parametrize("kind, field, name", _INTEGERS, ids=_ids(_INTEGERS))
@pytest.mark.parametrize("value", [2.5, 2048.0, True, "64", None],
                         ids=["2.5", "2048.0", "bool", "string", "none"])
def test_an_integer_field_of_the_wrong_type_is_rejected_when_built(kind, field, name, value):
    with pytest.raises(ConfigError) as caught:
        _build(kind, field, value)
    assert str(caught.value) == f"{name} must be an integer, got {value!r}"


def test_number_fields_are_held_as_floats():
    # JSON integers and numpy scalars become the floats a report echoes
    packet = WavepacketSpec(7, np.float64(0.25), k0=0, amplitude=1)
    assert [type(v) for v in vars(packet).values()] == [float] * 4
    assert type(Acceleration(1).a) is float
    window = GridWindow(np.float64(4.5), 12, 256, Acceleration(np.float64(1.0)))
    assert (type(window.x_min), type(window.x_max), window.n) == (float, float, 256)
    solver = SolverConfig(cfl=1, t_final=np.float64(0.5))
    assert (type(solver.cfl), type(solver.t_final)) == (float, float)


def test_values_the_benchmark_builds_still_load():
    # perfbench builds its oracle's grid from numpy samples and len()
    x = GridWindow(4.5, 12.0, 2048, A1).points()
    grid = Grid(x[0], x[-1], len(x))
    assert (grid.x_min, grid.x_max, grid.n) == (4.5, 12.0, 2048)
    assert np.array_equal(grid.points(), x)
    assert WavepacketSpec(*np.array([7.0, 0.15, 1.0])) == WavepacketSpec(7.0, 0.15, 1.0)


def test_a_grid_window_needs_an_acceleration():
    with pytest.raises(ConfigError, match=r"^a must be an Acceleration, got 1\.0$"):
        GridWindow(4.5, 12.0, 256, 1.0)


def test_a_grid_of_more_samples_than_a_double_counts_is_rejected():
    with pytest.raises(ConfigError, match="at most 2\\*\\*53, got 9007199254740993"):
        Grid(-1e300, 1e300, 2**53 + 1)
    with pytest.raises(ConfigError, match="at most 2\\*\\*53"):
        Grid(0.0, 1.0, 10**400)


@pytest.mark.parametrize(
    "call",
    [
        lambda delta: ultra_f_delta(delta),
        lambda delta: build_generator(GridWindow(4.5, 12.0, 128, A1), "ultra", delta),
        lambda delta: transport_speed(GridWindow(4.5, 12.0, 128, A1), "ultra", delta)(6.0),
        lambda delta: cmd_limits("ultra", [delta], os.devnull),
        lambda delta: ultra_coefficients(delta),
    ],
    ids=["ultra_f_delta", "build_generator", "transport_speed", "cmd_limits",
         "ultra_coefficients"],
)
@pytest.mark.parametrize(
    "delta, message",
    [("0.01", "delta must be a number"), (True, "delta must be a number"),
     (math.nan, "delta must be finite"), (10**400, "delta must be finite")],
    ids=["string", "bool", "nan", "int-beyond-double"],
)
def test_every_user_of_the_ultra_mode_checks_delta_by_one_rule(call, delta, message):
    with pytest.raises(ConfigError, match=message):
        call(delta)


@pytest.mark.parametrize(
    "args, message",
    [((1.0, math.inf, 50), "u_max must be finite"),
     ((math.nan, 20.0, 50), "u_min must be finite"),
     ((1.0, 20.0, 50.0), "samples must be an integer")],
    ids=["u_max-inf", "u_min-nan", "samples-float"],
)
def test_coefficient_scan_checks_its_bounds_before_sampling(tmp_path, args, message):
    with pytest.raises(ConfigError, match=message):
        cmd_coeffs(A1, *args, tmp_path / "c.csv")
    assert not (tmp_path / "c.csv").exists()


def test_the_smallest_acceleration_has_a_finite_singular_point(capsys):
    # a below U_STAR / (largest double) would put x_star at inf
    a_min = math.nextafter(U_STAR / 1.7976931348623157e308, 1.0)
    assert math.isfinite(U_STAR / a_min)
    assert main(["singularity", "--a", repr(a_min), "--json"]) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert report["a"] == a_min and report["x_star"] == U_STAR / a_min
    below = math.nextafter(a_min, 0.0)
    with pytest.raises(CoordinateDomainError, match="acceleration must be positive"):
        Acceleration(below)


def _config(**mode) -> dict:
    return {
        "a": 1.0,
        "window": {"x_min": 4.5, "x_max": 12.0, "N": 128},
        "packet": {"x0": 7.5, "sigma": 0.3},
        "time": {"t_final": 0.0},
        "mode": dict({"kind": "exact"}, **mode),
    }


def test_a_config_of_more_digits_than_python_converts_is_a_config_error(tmp_path):
    # Python from 3.11 refuses to parse it (ValueError); 3.10 parses it,
    # and the window's type rule rejects it
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_config()).replace("12.0", "1" + "0" * 5000))
    with pytest.raises(ConfigError, match="not valid JSON|x_max must be finite"):
        load_config(cfg)


def test_a_null_delta_is_rejected():
    with pytest.raises(ConfigError, match="^mode.delta must be a number, got None$"):
        load_config(_config(delta=None))
    assert load_config(_config()).delta is None

