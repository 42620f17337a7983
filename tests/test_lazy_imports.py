"""Each subcommand loads only the modules it runs, and the lazy package
keeps the names, and the objects, it exported when it imported them all."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rindlersim
from rindlersim import cli

SRC = str(Path(rindlersim.__file__).parents[1])

# every name the package exported when it imported its modules eagerly,
# with the module it came from then
EXPORTED = {
    "coords": ("Acceleration", "Boost", "MinkowskiEvent", "RindlerEvent", "boost_of",
               "in_right_wedge", "minkowski_to_rindler", "rindler_to_minkowski",
               "u_of_delta"),
    "embedding": ("EnlargedSpinorField", "Grid", "GridObservable", "ScalarField",
                  "correlation", "embed_initial", "expectation_inertial",
                  "expectation_rindler", "extract_inertial", "extract_rindler"),
    "errors": ("ConfigError", "CoordinateDomainError", "GridMismatchError", "HorizonError",
               "InstabilityError", "OracleCoverageError", "RindlerSimError",
               "SingularityError"),
    "evolution": ("EvolutionResult", "Generator", "GridWindow", "SolverConfig",
                  "WavepacketSpec", "build_generator", "cfl_dt", "evolve"),
    "hamiltonian": ("CoefficientPoint", "SingularPoint", "coefficients",
                    "coefficients_via_inversion", "denominator", "find_singularity",
                    "galileo_coefficients", "ultra_coefficients"),
    "runner": ("SimulationConfig", "cmd_coeffs", "cmd_evolve", "cmd_limits",
               "cmd_singularity", "load_config"),
}
NAMES = [name for names in EXPORTED.values() for name in names]

SOLVER = {f"rindlersim.{m}" for m in ("embedding", "evolution", "runner", "_shortest", "_fork")}


def _loaded_modules(tmp_path, *argv):
    """Every module `python -m rindlersim *argv` imports, as -X importtime
    lists them."""
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "rindlersim", *argv],
        capture_output=True, text=True, env=env, timeout=60, cwd=tmp_path,
    )
    assert run.returncode == 0, run.stderr
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in run.stderr.splitlines()
        if line.startswith("import time:")
    }
    return names - {"imported package"}  # the header line


def test_singularity_loads_no_numpy_and_no_solver(tmp_path):
    loaded = _loaded_modules(tmp_path, "singularity", "--json")
    assert "rindlersim.scans" in loaded
    assert not loaded & ({"numpy", "rindlersim.hamiltonian", "rindlersim.oracle"} | SOLVER)


@pytest.mark.parametrize(
    "argv",
    [["coeffs", "--samples", "50", "--out", "c.csv"],
     ["limits", "--regime", "ultra", "--values", "0.01", "--out", "l.csv"]],
    ids=["coeffs", "limits"],
)
def test_scans_load_no_solver(tmp_path, argv):
    loaded = _loaded_modules(tmp_path, *argv)
    assert {"numpy", "rindlersim.hamiltonian"} <= loaded
    assert not loaded & (SOLVER | {"rindlersim.oracle"})


def test_evolve_loads_the_solver_but_no_oracle(tmp_path):
    config = {
        "a": 1.0,
        "window": {"x_min": 4.5, "x_max": 12.0, "N": 128},
        "packet": {"x0": 7.5, "sigma": 0.3},
        "time": {"t_final": 0.0},
        "output_dir": "out",
    }
    (tmp_path / "c.json").write_text(json.dumps(config))
    loaded = _loaded_modules(tmp_path, "evolve", "--config", "c.json")
    assert SOLVER <= loaded
    assert "rindlersim.oracle" not in loaded
    # evolve's psi' partner shares no memory with its caller
    assert "mmap" not in loaded


def test_every_exported_name_is_its_modules_object():
    for module, names in EXPORTED.items():
        owner = importlib.import_module(f"rindlersim.{module}")
        for name in names:
            assert getattr(rindlersim, name) is getattr(owner, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        rindlersim.no_such_name


def test_a_fresh_import_loads_no_module_and_lists_every_name():
    probe = (
        "import json, sys, rindlersim\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('rindlersim.')),"
        " dir(rindlersim)]))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    loaded, listed = json.loads(run.stdout)
    assert loaded == []
    assert set(NAMES) <= set(listed)


def test_main_calls_every_entry_point_through_the_cli_globals(monkeypatch):
    # the traced benchmark wraps these names on rindlersim.cli
    calls = []

    def fake(name, result):
        def entry_point(*args, **kwargs):
            calls.append(name)
            return result

        monkeypatch.setattr(cli, name, entry_point)

    fake("load_config", "config")
    fake("cmd_evolve", {"snapshot_paths": [], "report_path": "report.json"})
    fake("cmd_coeffs", [])
    keys = ("u_star", "x_star", "v_star", "ultra_delta_star", "ultra_v_estimate")
    fake("cmd_singularity", dict.fromkeys(keys, 0.0))
    fake("cmd_limits", [])
    for argv in (
        ["evolve", "--config", "c.json"],
        ["coeffs", "--out", "c.csv"],
        ["singularity"],
        ["limits", "--regime", "galileo", "--values", "0.1", "--out", "l.csv"],
    ):
        assert cli.main(argv) == 0
    assert calls == ["load_config", "cmd_evolve", "cmd_coeffs", "cmd_singularity", "cmd_limits"]
