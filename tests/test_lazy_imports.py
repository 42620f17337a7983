"""Each subcommand loads only the modules it runs, and the lazy package
keeps the names, and the objects, it exported when it imported them all."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rindlersim
from rindlersim import cli

SRC = str(Path(rindlersim.__file__).parents[1])

# every name the package exported when it imported its modules eagerly,
# but GridObservable (the forms take a plain weights array), each with its
# home module: the one module whose __all__ lists it
EXPORTED = {
    "coords": ("Acceleration", "Boost", "MinkowskiEvent", "RindlerEvent", "SingularPoint",
               "boost_of", "find_singularity", "in_right_wedge", "minkowski_to_rindler",
               "rindler_to_minkowski", "u_of_delta"),
    "embedding": ("EnlargedSpinorField", "Grid", "ScalarField",
                  "correlation", "embed_initial", "expectation_inertial",
                  "expectation_rindler", "extract_inertial", "extract_rindler"),
    "errors": ("ConfigError", "CoordinateDomainError", "GridMismatchError", "HorizonError",
               "InstabilityError", "OracleCoverageError", "RindlerSimError",
               "SingularityError"),
    "evolution": ("EvolutionResult", "Generator", "GridWindow", "SolverConfig",
                  "WavepacketSpec", "build_generator", "cfl_dt", "evolve"),
    "hamiltonian": ("CoefficientPoint", "coefficients", "coefficients_via_inversion",
                    "denominator", "galileo_coefficients", "ultra_coefficients"),
    "runner": ("SimulationConfig", "cmd_evolve", "load_config"),
    "scans": ("cmd_coeffs", "cmd_limits", "cmd_singularity"),
}
NAMES = [name for names in EXPORTED.values() for name in names]

SOLVER = {f"rindlersim.{m}" for m in ("embedding", "evolution", "runner", "_shortest", "_fork",
                                      "_sbp")}


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


def test_no_public_name_has_two_homes():
    homes = {}
    for info in pkgutil.iter_modules(rindlersim.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"rindlersim.{info.name}")
        for name in getattr(module, "__all__", ()):
            homes.setdefault(name, []).append(module.__name__)
    assert {name: owners for name, owners in homes.items() if len(owners) > 1} == {}
    # and the package exports each name from its home (errors, which has
    # no __all__, is the home of the names no module lists)
    for name, module in rindlersim._EXPORTS.items():
        home = f"rindlersim.{module}"
        assert homes.get(name, [home]) == [home], name


def test_removed_names_stay_unbound():
    # O is a plain weights array, and no module re-exports another's names
    with pytest.raises(AttributeError, match="GridObservable"):
        rindlersim.GridObservable
    gone = {
        "embedding": ("GridObservable", "identity_observable", "position_observable",
                      "window_projector"),
        "hamiltonian": ("SingularPoint", "U_STAR", "SINGULAR_MARGIN", "find_singularity"),
        "runner": ("cmd_coeffs", "cmd_limits", "cmd_singularity"),
    }
    for module, names in gone.items():
        owner = importlib.import_module(f"rindlersim.{module}")
        assert not [name for name in names if hasattr(owner, name)], module


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
