"""The benchmark calls the program by name.  The traced run wraps
functions by the names their callers look up, and the setup probe builds
a config, a generator and a stepper; every such name must still resolve,
or `--trace 1` or `setup_s` breaks."""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load("tracing")


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _ in tracing.CHILD_WRAPS + tracing.PARENT_WRAPS],
)
def test_wrapped_name_resolves(owner, attr):
    assert callable(getattr(tracing._resolve(owner), attr))


def test_setup_probe_prints_setup_s(tmp_path, capsys):
    config = {
        "a": 1.0,
        "window": {"x_min": 4.5, "x_max": 12.0, "N": 128},
        "packet": {"x0": 7.5, "sigma": 0.3},
        "time": {"t_final": 0.1},
        "mode": {"kind": "ultra", "delta": 0.01},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert load("child").setup(str(path)) == 0
    assert json.loads(capsys.readouterr().out)["setup_s"] >= 0.0
