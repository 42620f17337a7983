"""The process entry, cli.run, keeps the cyclic garbage collector off for
the whole run and freezes the heap before exit; cli.main, which tests and
benchmarks call in process, leaves the collector as it found it.  Keeping
the collector off is safe only while a run leaves no growing cyclic
garbage, which the last test pins."""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rindlersim
from rindlersim import cli, evolution

SRC = str(Path(rindlersim.__file__).parents[1])
PYPROJECT = Path(SRC).parent / "pyproject.toml"

# What a run may leave for the collector: report.json's encoder.  json.dump
# with an indent encodes in pure Python through closures that refer to each
# other, 33 objects a report on CPython 3.10 to 3.12.
LEFT_BY_A_RUN = 33


def run_config(out_dir, n=512, t_final=1.0, stride=64):
    return {
        "a": 1.0,
        "window": {"x_min": 4.5, "x_max": 12.0, "N": n},
        "packet": {"x0": 6.0, "sigma": 0.15, "k0": 1.0, "amplitude": 1.0},
        "time": {"t_final": t_final, "cfl": 0.5, "snapshot_stride": stride},
        "scheme": {"derivative": "central4", "boundary": "sponge"},
        "mode": "exact",
        "output_dir": str(out_dir),
    }


@pytest.fixture
def collector():
    """Set the collector on or off for a test; restore it afterwards."""
    enabled = gc.isenabled()

    def switch(on: bool):
        if on:
            gc.enable()
        else:
            gc.disable()

    yield switch
    switch(enabled)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("command", ["evolve", "coeffs", "singularity"])
def test_main_leaves_the_collector_as_it_was(tmp_path, collector, command, enabled):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(run_config(tmp_path / "out", n=128, t_final=0.05)))
    argv = {
        "evolve": ["evolve", "--config", str(config)],
        "coeffs": ["coeffs", "--samples", "50", "--out", str(tmp_path / "c.csv")],
        "singularity": ["singularity", "--json"],
    }[command]
    collector(enabled)
    frozen, threshold = gc.get_freeze_count(), gc.get_threshold()
    assert cli.main(argv) == 0
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() == frozen
    assert gc.get_threshold() == threshold


# Runs the entry as `python -m rindlersim` does (module) or as the console
# script that pyproject.toml names does (script), with main wrapped to print
# the collector's state when it starts and an exit handler that prints it
# after the entry returned: atexit handlers run before the interpreter's
# final collection.
DRIVER = """
import atexit, gc, importlib, runpy, sys
from rindlersim import cli

route, target = sys.argv.pop(1), sys.argv.pop(1)
main = cli.main

def traced_main(argv=None):
    print("main: collector", gc.isenabled(), flush=True)
    return main(argv)

cli.main = traced_main
atexit.register(lambda: print("exit: collector", gc.isenabled(),
                              "frozen", gc.get_freeze_count() > 0))
if route == "module":
    runpy.run_module("rindlersim", run_name="__main__", alter_sys=True)
else:
    module, name = target.split(":")
    sys.exit(getattr(importlib.import_module(module), name)())
"""


def console_script() -> str:
    """The object pyproject.toml's [project.scripts] names for `rindlersim`."""
    section = PYPROJECT.read_text().split("[project.scripts]", 1)[1]
    return re.search(r'^rindlersim = "([\w.:]+)"$', section, re.MULTILINE).group(1)


def overflowing_config(out_dir):
    # finite fields whose norms overflow far out on the right branch: exit 3
    raw = run_config(out_dir, n=128, t_final=0.05)
    raw["window"].update(x_min=1e110, x_max=4e110)
    raw["packet"].update(x0=2.5e110, sigma=1e109, k0=0.0, amplitude=1e100)
    return raw


def test_the_console_script_is_the_entry():
    assert console_script() == "rindlersim.cli:run"


@pytest.mark.parametrize("route", ["module", "script"])
@pytest.mark.parametrize("status", [0, 2, 3])
def test_the_entry_runs_main_with_the_collector_off(tmp_path, route, status):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(overflowing_config(tmp_path / "out")))
    argv = {
        0: ["singularity", "--json"],
        2: ["evolve", "--config", str(tmp_path / "missing.json")],
        3: ["evolve", "--config", str(config)],
    }[status]
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run(
        [sys.executable, "-c", DRIVER, route, console_script(), *argv],
        capture_output=True, text=True, env=env, timeout=60, cwd=tmp_path,
    )
    assert run.returncode == status, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "main: collector False"
    assert lines[-1] == "exit: collector False frozen True"
    if status == 0:
        assert json.loads("\n".join(lines[1:-1]))["u_star"] > 0.0


def left_for_the_collector(raw) -> int:
    """Objects one load_config + cmd_evolve leaves that only the cyclic
    collector frees, counted with the collector off, as in a CLI run."""
    gc.collect()
    gc.disable()
    cli.cmd_evolve(cli.load_config(raw))
    return gc.collect()


def test_a_run_leaves_a_constant_for_the_collector(tmp_path, collector, monkeypatch):
    # more steps, more snapshots or a psi' partner must not add to it: a
    # cycle made a step or a snapshot would grow without the collector
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cases = {
        "base": run_config(tmp_path / "base"),
        "4x-t-final": run_config(tmp_path / "long", t_final=4.0),
        "stride-1": run_config(tmp_path / "stride", t_final=0.25, stride=1),
        "t-final-0": run_config(tmp_path / "zero", t_final=0.0),
        "split": run_config(tmp_path / "split", n=4096, t_final=0.05, stride=8),
    }
    if hasattr(os, "fork"):
        assert evolution._split(4096)
    else:
        del cases["split"]
    left = {name: left_for_the_collector(raw) for name, raw in cases.items()}
    assert left["base"] <= LEFT_BY_A_RUN
    assert left == dict.fromkeys(cases, left["base"])
