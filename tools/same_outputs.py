#!/usr/bin/env python3
"""Check that two source trees give the same CLI outputs.

    python3 tools/same_outputs.py OTHER_SRC

Run from anywhere in a checkout.  OTHER_SRC is the src/ directory of
another tree, for instance of the parent commit unpacked with
`git archive`.  Each case below runs `python -m rindlersim ...` twice,
with PYTHONPATH set to this checkout's src/ and then to OTHER_SRC, and
the two runs must agree on the exit code, stdout and stderr (output
directories and the source root written as placeholders) and on every
file they write, byte for byte.  One line is printed per case; the exit
code is 1 if any case differs, 2 if OTHER_SRC holds no rindlersim, and
0 otherwise.

The cases:
- `evolve` on the configs of round 0 of a seed-0 run of every workload
  of perfbench/run.py (demo04, fine_grid, snapshots and the three
  long_horizon windows), taken from that file;
- `evolve` on the demos/04 config and on it at snapshot stride 1;
- `evolve` at N = 4096, where a forked partner steps psi' if two CPUs
  are free;
- `evolve` on a config written with JSON integers, on one in the
  'ultra' mode with a delta, and on one in the 'galileo' mode on
  [1.001, 1.005], where v <= 0.1 and no warning is raised;
- `coeffs`, `singularity` (plain and --json) and `limits` in both
  regimes.

All outputs go to a temporary directory, removed at the end.  The whole
set, 17 cases of two runs each, takes about 14 s on 2 shared CPUs.
With this checkout's own src/ as OTHER_SRC it checks that reruns in
fresh processes give the same bytes.
"""

import difflib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# demos/04_wavepacket_run.py's config, without its output_dir
DEMO04 = {
    "a": 1.0,
    "window": {"x_min": 4.5, "x_max": 12.0, "N": 2048},
    "packet": {"x0": 6.0, "sigma": 0.15, "k0": 0.0, "amplitude": 1.0},
    "time": {"t_final": 1.0, "cfl": 0.5, "snapshot_stride": 250},
    "scheme": {"derivative": "central4", "boundary": "sponge"},
    "mode": "exact",
}


def _with(config: dict, **sections) -> dict:
    """config with the named sections updated (a dict) or replaced."""
    config = json.loads(json.dumps(config))
    for key, value in sections.items():
        if isinstance(value, dict) and isinstance(config.get(key), dict):
            config[key].update(value)
        else:
            config[key] = value
    return config


def _workload_configs() -> dict:
    """{name: config} of the evolve runs of round 0 of a seed-0
    benchmark run, from perfbench/run.py."""
    sys.path.insert(0, str(SRC))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    configs = {}
    for workload in run.WORKLOADS:
        ops = [op for op in run.workload_rounds(workload, 0)(0) if isinstance(op, run.Evolve)]
        for index, op in enumerate(ops):
            suffix = f"-{index}" if len(ops) > 1 else ""
            configs[f"{workload}{suffix}"] = op.config()
    return configs


def cases() -> dict:
    """{name: (config or None, argv)}; argv names the run's output
    directory OUT, and CONFIG, the config written to a file."""
    evolve = ["evolve", "--config", "CONFIG", "--out", "OUT"]
    table = {name: (config, evolve) for name, config in _workload_configs().items()}
    table["demos-04"] = (DEMO04, evolve)
    table["demos-04-stride-1"] = (_with(DEMO04, time={"snapshot_stride": 1}), evolve)
    table["partner-4096"] = (
        _with(DEMO04, window={"N": 4096}, time={"t_final": 0.25, "snapshot_stride": 40}),
        evolve,
    )
    table["json-integers"] = (
        _with(DEMO04, a=1, window={"x_min": 5, "x_max": 12}, packet={"x0": 7, "k0": 0},
              time={"t_final": 1, "cfl": 1, "snapshot_stride": 200}),
        evolve,
    )
    table["ultra-delta"] = (_with(DEMO04, mode={"kind": "ultra", "delta": 0.01}), evolve)
    table["galileo"] = (
        _with(DEMO04, window={"x_min": 1.001, "x_max": 1.005, "N": 256},
              packet={"x0": 1.003, "sigma": 0.0001},
              time={"t_final": 0.0005, "snapshot_stride": 20}, mode="galileo"),
        evolve,
    )
    table["coeffs"] = (None, ["coeffs", "--out", "OUT/coeffs.csv"])
    table["singularity"] = (None, ["singularity", "--a", "2.5"])
    table["singularity-json"] = (None, ["singularity", "--json"])
    table["limits-galileo"] = (
        None, ["limits", "--regime", "galileo", "--values", "0,0.01,0.05,0.1", "--out",
               "OUT/limits.csv"])
    table["limits-ultra"] = (
        None, ["limits", "--regime", "ultra", "--values", "1e-9,1e-6,1e-3,0.1,0.5", "--out",
               "OUT/limits.csv"])
    return table


def run_case(src: Path, argv: list, out: Path) -> dict:
    """Exit code, normalised stdout and stderr, and {relative path: bytes}
    of every file written under out, of one CLI run on the tree src.
    out is removed before this returns."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [arg.replace("OUT", str(out)) for arg in argv]
    child = subprocess.run([sys.executable, "-m", "rindlersim", *argv],
                           capture_output=True, text=True, env=env, timeout=300)

    def normalise(text: str) -> str:
        return text.replace(str(out), "<out>").replace(str(src), "<src>")

    files = {str(path.relative_to(out)): path.read_bytes()
             for path in sorted(out.rglob("*")) if path.is_file()}
    shutil.rmtree(out)
    return {"exit code": child.returncode, "stdout": normalise(child.stdout),
            "stderr": normalise(child.stderr), "files": files}


def differences(mine: dict, theirs: dict) -> list:
    """What differs between two run_case results, one line each."""
    found = []
    for key in ("exit code", "stdout", "stderr"):
        if mine[key] != theirs[key]:
            diff = difflib.unified_diff(str(theirs[key]).splitlines(),
                                        str(mine[key]).splitlines(), lineterm="", n=0)
            found.append(f"{key}: " + " | ".join(list(diff)[2:6]))
    names = sorted(set(mine["files"]) | set(theirs["files"]))
    for name in names:
        if name not in mine["files"] or name not in theirs["files"]:
            found.append(f"{name}: written by one tree only")
        elif mine["files"][name] != theirs["files"][name]:
            found.append(f"{name}: bytes differ")
    return found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/same_outputs.py OTHER_SRC", file=sys.stderr)
        return 2
    other = Path(args[0]).resolve()
    if not (other / "rindlersim" / "__init__.py").is_file():
        print(f"error: no rindlersim package under {other}", file=sys.stderr)
        return 2
    table = cases()
    failed = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        for name, (config, argv_) in table.items():
            if config is not None:
                config_path = tmp / f"{name}.json"
                config_path.write_text(json.dumps(config))
                argv_ = [str(config_path) if arg == "CONFIG" else arg for arg in argv_]
            mine = run_case(SRC, argv_, tmp / "mine" / name)
            theirs = run_case(other, argv_, tmp / "theirs" / name)
            found = differences(mine, theirs)
            print(f"{'DIFFERS' if found else 'same':8} {name} (exit {mine['exit code']}, "
                  f"{len(mine['files'])} files)", flush=True)
            for line in found:
                print(f"         {line}")
            failed += bool(found)
    print(f"{failed} of {len(table)} cases differ" if failed else
          f"all {len(table)} cases are the same")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
