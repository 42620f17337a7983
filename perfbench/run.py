#!/usr/bin/env python3
"""Whole-run benchmark of the rindlersim CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload repeats whole rounds of
CLI child processes (`python -m rindlersim ...`, with PYTHONPATH=src)
until S seconds have passed, checks every output with checks.py and
prints one JSON object as the last line of standard output.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it runs the
CLI under the timing wrappers of tracing.py, alternating traced and
untraced rounds, and reports the per-module metrics and the tracing
overhead.  All outputs go to a temporary directory .perfbench-*/ in the
checkout, removed at the end.  See README.md for the workloads and metrics.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up probes after each untraced round, so that setup_s samples the
# whole run, as the other metrics do.
SETUP_PROBES_PER_ROUND = 3

# Packet ranges on the [4.5, 12] window: the 5-sigma support stays out of
# both sponge layers (10% of the window each) for t <= 1.
X0_RANGE = (6.4, 9.0)
SIGMA_RANGE = (0.12, 0.18)
K0_RANGE = (-4.0, 4.0)
PACKETS_PER_RUN = 4
# Relative max error of psi and psi' against the references, per
# workload: 10 to 100 times the largest error seen over seeds 0 to 5.
TOLERANCE = {"demo04": 1e-5, "fine_grid": 1e-9, "snapshots": 1e-6, "long_horizon": 2e-3}


@dataclass(frozen=True)
class Evolve:
    """One `rindlersim evolve` run and what its checks look at."""

    window: tuple  # (x_min, x_max, N)
    packet: tuple  # (x0, sigma, k0)
    t_final: float
    stride: int
    sub: slice  # grid points the psi and psi' checks use
    coverage_x_min: float  # left edge of the region characteristics may cross
    tol: float
    oracle_at: int  # snapshot index checked against the oracle
    analytic_all: bool  # check psi at every snapshot, not only oracle_at

    def config(self) -> dict:
        x_min, x_max, n = self.window
        x0, sigma, k0 = self.packet
        return {
            "a": 1.0,
            "window": {"x_min": x_min, "x_max": x_max, "N": n},
            "packet": {"x0": x0, "sigma": sigma, "k0": k0, "amplitude": 1.0},
            "time": {"t_final": self.t_final, "cfl": 0.5, "snapshot_stride": self.stride},
            "scheme": {"derivative": "central4", "boundary": "sponge"},
            "mode": "exact",
        }


@dataclass(frozen=True)
class Coeffs:
    pass


@dataclass(frozen=True)
class Singularity:
    pass


def _seeded_packets(seed: int) -> list:
    rng = random.Random(seed)
    return [
        (round(rng.uniform(*X0_RANGE), 6), round(rng.uniform(*SIGMA_RANGE), 6),
         round(rng.uniform(*K0_RANGE), 6))
        for _ in range(PACKETS_PER_RUN)
    ]


def geometry(window: tuple, t_final: float):
    """(GridWindow, Generator, dt, RK4 steps) of a run, from build_generator
    and cfl_dt on the public API (cfl 0.5)."""
    from rindlersim import Acceleration, GridWindow, build_generator, cfl_dt

    win = GridWindow(window[0], window[1], window[2], Acceleration(1.0))
    gen = build_generator(win)
    dt = cfl_dt(win, gen, 0.5)
    return win, gen, dt, int(math.ceil(t_final / dt - 1e-12))


def workload_rounds(name: str, seed: int):
    """A function round_index -> list of operations, for one run."""
    wide = (4.5, 12.0)
    tol = TOLERANCE[name]
    if name == "long_horizon":
        # Seed-independent inputs: every run here fails its norm check
        # (the inflow-edge fault), so the failed share must not depend
        # on the seed.
        ops = []
        for window, packet, t_final in (
            ((4.5, 12.0, 512), (6.0, 0.1, 0.0), 12.0),
            ((1.5, 3.0, 512), (2.0, 0.05, 0.0), 2.5),
            ((3.75, 6.0, 512), (4.8, 0.1, 0.0), 3.5),
        ):
            n = window[2]
            ops.append(Evolve(window, packet, t_final, geometry(window, t_final)[3] // 25,
                              slice(n // 8, n - n // 8), window[0], tol, 1, False))
        return lambda r: ops
    packets = _seeded_packets(seed)
    if name == "demo04":
        return lambda r: [
            Evolve(wide + (2048,), packets[r % len(packets)], 1.0, 250, slice(None),
                   3.7, tol, -1, True),
            Coeffs(),
            Singularity(),
        ]
    if name == "fine_grid":
        return lambda r: [
            Evolve(wide + (16384,), packets[r % len(packets)], 0.0625, 1_000_000,
                   slice(0, None, 8), 3.7, tol, -1, True)
        ]
    if name == "snapshots":
        return lambda r: [
            Evolve(wide + (2048,), packets[r % len(packets)], 0.0625, 1, slice(None),
                   3.7, tol, -1, True)
        ]
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = tuple(TOLERANCE)


@dataclass
class Child:
    wall: float
    user: float
    sys: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    spans: dict | None = None


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(cmd: list, log_stem: Path) -> Child:
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime, usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, out_path.read_text(), err_path.read_text())


class Runner:
    def __init__(self, workdir: Path, tracer, checks, oracle):
        self.workdir = workdir
        self.tracer = tracer
        self.checks = checks
        self.oracle = oracle
        self.counter = 0
        self.meta = {}
        self.digests = {}  # evolve config -> digest of its first outputs
        self.reruns_compared = 0

    def _new_dir(self, tag: str) -> Path:
        self.counter += 1
        path = self.workdir / f"{self.counter:05d}-{tag}"
        path.mkdir()
        return path

    def cli(self, argv: list, where: Path, traced: bool) -> Child:
        if traced:
            spans_path = where / "spans.json"
            cmd = [sys.executable, str(HERE / "child.py"), "trace", str(spans_path), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "rindlersim", *argv]
        child = run_child(cmd, where / "cli")
        if traced:
            child.spans = json.loads(spans_path.read_text())
        return child

    def evolve_meta(self, op: Evolve):
        """Grid, step count and expected snapshot times of an op, from
        the public API; checks f + g = 1 on the sampled generator."""
        key = (op.window, op.t_final, op.stride)
        if key not in self.meta:
            win, gen, dt, steps = geometry(op.window, op.t_final)
            self.checks.check_sum_rule(gen.f, gen.g)
            ks = [0] + [k for k in range(1, steps + 1) if k % op.stride == 0 or k == steps]
            times = [min(k * dt, op.t_final) for k in ks]
            self.meta[key] = (win, steps, times)
        return self.meta[key]

    def run_op(self, op, traced: bool):
        """Run one operation in a directory of its own.  Returns (child,
        failed, directory).  An evolve run writes into directory/out; its
        outputs must be byte-identical to those of any earlier run of the
        same op."""
        where = self._new_dir(type(op).__name__.lower())
        if isinstance(op, Evolve):
            config_path = where / "config.json"
            config_path.write_text(json.dumps(op.config()))
            out_dir = where / "out"
            child = self.cli(["evolve", "--config", str(config_path), "--out", str(out_dir)],
                             where, traced)
            if child.code == 3:
                return child, True, where
            self._expect_success(child, "evolve")
            failed = not self.check_evolve(op, out_dir)
            self.compare_rerun(op, out_dir)
            return child, failed, where
        if isinstance(op, Coeffs):
            csv = where / "scan.csv"
            child = self.cli(["coeffs", "--a", "1.0", "--u-min", "1", "--u-max", "20",
                              "--samples", "2000", "--out", str(csv)], where, traced)
            self._expect_success(child, "coeffs")
            self.checks.check_coeffs(csv)
            return child, False, where
        child = self.cli(["singularity", "--a", "1.0", "--json"], where, traced)
        self._expect_success(child, "singularity")
        self.checks.check_singularity(child.stdout, 1.0)
        return child, False, where

    def compare_rerun(self, op: Evolve, out_dir: Path):
        key = json.dumps(op.config(), sort_keys=True)
        digest = self.checks.digest(out_dir)
        if key not in self.digests:
            self.digests[key] = digest
        elif self.digests[key] == digest:
            self.reruns_compared += 1
        else:
            raise self.checks.CheckError(f"a rerun of {key} is not byte-identical")

    def _expect_success(self, child: Child, what: str):
        if child.code != 0:
            raise self.checks.CheckError(
                f"{what} exited with {child.code}: {child.stderr.strip()[-400:]}")

    def check_evolve(self, op: Evolve, out_dir: Path) -> bool:
        """Check an evolve run's outputs.  Returns False when the inertial
        norm grew (the run is unstable); raises CheckError on any wrong
        output of a run that did not fail."""
        c = self.checks
        win, _, times = self.evolve_meta(op)
        report = c.read_report(out_dir / "report.json")
        paths = sorted(out_dir.glob("snapshot_*.csv"))
        if len(paths) != len(times):
            raise c.CheckError(f"{len(paths)} snapshots, expected {len(times)}")
        x_expected = win.grid().points()
        dx = win.dx
        x0, sigma, k0 = op.packet
        oracle_at = op.oracle_at % len(paths)
        norms_in, norms_rin = [], []
        for index, (path, t) in enumerate(zip(paths, times)):
            x, even, odd, psi, psi_prime = c.read_snapshot(path)
            if not np.array_equal(x, x_expected):
                raise c.CheckError(f"{path.name}: x column is not the window grid")
            c.check_components(path.name, even, odd, psi, psi_prime)
            norms_in.append(c.norm(psi, dx))
            norms_rin.append(c.norm(psi_prime, dx))
            if op.analytic_all or index == oracle_at:
                c.check_close(f"{path.name} psi", psi[op.sub],
                              c.gaussian(x[op.sub] - t, x0, sigma, k0), op.tol)
            if index == oracle_at:
                self.check_oracle(op, x[op.sub], t, psi[op.sub], psi_prime[op.sub])
        if not c.norm_holds(norms_in):
            return False
        c.check_report(report, times, norms_in, norms_rin)
        return True

    def check_oracle(self, op: Evolve, x, t, psi, psi_prime):
        from rindlersim import Acceleration, Grid, GridWindow, ScalarField, WavepacketSpec

        o, span = self.oracle, self.tracer.span
        grid = Grid(float(x[0]), float(x[-1]), len(x))
        packet = WavepacketSpec(*op.packet)
        coverage = GridWindow(op.coverage_x_min, op.window[1], op.window[2], Acceleration(1.0))
        with span("oracle.exact_inertial"):
            ref_in = o.exact_inertial(packet, grid, t)
        with span("oracle.compare"):
            err_in = o.compare(ScalarField(grid, psi), ref_in)
        with span("oracle.characteristics"):
            # The reference must be converged in its own step: the default
            # substep h = dx / (4 max|c|) and h / 2 must agree.
            ref_rin = o.characteristics_rindler(packet, t, coverage, grid=grid)
            speed = o.transport_speed(coverage)(grid.points())
            half = 0.125 * grid.dx / float(np.max(np.abs(speed)))
            ref_half = o.characteristics_rindler(packet, t, coverage, grid=grid, substep=half)
        self.checks.check_close(f"characteristics at t = {t}, substep h against h / 2",
                                ref_rin.values, ref_half.values, self.checks.REFERENCE_TOL)
        with span("oracle.compare"):
            err_rin = o.compare(ScalarField(grid, psi_prime), ref_rin)
        for what, err in (("psi", err_in), ("psi'", err_rin)):
            if not err.linf_rel <= op.tol:
                raise self.checks.CheckError(
                    f"{what} vs oracle at t = {t}: relative max error {err.linf_rel:.3e} "
                    f"above {op.tol:.1e}")


@dataclass
class Round:
    wall: float = 0.0
    verify: float = 0.0
    rss_mb: float = 0.0
    user: float = 0.0
    sys: float = 0.0
    point_steps: int = 0
    attempted: int = 0
    failed: int = 0
    layers: dict = field(default_factory=dict)  # span name -> calls, total_s, self_s
    counters: dict = field(default_factory=dict)
    imports: list = field(default_factory=list)
    coeffs_s: list = field(default_factory=list)


def _merge(into: dict, summary: dict):
    for name, entry in summary.items():
        mine = into.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in mine:
            mine[key] += entry[key]


def run_round(runner: Runner, ops: list, traced: bool) -> Round:
    """Run ops once, in order."""
    from tracing import summarize

    stats = Round()
    parent_start = len(runner.tracer.spans)
    for op in ops:
        child, failed, where = runner.run_op(op, traced)
        stats.attempted += 1
        stats.failed += int(failed)
        stats.wall += child.wall
        if isinstance(op, Evolve):
            _, steps, _ = runner.evolve_meta(op)
            stats.point_steps += op.window[2] * steps
            stats.rss_mb = max(stats.rss_mb, child.rss_mb)
            stats.user += child.user
            stats.sys += child.sys
        if traced:
            summary = summarize(child.spans["spans"])
            _merge(stats.layers, summary)
            for name, value in child.spans["counters"].items():
                if name == "cli.import_s":
                    stats.imports.append(value)
                else:
                    stats.counters[name] = stats.counters.get(name, 0) + value
            if isinstance(op, Coeffs):
                stats.coeffs_s.append(summary["runner.cmd_coeffs"]["total_s"])
        shutil.rmtree(where)
    parent_spans = runner.tracer.spans[parent_start:]
    offset = parent_start
    relinked = [(n, s, e, p - offset if p >= offset else -1) for n, s, e, p in parent_spans]
    stats.verify = sum(e - s for n, s, e, p in relinked if n.startswith("oracle.") and p < 0)
    if traced:
        _merge(stats.layers, summarize(relinked))
    return stats


def setup_times(runner: Runner, op: Evolve) -> list:
    where = runner._new_dir("setup")
    config_path = where / "config.json"
    config_path.write_text(json.dumps(op.config()))
    values = []
    for _ in range(SETUP_PROBES_PER_ROUND):
        child = run_child([sys.executable, str(HERE / "child.py"), "setup", str(config_path)],
                          where / "probe")
        if child.code != 0:
            raise runner.checks.CheckError(f"setup probe failed: {child.stderr.strip()[-400:]}")
        values.append(json.loads(child.stdout)["setup_s"])
    shutil.rmtree(where)
    return values


def layer_metrics(traced_rounds: list, plain_rounds: list, scan_coeffs_s: list) -> dict:
    """Per-module metrics: medians over traced rounds; CPU times from the
    untraced rounds; cmd_coeffs per call, from the rounds or, where the
    rounds have none, from the once-per-run scan check."""
    med = statistics.median

    def per_round(fn):
        return med(fn(r) for r in traced_rounds)

    def total(r, name):
        return r.layers.get(name, {}).get("total_s", 0.0)

    def self_time(r, name):
        return r.layers.get(name, {}).get("self_s", 0.0)

    def calls(r, name):
        return r.layers.get(name, {}).get("calls", 0)

    def counter(r, name):
        return r.counters.get(name, 0)

    return {
        "cli.import_s": (med([v for r in traced_rounds for v in r.imports]), "s"),
        "cli.cpu_user_s": (med(r.user for r in plain_rounds), "s"),
        "cli.cpu_sys_s": (med(r.sys for r in plain_rounds), "s"),
        "runner.load_config_s": (per_round(lambda r: total(r, "runner.load_config")), "s"),
        "runner.serialize_s": (per_round(lambda r: self_time(r, "runner.cmd_evolve")), "s"),
        "runner.files_written": (per_round(lambda r: counter(r, "runner.files_written")), "count"),
        "runner.bytes_written": (per_round(lambda r: counter(r, "runner.bytes_written")), "B"),
        "runner.cmd_coeffs_s": (med([v for r in traced_rounds for v in r.coeffs_s]
                                    or scan_coeffs_s), "s"),
        "evolution.build_generator_s": (per_round(lambda r: total(r, "evolution.build_generator")), "s"),
        "evolution.build_generator_calls": (per_round(lambda r: calls(r, "evolution.build_generator")), "count"),
        "evolution.step_s": (per_round(lambda r: total(r, "evolution.step_eigen")), "s"),
        "evolution.steps": (per_round(lambda r: calls(r, "evolution.step_eigen")), "count"),
        "evolution.ns_per_point_step": (per_round(
            lambda r: 1e9 * total(r, "evolution.step_eigen") / r.point_steps), "ns"),
        "evolution.snapshots_held": (per_round(lambda r: counter(r, "evolution.snapshots_held")), "count"),
        "embedding.observable_calls": (per_round(lambda r: calls(r, "embedding.observable")), "count"),
        "embedding.observables_s": (per_round(lambda r: total(r, "embedding.observable")), "s"),
        "hamiltonian.coefficient_arrays_calls": (per_round(
            lambda r: calls(r, "hamiltonian.coefficient_arrays")), "count"),
        "hamiltonian.coefficient_arrays_s": (per_round(
            lambda r: total(r, "hamiltonian.coefficient_arrays")), "s"),
        "hamiltonian.find_singularity_calls": (per_round(
            lambda r: calls(r, "hamiltonian.find_singularity")), "count"),
        "hamiltonian.find_singularity_s": (per_round(
            lambda r: total(r, "hamiltonian.find_singularity")), "s"),
        "oracle.characteristics_s": (per_round(lambda r: total(r, "oracle.characteristics")), "s"),
        "oracle.compare_s": (per_round(lambda r: total(r, "oracle.compare")), "s"),
        "oracle.exact_inertial_s": (per_round(lambda r: total(r, "oracle.exact_inertial")), "s"),
        "trace.overhead_pct": (100.0 * (med(r.wall for r in traced_rounds)
                                        / med(r.wall for r in plain_rounds) - 1.0), "%"),
    }


def end_to_end_metrics(rounds: list, setup: list) -> dict:
    med = statistics.median
    return {
        "setup_s": (med(setup), "s"),
        "wall_s": (med(r.wall for r in rounds), "s"),
        "point_steps_per_s": (med(r.point_steps / r.wall for r in rounds), "1/s"),
        "verify_s": (med(r.verify for r in rounds), "s"),
        "peak_rss_MB": (med(r.rss_mb for r in rounds), "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rindlersim" / "__init__.py").is_file():
        print(f"error: no rindlersim sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import rindlersim.oracle as oracle
    from tracing import PARENT_WRAPS, Tracer

    tracer = Tracer()
    if args.trace:
        tracer.wrap_all(PARENT_WRAPS)
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
            return measure(args, Runner(Path(workdir), tracer, checks, oracle))
    finally:
        tracer.unwrap_all()


def measure(args, runner: Runner) -> int:
    """Run the workload's rounds for args.seconds, print the result line."""
    checks = runner.checks
    rounds_of = workload_rounds(args.workload, args.seed)
    first_ops = rounds_of(0)
    evolve_ops = [op for op in first_ops if isinstance(op, Evolve)]
    correct, error = True, None
    traced_rounds, plain_rounds = [], []
    attempted = failed = 0
    setup, scan_coeffs_s = [], []
    try:
        if not any(isinstance(op, Coeffs) for op in first_ops):
            # Every workload checks the scan subcommands; those whose
            # rounds do not run them do it once, outside the rounds.
            scan = run_round(runner, [Coeffs(), Singularity()], bool(args.trace))
            scan_coeffs_s = scan.coeffs_s
        start = time.perf_counter()
        while not plain_rounds or time.perf_counter() - start < args.seconds:
            ops = rounds_of(len(plain_rounds))
            plain_rounds.append(run_round(runner, ops, False))
            if args.trace:
                traced_rounds.append(run_round(runner, ops, True))
            else:
                setup += setup_times(runner, evolve_ops[0])
        for r in plain_rounds + traced_rounds:
            attempted += r.attempted
            failed += r.failed
        if runner.reruns_compared == 0:
            # the rounds did not repeat an input: rerun the first one
            runner.run_op(evolve_ops[0], False)
    except checks.BAD_OUTPUT as exc:
        correct, error = False, f"{type(exc).__name__}: {exc}"
    if not correct:
        print(f"check failed: {error}", file=sys.stderr)
        metrics = {}
        attempted = max(attempted, 1)
    elif args.trace:
        metrics = layer_metrics(traced_rounds, plain_rounds, scan_coeffs_s)
    else:
        metrics = end_to_end_metrics(plain_rounds, setup)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
