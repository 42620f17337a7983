import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rindlersim
from rindlersim import _fork
from rindlersim.cli import main
from rindlersim.coords import Acceleration
from rindlersim.embedding import EnlargedSpinorField, Grid
from rindlersim.errors import ConfigError, CoordinateDomainError
from rindlersim.runner import (
    SNAPSHOT_HEADER,
    _write_snapshot,
    _write_snapshots,
    cmd_coeffs,
    cmd_evolve,
    cmd_limits,
    cmd_singularity,
    load_config,
)

A1 = Acceleration(1.0)


def standard_config(out_dir, n=256, t_final=0.25, sigma=0.3, x0=7.5):
    return {
        "a": 1.0,
        "window": {"x_min": 4.5, "x_max": 12.0, "N": n},
        "packet": {"x0": x0, "sigma": sigma, "k0": 0.0, "amplitude": 1.0},
        "time": {"t_final": t_final, "cfl": 0.5, "snapshot_stride": 64},
        "scheme": {"derivative": "central4", "boundary": "sponge"},
        "mode": "exact",
        "output_dir": str(out_dir),
    }


# ---------------------------------------------------------------- config


def test_load_config_roundtrip(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(standard_config(tmp_path / "out")))
    config = load_config(cfg_path)
    assert config.a.a == 1.0
    assert config.window.n == 256
    assert config.packet.x0 == 7.5
    assert config.solver.cfl == 0.5
    assert config.mode == "exact"


def test_unknown_fields_are_rejected(tmp_path):
    raw = standard_config(tmp_path)
    raw["extra"] = 1
    with pytest.raises(ConfigError):
        load_config(raw)
    raw = standard_config(tmp_path)
    raw["window"]["resolution"] = 10
    with pytest.raises(ConfigError):
        load_config(raw)
    raw = standard_config(tmp_path)
    raw["packet"]["chirp"] = 0.1
    with pytest.raises(ConfigError):
        load_config(raw)


def test_missing_and_invalid_fields(tmp_path):
    raw = standard_config(tmp_path)
    del raw["window"]
    with pytest.raises(ConfigError):
        load_config(raw)
    raw = standard_config(tmp_path)
    raw["a"] = -2.0
    with pytest.raises(CoordinateDomainError, match="acceleration must be positive"):
        load_config(raw)
    raw = standard_config(tmp_path)
    raw["window"]["N"] = 128.5
    with pytest.raises(ConfigError):
        load_config(raw)
    raw = standard_config(tmp_path)
    raw["time"]["cfl"] = 2.0
    with pytest.raises(ConfigError):
        load_config(raw)


def test_mode_parsing(tmp_path):
    raw = standard_config(tmp_path)
    raw["mode"] = {"kind": "ultra", "delta": 0.01}
    config = load_config(raw)
    assert config.mode == "ultra" and config.delta == 0.01
    raw["mode"] = {"kind": "ultra"}
    with pytest.raises(ConfigError):
        load_config(raw)
    raw["mode"] = {"kind": "exact", "delta": 0.3}
    with pytest.raises(ConfigError):
        load_config(raw)
    raw["mode"] = "warp"
    with pytest.raises(ConfigError):
        load_config(raw)
    # the generator is built at load, and its warnings are not silenced
    raw["mode"] = "galileo"
    raw["window"] = {"x_min": 1.001, "x_max": 1.02, "N": 128}
    raw["packet"]["x0"] = 1.01
    with pytest.warns(UserWarning, match="marginal"):
        assert load_config(raw).generator.mode == "galileo"


def test_malformed_json_is_a_config_error(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text('{"a": 1.0,')
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(cfg_path)


def test_scheme_aliases(tmp_path):
    # central4 is the one derivative; its long spelling loads too
    raw = standard_config(tmp_path)
    raw["scheme"]["derivative"] = "central-4th-order"
    assert load_config(raw).physics_dict()["scheme"] == {"derivative": "central4"}
    for removed in ("upwind1", "upwind-1st-order"):
        raw["scheme"]["derivative"] = removed
        with pytest.raises(ConfigError, match="upwind scheme was removed"):
            load_config(raw)


@pytest.mark.parametrize(
    "section, value, message",
    [
        (None, [standard_config("out")], "configuration must be a JSON object"),
        ("window", 5, "window must be a JSON object"),
        ("packet", None, "packet must be a JSON object"),
        ("time", [1, 2], "time must be a JSON object"),
        ("scheme", "central4", "scheme must be a JSON object"),
        ("scheme", {"derivative": ["x"]}, "scheme.derivative must be a string"),
    ],
    ids=["root-list", "window-number", "packet-null", "time-list", "scheme-string",
         "derivative-list"],
)
def test_malformed_sections_are_config_errors(tmp_path, capsys, section, value, message):
    raw = standard_config(tmp_path / "out")
    if section is None:
        raw = value
    else:
        raw[section] = value
    with pytest.raises(ConfigError, match=message):
        load_config(raw)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(raw))
    assert main(["evolve", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_boundary_accepts_only_sponge(tmp_path):
    # "sponge" names the SBP-SAT closure; the periodic mode is gone
    raw = standard_config(tmp_path)
    assert load_config(raw).physics_dict()["scheme"] == {"derivative": "central4"}
    del raw["scheme"]["boundary"]
    load_config(raw)
    for boundary in ("periodic", "dirichlet"):
        raw["scheme"]["boundary"] = boundary
        with pytest.raises(ConfigError, match="Periodic boundaries were removed"):
            load_config(raw)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(raw))
    assert main(["evolve", "--config", str(cfg)]) == 2


# ---------------------------------------------------------------- coeffs


def test_cmd_coeffs_scan(tmp_path):
    out = tmp_path / "coeffs.csv"
    rows = cmd_coeffs(A1, 1.0, 20.0, 2000, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "u,f,g,D,regime_flag"
    assert len(lines) == 2001

    # first row is the trivial generator
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert float(first[1]) == 1.0
    assert float(first[2]) == 0.0

    # last row: f close to 1 again
    last = lines[-1].split(",")
    assert float(last[0]) == 20.0
    assert abs(float(last[1]) - 1.0) < 0.15

    # exactly one contiguous flagged neighborhood, near the known root
    flagged = [i for i, row in enumerate(rows) if row[4] == "singular"]
    assert flagged
    assert all(b - a == 1 for a, b in zip(flagged, flagged[1:]))
    u_values = [float(rows[i][0]) for i in flagged]
    assert min(u_values) < 3.6242 < max(u_values)
    for i in flagged:
        assert rows[i][1] == "" and rows[i][2] == ""


def test_cli_coeffs_csv_does_not_depend_on_a(tmp_path):
    # the scan is in u = a*x, so --a changes nothing in it
    paths = [tmp_path / f"a{a}.csv" for a in ("1", "2.5")]
    for a, path in zip(("1", "2.5"), paths):
        assert main(["coeffs", "--a", a, "--samples", "50", "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cmd_coeffs_validation(tmp_path):
    with pytest.raises(ConfigError):
        cmd_coeffs(A1, 0.5, 20.0, 100, tmp_path / "x.csv")
    with pytest.raises(ConfigError):
        cmd_coeffs(A1, 5.0, 2.0, 100, tmp_path / "x.csv")


# ----------------------------------------------------------- singularity


def test_cmd_singularity_report():
    report = cmd_singularity(A1)
    assert report["u_star"] == pytest.approx(3.6242, abs=1e-4)
    assert report["v_star"] == pytest.approx(0.9612, abs=1e-4)
    assert report["x_star"] == report["u_star"]
    assert report["ultra_delta_star"] == pytest.approx(2.0 * math.exp(-4.0), rel=1e-12)
    assert report["ultra_v_estimate"] == pytest.approx(0.96337, abs=1e-5)


def test_cmd_singularity_scales():
    report = cmd_singularity(Acceleration(10.0))
    assert report["x_star"] == pytest.approx(report["u_star"] / 10.0, rel=1e-12)


# ---------------------------------------------------------------- evolve


def test_cmd_evolve_writes_outputs(tmp_path):
    config = load_config(standard_config(tmp_path / "out"))
    artifacts = cmd_evolve(config)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    rows = report["rows"]
    assert rows[0]["t"] == 0.0
    assert rows[0]["x_inertial"] == pytest.approx(7.5, abs=1e-6)
    assert rows[0]["x_rindler"] == pytest.approx(7.5, abs=1e-6)
    assert rows[-1]["t"] == pytest.approx(0.25, abs=1e-12)
    times = [row["t"] for row in rows]
    assert times == sorted(times) and len(set(times)) == len(times)
    assert "output_dir" not in report["config"]

    snap = artifacts["snapshot_paths"][0]
    with open(snap, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert lines[0] == SNAPSHOT_HEADER
    assert len(lines) == 257
    assert len(artifacts["snapshot_paths"]) == len(rows)


def test_config_run_builds_the_generator_once(tmp_path, monkeypatch):
    import rindlersim.evolution as evolution_module
    import rindlersim.runner as runner_module

    build = evolution_module.build_generator
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(runner_module, "build_generator", counted)
    monkeypatch.setattr(evolution_module, "build_generator", counted)
    config = load_config(standard_config(tmp_path / "out", n=128, t_final=0.05))
    cmd_evolve(config)
    assert len(calls) == 1


def test_cmd_evolve_t0_single_row(tmp_path):
    config = load_config(standard_config(tmp_path / "out", t_final=0.0))
    artifacts = cmd_evolve(config)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["rows"]) == 1
    assert len(artifacts["snapshot_paths"]) == 1
    row = report["rows"][0]
    assert row["x_inertial"] == pytest.approx(row["x_rindler"], abs=1e-12)


def test_cmd_evolve_deterministic_reruns(tmp_path):
    config = load_config(standard_config(tmp_path / "out1", n=128, t_final=0.1))
    cmd_evolve(config)
    config2 = load_config(standard_config(tmp_path / "out2", n=128, t_final=0.1))
    cmd_evolve(config2)
    r1 = (tmp_path / "out1" / "report.json").read_bytes()
    r2 = (tmp_path / "out2" / "report.json").read_bytes()
    assert r1 == r2
    s1 = sorted(p.name for p in (tmp_path / "out1").glob("snapshot_*.csv"))
    s2 = sorted(p.name for p in (tmp_path / "out2").glob("snapshot_*.csv"))
    assert s1 == s2
    for name in s1:
        assert (tmp_path / "out1" / name).read_bytes() == (
            tmp_path / "out2" / name
        ).read_bytes()


def _directory_bytes(path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_rerun_into_the_same_directory_leaves_no_stale_snapshots(tmp_path):
    # a stride-1 run, then a shorter stride-100 run into the same directory:
    # the directory must read as the shorter run's alone, apart from files
    # that are not snapshots of a run
    def run(stride, out, **time):
        raw = standard_config(out, n=128, t_final=0.1)
        raw["time"].update(snapshot_stride=stride, **time)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        return main(["evolve", "--config", str(cfg)])

    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert run(1, out) == 0
    assert len(list(out.glob("snapshot_*.csv"))) > 2
    foreign = {
        "notes.txt": b"kept",
        "snapshot_99.csv": b"",
        "snapshot_000099.csv.bak": b"",
        "snapshot_0000099.csv": b"",
        "snapshot_\u0660\u0660\u0660\u0660\u0661\u0665.csv": b"",  # Arabic-Indic digits
    }
    for name, data in foreign.items():
        (out / name).write_bytes(data)
    # a name a run with more than 10**6 snapshots writes is stale too
    (out / "snapshot_1000000.csv").write_bytes(b"")
    assert run(100, out) == 0
    assert run(100, fresh) == 0
    assert len(list(fresh.glob("snapshot_*.csv"))) == 2
    assert _directory_bytes(out) == dict(_directory_bytes(fresh), **foreign)
    # a run that fails deletes nothing
    before = _directory_bytes(out)
    assert run(1, out, cfl=1e-310) == 2
    assert _directory_bytes(out) == before


def test_cmd_evolve_galileo_and_ultra_modes(tmp_path):
    raw = standard_config(tmp_path / "gal", n=128, t_final=0.002)
    raw["window"] = {"x_min": 1.0001, "x_max": 1.005, "N": 128}
    raw["packet"] = {"x0": 1.0025, "sigma": 0.0002, "k0": 0.0, "amplitude": 1.0}
    raw["mode"] = "galileo"
    artifacts = cmd_evolve(load_config(raw))
    assert len(artifacts["result"].report) >= 2

    raw = standard_config(tmp_path / "ultra", n=128, t_final=0.1)
    raw["mode"] = {"kind": "ultra", "delta": 0.01}
    artifacts = cmd_evolve(load_config(raw))
    final = artifacts["result"].report[-1]
    # constant-coefficient transport: both centers move at their speeds
    assert final.x_inertial == pytest.approx(7.6, abs=1e-3)
    assert final.x_rindler == pytest.approx(7.5 + 0.1 * (1 - 2 * 0.020404554), abs=1e-3)


# ------------------------------------------------------ snapshot writer

needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="forked snapshot writers need os.fork and os.sched_getaffinity",
)


def reference_snapshot(x, state) -> bytes:
    """The snapshot CSV formatted value by value with repr(float(v))."""
    even, odd = state.even, state.odd
    lines = [SNAPSHOT_HEADER]
    for i in range(len(x)):
        values = [x[i]]
        for z in (even[i], odd[i], even[i] + odd[i], even[i] - odd[i]):
            values += [z.real, z.imag]
        lines.append(",".join(repr(float(v)) for v in values))
    return ("\n".join(lines) + "\n").encode("utf-8")


def awkward_state():
    values = np.array([-0.0, 5e-324, 1e-300, 0.1, 1e15, 1e16, -1.5e-07, 1.0])
    grid = Grid(x_min=4.5, x_max=12.0, n=values.size)
    state = EnlargedSpinorField(
        grid=grid, even=values + 1j * values[::-1], odd=values[::-1] - 1j * values
    )
    return grid.points(), state


def test_snapshot_bytes_match_repr_reference(tmp_path):
    x, state = awkward_state()
    path = tmp_path / "awkward.csv"
    _write_snapshot(path, x, state)
    assert path.read_bytes() == reference_snapshot(x, state)
    assert b"-0.0," in path.read_bytes() and b"5e-324" in path.read_bytes()


def test_evolve_snapshots_match_repr_reference(tmp_path):
    raw = standard_config(tmp_path / "out", n=64, t_final=0.5)
    raw["time"]["snapshot_stride"] = 3
    config = load_config(raw)
    artifacts = cmd_evolve(config)
    x = config.window.grid().points()
    snapshots = artifacts["result"].snapshots
    assert len(snapshots) > 3
    for path, state in zip(artifacts["snapshot_paths"], snapshots, strict=True):
        with open(path, "rb") as handle:
            assert handle.read() == reference_snapshot(x, state)


@needs_fork
def test_writer_count_does_not_change_bytes(tmp_path, monkeypatch):
    x, state = awkward_state()
    states = [state] + [
        EnlargedSpinorField(grid=state.grid, even=state.even * k, odd=state.odd / k)
        for k in (3.0, 7.0, 11.0, 13.0)
    ]
    outputs = {}
    for cpus in ({0}, {0, 1, 2}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        assert _fork.cpus() == len(cpus)
        out = tmp_path / f"cpus{len(cpus)}"
        out.mkdir()
        paths = [out / f"snapshot_{i:06d}.csv" for i in range(len(states))]
        _write_snapshots(paths, x, states)
        outputs[len(cpus)] = [path.read_bytes() for path in paths]
    assert outputs[1] == outputs[3]
    assert outputs[1] == [reference_snapshot(x, s) for s in states]


def test_writer_without_fork_stays_in_process(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked without os.sched_getaffinity")

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    assert _fork.cpus() == 1
    x, state = awkward_state()
    paths = [tmp_path / f"s{i}.csv" for i in range(4)]
    _write_snapshots(paths, x, [state] * 4)
    assert all(path.read_bytes() == reference_snapshot(x, state) for path in paths)


@needs_fork
def test_no_writer_forks_while_a_second_thread_runs(tmp_path, monkeypatch):
    import threading

    def no_fork():
        raise AssertionError("forked while a second thread runs")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", no_fork)
    x, state = awkward_state()
    paths = [tmp_path / f"s{i}.csv" for i in range(4)]
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        _write_snapshots(paths, x, [state] * 4)
    finally:
        release.set()
        thread.join()
    assert all(path.read_bytes() == reference_snapshot(x, state) for path in paths)


@needs_fork
def test_failed_child_share_raises(tmp_path, monkeypatch, capfd):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    x, state = awkward_state()
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    # shares are dealt round-robin: the child writes the second path
    with pytest.raises(OSError, match="1 of 2 snapshot writers failed"):
        _write_snapshots([tmp_path / "ok.csv", blocked], x, [state, state])
    assert (tmp_path / "ok.csv").read_bytes() == reference_snapshot(x, state)
    assert "IsADirectoryError" in capfd.readouterr().err


@needs_fork
def test_failed_caller_share_still_reaps_children(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    x, state = awkward_state()
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    paths = [blocked, tmp_path / "b.csv", tmp_path / "c.csv"]
    with pytest.raises(IsADirectoryError):
        _write_snapshots(paths, x, [state] * 3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert (tmp_path / "c.csv").read_bytes() == reference_snapshot(x, state)


@needs_fork
def test_only_the_caller_returns_from_the_writer(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    x, state = awkward_state()
    sentinel = tmp_path / "pids.txt"
    _write_snapshots([tmp_path / f"s{i}.csv" for i in range(3)], x, [state] * 3)
    with open(sentinel, "a", encoding="utf-8") as handle:
        handle.write(f"{os.getpid()}\n")
    assert sentinel.read_text(encoding="utf-8").split() == [str(os.getpid())]


@needs_fork
def test_a_failed_writer_leaves_no_report_beside_new_snapshots(tmp_path, capfd):
    # an earlier run's report.json would describe other snapshots than the
    # new ones; a directory where a snapshot path should be fails a writer
    raw = standard_config(tmp_path / "out", n=128, t_final=0.1)
    raw["time"]["snapshot_stride"] = 1
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(raw))
    assert main(["evolve", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "report.json").exists()
    (out / "snapshot_000001.csv").unlink()
    (out / "snapshot_000001.csv").mkdir()
    assert main(["evolve", "--config", str(cfg)]) == 2
    assert "Is a directory" in capfd.readouterr().err
    assert not (out / "report.json").exists()
    assert (out / "snapshot_000002.csv").exists()


# ------------------------------------------------------ partner process


def partner_config(out_dir, n=128, t_final=0.98):
    """A run of 34 steps, the last one short (t_final / dt = 33.19 at the
    defaults; 33.20 at N = 8192 and t_final = 0.0152), with a snapshot
    every 7 steps."""
    raw = standard_config(out_dir, n=n, t_final=t_final, sigma=0.2, x0=7.0)
    raw["time"]["snapshot_stride"] = 7
    raw["packet"]["k0"] = -3.0
    return raw


@pytest.fixture
def partners(monkeypatch):
    """Force evolve's split rule to `split`; count the runs that fork a
    partner."""
    import rindlersim.evolution as evolution

    march = evolution._march_with_partner
    calls = []

    def counted(*args):
        calls.append(os.getpid())
        return march(*args)

    monkeypatch.setattr(evolution, "_march_with_partner", counted)

    def force(split: bool):
        monkeypatch.setattr(evolution, "_partner_pays", lambda n, n_steps: split)
        return calls

    return force


@needs_fork
@pytest.mark.parametrize(
    "n, t_final",
    # a 2 KiB row, and a 128 KiB row: more than a 64 KiB pipe buffer holds,
    # so the partner's writes and the caller's reads of a row are partial
    [(128, 0.98), (8192, 0.0152)],
    ids=["n128", "n8192"],
)
def test_partner_run_is_byte_identical_to_the_in_process_run(
    tmp_path, monkeypatch, partners, n, t_final
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    outputs = {}
    for split in (False, True):
        calls = partners(split)
        out = tmp_path / f"split{split}"
        artifacts = cmd_evolve(load_config(partner_config(out, n, t_final)))
        assert len(calls) == split
        times = artifacts["result"].times
        outputs[split] = _directory_bytes(out)
    dt = times[1] / 7.0
    assert len(times) == 6 and 0.0 < times[-1] - times[-2] - 5.0 * dt < 0.5 * dt
    assert outputs[True] == outputs[False]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_instability_while_the_partner_waits_exits_3(tmp_path, monkeypatch, capsys, partners):
    import rindlersim.evolution as evolution

    step = evolution.TransportStepper.step_eigen

    def growing(self, pair, dt):
        # far above the norm this under-resolved packet loses a step
        step(self, pair, dt)
        pair *= 1.0 + 1e-3
        return pair

    monkeypatch.setattr(evolution.TransportStepper, "step_eigen", growing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    calls = partners(True)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(partner_config(tmp_path / "out")))
    assert main(["evolve", "--config", str(cfg)]) == 3
    assert len(calls) == 1
    assert "grew" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not (tmp_path / "out").exists()


@needs_fork
def test_a_failed_partner_raises_and_is_reaped(tmp_path, monkeypatch, capfd, partners):
    import rindlersim.evolution as evolution

    step = evolution.TransportStepper.step_eigen
    caller = os.getpid()

    def fails_in_the_partner(self, pair, dt):
        if os.getpid() != caller:
            raise RuntimeError("partner step failed")
        return step(self, pair, dt)

    monkeypatch.setattr(evolution.TransportStepper, "step_eigen", fails_in_the_partner)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    partners(True)
    with pytest.raises(OSError, match="partner process stepping psi' failed"):
        cmd_evolve(load_config(partner_config(tmp_path / "out")))
    assert "RuntimeError: partner step failed" in capfd.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(partner_config(tmp_path / "out")))
    assert main(["evolve", "--config", str(cfg)]) == 2
    assert not (tmp_path / "out").exists()


@needs_fork
def test_a_partner_whose_reader_is_gone_ends_silently(tmp_path, capfd):
    # the read end is closed, as when the CLI was killed: the partner's
    # first snapshot write fails with EPIPE, and the partner ends with
    # code 1 and no traceback
    import rindlersim.evolution as evolution

    config = load_config(partner_config(tmp_path / "out"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    # stands in for the caller's read end, which the partner closes
    theirs = os.open(os.devnull, os.O_RDONLY)
    pair = np.zeros((2, config.window.n), dtype=complex)
    march = functools.partial(evolution._march, 14, 0.01, 0.14, 7)
    try:
        pid = _fork.start(evolution._partner, march, pair[1:], config.generator,
                          config.solver, os.getpid(), write_end, theirs)
    finally:
        os.close(write_end)
        os.close(theirs)
    assert _fork.reap([pid]) == 1
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_partner_without_fork_stays_in_process(tmp_path, monkeypatch, partners, missing):
    reference = tmp_path / "reference"
    partners(False)
    cmd_evolve(load_config(partner_config(reference)))

    def no_fork():
        raise AssertionError("forked without os.fork and os.sched_getaffinity")

    calls = partners(True)
    monkeypatch.delattr(os, missing, raising=False)
    if missing != "fork":
        monkeypatch.setattr(os, "fork", no_fork, raising=False)
    out = tmp_path / "out"
    cmd_evolve(load_config(partner_config(out)))
    assert calls == []
    assert _directory_bytes(out) == _directory_bytes(reference)


def _children(pid: int) -> list:
    with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as handle:
        return [int(child) for child in handle.read().split()]


def _live(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            state = handle.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


@needs_fork
def test_a_killed_cli_leaves_no_live_partner(tmp_path):
    # N = 16384 to t = 1 is 4369 steps, which the split rule gives a partner
    import signal
    import time

    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a partner needs two CPUs")
    if not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"):
        pytest.skip("needs /proc/PID/task/TID/children")
    raw = standard_config(tmp_path / "out", n=16384, t_final=1.0)
    raw["time"]["snapshot_stride"] = 10**6
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(raw))
    src = str(Path(rindlersim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    cli = subprocess.Popen([sys.executable, "-m", "rindlersim", "evolve", "--config", str(cfg)],
                           env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60.0
        while not (partner := _children(cli.pid)):
            assert cli.poll() is None and time.monotonic() < deadline, "no partner was forked"
            time.sleep(0.01)
        time.sleep(0.2)  # well inside the 2.5 s or more of stepping
        assert cli.poll() is None
        cli.send_signal(signal.SIGKILL)
        cli.wait(timeout=30)
        # the partner ends after its next step, not at the next snapshot
        # (the end of the run, 2 s or more of stepping away)
        deadline = time.monotonic() + 1.0
        while _live(partner[0]):
            assert time.monotonic() < deadline, "the partner outlived the CLI"
            time.sleep(0.01)
    finally:
        cli.kill()
        cli.wait(timeout=30)
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------- limits


def test_cmd_limits_galileo(tmp_path):
    out = tmp_path / "galileo.csv"
    rows = cmd_limits("galileo", [0.0, 0.01, 0.05, 0.1], out)
    lines = out.read_text().splitlines()
    assert lines[0] == "v,f_exact,f_limit,abs_diff,bound_v2"
    assert len(lines) == 5
    # v = 0: zero difference
    assert float(rows[0][3]) == 0.0
    # every difference within its bound v^2
    for row in rows[1:]:
        assert float(row[3]) <= float(row[4])
    # spot value at v = 0.1
    assert float(rows[3][3]) == pytest.approx(0.0048, abs=2e-4)


def test_cmd_limits_ultra(tmp_path):
    out = tmp_path / "ultra.csv"
    rows = cmd_limits("ultra", [1e-2, 1e-3, 1e-4], out)
    lines = out.read_text().splitlines()
    assert lines[0] == "delta,g_exact,minus_f_delta,rel_deviation"
    deviations = [float(row[3]) for row in rows]
    assert deviations[0] > deviations[1] > deviations[2]


def test_cmd_limits_validation(tmp_path):
    with pytest.raises(ConfigError):
        cmd_limits("newton", [0.1], tmp_path / "x.csv")


# ------------------------------------------------------------------- cli


def test_cli_coeffs_and_singularity(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert main(["coeffs", "--a", "1.0", "--u-min", "1", "--u-max", "20",
                 "--samples", "200", "--out", str(out)]) == 0
    assert out.exists()
    capsys.readouterr()
    assert main(["singularity", "--a", "1.0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["u_star"] == pytest.approx(3.6242, abs=1e-4)
    assert main(["singularity", "--a", "1.0"]) == 0
    assert "u_star" in capsys.readouterr().out


def test_cli_evolve_success_and_exit_codes(tmp_path):
    cfg = tmp_path / "good.json"
    cfg.write_text(json.dumps(standard_config(tmp_path / "out", n=128, t_final=0.05)))
    assert main(["evolve", "--config", str(cfg)]) == 0

    # window containing the singular point -> exit 2
    bad = standard_config(tmp_path / "bad")
    bad["window"] = {"x_min": 3.0, "x_max": 4.0, "N": 128}
    bad["packet"]["x0"] = 3.3
    cfg_bad = tmp_path / "bad.json"
    cfg_bad.write_text(json.dumps(bad))
    assert main(["evolve", "--config", str(cfg_bad)]) == 2

    # window reaching below u = 1 -> exit 2
    bad["window"] = {"x_min": 0.5, "x_max": 2.0, "N": 128}
    bad["packet"]["x0"] = 1.2
    cfg_bad.write_text(json.dumps(bad))
    assert main(["evolve", "--config", str(cfg_bad)]) == 2

    # packet centre outside the window -> exit 2, and no output directory
    outside = standard_config(tmp_path / "outside", n=128, t_final=0.05, x0=20.0)
    cfg_outside = tmp_path / "outside.json"
    cfg_outside.write_text(json.dumps(outside))
    assert main(["evolve", "--config", str(cfg_outside)]) == 2
    assert not (tmp_path / "outside").exists()

    # unknown config field -> exit 2
    ugly = standard_config(tmp_path / "ugly")
    ugly["typo_field"] = True
    cfg_ugly = tmp_path / "ugly.json"
    cfg_ugly.write_text(json.dumps(ugly))
    assert main(["evolve", "--config", str(cfg_ugly)]) == 2


def test_cli_limits_margin_violation(tmp_path):
    # delta at the near-light-speed singular value -> exit 2
    bad_delta = repr(2.0 * math.exp(-4.0))
    assert main(
        ["limits", "--regime", "ultra", "--values", bad_delta,
         "--out", str(tmp_path / "x.csv")]
    ) == 2
    assert main(
        ["limits", "--regime", "galileo", "--values", "0.5",
         "--out", str(tmp_path / "x.csv")]
    ) == 2


def test_cli_instability_exit_code(tmp_path, monkeypatch):
    import rindlersim.runner as runner_module
    from rindlersim.errors import InstabilityError

    def explode(*args, **kwargs):
        raise InstabilityError(17)

    monkeypatch.setattr(runner_module, "evolve", explode)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(standard_config(tmp_path / "out", n=128, t_final=0.05)))
    assert main(["evolve", "--config", str(cfg)]) == 3


def test_cli_growing_norm_exits_3(tmp_path, monkeypatch, capsys):
    # a stepper whose psi gains 10 times the tolerance a step: finite, but
    # growing, so the first snapshot after t = 0 stops the run
    import rindlersim.evolution as evolution

    step = evolution.TransportStepper.step_eigen

    def growing(self, pair, dt):
        step(self, pair, dt)
        pair *= 1.0 + 10.0 * evolution.NORM_GROWTH_TOL
        return pair

    monkeypatch.setattr(evolution.TransportStepper, "step_eigen", growing)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(standard_config(tmp_path / "out", n=128, t_final=0.05)))
    assert main(["evolve", "--config", str(cfg)]) == 3
    assert "grew" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_overflowing_observables_exit_3(tmp_path):
    # finite fields whose norms overflow must not give a report with inf;
    # far out on the right branch that needs no amplitude above the bound
    raw = standard_config(tmp_path / "out", n=128, t_final=0.05, sigma=1e109, x0=2.5e110)
    raw["window"].update(x_min=1e110, x_max=4e110)
    raw["packet"]["amplitude"] = 1e100
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(raw))
    assert main(["evolve", "--config", str(cfg)]) == 3
    assert not (tmp_path / "out" / "report.json").exists()


def test_cli_out_override(tmp_path):
    cfg = standard_config(tmp_path / "ignored", n=128, t_final=0.0)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    target = tmp_path / "elsewhere"
    assert main(["evolve", "--config", str(cfg_path), "--out", str(target)]) == 0
    assert (target / "report.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_missing_config_exits_2(tmp_path, capsys):
    assert main(["evolve", "--config", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"a": 1.0, "window": ')
    assert main(["evolve", "--config", str(cfg)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def _evolve_argv(edit):
    """argv of an evolve run on the standard config changed by edit."""

    def argv(tmp_path):
        raw = standard_config(tmp_path / "out", n=128, t_final=0.05)
        edit(raw)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        return ["evolve", "--config", str(cfg)]

    return argv


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        (_evolve_argv(lambda raw: raw.update(a="1.0")), 2, "error: a must be a number"),
        (_evolve_argv(lambda raw: raw.update(a=0.0)), 2,
         "error: acceleration must be positive"),
        (_evolve_argv(lambda raw: raw.update(a=-2.0)), 2,
         "error: acceleration must be positive"),
        (_evolve_argv(lambda raw: raw["scheme"].update(derivative="upwind1")), 2,
         "error: scheme.derivative must be 'central4' (SBP(4,2) with SAT), got 'upwind1'. "
         "The first-order upwind scheme was removed.\n"),
        (_evolve_argv(lambda raw: raw["window"].update(x_min=math.nan)), 2,
         "error: window.x_min must be finite"),
        (_evolve_argv(lambda raw: raw["window"].update(x_max=4.5)), 2,
         "error: empty grid interval"),
        (_evolve_argv(lambda raw: raw.update(output_dir=5)), 2,
         "error: output_dir must be a string"),
        (_evolve_argv(lambda raw: raw.pop("output_dir")), 2,
         "error: no output directory given"),
        (_evolve_argv(lambda raw: raw["packet"].update(sigma=1e-200)), 2,
         "error: packet width"),
        (_evolve_argv(lambda raw: raw["packet"].update(sigma=1e200)), 2,
         "error: packet width"),
        (_evolve_argv(lambda raw: raw["packet"].update(amplitude=1e-310)), 2,
         "error: packet amplitude"),
        (_evolve_argv(lambda raw: raw["packet"].update(amplitude=1e200)), 2,
         "error: packet amplitude"),
        (_evolve_argv(lambda raw: raw["time"].update(t_final=1e308)), 2,
         "error: t_final = 1e+308 takes too many steps"),
        (_evolve_argv(lambda raw: raw["time"].update(cfl=1e-310)), 2,
         "error: t_final = 0.05 takes too many steps"),
        # about 1e202 steps: past MAX_STEPS, so it exits before the first
        (_evolve_argv(lambda raw: raw["time"].update(cfl=1e-200, t_final=1.0)), 2,
         "error: t_final = 1 takes too many steps"),
        # about 3.4e6 steps at stride 1: under MAX_STEPS, but 4.3e8 snapshot
        # samples, past MAX_SNAPSHOT_SAMPLES, so it exits before the first step
        (_evolve_argv(lambda raw: raw["time"].update(t_final=1e5, snapshot_stride=1)), 2,
         "error: too many snapshot samples: 3386668 snapshots of N = 128"),
        (lambda tmp_path: ["limits", "--regime", "galileo", "--values", "0.01,abc",
                           "--out", str(tmp_path / "l.csv")], 2,
         "error: could not parse --values"),
        (lambda tmp_path: ["coeffs", "--samples", "1", "--out", str(tmp_path / "c.csv")], 2,
         "error: need at least 2 samples"),
        (lambda tmp_path: ["singularity", "--json"], 0, ""),
    ],
    ids=["a-string", "a-zero", "a-negative", "derivative-upwind1", "x_min-nan",
         "window-empty", "output_dir-number", "no-output_dir",
         "sigma-underflow", "sigma-overflow", "amplitude-1e-310", "amplitude-1e200",
         "t_final-1e308", "cfl-1e-310", "cfl-1e-200", "snapshot-samples",
         "values-not-numbers", "coeffs-one-sample", "singularity"],
)
def test_entry_point_exit_codes(tmp_path, argv, code, stderr):
    # `python -m rindlersim`, as the benchmark runs it: an error is one
    # stderr line, with no traceback or warning, and makes no output
    env = dict(os.environ, PYTHONPATH=str(Path(rindlersim.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "rindlersim", *argv(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert run.returncode == code
    assert run.stderr.startswith(stderr) and run.stderr.count("\n") == (code != 0)
    assert not (tmp_path / "out").exists()
    if code == 0:
        assert json.loads(run.stdout)["u_star"] == pytest.approx(3.6242, abs=1e-4)


@pytest.mark.parametrize("command", ["evolve", "coeffs", "limits"])
def test_cli_out_under_a_regular_file_exits_2(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(standard_config(tmp_path / "out", n=128, t_final=0.0)))
    argv = {
        "evolve": ["evolve", "--config", str(cfg), "--out", str(blocker / "out")],
        "coeffs": ["coeffs", "--samples", "20", "--out", str(blocker / "c.csv")],
        "limits": ["limits", "--regime", "galileo", "--values", "0.1",
                   "--out", str(blocker / "l.csv")],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
