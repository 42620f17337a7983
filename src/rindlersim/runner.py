"""Scenario orchestration: strict config loading and evolution runs.
The coefficient scans, singularity reports and limit-comparison tables
live in `scans`; this module re-exports their commands.

Serialization rules, chosen for bit-stable diffs: CSV files use '.'
decimals, shortest round-trip float formatting, LF line endings and
UTF-8; report JSON uses sorted keys and no timestamps, so identical
configurations produce byte-identical outputs.  Config files are JSON
with a fixed field set; unknown fields are rejected outright.
load_config builds the run's generator once; cmd_evolve runs on it and
makes its output directory only after the run returns.

Snapshot CSVs are formatted a block of rows at a time by the vectorised
shortest round-trip formatter of _shortest, whose fields are exactly
repr(float(v)), and dealt round-robin over as many writers as
_fork.cpus() allows: the calling process writes the first share and
children started through _fork the others.  Which process writes a
file does not change its bytes.
"""

import contextlib
import json
import math
import os
import re
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import _fork
from ._shortest import write_csv_body
from .coords import Acceleration
from .embedding import extract_inertial, extract_rindler
from .errors import ConfigError
from .evolution import (
    EvolutionResult,
    Generator,
    GridWindow,
    SolverConfig,
    WavepacketSpec,
    build_generator,
    evolve,
)
# Unused here, but the traced benchmark (perfbench/tracing.py) wraps this
# name on this module, so it must stay importable from it.
from .coords import find_singularity  # noqa: F401
# the scan commands live in scans; callers import them from here as well
from .scans import cmd_coeffs, cmd_limits, cmd_singularity  # noqa: F401

__all__ = [
    "SimulationConfig",
    "load_config",
    "cmd_coeffs",
    "cmd_singularity",
    "cmd_evolve",
    "cmd_limits",
    "SNAPSHOT_HEADER",
]

SNAPSHOT_HEADER = (
    "x,Re(ψᵉ),Im(ψᵉ),Re(ψᵒ),Im(ψᵒ),"
    "Re(ψ),Im(ψ),Re(ψ'),Im(ψ')"
)
# the names f"snapshot_{index:06d}.csv" gives, and no others: ASCII digits,
# six of them, or more with no leading zero from index 10**6 on
_SNAPSHOT_NAME = re.compile(r"snapshot_([0-9]{6}|[1-9][0-9]{6,})\.csv")

# the spellings of the one derivative, SBP(4,2) with SAT
_DERIVATIVES = ("central4", "central-4th-order")


@dataclass(frozen=True)
class SimulationConfig:
    """A loaded configuration.  The generator, built once at load,
    carries the window, the acceleration and the coefficient mode."""

    generator: Generator
    packet: WavepacketSpec
    solver: SolverConfig
    output_dir: str | None

    @property
    def window(self) -> GridWindow:
        return self.generator.window

    @property
    def a(self) -> Acceleration:
        return self.generator.window.a

    @property
    def mode(self) -> str:
        return self.generator.mode

    @property
    def delta(self) -> float | None:
        return self.generator.delta

    def physics_dict(self) -> dict:
        """Configuration echo for reports; deliberately excludes the
        output directory so reruns into different places stay
        byte-identical."""
        d = {
            "a": self.a.a,
            "window": {
                "x_min": self.window.x_min,
                "x_max": self.window.x_max,
                "N": self.window.n,
            },
            "packet": asdict(self.packet),
            "time": {
                "t_final": self.solver.t_final,
                "cfl": self.solver.cfl,
                "snapshot_stride": self.solver.snapshot_stride,
            },
            "scheme": {"derivative": "central4"},
            "mode": self.mode if self.delta is None else {"kind": self.mode, "delta": self.delta},
        }
        return d


def _require_keys(section, allowed: set, required: set, where: str) -> dict:
    """section, once it is checked to be a JSON object with no field
    outside allowed and every field in required."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in {where}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing field(s) {sorted(missing)} in {where}")
    return section


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return float(value)


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def load_config(source) -> SimulationConfig:
    """Build a validated SimulationConfig from a dict or a path to JSON
    text.  Fails closed: unknown fields, sections that are not objects
    and text that is not JSON are errors.  Omitted optional fields take
    the defaults of WavepacketSpec and SolverConfig."""
    try:
        if isinstance(source, (str, os.PathLike)):
            with open(source, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        else:
            raw = source
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc

    _require_keys(
        raw,
        allowed={"a", "window", "packet", "time", "scheme", "mode", "output_dir"},
        required={"a", "window", "packet", "time"},
        where="configuration",
    )

    a = Acceleration(_as_number(raw["a"], "a"))

    win = _require_keys(raw["window"], {"x_min", "x_max", "N"}, {"x_min", "x_max", "N"}, "window")
    window = GridWindow(
        x_min=_as_number(win["x_min"], "window.x_min"),
        x_max=_as_number(win["x_max"], "window.x_max"),
        n=_as_int(win["N"], "window.N"),
        a=a,
    )

    pk = _require_keys(raw["packet"], {"x0", "sigma", "k0", "amplitude"}, {"x0", "sigma"}, "packet")
    packet = WavepacketSpec(**{key: _as_number(pk[key], f"packet.{key}") for key in pk})

    tm = _require_keys(raw["time"], {"t_final", "cfl", "snapshot_stride"}, {"t_final"}, "time")
    solver_args = {
        key: (_as_int if key == "snapshot_stride" else _as_number)(tm[key], f"time.{key}")
        for key in tm
    }
    scheme_raw = _require_keys(raw.get("scheme", {}), {"derivative", "boundary"}, set(), "scheme")
    if "derivative" in scheme_raw:
        derivative = scheme_raw["derivative"]
        if not isinstance(derivative, str):
            raise ConfigError(f"scheme.derivative must be a string, got {derivative!r}")
        if derivative not in _DERIVATIVES:
            raise ConfigError(
                f"scheme.derivative must be 'central4' (SBP(4,2) with SAT), got "
                f"{derivative!r}. The first-order upwind scheme was removed."
            )
    # "sponge" is the old name of the one boundary treatment, SBP-SAT
    boundary = scheme_raw.get("boundary", "sponge")
    if boundary != "sponge":
        raise ConfigError(
            f"boundary must be 'sponge' (the SBP-SAT closure), got {boundary!r}. "
            "Periodic boundaries were removed."
        )
    solver = SolverConfig(**solver_args)

    mode_raw = raw.get("mode", "exact")
    if isinstance(mode_raw, str):
        mode_raw = {"kind": mode_raw}
    _require_keys(mode_raw, {"kind", "delta"}, {"kind"}, "mode (a string or object)")
    delta = _as_number(mode_raw["delta"], "mode.delta") if "delta" in mode_raw else None

    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string path")

    # validates the mode before any run starts; the window was checked when built
    generator = build_generator(window, mode=mode_raw["kind"], delta=delta)
    return SimulationConfig(
        generator=generator, packet=packet, solver=solver, output_dir=output_dir
    )


def _write_snapshot(path, x, state):
    """One snapshot CSV: x and the real and imaginary parts of psi_e,
    psi_o, psi = psi_e + psi_o and psi' = psi_e - psi_o, one grid point
    a row.  The table is formatted by _shortest.write_csv_body, at most
    CHUNK_ROWS rows at a time; every field is repr(float(v)) and a
    non-finite value raises ValueError."""
    columns = (
        state.even,
        state.odd,
        extract_inertial(state).values,
        extract_rindler(state).values,
    )
    table = np.empty((x.size, 9))
    table[:, 0] = x
    # a C-ordered (N, 4) complex array viewed as floats is (N, 8): Re, Im, ...
    table[:, 1:] = np.stack(columns, axis=1).view(float)
    with open(path, "wb") as handle:
        handle.write((SNAPSHOT_HEADER + "\n").encode("utf-8"))
        write_csv_body(handle, table)


def _write_snapshots(paths, x, states):
    """Write snapshot CSVs, dealt round-robin over as many writers as
    _fork.cpus() allows.  The caller writes the first share; each other
    share goes to a child started by _fork.start.  Every child is reaped
    before this returns or raises; a child that fails raises OSError
    here."""
    workers = max(1, min(len(paths), _fork.cpus()))

    def write(share):
        for path, state in zip(paths[share::workers], states[share::workers]):
            _write_snapshot(path, x, state)

    children = []
    try:
        for share in range(1, workers):
            children.append(_fork.start(write, share))
        write(0)
    finally:
        failed = _fork.reap(children)
    if failed:
        raise OSError(f"{failed} of {workers} snapshot writers failed")


def _report_payload(config: SimulationConfig, result: EvolutionResult) -> dict:
    rows = []
    for row in result.report:
        entry = {}
        for field in fields(row):
            value = getattr(row, field.name)
            if isinstance(value, complex):
                value = {"im": value.imag, "re": value.real}
            entry[field.name] = value
        rows.append(entry)
    return {"config": config.physics_dict(), "rows": rows}


def cmd_evolve(config: SimulationConfig, out_dir=None) -> dict:
    """Run one evolution; write per-snapshot CSVs and the report JSON
    into an output directory made after the run returns.  An earlier
    run's report.json there is deleted before the first CSV is written,
    and so are its snapshot CSVs past this run's last (snapshot_NNNNNN.csv
    with an index of this run's count or more); so a write that fails
    leaves no report beside the new snapshots.  No other file is touched,
    and a run that fails before its first write deletes nothing.

    Returns a small manifest with the written paths and the in-memory
    result.  Reruns with an identical configuration are byte-identical.
    """
    target = out_dir if out_dir is not None else config.output_dir
    if target is None:
        raise ConfigError("no output directory given (config output_dir or out_dir)")

    result = evolve(config.packet, config.generator, config.solver)
    os.makedirs(target, exist_ok=True)
    report_path = os.path.join(target, "report.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(report_path)
    count = len(result.snapshots)
    # an earlier, longer run into target left snapshots past this run's last
    for name in os.listdir(target):
        match = _SNAPSHOT_NAME.fullmatch(name)
        if match and int(match.group(1)) >= count:
            os.remove(os.path.join(target, name))

    x = config.generator.x
    snapshot_paths = [
        os.path.join(target, f"snapshot_{index:06d}.csv") for index in range(count)
    ]
    _write_snapshots(snapshot_paths, x, result.snapshots)

    with open(report_path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(_report_payload(config, result), handle, indent=2, sort_keys=True)
        handle.write("\n")

    return {
        "report_path": report_path,
        "snapshot_paths": snapshot_paths,
        "result": result,
    }
