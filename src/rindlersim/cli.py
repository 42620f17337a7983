"""Command-line interface with the subcommands coeffs, singularity,
evolve and limits.

Exit codes: 0 on success, 3 for numerical instability during a run
(InstabilityError), and 2 for every other error the package raises
(RindlerSimError) and for files that cannot be read or written.

Each subcommand loads only what it runs: coeffs, singularity and limits
come from `scans`, which loads no numpy (coeffs and limits import the
coefficients when called); `runner` and the solver load only when
evolve calls `load_config` or `cmd_evolve`.  main calls all five through
this module's globals.

run is the process entry of `python -m rindlersim` and of the
`rindlersim` console script; main(argv) has no process-wide side
effects, so tests and benchmarks call it in process.
"""

import argparse
import gc
import json
import sys

from .coords import Acceleration
from .errors import ConfigError, InstabilityError, RindlerSimError
from .scans import cmd_coeffs, cmd_limits, cmd_singularity


def load_config(source):
    """runner.load_config; the first call imports runner and the solver."""
    from .runner import load_config

    return load_config(source)


def cmd_evolve(config, out_dir=None) -> dict:
    """runner.cmd_evolve; the first call imports runner and the solver."""
    from .runner import cmd_evolve

    return cmd_evolve(config, out_dir=out_dir)


def _parse_values(raw: str) -> list:
    try:
        return [float(item) for item in raw.split(",") if item.strip()]
    except ValueError as exc:
        raise ConfigError(f"could not parse --values {raw!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rindlersim",
        description=(
            "Transport simulator for a wavefunction and its accelerated-frame "
            "reading, embedded as a two-component field on an inertial grid."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coeffs = sub.add_parser(
        "coeffs",
        help="scan generator coefficients to CSV",
        description=(
            "Scan (u, f, g, D) over u = a*x in [u-min, u-max].  The scan is "
            "in the dimensionless u, so the CSV does not depend on --a."
        ),
    )
    coeffs.add_argument(
        "--a",
        type=float,
        default=1.0,
        help="proper acceleration; accepted for symmetry with the other "
        "subcommands, it does not change the CSV (the scan is in u = a*x)",
    )
    coeffs.add_argument("--u-min", type=float, default=1.0)
    coeffs.add_argument("--u-max", type=float, default=20.0)
    coeffs.add_argument("--samples", type=int, default=2000)
    coeffs.add_argument("--out", required=True, metavar="CSV")

    singularity = sub.add_parser("singularity", help="report the singular point")
    singularity.add_argument("--a", type=float, default=1.0, help="proper acceleration")
    singularity.add_argument("--json", action="store_true", help="emit JSON")

    evolve = sub.add_parser("evolve", help="run an evolution from a config file")
    evolve.add_argument("--config", required=True, metavar="JSON")
    evolve.add_argument(
        "--out", default=None, metavar="DIR", help="override config output_dir"
    )

    limits = sub.add_parser("limits", help="compare exact coefficients with a limit")
    limits.add_argument("--regime", choices=["galileo", "ultra"], required=True)
    limits.add_argument(
        "--values", required=True, help="comma-separated v (galileo) or delta (ultra)"
    )
    limits.add_argument("--out", required=True, metavar="CSV")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "coeffs":
            cmd_coeffs(Acceleration(args.a), args.u_min, args.u_max, args.samples, args.out)
            print(f"wrote {args.out}")
        elif args.command == "singularity":
            report = cmd_singularity(Acceleration(args.a))
            if args.json:
                print(json.dumps(report, indent=2, sort_keys=True))
            else:
                print(f"u_star = {report['u_star']:.9f}")
                print(f"x_star = {report['x_star']:.9f}")
                print(f"v_star = {report['v_star']:.9f}")
                print(
                    f"near-light-speed estimate: delta_star = "
                    f"{report['ultra_delta_star']:.9f} "
                    f"(v = {report['ultra_v_estimate']:.9f})"
                )
        elif args.command == "evolve":
            config = load_config(args.config)
            artifacts = cmd_evolve(config, out_dir=args.out)
            print(f"wrote {len(artifacts['snapshot_paths'])} snapshot(s)")
            print(f"wrote {artifacts['report_path']}")
        elif args.command == "limits":
            cmd_limits(args.regime, _parse_values(args.values), args.out)
            print(f"wrote {args.out}")
    except InstabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return 3
    except (RindlerSimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run():
    """Process entry: run main() with the cyclic garbage collector off,
    from before the subcommand's lazy imports to the end, and exit with
    its status.

    A run makes no reference cycle that must be freed while it runs, so
    the collector would only walk numpy's and the package's import-time
    objects: in collections during the imports, and in the interpreter's
    final collection at exit, which skips what gc.freeze() froze.
    Forked snapshot writers and the psi' partner inherit the disabled
    collector and end with os._exit."""
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
