"""Command-line interface with the subcommands coeffs, singularity,
evolve and limits.

Exit codes: 0 on success, 3 for numerical instability during a run
(InstabilityError), and 2 for every other error the package raises
(RindlerSimError) and for files that cannot be read or written.
"""

import argparse
import json
import sys

from .coords import Acceleration
from .errors import ConfigError, InstabilityError, RindlerSimError
from .runner import cmd_coeffs, cmd_evolve, cmd_limits, cmd_singularity, load_config


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


if __name__ == "__main__":
    sys.exit(main())
