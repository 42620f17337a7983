"""Coefficient scans and the singular-point report: the coeffs, limits
and singularity subcommands.

Each writes a small CSV, or returns a report, with the serialization
rules of `runner`: '.' decimals, shortest round-trip float formatting,
LF line endings and UTF-8.  This module loads no numpy and no solver at
import, so `singularity`, which reads the tabulated root of `coords`,
runs without them; `cmd_coeffs` and `cmd_limits` import what they
sample when they are called.
"""

import math

from .coords import Acceleration, find_singularity
from .errors import ConfigError, integer, number

__all__ = ["cmd_coeffs", "cmd_singularity", "cmd_limits"]


def _fmt(value: float) -> str:
    """Shortest decimal string that round-trips to the same double."""
    return repr(float(value))


def _write_csv(path, header: str, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")


def cmd_coeffs(
    a: Acceleration, u_min: float, u_max: float, samples: int, out_path
) -> list:
    """Scan (u, f, g, D) over [u_min, u_max] and write a CSV.

    The scan is in the dimensionless u = a*x, so `a` does not change it.

    Rows where the coefficients are unusable (|D| <= eps or |f| above
    the coefficient cap) carry empty f and g fields and the flag
    'singular' in the regime_flag column.
    """
    # imported here, not at the top, so that `singularity` loads no numpy
    import numpy as np

    from .hamiltonian import COEFFICIENT_CAP, SINGULAR_EPS, coefficient_arrays

    # a bound that is not finite would reach linspace, which warns on it
    u_min, u_max = number(u_min, "u_min"), number(u_max, "u_max")
    if not (1.0 <= u_min < u_max):
        raise ConfigError(f"need 1 <= u_min < u_max, got [{u_min}, {u_max}]")
    if integer(samples, "samples") < 2:
        raise ConfigError(f"need at least 2 samples, got {samples}")
    u = np.linspace(u_min, u_max, samples)
    # every sample is evaluated; singular ones are flagged, not raised
    with np.errstate(divide="ignore", invalid="ignore"):
        f, g, D = coefficient_arrays(u, eps=-math.inf)
    flagged = (np.abs(D) <= SINGULAR_EPS) | (np.abs(f) > COEFFICIENT_CAP)

    rows = []
    for i in range(samples):
        if flagged[i]:
            rows.append([_fmt(u[i]), "", "", _fmt(D[i]), "singular"])
        else:
            rows.append([_fmt(u[i]), _fmt(f[i]), _fmt(g[i]), _fmt(D[i]), ""])
    _write_csv(out_path, "u,f,g,D,regime_flag", rows)
    return rows


def cmd_singularity(a: Acceleration) -> dict:
    """Singular-point report: root location, velocity there, and the
    near-light-speed estimate of the singular velocity for comparison."""
    point = find_singularity(a)
    delta_star = 2.0 * math.exp(-4.0)  # root of log(delta/2) = -4
    return {
        "a": a.a,
        "u_star": point.u_star,
        "x_star": point.x_star,
        "v_star": point.v_star,
        "ultra_delta_star": delta_star,
        "ultra_v_estimate": 1.0 - delta_star,
    }


def cmd_limits(regime: str, values, out_path) -> list:
    """Comparison table between exact coefficients and a limit regime.

    galileo: v, f_exact, f_limit, |difference| and the bound v^2.
    ultra: delta, g_exact at the matching position, -f_delta and their
    relative deviation.
    """
    # imported here, not at the top, so that `singularity` loads no numpy
    from .hamiltonian import (
        coefficients,
        galileo_coefficients,
        ultra_coefficients,
        ultra_f_delta,
    )

    rows = []
    if regime == "galileo":
        for v in values:
            v = float(v)
            limit = galileo_coefficients(v)
            exact = coefficients(limit.u)
            diff = abs(exact.f - limit.f)
            rows.append([_fmt(v), _fmt(exact.f), _fmt(limit.f), _fmt(diff), _fmt(v * v)])
        _write_csv(out_path, "v,f_exact,f_limit,abs_diff,bound_v2", rows)
    elif regime == "ultra":
        for delta in values:
            fd = ultra_f_delta(delta)
            limit = ultra_coefficients(delta)
            exact = coefficients(limit.u)
            rel = abs(exact.g - (-fd)) / abs(fd)
            rows.append([_fmt(delta), _fmt(exact.g), _fmt(-fd), _fmt(rel)])
        _write_csv(out_path, "delta,g_exact,minus_f_delta,rel_deviation", rows)
    else:
        raise ConfigError(f"unknown limit regime {regime!r}")
    return rows
