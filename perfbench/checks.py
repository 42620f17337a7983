"""Correctness checks on the outputs of the rindlersim CLI.

Every check compares against something computed apart from the solver
(the analytic packet, the characteristics oracle, the benchmark's own
root of the singularity equation) or against a property the method must
have (f + g = 1, psi = psi_e + psi_o, a non-increasing inertial norm,
byte-identical reruns).  None compares against a stored copy of earlier
output.  A failed check raises CheckError.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Relative growth of the inertial norm over its initial value that a run
# may show.  f + g = 1 makes the exact norm non-increasing up to sponge
# absorption; RK4 with the central stencil only loses norm.
NORM_GROWTH_TOL = 1e-6
# |f + g - 1| allowed on sampled coefficients (a few ulps of |f| <= 10).
SUM_RULE_TOL = 1e-12
# Distance between the CLI's u* and the benchmark's own root.
U_STAR_TOL = 1e-9
# Half-width in u of the band around u* inside which `coeffs` may flag rows.
FLAG_BAND = 0.05
# Relative agreement of report.json norms with norms computed from the CSVs.
REPORT_NORM_TOL = 1e-9
# Relative agreement of the characteristics reference at substeps h and h/2
# (1e-13 seen on every workload).
REFERENCE_TOL = 1e-11


class CheckError(Exception):
    """An output of the program is wrong."""


# What reading wrong output can raise besides CheckError: output that
# does not parse, lacks a key or a file, or has the wrong shape.
BAD_OUTPUT = (CheckError, ValueError, KeyError, IndexError, OSError)


def gaussian(x, x0: float, sigma: float, k0: float) -> np.ndarray:
    """The packet of a config, amplitude 1: exp(-(x-x0)^2/(2 sigma^2) + i k0 x)."""
    return np.exp(-((x - x0) ** 2) / (2.0 * sigma**2)) * np.exp(1j * k0 * x)


def read_snapshot(path: Path):
    """(x, psi_e, psi_o, psi, psi') from one snapshot CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 9:
        raise CheckError(f"{path.name}: {data.shape[1]} columns, expected 9")
    if not np.all(np.isfinite(data)):
        raise CheckError(f"{path.name}: non-finite value")
    c = data[:, 1::2] + 1j * data[:, 2::2]
    return data[:, 0], c[:, 0], c[:, 1], c[:, 2], c[:, 3]


def check_components(name: str, even, odd, psi, psi_prime):
    """psi = psi_e + psi_o and psi' = psi_e - psi_o, bit for bit: the CSV
    holds shortest round-trip floats, so the sums re-done here are exact."""
    if not np.array_equal(psi, even + odd):
        raise CheckError(f"{name}: psi != psi_e + psi_o")
    if not np.array_equal(psi_prime, even - odd):
        raise CheckError(f"{name}: psi' != psi_e - psi_o")


def norm(values, dx: float) -> float:
    return math.sqrt(float(np.sum(np.abs(values) ** 2)) * dx)


def norm_holds(norms) -> bool:
    """The inertial norm never exceeds its initial value beyond NORM_GROWTH_TOL."""
    limit = norms[0] * (1.0 + NORM_GROWTH_TOL)
    return all(math.isfinite(n) and n <= limit for n in norms)


def max_rel_error(values, reference) -> float:
    return float(np.max(np.abs(values - reference)) / np.max(np.abs(reference)))


def check_close(name: str, values, reference, tol: float):
    err = max_rel_error(values, reference)
    if not err <= tol:
        raise CheckError(f"{name}: relative max error {err:.3e} above {tol:.1e}")
    return err


def _reject_constant(token):
    raise CheckError(f"report.json holds {token}")


def read_report(path: Path) -> dict:
    """report.json, refusing NaN and infinities anywhere in it."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def check_report(report: dict, times, norms_inertial, norms_rindler):
    """Rows agree with the snapshots: the expected times, the same norms."""
    rows = report["rows"]
    if len(rows) != len(norms_inertial):
        raise CheckError(f"report has {len(rows)} rows for {len(norms_inertial)} snapshots")
    for row, t, n_in, n_rin in zip(rows, times, norms_inertial, norms_rindler):
        if not math.isclose(row["t"], t, rel_tol=1e-9, abs_tol=1e-12):
            raise CheckError(f"report time {row['t']} != expected {t}")
        for key, expected in (("norm_inertial", n_in), ("norm_rindler", n_rin)):
            if not math.isclose(row[key], expected, rel_tol=REPORT_NORM_TOL, abs_tol=1e-12):
                raise CheckError(f"report {key} {row[key]} != {expected} at t = {t}")


def check_sum_rule(f, g):
    err = float(np.max(np.abs(f + g - 1.0)))
    if not err <= SUM_RULE_TOL:
        raise CheckError(f"|f + g - 1| = {err:.3e} on the sampled generator")


def own_u_star() -> float:
    """Root of 2 = theta (1 + exp(-2 theta)) by bisection; u* = cosh(theta*)."""
    lo, hi = 0.5, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * (1.0 + math.exp(-2.0 * mid)) < 2.0:
            lo = mid
        else:
            hi = mid
    return math.cosh(0.5 * (lo + hi))


def check_singularity(stdout: str, a: float):
    report = json.loads(stdout, parse_constant=_reject_constant)
    u_star = own_u_star()
    if abs(report["u_star"] - u_star) > U_STAR_TOL:
        raise CheckError(f"singularity u_star {report['u_star']} != {u_star}")
    if abs(report["x_star"] - u_star / a) > U_STAR_TOL / a:
        raise CheckError(f"singularity x_star {report['x_star']} != {u_star / a}")


def check_coeffs(path: Path):
    """f + g = 1 on unflagged rows; flagged rows only near u*; some flagged."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] != "u,f,g,D,regime_flag":
        raise CheckError(f"coeffs header {lines[0]!r}")
    u_star = own_u_star()
    flagged = 0
    for line in lines[1:]:
        u, f, g, _, flag = line.split(",")
        if flag:
            flagged += 1
            if flag != "singular" or abs(float(u) - u_star) > FLAG_BAND:
                raise CheckError(f"coeffs row u = {u} flagged {flag!r} outside the band")
        elif not abs(float(f) + float(g) - 1.0) <= SUM_RULE_TOL:
            raise CheckError(f"coeffs row u = {u}: f + g = {float(f) + float(g)!r}")
    if flagged == 0:
        raise CheckError("coeffs flagged no row around u*")


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()
