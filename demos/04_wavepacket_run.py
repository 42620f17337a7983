"""Evolve a Gaussian packet in the two-component encoding and verify it
against both independent references.

The inertial reading psi = psi_e + psi_o advects at exactly unit speed,
so after time T it must equal the initial packet translated by T.  The
accelerated-frame reading psi' = psi_e - psi_o is transported at the
variable speed c_minus(x) = f - g < 1, so it lags behind; the method of
characteristics gives its exact profile on the run's own window, with
zero data entering through the inflow edge as in the solver.  Both
comparisons run on the same simulation output.

Writes snapshots and the observable report under wavepacket_out/.
"""

import os

from rindlersim import cmd_evolve, extract_inertial, extract_rindler, load_config
from rindlersim.oracle import characteristics_rindler, compare, exact_inertial

here = os.path.dirname(os.path.abspath(__file__))
out_dir = os.path.join(here, "wavepacket_out")

config = load_config(
    {
        "a": 1.0,
        "window": {"x_min": 4.5, "x_max": 12.0, "N": 2048},
        "packet": {"x0": 6.0, "sigma": 0.15, "k0": 0.0, "amplitude": 1.0},
        "time": {"t_final": 1.0, "cfl": 0.5, "snapshot_stride": 250},
        "scheme": {"derivative": "central4", "boundary": "sponge"},
        "mode": "exact",
        "output_dir": out_dir,
    }
)

artifacts = cmd_evolve(config)
result = artifacts["result"]

print("=== Observable report ===")
print(f"{'t':>6} {'|psi|':>10} {'|psi_prime|':>12} {'<x> inertial':>13} {'<x> accel':>11}")
for row in result.report:
    print(
        f"{row.t:6.3f} {row.norm_inertial:10.6f} {row.norm_rindler:12.6f} "
        f"{row.x_inertial:13.6f} {row.x_rindler:11.6f}"
    )

final = result.snapshots[-1]
T = result.times[-1]
window = config.window
grid = window.grid()

print()
print("=== Inertial component vs exact advection ===")
report = compare(extract_inertial(final), exact_inertial(config.packet, grid, T))
print(f"relative L2 error  {report.l2_rel:.3e}")
print(f"relative Linf      {report.linf_rel:.3e} (worst at x = {report.x_of_max:.3f})")

print()
print("=== Accelerated-frame component vs characteristics ===")
reference = characteristics_rindler(config.packet, T, window)
report = compare(extract_rindler(final), reference)
print(f"relative Linf      {report.linf_rel:.3e}")
print(
    f"packet center moved from {config.packet.x0} to "
    f"{result.report[-1].x_rindler:.4f} "
    f"(displacement {result.report[-1].x_rindler - config.packet.x0:.4f}, "
    "vs 1.0 for the inertial reading)"
)

print()
norms = [row.norm_inertial for row in result.report]
print(f"inertial norm drift over the run: {max(abs(n / norms[0] - 1.0) for n in norms):.2e}")
print(f"outputs in {out_dir}")
