"""Time evolution of the two-component state under
i dPsi/dt = -i [f(x) I + g(x) sigma_x] dPsi/dx on a finite window.

Because the spin block is x-independent, the system decouples exactly
in the sigma_x eigenbasis: the inertial combination psi = psi_e + psi_o
is transported at speed c_plus = f + g (identically 1), while the
accelerated-frame combination psi' = psi_e - psi_o is transported at
the variable speed c_minus = f - g.  The solver therefore advances the
two scalars as the rows of one (2, N) array (method of lines, classical
RK4), which TransportStepper.step_eigen overwrites in place without
allocating; evolve reassembles (psi_e, psi_o) only at snapshots, each
a new array that later steps leave alone.  A coupled two-component
stepper, with plain allocating RK4, is kept alongside as a
consistency hook.

The two rows share no data between snapshots.  So on a large run (at
least PARTNER_MIN_POINTS samples and PARTNER_MIN_POINT_STEPS
point-steps), where _fork.cpus() allows two processes, evolve starts
one partner process through _fork right after the t = 0 snapshot: the
caller steps psi and the partner its own copy of psi', each with a
stepper built for its own row on the same kernel, with the same step
sizes.  At each snapshot the partner writes psi' down one pipe and
steps on; the caller reads it into the pair before it assembles and
reports.  Nothing else passes between them, and no memory is shared.
The partner ends after the last snapshot, on EPIPE once the caller
closed the pipe, or within one step once the caller is gone; the
caller reaps it on every path, before it closes the pipe.  _fork owns
the fork, the child's exit and the reaping.  Every float of the
outputs is the one the in-process run gives.

evolve(packet, generator, solver) runs on a generator from
build_generator and never rebuilds it.  The generator is applied in
non-symmetrized form, coefficient times derivative; it is not Hermitian
for variable g, so only the inertial component has a conserved norm.
Windows must stay clear of the denominator singularity: a GridWindow
checks that when it is built, so every window that exists is one the
solver and the oracle accept.

Boundary handling: the derivative is the diagonal-norm SBP(4,2)
operator of Mattsson & Nordstrom (2004, J. Comput. Phys. 199): the
fourth-order central stencil inside, four closure rows at each edge,
and norm weights 17/48, 59/48, 43/48, 49/48 (times dx) on the edge
samples.  Each component gets zero incoming data through the SAT
penalty of Carpenter, Gottlieb & Abarbanel (1994, J. Comput. Phys.
111), -(c_0 / (h_0 dx)) u_0, on an edge where its characteristics
enter; where they leave, the closure lets the field pass out.  The
semi-discrete operator has no growing mode, so the field needs no
absorbing layer.
"""

import cmath
import functools
import math
import os
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from . import _fork
from .coords import Acceleration, find_singularity
from .embedding import (
    EnlargedSpinorField,
    Grid,
    ScalarField,
    embed_initial,
    extract_inertial,
    extract_rindler,
    field_norm,
    inner,
)
# Not called here any more, but the traced benchmark (perfbench/tracing.py)
# wraps these names on this module, so they must stay importable from it.
from .embedding import correlation, expectation_inertial, expectation_rindler  # noqa: F401
from .errors import ConfigError, InstabilityError
from .hamiltonian import check_galileo_velocity, coefficient_arrays

__all__ = [
    "NORM_GROWTH_TOL",
    "MAX_STEPS",
    "MAX_SNAPSHOT_SAMPLES",
    "PARTNER_MIN_POINTS",
    "PARTNER_MIN_POINT_STEPS",
    "GridWindow",
    "SolverConfig",
    "WavepacketSpec",
    "Generator",
    "ReportRow",
    "EvolutionResult",
    "build_generator",
    "cfl_dt",
    "TransportStepper",
    "evolve",
]

# relative rise of psi's SBP norm over its t = 0 value at which evolve
# stops the run as unstable; f + g = 1, and SBP-SAT bounds that norm
NORM_GROWTH_TOL = 1e-9
# most RK4 steps a run may take: at 46 us a step on the smallest grid
# (N = 64, 2 CPUs) 10^7 steps run for over 7 minutes, and for hours from
# N = 2048 on, while the longest run of the tests and the benchmark takes
# under 10^4.  A config past it (a tiny cfl, or a window far narrower
# than t_final times the speed) is a mistake, not a run to wait for.
MAX_STEPS = 10**7
# most samples, snapshots times N, a run may take.  evolve holds each
# snapshot as an (even, odd) pair of complex128 arrays, 32 B a sample, so
# 2^25 samples hold 1 GiB; cmd_evolve writes them as CSV rows of 9 shortest
# round-trip floats, at most 9 * 24 + 8 commas + LF = 225 B a row, so at
# most 2^25 * 225 B = 7.5 GB.  N = 16384 at stride 1 to t = 0.25 takes
# 1094 snapshots, 1.8 * 10^7 samples; demos/04 at stride 1, 1.1 * 10^6.
MAX_SNAPSHOT_SAMPLES = 2**25
# evolve steps psi' in a forked partner process only on a grid of at least
# PARTNER_MIN_POINTS samples, in a run of at least PARTNER_MIN_POINT_STEPS
# samples times steps.  Whole evolve, split over in-process time, median
# of 7-15 interleaved runs on 2 shared CPUs: 0.55 at N = 16384 and 274
# steps, 0.59 at 8192, 0.79 at 4096, but 0.91-1.05 at 2048 and 546 steps,
# where a step costs per numpy call more than per sample.  The fork, the
# partner's stepper and its first page faults cost 3-5 ms: 1.01 at 16384
# and 15 steps (246k point-steps), 0.65 at 30 steps (492k); 1.05 at 4096
# and 100 steps (410k), 0.91 at 150 steps (614k).
PARTNER_MIN_POINTS = 4096
PARTNER_MIN_POINT_STEPS = 500_000


@dataclass(frozen=True)
class GridWindow(Grid):
    """The Grid of a simulation at acceleration a, checked when it is
    built: first as a Grid, then for at least 64 samples that lie on one
    side of the singular band (coords.SingularPoint.branch)."""

    a: Acceleration

    def __post_init__(self):
        super().__post_init__()
        if self.n < 64:
            raise ConfigError(f"evolution needs at least 64 grid points, got {self.n}")
        point = find_singularity(self.a)
        lo, hi = point.branch(self.a, self.x_min)
        if not (lo <= self.x_min and self.x_max <= hi):
            raise ConfigError(
                f"window [{self.x_min:.6g}, {self.x_max:.6g}] must lie in "
                f"[{lo:.6g}, {hi:.6g}], its side of the singular band at "
                f"u = a*x = {point.u_star:.6g} (with a*x > 1)"
            )

    def grid(self) -> Grid:
        return Grid(self.x_min, self.x_max, self.n)


@dataclass(frozen=True)
class SolverConfig:
    cfl: float = 0.5
    t_final: float = 1.0
    snapshot_stride: int = 1

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise ConfigError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not (0.0 <= self.t_final < math.inf):
            raise ConfigError(f"t_final must be finite and >= 0, got {self.t_final}")
        if self.snapshot_stride < 1:
            raise ConfigError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")


@dataclass(frozen=True)
class WavepacketSpec:
    """Gaussian packet amplitude * exp(-(x-x0)^2/(2 sigma^2) + i k0 x)."""

    x0: float
    sigma: float
    k0: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self):
        # evaluate divides by 2 sigma^2: a double above 0 that does not
        # overflow (sigma**2 raises OverflowError from sigma = 1.34e154)
        if not (0.0 < self.sigma < 1e153 and 2.0 * self.sigma**2 > 0.0):
            raise ConfigError(
                f"packet width must lie in (0, 1e153) with 2 sigma^2 > 0, got {self.sigma}"
            )
        # the observables square psi: with |amplitude| in [1e-100, 1e100]
        # the packet's squares lie in [1e-200, 1e200], which leaves 100
        # decades of normal doubles on either side for dx, the width and
        # the sample count.  The problem is linear, so no physics is lost.
        if not (self.amplitude == 0.0 or 1e-100 <= abs(self.amplitude) <= 1e100):
            raise ConfigError(
                f"packet amplitude must be 0 or lie in [1e-100, 1e100] in size, "
                f"got {self.amplitude}"
            )

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        # (x - x0)^2 overflows to inf beyond |x - x0| ~ 1e154, where
        # exp(-inf) = 0 is the packet's value
        with np.errstate(over="ignore"):
            envelope = np.exp(-((x - self.x0) ** 2) / (2.0 * self.sigma**2))
        return self.amplitude * envelope * np.exp(1j * self.k0 * x)

    def check_window(self, window: GridWindow):
        """Hard-fail when the center is outside the window; warn when the
        5-sigma support gets closer than 5 sigma to a boundary."""
        if not (window.x_min < self.x0 < window.x_max):
            raise ConfigError(
                f"packet center {self.x0} lies outside window "
                f"[{window.x_min}, {window.x_max}]"
            )
        margin = 10.0 * self.sigma  # support half-width 5 sigma + 5 sigma clearance
        if self.x0 - window.x_min < margin or window.x_max - self.x0 < margin:
            warnings.warn(
                "packet support is within 5 sigma of a window boundary; "
                "boundary effects may pollute tight-tolerance comparisons",
                stacklevel=3,
            )


@dataclass(frozen=True)
class Generator:
    """Coefficient fields of one mode sampled on the window grid."""

    window: GridWindow
    mode: str
    delta: float | None
    x: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    c_plus: np.ndarray = field(repr=False)
    c_minus: np.ndarray = field(repr=False)

    @property
    def max_speed(self) -> float:
        return float(
            max(np.max(np.abs(self.c_plus)), np.max(np.abs(self.c_minus)))
        )


def build_generator(
    window: GridWindow, mode: str = "exact", delta: float | None = None
) -> Generator:
    """Sample the coefficients of a mode of hamiltonian.coefficient_arrays
    over a window, which lies on one side of the singular band since it
    was checked when it was built.  In 'galileo' mode the largest v on the
    window must pass hamiltonian.check_galileo_velocity.  There every mode
    keeps |f| below 4."""
    x = window.points()
    f, g, _ = coefficient_arrays(window.a.a * x, mode, delta)
    if mode == "galileo":
        check_galileo_velocity(2.0 * np.max(np.abs(g)))  # this mode's g is -v/2
    return Generator(window, mode, delta, x, f, g, c_plus=f + g, c_minus=f - g)


def cfl_dt(window: GridWindow, generator: Generator, cfl: float) -> float:
    """Stable explicit step dt = cfl * dx / max|c| over the grid."""
    return cfl * window.dx / generator.max_speed


# The SBP(4,2) closure (times 12 dx): the weights of rows 0-3 on columns
# 0-5, in the order the terms are summed.  Row N-1-i mirrors row i with
# the sign flipped, and row 4 on is the central stencil.
_SBP_CLOSURE = (
    (-288.0 / 17.0, 354.0 / 17.0, -48.0 / 17.0, -18.0 / 17.0, 0.0, 0.0),
    (-6.0, 0.0, 6.0, 0.0, 0.0, 0.0),
    (48.0 / 43.0, -354.0 / 43.0, 0.0, 354.0 / 43.0, -48.0 / 43.0, 0.0),
    (18.0 / 49.0, 0.0, -354.0 / 49.0, 0.0, 384.0 / 49.0, -48.0 / 49.0),
)
# SBP norm weights of samples 0-3, times dx; mirrored on the right, 1 inside
_SBP_NORM = (17.0 / 48.0, 59.0 / 48.0, 43.0 / 48.0, 49.0 / 48.0)
_SBP_EDGE_NORM = _SBP_NORM[0]
# the SAT penalty -(c_0 / (h_0 dx)) u_0 as a weight of row 0 (times 12 dx)
_SAT_WEIGHT = 12.0 / _SBP_EDGE_NORM
# the start of the closure sums: -0.0 + x is x for every double x, while
# add.reduce starts from +0.0, and +0.0 + -0.0 is +0.0
_NEGATIVE_ZERO = complex(-0.0, -0.0)


def _derivative_central4(v: np.ndarray, dx: float) -> np.ndarray:
    """The SBP(4,2) derivative of one row, without the SAT penalty."""
    d = np.empty_like(v)
    d[2:-2] = -v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]
    for row, weights in enumerate(_SBP_CLOSURE):
        d[row] = weights[0] * v[0]
        d[-1 - row] = -weights[0] * v[-1]
        for column, weight in enumerate(weights[1:], start=1):
            d[row] += weight * v[column]
            d[-1 - row] += -weight * v[-1 - column]
    # a product with the reciprocal, as _rhs scales: numpy's complex
    # division by a real forms a + b*0 and flips signed zeros
    return d * (1.0 / (12.0 * dx))


def _inflow(speeds: np.ndarray) -> np.ndarray:
    """(component, edge): whether the speeds of each row of `speeds` point
    into the window at its (left, right) edge."""
    return np.stack((speeds[:, 0] > 0.0, speeds[:, -1] < 0.0), axis=1)


def _edge_rows(n: int, inflow: np.ndarray):
    """The closure rows as flat indices into an (R, N) array in C order,
    one row per row of inflow: the targets (8 R,), the sources and the
    weights (term, R, edge), with the SAT penalty of an inflow edge folded
    into the weight of its edge sample."""
    left = np.array(_SBP_CLOSURE).T  # (term, edge row)
    terms, rows = left.shape
    columns = np.arange(terms)[:, None].repeat(rows, axis=1)
    targets = np.concatenate((np.arange(rows), n - 1 - np.arange(rows)))
    sources = np.concatenate((columns, n - 1 - columns), axis=1)
    weights = np.concatenate((left, -left), axis=1)
    weights = np.repeat(weights[:, None, :], len(inflow), axis=1).astype(complex)
    weights[0, :, 0] += np.where(inflow[:, 0], _SAT_WEIGHT, 0.0)
    weights[0, :, rows] -= np.where(inflow[:, 1], _SAT_WEIGHT, 0.0)
    row_starts = n * np.arange(len(inflow))[:, None]
    return (
        (row_starts + targets).ravel(),
        row_starts + sources[:, None, :],
        weights,
    )


def _assemble(grid: Grid, pair: np.ndarray) -> EnlargedSpinorField:
    """A new two-component state (even, odd) from the pair (psi, psi')."""
    plus, minus = pair
    return EnlargedSpinorField(
        grid=grid, even=0.5 * (plus + minus), odd=0.5 * (plus - minus)
    )


class TransportStepper:
    """Advances the transported pair (psi, psi') by RK4 steps, in place.

    The pair is one (2, N) complex array: row 0 is the inertial psi,
    moved at c_plus, row 1 the accelerated-frame psi', moved at c_minus.
    The rows never meet, so a stepper may also be built for some of them:
    `rows` names the rows of the pair it advances, (0, 1) by default, and
    step_eigen then takes the (len(rows), N) array of those rows, such as
    pair[1:] for psi' alone.  Each row gets the same floats either way.
    step_eigen overwrites its array and allocates no array of the grid's
    size.  For that the stepper holds the negated speeds as one flat
    (R N,) array, the SBP closure rows of each component with its SAT
    inflow penalty folded in, two (R, N) work buffers (the slope k and the
    stage input), a flat (R N,) scratch for 8 times the stencil's input,
    and the (6, R, 8) closure terms with their (R, 8) sums, for R rows.
    """

    def __init__(self, generator: Generator, solver: SolverConfig, rows=(0, 1)):
        self.generator = generator
        self.solver = solver
        self.dx = generator.window.dx
        n = generator.window.n
        speeds = np.stack((generator.c_plus, generator.c_minus))[list(rows)]
        self._inverse_spacing = 1.0 / (12.0 * self.dx)
        # complex, so that products with the complex state need no cast buffer
        self._minus_speeds = (-speeds).astype(complex).reshape(-1)
        self._edge_targets, self._edge_sources, self._edge_weights = _edge_rows(
            n, _inflow(speeds)
        )
        self._terms = np.empty(self._edge_weights.shape, dtype=complex)
        self._edges = np.empty(self._edge_weights.shape[1:], dtype=complex)
        self._k, self._stage = (np.empty(speeds.shape, dtype=complex) for _ in range(2))
        self._eight = np.empty(speeds.size, dtype=complex)
        self._norm_weights = np.ones(n)
        self._norm_weights[:4] = self._norm_weights[:-5:-1] = _SBP_NORM

    def norm(self, values: np.ndarray) -> float:
        """The SBP norm of one row, which SBP-SAT does not let grow."""
        # overflow shows up as non-finite observables, which evolve rejects
        with np.errstate(over="ignore"):
            weighted = np.sum(self._norm_weights * np.abs(values) ** 2)
            return float(np.sqrt(weighted * self.dx))

    def _rhs(self, pair: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = -c d(pair)/dx, row by row, without allocating; out must be
        C-contiguous, since it is written through a flat view (ValueError
        otherwise).  A pair in another layout is only read, through a
        C-ordered copy.

        The interior stencil runs once over all rows as one flat sweep.
        On a pair its entries at flat indices N-2 .. N+1 read across the
        seam between the rows; they are closure rows, which the closure
        put overwrites, as it does the other twelve, so no value read
        across the seam is kept.  Terms are combined in the order
        _derivative_central4 uses, and scaled as it scales, so that the two
        routes give the same floats, signed zeros included, away from a
        folded SAT weight."""
        if not out.flags.c_contiguous:
            raise ValueError("_rhs writes through a flat view: out must be C-contiguous")
        values = pair.reshape(-1)
        # a view, since out is C-contiguous
        flat = out.reshape(-1)
        inner = flat[2:-2]
        eight = self._eight
        # 8 v[j+1] - v[j+2] - 8 v[j-1] + v[j-2]
        np.multiply(8.0, values, eight)
        np.subtract(eight[3:-1], values[4:], inner)
        np.subtract(inner, eight[1:-3], inner)
        np.add(inner, values[:-4], inner)
        # the closure rows: (term, component, row), summed term by term.
        # take with mode "raise" fills out through a buffer; every index is
        # in range, so "clip" gives the same values without one
        terms = values.take(self._edge_sources, out=self._terms, mode="clip")
        np.multiply(terms, self._edge_weights, terms)
        np.add.reduce(terms, axis=0, out=self._edges, initial=_NEGATIVE_ZERO)
        flat.put(self._edge_targets, self._edges)
        np.multiply(flat, self._inverse_spacing, flat)
        np.multiply(self._minus_speeds, flat, flat)
        return out

    def step_eigen(self, pair: np.ndarray, dt: float) -> np.ndarray:
        """One RK4 step of size dt on the complex rows of (psi, psi') that
        the stepper was built for, (2, N) by default; pair is overwritten
        and returned.  The inflow data are zero and
        the speeds do not depend on time, so the slope L is linear and
        autonomous, and RK4 is exactly the Horner form
        pair + dt L(pair + dt/2 L(pair + dt/3 L(pair + dt/4 L pair)))."""
        k, stage = self._k, self._stage
        self._rhs(pair, k)
        for h in (dt / 4.0, dt / 3.0, dt / 2.0):
            np.multiply(k, h, stage)
            np.add(pair, stage, stage)
            self._rhs(stage, k)
        np.multiply(k, dt, k)
        np.add(pair, k, pair)
        return pair

    def step_coupled(self, even: np.ndarray, odd: np.ndarray, dt: float):
        """One step on the raw two-component system, without using the
        eigenbasis decoupling; kept as a cross-check of step_eigen.  The
        SAT penalty is applied explicitly to (psi, psi') here, not folded
        into the closure weights."""
        gen = self.generator
        f, g = gen.f, gen.g
        edges = [0, -1]
        # (component, edge) rates |c| / (h_0 dx) of the inflow penalties
        speeds = np.stack((gen.c_plus[edges], gen.c_minus[edges]))
        rates = np.where(_inflow(speeds), np.abs(speeds), 0.0) / (_SBP_EDGE_NORM * self.dx)

        def rhs(e, o):
            de = _derivative_central4(e, self.dx)
            do = _derivative_central4(o, self.dx)
            re, ro = -(f * de + g * do), -(g * de + f * do)
            sat_plus = -rates[0] * (e[edges] + o[edges])
            sat_minus = -rates[1] * (e[edges] - o[edges])
            re[edges] += 0.5 * (sat_plus + sat_minus)
            ro[edges] += 0.5 * (sat_plus - sat_minus)
            return re, ro

        k1e, k1o = rhs(even, odd)
        k2e, k2o = rhs(even + 0.5 * dt * k1e, odd + 0.5 * dt * k1o)
        k3e, k3o = rhs(even + 0.5 * dt * k2e, odd + 0.5 * dt * k2o)
        k4e, k4o = rhs(even + dt * k3e, odd + dt * k3o)
        even = even + (dt / 6.0) * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
        odd = odd + (dt / 6.0) * (k1o + 2.0 * k2o + 2.0 * k3o + k4o)
        return even, odd


@dataclass(frozen=True)
class ReportRow:
    """Observables of one snapshot: norms, centers and correlations."""

    t: float
    norm_even: float
    norm_odd: float
    norm_inertial: float
    norm_rindler: float
    x_inertial: float | None
    x_rindler: float | None
    corr_identity: complex
    corr_position: complex


@dataclass(frozen=True)
class EvolutionResult:
    times: list
    snapshots: list
    report: list


def _report_row(t: float, state: EnlargedSpinorField, pair: np.ndarray) -> ReportRow:
    """Observables of one snapshot.  Norms, centers and correlations are
    plain inner products of the transported rows (psi, psi') of `pair`:
    as Pauli-block forms over (even, odd) they would cancel once one
    frame's field dwarfs the other's."""
    dx = state.grid.dx
    x = state.grid.points()
    psi, psi_prime = pair
    # overflow shows up as non-finite observables, which evolve rejects
    with np.errstate(over="ignore", invalid="ignore"):
        norm_in = field_norm(psi, dx)
        norm_rin = field_norm(psi_prime, dx)
        x_psi_prime = x * psi_prime
        x_in = inner(psi, x * psi, dx).real / norm_in**2 if norm_in > 0 else None
        x_rin = inner(psi_prime, x_psi_prime, dx).real / norm_rin**2 if norm_rin > 0 else None
        return ReportRow(
            t=t,
            norm_even=field_norm(state.even, dx),
            norm_odd=field_norm(state.odd, dx),
            norm_inertial=norm_in,
            norm_rindler=norm_rin,
            x_inertial=x_in,
            x_rindler=x_rin,
            corr_identity=inner(psi, psi_prime, dx),
            corr_position=inner(psi, x_psi_prime, dx),
        )


def _is_finite(row: ReportRow) -> bool:
    values = (getattr(row, f.name) for f in fields(row))
    return all(cmath.isfinite(v) for v in values if v is not None)


def _partner_pays(n: int, n_steps: int) -> bool:
    """The size rule of the split: a partner pays on a grid of at least
    PARTNER_MIN_POINTS samples and a run of at least
    PARTNER_MIN_POINT_STEPS point-steps."""
    return n >= PARTNER_MIN_POINTS and n * n_steps >= PARTNER_MIN_POINT_STEPS


def _split(n: int, n_steps: int) -> bool:
    """Whether evolve steps psi' in a forked partner: where _fork.cpus()
    allows two processes, on a run big enough to pay."""
    return _fork.cpus() >= 2 and _partner_pays(n, n_steps)


def _march(n_steps: int, dt: float, t_final: float, stride: int, step, snapshot):
    """Take a run's steps: step(h) for each step size h, which is dt and,
    for the last step, t_final - (n_steps - 1) dt; and snapshot(k, t)
    after every stride-th step k and after the last, at t = k dt and at
    t_final."""
    for k in range(1, n_steps):
        step(dt)
        if k % stride == 0:
            snapshot(k, k * dt)
    step(t_final - (n_steps - 1) * dt)
    snapshot(n_steps, t_final)


def _partner(march, row, generator, solver, parent: int, out: int, theirs: int):
    """Body of the forked partner, run by _fork.start: it closes the
    caller's pipe end (theirs) and steps its own copy of psi' (row, the
    (1, N) view of the pair) with a stepper built for that row.  At each
    snapshot it writes the row's bytes to the pipe end `out` and steps
    on.  It returns after the last snapshot, and ends at once with
    os._exit(1) when the caller closed its end (EPIPE) or its parent is
    no longer `parent` (the caller died)."""
    os.close(theirs)
    stepper = TransportStepper(generator, solver, rows=(1,))
    data = memoryview(row).cast("B")

    def step(h):
        if os.getppid() != parent:
            os._exit(1)
        stepper.step_eigen(row, h)

    def snapshot(k, t):
        # out stays open until os._exit: an EOF the caller sees means the
        # partner's traceback, if any, is printed
        try:
            sent = 0
            while sent < len(data):
                sent += os.write(out, data[sent:])
        except BrokenPipeError:
            os._exit(1)

    march(step, snapshot)


def _march_with_partner(march, pair: np.ndarray, stepper, snapshot):
    """march with psi (pair[0]) stepped here by stepper, built for row 0,
    and psi' by a forked partner that steps its own copy of it and sends
    the row down one pipe at each snapshot; before snapshot(k, t) the
    caller reads that row into pair[1].  The partner is reaped before
    this returns or raises, killed first if the caller stops early, and
    before the pipe is closed; a partner that fails raises OSError here."""
    read_end, write_end = os.pipe()
    pids = []
    done = False
    with open(read_end, "rb") as rows:
        try:
            try:
                pids.append(_fork.start(_partner, march, pair[1:], stepper.generator,
                                        stepper.solver, os.getpid(), write_end, read_end))
            finally:
                os.close(write_end)

            def partner_snapshot(k, t):
                if rows.readinto(pair[1]) < pair[1].nbytes:
                    raise OSError(f"the partner process stepping psi' failed before step {k}")
                snapshot(k, t)

            march(functools.partial(stepper.step_eigen, pair[:1]), partner_snapshot)
            done = True
        finally:
            failed = _fork.reap(pids, kill=not done)
    if failed:
        raise OSError("the partner process stepping psi' failed")


def evolve(
    packet: WavepacketSpec, generator: Generator, solver: SolverConfig
) -> EvolutionResult:
    """Run a full evolution on the generator and collect snapshots plus
    observable rows.  A packet centred outside its window is a ConfigError,
    and so are a t_final that takes more than MAX_STEPS steps and snapshots
    of more than MAX_SNAPSHOT_SAMPLES samples in all; each is raised
    before the first step.

    Snapshots are taken every `solver.snapshot_stride` steps, always
    including t = 0 and the final time.  Step k < n ends at k dt, for the
    CFL-limited dt, and the last step ends exactly on t_final: it is
    shorter than dt, or longer by at most 1e-12 of t_final.  The
    stepper advances one (psi, psi') array in place; each snapshot is a
    new (even, odd) state assembled from it.  On a run that _split
    admits, a forked partner steps its own copy of psi' while this
    process steps psi, and sends psi' back to be read into the array at
    each snapshot; every float is the one the in-process run gives.
    Instability is found at snapshots: non-finite observables raise
    InstabilityError, and so does a snapshot where psi's
    TransportStepper.norm exceeds its t = 0 value by more than
    NORM_GROWTH_TOL of it.
    """
    window = generator.window
    packet.check_window(window)
    grid = window.grid()

    dt = cfl_dt(window, generator, solver.cfl)
    t_final = solver.t_final
    steps = 0.0 if t_final == 0.0 else t_final / dt if dt > 0.0 else math.inf
    if steps > MAX_STEPS:
        raise ConfigError(
            f"t_final = {t_final:.6g} takes too many steps of dt = {dt:.6g}: "
            f"{steps:.3g}, above MAX_STEPS = {MAX_STEPS:.0e}"
        )
    # a guard relative to the step count: a t_final at most 1e-12 of itself
    # past a whole number of steps takes no extra step of (next to) zero size
    n_steps = math.ceil(steps * (1.0 - 1e-12))
    # the snapshot at t = 0, and those _march takes
    count = 1 if n_steps == 0 else (n_steps - 1) // solver.snapshot_stride + 2
    if count * window.n > MAX_SNAPSHOT_SAMPLES:
        raise ConfigError(
            f"too many snapshot samples: {count} snapshots of N = {window.n} are "
            f"{count * window.n:.3g}, above MAX_SNAPSHOT_SAMPLES = 2^25 "
            f"(raise snapshot_stride)"
        )
    split = n_steps > 0 and _split(window.n, n_steps)
    stepper = TransportStepper(generator, solver, rows=(0,) if split else (0, 1))

    psi0 = ScalarField(grid=grid, values=packet.evaluate(generator.x))
    state0 = embed_initial(psi0)
    pair = np.empty((2, window.n), dtype=complex)
    pair[0] = extract_inertial(state0).values
    pair[1] = extract_rindler(state0).values

    times, snapshots, report = [], [], []
    norm0 = stepper.norm(pair[0])

    def record(k: int, t: float, state: EnlargedSpinorField):
        row = _report_row(t, state, pair)
        if not _is_finite(row):
            raise InstabilityError(
                k, f"non-finite observables at step {k} (t = {t:.6g})"
            )
        norm = stepper.norm(pair[0])
        if norm > norm0 * (1.0 + NORM_GROWTH_TOL):
            raise InstabilityError(
                k,
                f"||psi|| grew from {norm0:.6g} to {norm:.6g} "
                f"by step {k} (t = {t:.6g})",
            )
        times.append(t)
        snapshots.append(state)
        report.append(row)

    def snapshot(k: int, t: float):
        record(k, t, _assemble(grid, pair))

    record(0, 0.0, state0)
    if n_steps:
        march = functools.partial(_march, n_steps, dt, t_final, solver.snapshot_stride)
        if split:
            _march_with_partner(march, pair, stepper, snapshot)
        else:
            march(functools.partial(stepper.step_eigen, pair), snapshot)

    return EvolutionResult(times=times, snapshots=snapshots, report=report)
