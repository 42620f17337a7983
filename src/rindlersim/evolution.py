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

The two rows share no data between snapshots.  So on a large grid (at
least PARTNER_MIN_POINTS samples, however many steps the run takes),
where _fork.cpus() allows two processes, evolve starts one partner
process through _fork right after the t = 0 snapshot: the caller steps
psi and the partner its own copy of psi', each with a stepper built for
its own row on the same kernel, with the same step sizes.  At each
snapshot the partner writes psi' down one pipe and steps on; the caller
reads it into the pair before it assembles and reports.  Nothing else
passes between them, and no memory is shared.  The partner ends after
the last snapshot, on EPIPE once the caller closed the pipe, or within
one step once the caller is gone; the caller reaps it on every path,
before it closes the pipe.  _fork owns the fork, the child's exit and
the reaping.  Every float of the outputs is the one the in-process run
gives.

evolve(packet, generator, solver) runs on a generator from
build_generator and never rebuilds it.  The generator is applied in
non-symmetrized form, coefficient times derivative; it is not Hermitian
for variable g, so only the inertial component has a conserved norm.
Windows must stay clear of the denominator singularity: a GridWindow
checks that when it is built, so every window that exists is one the
solver and the oracle accept.  The derivative, its norm and its inflow
penalties are _sbp's SBP(4,2) operator with SAT.
"""

import cmath
import functools
import math
import os
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from . import _fork, _sbp
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
from .errors import ConfigError, InstabilityError, integer, number
from .hamiltonian import check_galileo_velocity, coefficient_arrays

__all__ = [
    "NORM_GROWTH_TOL",
    "MAX_STEPS",
    "MAX_SNAPSHOT_SAMPLES",
    "PARTNER_MIN_POINTS",
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
# stops the run as unstable; f + g = 1, and SBP-SAT bounds that norm.
# One RK4 step P is not an H-contraction (||P||_H - 1 reaches 1.3e-3 at
# cfl 1), but every product of two or more whole steps is one
# (test_rk4_step_is_stable_in_the_sbp_norm): from step 2 on, psi's norm
# after whole steps is at most its t = 0 value up to rounding, far below
# this tolerance.  Only step 1 and a shortened last step can raise it, by
# 1.3e-3 at most (measured at N = 128), and only for t = 0 data within ten
# samples of an edge, where a packet that clears the edges has no mass.
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
# PARTNER_MIN_POINTS samples, however many steps the run takes.  Whole
# evolve on [4.5, 12], split against in-process, medians of 21 interleaved
# pairs on 2 shared CPUs (BENCH_25.json): 16.0 against 16.5 ms at
# N = 16384 and 15 steps, 21.3 against 24.9 ms at 4096 and 100 steps.  The
# fork, the partner's stepper and its first page faults cost 3-4 ms, which
# runs of a few steps lose: 6.8 against 3.1 ms at 4096 and 5 steps.  At
# N = 2048 a step costs per numpy call more than per sample, and a split
# loses on the snapshots workload's 35 steps (1.22-1.24) while demos/04's
# 546 steps read 1.03 in one round and 0.82 in the next, so the floor
# stays where none of the benchmark's workloads changes path.
PARTNER_MIN_POINTS = 4096


@dataclass(frozen=True)
class GridWindow(Grid):
    """The Grid of a simulation at acceleration a, checked when it is
    built: first as a Grid, then for an Acceleration a and 64 to
    MAX_SNAPSHOT_SAMPLES samples (every run holds its t = 0 snapshot)
    that lie on one side of the singular band
    (coords.SingularPoint.branch)."""

    a: Acceleration

    def __post_init__(self):
        super().__post_init__()
        if not isinstance(self.a, Acceleration):
            raise ConfigError(f"a must be an Acceleration, got {self.a!r}")
        if self.n < 64:
            raise ConfigError(f"evolution needs at least 64 grid points, got {self.n}")
        if self.n > MAX_SNAPSHOT_SAMPLES:
            raise ConfigError(
                f"N = {self.n} is above MAX_SNAPSHOT_SAMPLES = {MAX_SNAPSHOT_SAMPLES}, "
                f"which the t = 0 snapshot alone would take"
            )
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
    # cfl <= 1 keeps a margin of about 2x: at N = 128 the spectral radius
    # of the RK4 step first exceeds 1 at cfl 2.1 on [4.5, 12] and
    # [1 + 1e-9, 1.4], 2.2 on [1.5, 3] and 2.5 on [3.75, 6]
    cfl: float = 0.5
    t_final: float = 1.0
    snapshot_stride: int = 1

    def __post_init__(self):
        for name in ("cfl", "t_final"):
            object.__setattr__(self, name, number(getattr(self, name), name))
        if not (0.0 < self.cfl <= 1.0):
            raise ConfigError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not self.t_final >= 0.0:
            raise ConfigError(f"t_final must be >= 0, got {self.t_final}")
        if integer(self.snapshot_stride, "snapshot_stride") < 1:
            raise ConfigError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")


@dataclass(frozen=True)
class WavepacketSpec:
    """Gaussian packet amplitude * exp(-(x-x0)^2/(2 sigma^2) + i k0 x),
    its parameters held as floats."""

    x0: float
    sigma: float
    k0: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self):
        for name in ("x0", "sigma", "k0", "amplitude"):
            object.__setattr__(self, name, number(getattr(self, name), name))
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


# the start of the closure sums: -0.0 + x is x for every double x, while
# add.reduce starts from +0.0, and +0.0 + -0.0 is +0.0
_NEGATIVE_ZERO = complex(-0.0, -0.0)


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

    # solver is accepted and ignored: perfbench/child.py passes it
    def __init__(self, generator: Generator, solver=None, rows=(0, 1)):
        self.generator = generator
        self.dx = generator.window.dx
        speeds = np.stack((generator.c_plus, generator.c_minus))[list(rows)]
        self._inverse_spacing = 1.0 / (12.0 * self.dx)
        # complex, so that products with the complex state need no cast buffer
        self._minus_speeds = (-speeds).astype(complex).reshape(-1)
        self._edge_targets, self._edge_sources, self._edge_weights = _sbp.closure_rows(speeds)
        self._terms = np.empty(self._edge_weights.shape, dtype=complex)
        self._edges = np.empty(self._edge_weights.shape[1:], dtype=complex)
        self._k, self._stage = (np.empty(speeds.shape, dtype=complex) for _ in range(2))
        self._eight = np.empty(speeds.size, dtype=complex)

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
        _sbp.derivative uses, and scaled as it scales, so that the two
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
        rates = np.where(_sbp.inflow(speeds), np.abs(speeds), 0.0) / (_sbp.NORM[0] * self.dx)

        def rhs(u):
            # g sigma_x swaps the rows of the (even, odd) array u
            d = np.stack([_sbp.derivative(row, self.dx) for row in u])
            r = -(f * d + g * d[::-1])
            # the penalties act on (psi, psi') = (e + o, e - o) at the edges
            sat = -rates * np.stack((u[0] + u[1], u[0] - u[1]))[:, edges]
            r[:, edges] += 0.5 * np.stack((sat[0] + sat[1], sat[0] - sat[1]))
            return r

        u = np.stack((even, odd))
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        even, odd = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
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


def _split(n: int) -> bool:
    """Whether evolve steps psi' in a forked partner: where _fork.cpus()
    allows two processes, on a grid of at least PARTNER_MIN_POINTS
    samples."""
    return _fork.cpus() >= 2 and n >= PARTNER_MIN_POINTS


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


def _partner(march, row, generator, parent: int, out: int, theirs: int):
    """Body of the forked partner, run by _fork.start: it closes the
    caller's pipe end (theirs) and steps its own copy of psi' (row, the
    (1, N) view of the pair) with a stepper built for that row.  At each
    snapshot it writes the row's bytes to the pipe end `out` and steps
    on.  It returns after the last snapshot, and ends at once with
    os._exit(1) when the caller closed its end (EPIPE) or its parent is
    no longer `parent` (the caller died)."""
    os.close(theirs)
    stepper = TransportStepper(generator, rows=(1,))
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
                                        os.getpid(), write_end, read_end))
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
    new (even, odd) state assembled from it.  On a grid that _split
    admits, a forked partner steps its own copy of psi' while this
    process steps psi, and sends psi' back to be read into the array at
    each snapshot; every float is the one the in-process run gives.
    Instability is found at snapshots: non-finite observables raise
    InstabilityError, and so does a snapshot where psi's SBP norm (the
    weights of _sbp.norm_weights) exceeds its t = 0 value by more than
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
            f"{count * window.n:.3g}, above MAX_SNAPSHOT_SAMPLES = {MAX_SNAPSHOT_SAMPLES} "
            f"(raise snapshot_stride)"
        )
    split = n_steps > 0 and _split(window.n)
    stepper = TransportStepper(generator, rows=(0,) if split else (0, 1))

    psi0 = ScalarField(grid=grid, values=packet.evaluate(generator.x))
    state0 = embed_initial(psi0)
    pair = np.empty((2, window.n), dtype=complex)
    pair[0] = extract_inertial(state0).values
    pair[1] = extract_rindler(state0).values

    # psi's SBP norm, which SBP-SAT does not let grow
    weights = _sbp.norm_weights(window.n)

    def growth_norm() -> float:
        # overflow shows up as non-finite observables, which record rejects
        with np.errstate(over="ignore"):
            return float(np.sqrt(np.sum(weights * np.abs(pair[0]) ** 2) * window.dx))

    times, snapshots, report = [], [], []
    norm0 = growth_norm()

    def record(k: int, t: float, state: EnlargedSpinorField):
        row = _report_row(t, state, pair)
        if not _is_finite(row):
            raise InstabilityError(
                k, f"non-finite observables at step {k} (t = {t:.6g})"
            )
        norm = growth_norm()
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
