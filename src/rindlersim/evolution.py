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

evolve(packet, generator, solver) runs on a generator from
build_generator and never rebuilds it.  The generator is applied in
non-symmetrized form, coefficient times derivative; it is not Hermitian
for variable g, so only the inertial component has a conserved norm.
Windows must stay clear of the denominator singularity (validated up
front).

Boundary handling: the central4 derivative is the diagonal-norm SBP(4,2)
operator of Mattsson & Nordstrom (2004, J. Comput. Phys. 199): the
fourth-order central stencil inside, four closure rows at each edge,
and norm weights 17/48, 59/48, 43/48, 49/48 (times dx) on the edge
samples.  Each component gets zero incoming data through the SAT
penalty of Carpenter, Gottlieb & Abarbanel (1994, J. Comput. Phys.
111), -(c_0 / (h_0 dx)) u_0, on an edge where its characteristics
enter; where they leave, the closure lets the field pass out.  The
semi-discrete operator has no growing mode, so the field needs no
absorbing layer.  upwind1 takes zero inflow data too, as a zero sample
beyond an inflow edge.
"""

import cmath
import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .coords import Acceleration
from .embedding import (
    EnlargedSpinorField,
    Grid,
    ScalarField,
    embed_initial,
    field_norm,
    inner,
)
# Not called here any more, but the traced benchmark (perfbench/tracing.py)
# wraps these names on this module, so they must stay importable from it.
from .embedding import correlation, expectation_inertial, expectation_rindler  # noqa: F401
from .errors import ConfigError, InstabilityError
from .hamiltonian import GALILEO_V_MAX, GALILEO_V_WARN, coefficient_arrays, find_singularity

__all__ = [
    "NORM_GROWTH_TOL",
    "MAX_STEPS",
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

_SCHEMES = ("central4", "upwind1")


@dataclass(frozen=True)
class GridWindow(Grid):
    """The Grid of a simulation at acceleration a, checked as a Grid."""

    a: Acceleration

    def grid(self) -> Grid:
        return Grid(self.x_min, self.x_max, self.n)


@dataclass(frozen=True)
class SolverConfig:
    scheme: str = "central4"
    cfl: float = 0.5
    t_final: float = 1.0
    snapshot_stride: int = 1

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
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


def _validate_window(window: GridWindow):
    if window.n < 64:
        raise ConfigError(f"evolution needs at least 64 grid points, got {window.n}")
    point = find_singularity(window.a)
    lo, hi = point.branch(window.a, window.x_min)
    if not (lo <= window.x_min and window.x_max <= hi):
        raise ConfigError(
            f"window [{window.x_min:.6g}, {window.x_max:.6g}] must lie in "
            f"[{lo:.6g}, {hi:.6g}], its side of the singular band at "
            f"u = a*x = {point.u_star:.6g} (with a*x > 1)"
        )


def build_generator(
    window: GridWindow, mode: str = "exact", delta: float | None = None
) -> Generator:
    """Sample the coefficients of a mode of hamiltonian.coefficient_arrays
    over a validated window, which must lie on one side of the singular
    band (hamiltonian.SingularPoint.branch) and, in 'galileo' mode, keep
    |v| <= GALILEO_V_MAX (warning beyond GALILEO_V_WARN).  There every
    mode keeps |f| below 4."""
    _validate_window(window)
    x = window.points()
    f, g, _ = coefficient_arrays(window.a.a * x, mode, delta)
    if mode == "galileo":
        v_max = 2.0 * np.max(np.abs(g))  # this mode's g is -v/2
        if v_max > GALILEO_V_MAX:
            raise ConfigError(
                f"small-velocity mode needs |v| <= {GALILEO_V_MAX} everywhere; window "
                f"reaches v = {v_max:.4g}"
            )
        if v_max > GALILEO_V_WARN:
            warnings.warn(
                f"small-velocity approximation is marginal beyond |v| = {GALILEO_V_WARN}",
                stacklevel=2,
            )

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
    return d / (12.0 * dx)


def _edge_rows(n: int, inflow: np.ndarray):
    """The closure rows as flat indices into a (2, N) pair in C order: the
    targets (16,), the sources and the weights (term, row, edge), with the
    SAT penalty of an inflow edge folded into the weight of its edge
    sample."""
    left = np.array(_SBP_CLOSURE).T  # (term, edge row)
    terms, rows = left.shape
    columns = np.arange(terms)[:, None].repeat(rows, axis=1)
    targets = np.concatenate((np.arange(rows), n - 1 - np.arange(rows)))
    sources = np.concatenate((columns, n - 1 - columns), axis=1)
    weights = np.concatenate((left, -left), axis=1)
    weights = np.repeat(weights[:, None, :], 2, axis=1).astype(complex)
    weights[0, :, 0] += np.where(inflow[:, 0], _SAT_WEIGHT, 0.0)
    weights[0, :, rows] -= np.where(inflow[:, 1], _SAT_WEIGHT, 0.0)
    row_starts = n * np.arange(2)[:, None]
    return (
        (row_starts + targets).ravel(),
        row_starts + sources[:, None, :],
        weights,
    )


def _eigen_pair(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The transported pair (psi, psi') = (even + odd, even - odd) as one
    new (2, N) array."""
    return np.stack((even + odd, even - odd))


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
    step_eigen overwrites it and allocates no array of the grid's size.
    For that the stepper holds the negated speeds as a (2, N) array, the
    SBP closure rows of each component with its SAT inflow penalty
    folded in, and four work buffers: the stage slope k, the stage
    input, the slope accumulator and one stencil scratch.
    """

    def __init__(self, generator: Generator, solver: SolverConfig):
        self.generator = generator
        self.solver = solver
        self.dx = generator.window.dx
        n = generator.window.n
        speeds = np.stack((generator.c_plus, generator.c_minus))
        self._central = solver.scheme == "central4"
        # numpy divides complex by real as a product with the reciprocal, so
        # this multiplier gives the values of _derivative_central4's division
        self._inverse_spacing = 1.0 / (12.0 * self.dx if self._central else self.dx)
        # complex, so that products with the complex state need no cast buffer
        self._minus_speeds = (-speeds).astype(complex)
        # upwind1 takes backward differences where c >= 0, forward ones elsewhere
        self._backward = speeds >= 0.0
        # (component, edge): the speed points into the window at (left, right)
        self._inflow = np.stack((speeds[:, 0] > 0.0, speeds[:, -1] < 0.0), axis=1)
        self._edge_targets, self._edge_sources, self._edge_weights = _edge_rows(
            n, self._inflow
        )
        self._k, self._stage, self._acc = (
            np.empty((2, n), dtype=complex) for _ in range(3)
        )
        self._scratch = np.empty((2, n + 1), dtype=complex)
        self._norm_weights = np.ones(n)
        if self._central:
            self._norm_weights[:4] = self._norm_weights[:-5:-1] = _SBP_NORM

    def norm(self, values: np.ndarray) -> float:
        """The norm of one row that the scheme does not let grow: the SBP
        norm for central4 (SBP-SAT), the plain one for upwind1."""
        # overflow shows up as non-finite observables, which evolve rejects
        with np.errstate(over="ignore"):
            weighted = np.sum(self._norm_weights * np.abs(values) ** 2)
            return float(np.sqrt(weighted * self.dx))

    def _rhs(self, pair: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = -c d(pair)/dx, row by row, without allocating.  Terms are
        combined in the order _derivative_central4 uses, so that the two
        routes give the same floats away from a folded SAT weight.

        upwind1 reads a zero sample beyond an inflow edge, its SAT
        zero-inflow penalty: for a speed of one sign its matrix is
        triangular with diagonal -|c| / dx.  A one-sided difference into
        the window there instead would leave a defective zero eigenvalue,
        on which round-off grows linearly in time."""
        if self._central:
            inner = out[:, 2:-2]
            scratch = self._scratch[:, 2:-3]
            np.multiply(8.0, pair[:, 3:-1], out=inner)
            np.subtract(inner, pair[:, 4:], out=inner)
            np.multiply(8.0, pair[:, 1:-3], out=scratch)
            np.subtract(inner, scratch, out=inner)
            np.add(inner, pair[:, :-4], out=inner)
            terms = pair.take(self._edge_sources)
            terms *= self._edge_weights
            edges = terms[0]
            for term in terms[1:]:
                edges += term
            out.put(self._edge_targets, edges)
        else:
            # diff[:, i] = pair[:, i] - pair[:, i - 1]: the backward difference
            # at column i and the forward one at column i - 1
            diff = self._scratch
            np.subtract(pair[:, 1:], pair[:, :-1], out=diff[:, 1:-1])
            # a zero sample beyond each edge: only an inflow edge reads it
            diff[:, 0] = pair[:, 0]
            np.negative(pair[:, -1], out=diff[:, -1])
            np.copyto(out, diff[:, 1:])
            np.copyto(out, diff[:, :-1], where=self._backward)
        np.multiply(out, self._inverse_spacing, out=out)
        np.multiply(self._minus_speeds, out, out=out)
        return out

    def step_eigen(self, pair: np.ndarray, dt: float) -> np.ndarray:
        """One RK4 step of size dt on the (2, N) complex pair (psi, psi');
        pair is overwritten and returned."""
        k, stage, acc = self._k, self._stage, self._acc
        self._rhs(pair, k)
        np.copyto(acc, k)
        for fraction, weight in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
            np.multiply(k, fraction * dt, out=stage)
            np.add(pair, stage, out=stage)
            self._rhs(stage, k)
            # the stage input is spent: reuse it for weight * k
            np.multiply(k, weight, out=stage)
            np.add(acc, stage, out=acc)
        # pair + dt/6 (k1 + 2 k2 + 2 k3 + k4)
        np.multiply(acc, dt / 6.0, out=acc)
        np.add(pair, acc, out=pair)
        return pair

    def step_coupled(self, even: np.ndarray, odd: np.ndarray, dt: float):
        """One step on the raw two-component system, without using the
        eigenbasis decoupling; kept as a cross-check of step_eigen.  The
        SAT penalty is applied explicitly to (psi, psi') here, not folded
        into the closure weights."""
        if self.solver.scheme != "central4":
            raise ConfigError(
                "the coupled cross-check needs the direction-free central scheme"
            )
        gen = self.generator
        f, g = gen.f, gen.g
        edges = [0, -1]
        # (component, edge) rates |c| / (h_0 dx) of the inflow penalties
        speeds = np.stack((gen.c_plus[edges], gen.c_minus[edges]))
        rates = np.where(self._inflow, np.abs(speeds), 0.0) / (_SBP_EDGE_NORM * self.dx)

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


def evolve(
    packet: WavepacketSpec, generator: Generator, solver: SolverConfig
) -> EvolutionResult:
    """Run a full evolution on the generator and collect snapshots plus
    observable rows.  A packet centred outside its window is a ConfigError,
    and so is a t_final that takes more than MAX_STEPS steps; both are
    raised before the first step.

    Snapshots are taken every `solver.snapshot_stride` steps, always
    including t = 0 and the final time.  The total time is covered by
    uniform CFL-limited steps with a single shortened final step.  The
    stepper advances one (psi, psi') array in place; each snapshot is a
    new (even, odd) state assembled from it.  Instability is found at
    snapshots: non-finite observables raise InstabilityError, and so does
    a snapshot where psi's TransportStepper.norm exceeds its t = 0 value
    by more than NORM_GROWTH_TOL of it.
    """
    window = generator.window
    packet.check_window(window)
    stepper = TransportStepper(generator, solver)
    grid = window.grid()

    psi0 = ScalarField(grid=grid, values=packet.evaluate(generator.x))
    state0 = embed_initial(psi0)
    pair = _eigen_pair(state0.even, state0.odd)

    dt = cfl_dt(window, generator, solver.cfl)
    t_final = solver.t_final
    steps = 0.0 if t_final == 0.0 else t_final / dt if dt > 0.0 else math.inf
    if steps > MAX_STEPS:
        raise ConfigError(
            f"t_final = {t_final:.6g} takes too many steps of dt = {dt:.6g}: "
            f"{steps:.3g}, above MAX_STEPS = {MAX_STEPS:.0e}"
        )
    n_steps = math.ceil(steps - 1e-12)

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

    record(0, 0.0, state0)
    t = 0.0
    for k in range(1, n_steps + 1):
        h = min(dt, t_final - t)
        stepper.step_eigen(pair, h)
        t += h
        if k % solver.snapshot_stride == 0 or k == n_steps:
            record(k, t, _assemble(grid, pair))

    return EvolutionResult(times=times, snapshots=snapshots, report=report)
