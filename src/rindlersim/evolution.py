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

The generator is applied in non-symmetrized form, coefficient times
derivative; it is not Hermitian for variable g, so only the inertial
component has a conserved norm.  Windows must stay clear of the
denominator singularity (validated up front).

Boundary handling: 'sponge' uses one-sided interior stencils at the
edges plus a cosine-ramp absorbing layer over the outer 10% of the
window, applied per component only on sides where that component's
characteristics leave the domain (damping an inflow side would destroy
incoming physics).  'periodic' wraps the stencils and is supported for
convergence experiments only, since f and g are not periodic.
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
    expectation_inertial,
    expectation_rindler,
    correlation,
    field_norm,
    identity_observable,
    position_observable,
)
from .errors import ConfigError, InstabilityError
from .hamiltonian import (
    COEFFICIENT_CAP,
    SINGULAR_EPS,
    coefficient_arrays,
    find_singularity,
    ultra_f_delta,
)

__all__ = [
    "DEFAULT_SINGULAR_MARGIN",
    "SPONGE_FRACTION",
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

# half-width of the excluded band around the denominator root, in u
DEFAULT_SINGULAR_MARGIN = 0.05
# fraction of the window occupied by each absorbing layer
SPONGE_FRACTION = 0.1

_SCHEMES = ("central4", "upwind1")
_BOUNDARIES = ("sponge", "periodic")
_MODES = ("exact", "galileo", "ultra")


@dataclass(frozen=True)
class GridWindow:
    """Simulation window [x_min, x_max] with n samples at acceleration a."""

    x_min: float
    x_max: float
    n: int
    a: Acceleration

    def grid(self) -> Grid:
        return Grid(self.x_min, self.x_max, self.n)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)


@dataclass(frozen=True)
class SolverConfig:
    scheme: str = "central4"
    boundary: str = "sponge"
    cfl: float = 0.5
    t_final: float = 1.0
    snapshot_stride: int = 1

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if self.boundary not in _BOUNDARIES:
            raise ConfigError(
                f"boundary must be one of {_BOUNDARIES}, got {self.boundary!r}"
            )
        if not (0.0 < self.cfl <= 1.0):
            raise ConfigError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.t_final < 0.0:
            raise ConfigError(f"t_final must be >= 0, got {self.t_final}")
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
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ConfigError(f"packet width must be positive, got {self.sigma}")
        if not math.isfinite(self.amplitude):
            raise ConfigError("packet amplitude must be finite")

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
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
    """Coefficient fields sampled on the window grid."""

    window: GridWindow
    mode: str
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


def _validate_window(window: GridWindow, margin: float):
    if window.n < 64:
        raise ConfigError(f"evolution needs at least 64 grid points, got {window.n}")
    if not window.x_max > window.x_min:
        raise ConfigError(f"empty window [{window.x_min}, {window.x_max}]")
    a = window.a.a
    u_lo, u_hi = a * window.x_min, a * window.x_max
    if u_lo <= 1.0:
        raise ConfigError(
            f"window reaches u = a*x = {u_lo:.6g} <= 1; positions must satisfy a*x > 1"
        )
    u_star = find_singularity(window.a).u_star
    if not (u_hi < u_star - margin or u_lo > u_star + margin):
        raise ConfigError(
            f"window [{u_lo:.6g}, {u_hi:.6g}] in u overlaps the singular band "
            f"{u_star:.6g} +- {margin}"
        )


def build_generator(
    window: GridWindow,
    mode: str = "exact",
    delta: float | None = None,
    margin: float = DEFAULT_SINGULAR_MARGIN,
) -> Generator:
    """Sample the transport coefficients over a validated window.

    mode 'exact' uses the closed forms; 'galileo' substitutes the
    small-velocity limit f = 1 + v/2, g = -v/2 with the local
    v(x) = sqrt(1 - 1/u^2); 'ultra' substitutes the constant
    near-light-speed coefficients for the given delta.
    """
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
    _validate_window(window, margin)
    x = np.linspace(window.x_min, window.x_max, window.n)
    u = window.a.a * x

    if mode == "exact":
        f, g, _ = coefficient_arrays(u, eps=SINGULAR_EPS)
        if np.max(np.abs(f)) > COEFFICIENT_CAP:
            raise ConfigError(
                f"|f| exceeds the coefficient cap {COEFFICIENT_CAP} inside the window; "
                "move the window further from the singularity"
            )
    elif mode == "galileo":
        v = np.sqrt((u - 1.0) * (u + 1.0)) / u
        if np.max(np.abs(v)) > 0.2:
            raise ConfigError(
                f"small-velocity mode needs |v| <= 0.2 everywhere; window reaches "
                f"v = {np.max(np.abs(v)):.4g}"
            )
        if np.max(np.abs(v)) > 0.1:
            warnings.warn(
                "small-velocity approximation is marginal beyond |v| = 0.1",
                stacklevel=2,
            )
        f = 1.0 + v / 2.0
        g = -v / 2.0
    else:
        if delta is None:
            raise ConfigError("mode 'ultra' requires a delta parameter")
        fd = ultra_f_delta(delta)
        f = np.full(window.n, 1.0 + fd)
        g = np.full(window.n, -fd)

    return Generator(
        window=window, mode=mode, x=x, f=f, g=g, c_plus=f + g, c_minus=f - g
    )


def cfl_dt(window: GridWindow, generator: Generator, cfl: float) -> float:
    """Stable explicit step dt = cfl * dx / max|c| over the grid."""
    return cfl * window.dx / generator.max_speed


def _derivative_central4(v: np.ndarray, dx: float, periodic: bool) -> np.ndarray:
    if periodic:
        return (
            -np.roll(v, -2) + 8.0 * np.roll(v, -1) - 8.0 * np.roll(v, 1) + np.roll(v, 2)
        ) / (12.0 * dx)
    d = np.empty_like(v)
    d[2:-2] = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * dx)
    # one-sided fourth-order closures at the edges
    d[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / (
        12.0 * dx
    )
    d[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / (12.0 * dx)
    d[-2] = (3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5]) / (
        12.0 * dx
    )
    d[-1] = (25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3] - 16.0 * v[-4] + 3.0 * v[-5]) / (
        12.0 * dx
    )
    return d


# The four edge rows 0, 1, N-2, N-1 of the fourth-order derivative
# (times 12 dx), as source columns and weights in the order the terms are
# summed: the one-sided closures on the five outermost samples of each
# side, or for periodic windows the interior stencil wrapped round.
_CLOSURE_TERMS = (
    ((0, 1, 2, 3, 4), (-25.0, 48.0, -36.0, 16.0, -3.0)),
    ((0, 1, 2, 3, 4), (-3.0, -10.0, 18.0, -6.0, 1.0)),
    ((-1, -2, -3, -4, -5), (3.0, 10.0, -18.0, 6.0, -1.0)),
    ((-1, -2, -3, -4, -5), (25.0, -48.0, 36.0, -16.0, 3.0)),
)
_INTERIOR_TERMS = ((2, 1, -1, -2), (-1.0, 8.0, -8.0, 1.0))


def _edge_rows(n: int, periodic: bool):
    """The derivative's edge rows as flat indices into a (2, N) pair in C
    order: the targets (8,), the sources (term, row, edge), and the
    weights (term, 1, edge)."""
    columns = np.array([0, 1, n - 2, n - 1])
    if periodic:
        offsets, weights = _INTERIOR_TERMS
        sources = (columns + np.array(offsets)[:, None]) % n
        weights = np.repeat(np.array(weights)[:, None], 4, axis=1)
    else:
        sources = np.array([offsets for offsets, _ in _CLOSURE_TERMS]).T % n
        weights = np.array([weights for _, weights in _CLOSURE_TERMS]).T
    row_starts = n * np.arange(2)[:, None]
    return (
        (row_starts + columns).ravel(),
        row_starts + sources[:, None, :],
        weights[:, None, :].astype(complex),
    )


def _sponge_sigma(window: GridWindow, max_speed: float):
    """Damping-rate profiles for the left and right absorbing layers."""
    x = np.linspace(window.x_min, window.x_max, window.n)
    width = SPONGE_FRACTION * (window.x_max - window.x_min)
    strength = 8.0 * max_speed / width
    ramp_left = np.clip(((window.x_min + width) - x) / width, 0.0, 1.0)
    ramp_right = np.clip((x - (window.x_max - width)) / width, 0.0, 1.0)
    cos_ramp = lambda ramp: 0.5 * (1.0 - np.cos(np.pi * ramp))
    return strength * cos_ramp(ramp_left), strength * cos_ramp(ramp_right)


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
    For that the stepper holds, as (2, N) arrays, the negated speeds,
    the sponge rates of each component, the decay factors exp(-dt sigma)
    of the step sizes in use, and four work buffers: the stage slope k,
    the stage input, the slope accumulator and one stencil scratch.
    """

    def __init__(self, generator: Generator, solver: SolverConfig):
        self.generator = generator
        self.solver = solver
        self.dx = generator.window.dx
        self.periodic = solver.boundary == "periodic"
        if self.periodic:
            warnings.warn(
                "periodic boundaries wrap non-periodic coefficients; "
                "use only for convergence experiments",
                stacklevel=2,
            )
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
        self._edge_targets, self._edge_sources, self._edge_weights = _edge_rows(
            n, self.periodic
        )
        self._sigma = None
        if not self.periodic:
            sigma_left, sigma_right = _sponge_sigma(
                generator.window, generator.max_speed
            )
            self._sigma = np.zeros((2, n))
            for sigma, c in zip(self._sigma, speeds):
                # damp only where this component's characteristics exit
                if c[0] < 0.0:
                    sigma += sigma_left
                if c[-1] > 0.0:
                    sigma += sigma_right
        # exp(-dt sigma) per step size: a run uses two, the CFL step and
        # the shortened last step
        self._decay = {}
        self._k, self._stage, self._acc = (
            np.empty((2, n), dtype=complex) for _ in range(3)
        )
        self._scratch = np.empty((2, n + 1), dtype=complex)

    def _decay_factor(self, dt: float) -> np.ndarray | None:
        if self._sigma is None:
            return None
        factor = self._decay.get(dt)
        if factor is None:
            if len(self._decay) >= 2:
                self._decay.clear()
            factor = self._decay[dt] = np.exp(-dt * self._sigma).astype(complex)
        return factor

    def _rhs(self, pair: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = -c d(pair)/dx, row by row, without allocating.  Terms are
        combined in the order _derivative_central4 uses, so that the two
        routes give the same floats."""
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
            if self.periodic:
                diff[:, 0] = diff[:, -1] = pair[:, 0] - pair[:, -1]
            else:
                diff[:, 0] = diff[:, 1]
                diff[:, -1] = diff[:, -2]
            np.copyto(out, diff[:, 1:])
            np.copyto(out, diff[:, :-1], where=self._backward)
        np.multiply(out, self._inverse_spacing, out=out)
        np.multiply(self._minus_speeds, out, out=out)
        return out

    def step_eigen(self, pair: np.ndarray, dt: float) -> np.ndarray:
        """One RK4 step of size dt, then the sponge decay, on the (2, N)
        complex pair (psi, psi'); pair is overwritten and returned."""
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
        factor = self._decay_factor(dt)
        if factor is not None:
            np.multiply(pair, factor, out=pair)
        return pair

    def step_coupled(self, even: np.ndarray, odd: np.ndarray, dt: float):
        """One step on the raw two-component system, without using the
        eigenbasis decoupling; kept as a cross-check of step_eigen."""
        if self.solver.scheme != "central4":
            raise ConfigError(
                "the coupled cross-check needs the direction-free central scheme"
            )
        f, g = self.generator.f, self.generator.g

        def rhs(e, o):
            de = _derivative_central4(e, self.dx, self.periodic)
            do = _derivative_central4(o, self.dx, self.periodic)
            return -(f * de + g * do), -(g * de + f * do)

        k1e, k1o = rhs(even, odd)
        k2e, k2o = rhs(even + 0.5 * dt * k1e, odd + 0.5 * dt * k1o)
        k3e, k3o = rhs(even + 0.5 * dt * k2e, odd + 0.5 * dt * k2o)
        k4e, k4o = rhs(even + dt * k3e, odd + dt * k3o)
        even = even + (dt / 6.0) * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
        odd = odd + (dt / 6.0) * (k1o + 2.0 * k2o + 2.0 * k3o + k4o)
        # sponge acts on the transported scalars; convert, damp, convert back
        pair = _eigen_pair(even, odd)
        factor = self._decay_factor(dt)
        if factor is not None:
            pair *= factor
        plus, minus = pair
        return 0.5 * (plus + minus), 0.5 * (plus - minus)


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
    """Observables of one snapshot.  The frame norms are taken from the
    transported rows (psi, psi') of `pair`: as differences of
    two-component forms they would cancel once one frame's field dwarfs
    the other's.  Centers and correlations stay Pauli-block forms."""
    dx = state.grid.dx
    pos = position_observable(state.grid)
    # overflow shows up as non-finite observables, which evolve rejects
    with np.errstate(over="ignore", invalid="ignore"):
        norm_in = field_norm(pair[0], dx)
        norm_rin = field_norm(pair[1], dx)
        x_in = (
            expectation_inertial(state, pos).real / norm_in**2 if norm_in > 0 else None
        )
        x_rin = (
            expectation_rindler(state, pos).real / norm_rin**2 if norm_rin > 0 else None
        )
        return ReportRow(
            t=t,
            norm_even=field_norm(state.even, dx),
            norm_odd=field_norm(state.odd, dx),
            norm_inertial=norm_in,
            norm_rindler=norm_rin,
            x_inertial=x_in,
            x_rindler=x_rin,
            corr_identity=correlation(state, identity_observable(state.grid)),
            corr_position=correlation(state, pos),
        )


def _is_finite(row: ReportRow) -> bool:
    values = (getattr(row, f.name) for f in fields(row))
    return all(cmath.isfinite(v) for v in values if v is not None)


def evolve(
    packet: WavepacketSpec,
    window: GridWindow,
    solver: SolverConfig,
    mode: str = "exact",
    delta: float | None = None,
) -> EvolutionResult:
    """Run a full evolution and collect snapshots plus observable rows.

    Snapshots are taken every `solver.snapshot_stride` steps, always
    including t = 0 and the final time.  The total time is covered by
    uniform CFL-limited steps with a single shortened final step.  The
    stepper advances one (psi, psi') array in place; each snapshot is a
    new (even, odd) state assembled from it.  Non-finite fields or
    observables raise InstabilityError.
    """
    generator = build_generator(window, mode=mode, delta=delta)
    packet.check_window(window)
    stepper = TransportStepper(generator, solver)
    grid = window.grid()
    x = grid.points()

    psi0 = ScalarField(grid=grid, values=packet.evaluate(x))
    state0 = embed_initial(psi0)
    pair = _eigen_pair(state0.even, state0.odd)

    dt = cfl_dt(window, generator, solver.cfl)
    t_final = solver.t_final
    n_steps = 0 if t_final == 0.0 else int(math.ceil(t_final / dt - 1e-12))

    times, snapshots, report = [], [], []

    def record(k: int, t: float, state: EnlargedSpinorField):
        row = _report_row(t, state, pair)
        if not _is_finite(row):
            raise InstabilityError(
                k, f"non-finite observables at step {k} (t = {t:.6g})"
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
        if not np.isfinite(pair).all():
            raise InstabilityError(k)
        if k % solver.snapshot_stride == 0 or k == n_steps:
            record(k, t, _assemble(grid, pair))

    return EvolutionResult(times=times, snapshots=snapshots, report=report)
