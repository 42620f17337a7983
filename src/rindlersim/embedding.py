"""Two-component encoding of the wavefunction pair (inertial, accelerated).

The simulator state is a spinor field Psi = (psi_e, psi_o) on a uniform
grid, where psi_e/psi_o are the half-sum and half-difference of the
wavefunction read in inertial coordinates, psi, and the same
wavefunction read in the accelerated frame, psi'.  Extraction is linear:

    psi  = psi_e + psi_o          (= (1, 1) Psi)
    psi' = psi_e - psi_o          (= (1, 1) sigma_z Psi)

so the frame change, which no physical operation could apply to psi
instantaneously, is the perfectly physical gate sigma_z on Psi.

Expectation values in either frame, and cross-frame correlations, are
bilinear forms of Psi built from 2x2 Pauli blocks tensored with a grid
observable O:

    <O>_psi   = <Psi| (I + sigma_x) (x) O |Psi>
    <O>_psi'  = <Psi| (I - sigma_x) (x) O |Psi>
    <psi|O|psi'> = <Psi| (sigma_z - i sigma_y) (x) O |Psi>

Inner products are plain Riemann sums sum(conj(u) * v) * dx on the
uniform grid.  evolve's report rows (_report_row) use them, but its
growth check does not: it measures psi in the SBP norm, whose edge
samples carry their own weights (TransportStepper.norm).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GridMismatchError

__all__ = [
    "Grid",
    "ScalarField",
    "EnlargedSpinorField",
    "GridObservable",
    "identity_observable",
    "position_observable",
    "window_projector",
    "inner",
    "field_norm",
    "embed_initial",
    "extract_inertial",
    "extract_rindler",
    "enlarged_expectation",
    "expectation_inertial",
    "expectation_rindler",
    "correlation",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "IDENTITY_2",
]

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid with n samples on [x_min, x_max]."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 8:
            raise ConfigError(f"grid needs at least 8 samples, got {self.n}")
        if not self.x_max > self.x_min:
            raise ConfigError(f"empty grid interval [{self.x_min}, {self.x_max}]")
        # linspace rounds each sample by about an ulp: 8 of them apart keeps
        # the samples distinct and in order
        ulp = math.ulp(max(abs(self.x_min), abs(self.x_max)))
        if not self.dx > 8.0 * ulp:
            raise ConfigError(
                f"grid spacing {self.dx:.3g} on [{self.x_min}, {self.x_max}] is not above "
                f"8 ulps of x ({8.0 * ulp:.3g})"
            )

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)


def _as_complex_values(grid: Grid, values) -> np.ndarray:
    values = np.asarray(values, dtype=complex)
    if values.shape != (grid.n,):
        raise ConfigError(
            f"field values have shape {values.shape}, expected ({grid.n},)"
        )
    return values


@dataclass(frozen=True)
class ScalarField:
    """Complex amplitudes on a uniform grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _as_complex_values(self.grid, self.values))


@dataclass(frozen=True)
class EnlargedSpinorField:
    """Two-component state (even, odd) sharing one grid."""

    grid: Grid
    even: np.ndarray = field(repr=False)
    odd: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "even", _as_complex_values(self.grid, self.even))
        object.__setattr__(self, "odd", _as_complex_values(self.grid, self.odd))


def _require_same_grid(a_grid: Grid, b_grid: Grid):
    if a_grid != b_grid:
        raise GridMismatchError(f"grids differ: {a_grid} vs {b_grid}")


@dataclass(frozen=True)
class GridObservable:
    """Hermitian single-particle observable bound to a grid: the
    multiplication by a real per-sample array (position, identity and
    window projectors)."""

    grid: Grid
    data: np.ndarray = field(repr=False)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.data * values


def identity_observable(grid: Grid) -> GridObservable:
    return GridObservable(grid, np.ones(grid.n))


def position_observable(grid: Grid) -> GridObservable:
    return GridObservable(grid, grid.points())


def window_projector(grid: Grid, lo: float, hi: float) -> GridObservable:
    """Projector onto grid samples with lo <= x <= hi."""
    x = grid.points()
    return GridObservable(grid, ((x >= lo) & (x <= hi)).astype(float))


def inner(u: np.ndarray, v: np.ndarray, dx: float) -> complex:
    """Plain Riemann-sum inner product <u|v> = sum(conj(u) v) dx."""
    return complex(np.sum(np.conjugate(u) * v) * dx)


def field_norm(values: np.ndarray, dx: float) -> float:
    return float(np.sqrt(np.sum(np.abs(values) ** 2) * dx))


def embed_initial(psi0: ScalarField) -> EnlargedSpinorField:
    """Initial two-component state for a wavefunction known at t = 0.

    At t = 0 the accelerated-frame reading coincides with the inertial
    one, so the odd component vanishes and Psi(x, 0) = (psi0, 0).
    """
    if not np.all(np.isfinite(psi0.values.real) & np.isfinite(psi0.values.imag)):
        raise ConfigError("initial wavefunction contains non-finite values")
    return EnlargedSpinorField(
        grid=psi0.grid,
        even=psi0.values.copy(),
        odd=np.zeros(psi0.grid.n, dtype=complex),
    )


def extract_inertial(psi: EnlargedSpinorField) -> ScalarField:
    """Inertial-frame wavefunction psi = psi_e + psi_o."""
    return ScalarField(grid=psi.grid, values=psi.even + psi.odd)


def extract_rindler(psi: EnlargedSpinorField) -> ScalarField:
    """Accelerated-frame wavefunction psi' = psi_e - psi_o.

    This realizes the instantaneous frame change as the sigma_z gate on
    the enlarged state followed by the same (1, 1) readout.
    """
    return ScalarField(grid=psi.grid, values=psi.even - psi.odd)


def enlarged_expectation(
    psi: EnlargedSpinorField, block: np.ndarray, obs: GridObservable
) -> complex:
    """Bilinear form <Psi| block (x) O |Psi> with a 2x2 spin block."""
    _require_same_grid(psi.grid, obs.grid)
    comps = (psi.even, psi.odd)
    applied = tuple(obs.apply(c) for c in comps)
    dx = psi.grid.dx
    total = 0.0 + 0.0j
    for i in range(2):
        for j in range(2):
            coeff = complex(block[i, j])
            if coeff != 0.0:
                total += coeff * inner(comps[i], applied[j], dx)
    return total


def expectation_inertial(psi: EnlargedSpinorField, obs: GridObservable) -> complex:
    """<O> in the inertial frame, via the (I + sigma_x) block."""
    return enlarged_expectation(psi, IDENTITY_2 + PAULI_X, obs)


def expectation_rindler(psi: EnlargedSpinorField, obs: GridObservable) -> complex:
    """<O> in the accelerated frame, via the (I - sigma_x) block."""
    return enlarged_expectation(psi, IDENTITY_2 - PAULI_X, obs)


def correlation(psi: EnlargedSpinorField, obs: GridObservable) -> complex:
    """Cross-frame form <psi|O|psi'>, via the rank-one block
    sigma_z - i sigma_y = [[1, -1], [1, -1]]."""
    return enlarged_expectation(psi, PAULI_Z - 1.0j * PAULI_Y, obs)
