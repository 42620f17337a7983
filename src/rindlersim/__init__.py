"""rindlersim: transport dynamics of a wavefunction and its
accelerated-frame reading, embedded as a two-component field.

The package is organized around six pieces:

- coords: exact maps between inertial and uniformly accelerated
  coordinates in 1+1 dimensions, plus boost/rapidity conversions.
- hamiltonian: closed-form generator coefficients f(x), g(x), their
  independent matrix-inversion derivation, the denominator singularity,
  the small-velocity / near-light-speed limits, and the one definition
  of the coefficient modes (exact, galileo, ultra).
- embedding: the two-component encoding (even/odd split), frame
  extraction, and the Pauli-block bilinear forms for expectation values
  and cross-frame correlations.
- evolution: method-of-lines transport of the two-component state on a
  validated window, with RK4 time stepping and absorbing boundaries.
- oracle: exact advection and method-of-characteristics references used
  to verify the solver.
- runner/cli: strict JSON configuration, CSV/JSON serialization and the
  command-line surface (coeffs, singularity, evolve, limits).
"""

from .coords import (
    Acceleration,
    Boost,
    MinkowskiEvent,
    RindlerEvent,
    boost_of,
    in_right_wedge,
    minkowski_to_rindler,
    rindler_to_minkowski,
    u_of_delta,
)
from .embedding import (
    EnlargedSpinorField,
    Grid,
    GridObservable,
    ScalarField,
    correlation,
    embed_initial,
    expectation_inertial,
    expectation_rindler,
    extract_inertial,
    extract_rindler,
)
from .errors import (
    ConfigError,
    CoordinateDomainError,
    GridMismatchError,
    HorizonError,
    InstabilityError,
    OracleCoverageError,
    RindlerSimError,
    SingularityError,
)
from .evolution import (
    EvolutionResult,
    Generator,
    GridWindow,
    SolverConfig,
    WavepacketSpec,
    build_generator,
    cfl_dt,
    evolve,
)
from .hamiltonian import (
    CoefficientPoint,
    SingularPoint,
    coefficients,
    coefficients_via_inversion,
    denominator,
    find_singularity,
    galileo_coefficients,
    ultra_coefficients,
)
from .oracle import characteristics_rindler, compare, exact_inertial
from .runner import SimulationConfig, cmd_coeffs, cmd_evolve, cmd_limits, cmd_singularity, load_config

__version__ = "0.1.0"
