"""rindlersim: transport dynamics of a wavefunction and its
accelerated-frame reading, embedded as a two-component field.

The package is organized around these pieces:

- coords: exact maps between inertial and uniformly accelerated
  coordinates in 1+1 dimensions, boost/rapidity conversions, and the
  singular point of the generator (its root U_STAR is tabulated).
- hamiltonian: closed-form generator coefficients f(x), g(x), their
  independent matrix-inversion derivation, the denominator whose
  bisection gives U_STAR, the small-velocity / near-light-speed limits,
  and the one definition of the coefficient modes (exact, galileo,
  ultra).
- embedding: the two-component encoding (even/odd split), frame
  extraction, and the Pauli-block bilinear forms for expectation values
  and cross-frame correlations.
- evolution: method-of-lines transport of the two-component state on a
  window that is checked when it is built, with RK4 time stepping and
  SBP-SAT boundaries.
- oracle: exact advection and method-of-characteristics references used
  to verify the solver; imported on its own (rindlersim.oracle), so the
  package and the command line do not load it.
- scans: the coeffs, singularity and limits subcommands.
- runner/cli: strict JSON configuration, the evolve run, CSV/JSON
  serialization and the command-line surface.

Importing the package loads none of these either: each name in
_EXPORTS is imported from its module on first access (PEP 562), so a
command-line process loads only the modules its subcommand runs, and
`rindlersim.X` is the very object `rindlersim.<module>.X`.  A module
itself is reached by importing it (`import rindlersim.evolution`).
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "Acceleration",
            "Boost",
            "MinkowskiEvent",
            "RindlerEvent",
            "SingularPoint",
            "boost_of",
            "find_singularity",
            "in_right_wedge",
            "minkowski_to_rindler",
            "rindler_to_minkowski",
            "u_of_delta",
        ),
        "coords",
    ),
    **dict.fromkeys(
        (
            "EnlargedSpinorField",
            "Grid",
            "ScalarField",
            "correlation",
            "embed_initial",
            "expectation_inertial",
            "expectation_rindler",
            "extract_inertial",
            "extract_rindler",
        ),
        "embedding",
    ),
    **dict.fromkeys(
        (
            "ConfigError",
            "CoordinateDomainError",
            "GridMismatchError",
            "HorizonError",
            "InstabilityError",
            "OracleCoverageError",
            "RindlerSimError",
            "SingularityError",
        ),
        "errors",
    ),
    **dict.fromkeys(
        (
            "EvolutionResult",
            "Generator",
            "GridWindow",
            "SolverConfig",
            "WavepacketSpec",
            "build_generator",
            "cfl_dt",
            "evolve",
        ),
        "evolution",
    ),
    **dict.fromkeys(
        (
            "CoefficientPoint",
            "coefficients",
            "coefficients_via_inversion",
            "denominator",
            "galileo_coefficients",
            "ultra_coefficients",
        ),
        "hamiltonian",
    ),
    **dict.fromkeys(("cmd_coeffs", "cmd_limits", "cmd_singularity"), "scans"),
    **dict.fromkeys(("SimulationConfig", "cmd_evolve", "load_config"), "runner"),
}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS})
