"""Exceptional-point physics of a single lossy waveguide beamsplitter.

Restricting the two-mode beamsplitter to its N-photon subspace turns it
into an (N+1)-site non-Hermitian chain whose spectrum collapses, at the
critical loss 2*kappa, into an exceptional point of order N+1.  This
package builds the subspace operators, evaluates exact spectra, the exact
N-photon propagator and its closed-form Wei-Norman factorization, and
computes the post-selected observables (intensity and normalized
occupations) those dynamics imprint.  The runtime needs only numpy.
"""

__version__ = "0.1.0"

from .errors import (
    EigensolverError,
    OverflowGuardError,
    PoleProximityError,
    PrecisionError,
    SimulationError,
)
from .fock_core import (
    BeamsplitterParams,
    HamiltonianMatrix,
    LatticeSite,
    OperatorSet,
    basis_labels,
    build_hamiltonian,
    build_operators,
    detection_outcome_count,
    lattice_matrix,
    lattice_view,
    subspace_dimension,
)
from .observables import (
    EvolutionTrace,
    InputState,
    OrderFit,
    PeriodicityResult,
    fit_ep_order,
    make_input,
    occupations,
    periodicity_check,
    steady_state_onset,
    trace_evolution,
)
from .propagator import (
    PropagatorMatrix,
    WeiNormanParams,
    assemble_propagator,
    ep_limit_params,
    evolution_operator,
    evolve_grid,
    evolve_state,
    first_pole,
    wei_norman_params,
)
from .spectral import (
    EigenvalueFlow,
    EpCertificate,
    Spectrum,
    analytic_spectrum,
    certify_ep,
    classify_regime,
    delta_lambda,
    eigenvalue_flow,
    numeric_spectrum,
)

__all__ = [
    "__version__",
    # fock_core
    "BeamsplitterParams", "OperatorSet", "HamiltonianMatrix", "LatticeSite",
    "build_operators", "build_hamiltonian", "lattice_view", "lattice_matrix",
    "subspace_dimension", "detection_outcome_count", "basis_labels",
    # spectral
    "Spectrum", "EpCertificate", "EigenvalueFlow", "analytic_spectrum",
    "numeric_spectrum", "eigenvalue_flow", "certify_ep", "delta_lambda",
    "classify_regime",
    # propagator
    "WeiNormanParams", "PropagatorMatrix", "wei_norman_params",
    "ep_limit_params", "assemble_propagator", "evolution_operator",
    "evolve_grid", "evolve_state", "first_pole",
    # observables
    "InputState", "EvolutionTrace", "OrderFit", "PeriodicityResult",
    "make_input", "occupations", "trace_evolution", "fit_ep_order",
    "periodicity_check", "steady_state_onset",
    # errors
    "SimulationError", "PoleProximityError", "EigensolverError", "OverflowGuardError",
    "PrecisionError",
]
