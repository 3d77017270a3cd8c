"""Spectrum of the subspace Hamiltonian and exceptional-point certification.

The eigenvalues are known in closed form,

    lambda_r = (omega0 - i*Gamma/2) * N + r * sqrt(4*kappa^2 - Gamma^2),

with r = -N/2 .. N/2 in unit steps: an equidistant ladder with complex
spacing Delta_lambda = sqrt(4*kappa^2 - Gamma^2).  Below the critical loss
Gamma_c = 2*kappa the spacing is real (all modes decay at the common rate
Gamma*N/2); above it the spacing is purely imaginary and slow/fast decaying
modes split off.  At Gamma_c all N+1 eigenvalues and eigenvectors coalesce:
the shifted matrix M = H - (omega0 - i*kappa)*N*Id is nilpotent of index
N+1, which ``certify_ep`` checks through normalized norms of matrix powers.

A dense nonsymmetric eigensolver provides the independent numerical oracle.
Near the critical loss the matrix is defective and eigenvalue condition
numbers diverge (errors scale like a fractional power of the perturbation),
so numerical eigenvalues there are reported but only loosely trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigensolverError
from .fock_core import BeamsplitterParams, HamiltonianMatrix

__all__ = [
    "Spectrum",
    "EpCertificate",
    "EigenvalueFlow",
    "delta_lambda",
    "classify_regime",
    "analytic_spectrum",
    "numeric_spectrum",
    "eigenvalue_flow",
    "certify_ep",
    "pairing_distance",
    "REGIME_TOLERANCE",
    "NILPOTENCY_TOLERANCE",
    "SUPPORT_TOLERANCE",
]

# Relative half-width of the "exceptional" label around gamma = 2*kappa.
REGIME_TOLERANCE = 1e-9
# A normalized power norm below this counts as the zero matrix ...
NILPOTENCY_TOLERANCE = 1e-8
# ... and the previous power must stay above this to certify the order.
SUPPORT_TOLERANCE = 1e-4


def delta_lambda(kappa: float, gamma: float) -> complex:
    """Adjacent eigenvalue spacing sqrt(4*kappa^2 - gamma^2).

    Principal branch: real non-negative for gamma <= 2*kappa, positive
    imaginary above, so that smaller |Im lambda| (slow modes) sit at larger r.
    """
    return complex(np.sqrt(complex(4.0 * kappa * kappa - gamma * gamma)))


def classify_regime(kappa: float, gamma: float, tol: float = REGIME_TOLERANCE) -> str:
    """Classify the loss regime: 'unbroken', 'exceptional' or 'broken'."""
    gc = 2.0 * kappa
    if abs(gamma - gc) / gc < tol:
        return "exceptional"
    return "unbroken" if gamma < gc else "broken"


@dataclass(frozen=True)
class Spectrum:
    """Closed-form eigenvalue ladder of the subspace Hamiltonian.

    ``eigenvalues[k]`` corresponds to r = -N/2 + k; adjacent differences all
    equal ``delta_lambda`` by construction.
    """

    eigenvalues: np.ndarray
    delta_lambda: complex
    gamma_critical: float
    regime: str


def analytic_spectrum(params: BeamsplitterParams) -> Spectrum:
    """Evaluate the eigenvalue ladder for the given parameters.

    For gamma < 2*kappa every eigenvalue shares the imaginary part
    -gamma*N/2; for gamma > 2*kappa every real part equals omega0*N.
    """
    n = params.n_photons
    dl = delta_lambda(params.kappa, params.gamma)
    r = np.arange(n + 1) - n / 2.0
    lam = (params.omega0 - 0.5j * params.gamma) * n + r * dl
    lam.setflags(write=False)
    return Spectrum(
        eigenvalues=lam,
        delta_lambda=dl,
        gamma_critical=params.gamma_critical,
        regime=classify_regime(params.kappa, params.gamma),
    )


def numeric_spectrum(h: HamiltonianMatrix) -> np.ndarray:
    """Eigenvalues of the dense complex matrix, sorted by (Re, Im).

    This is the numerical oracle for the closed form.  Within ~1e-3 of the
    critical loss the matrix is nearly defective and the returned values are
    only accurate to ~eps^(1/(N+1)); compare with a loose tolerance there.
    Solver non-convergence raises ``EigensolverError``.
    """
    try:
        vals = np.linalg.eigvals(np.asarray(h.matrix))
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def pairing_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max |a_i - b_j| under the optimal one-to-one pairing of two spectra.

    Sorting complex eigenvalues lexicographically is unstable when real
    parts are degenerate up to roundoff, so oracle comparisons match the two
    sets through a minimal-cost assignment instead.
    """
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"spectra have different sizes: {a.shape} vs {b.shape}")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


@dataclass(frozen=True)
class EigenvalueFlow:
    """Analytic spectra on a grid of loss values, ready for plotting."""

    gammas: np.ndarray
    eigenvalues: np.ndarray  # shape (len(gammas), N+1), row i at gammas[i]
    n_photons: int


def eigenvalue_flow(
    omega0: float, kappa: float, n_photons: int, gamma_grid
) -> EigenvalueFlow:
    """Sweep the analytic spectrum over a grid of dissipation values.

    Real parts exhibit level attraction that closes at gamma = 2*kappa;
    imaginary parts stay degenerate below the transition and split above it.
    """
    gammas = np.asarray(gamma_grid, dtype=float)
    if gammas.size == 0:
        raise ValueError("gamma grid must be non-empty")
    if np.any(gammas < 0):
        raise ValueError("gamma grid values must be >= 0")
    rows = np.empty((gammas.size, n_photons + 1), dtype=complex)
    for i, g in enumerate(gammas):
        p = BeamsplitterParams(omega0=omega0, kappa=kappa, gamma=float(g), n_photons=n_photons)
        rows[i] = analytic_spectrum(p).eigenvalues
    rows.setflags(write=False)
    return EigenvalueFlow(gammas=gammas, eigenvalues=rows, n_photons=n_photons)


@dataclass(frozen=True)
class EpCertificate:
    """Nilpotency evidence for an exceptional point of order N+1.

    ``nilpotency_ratios[k-1]`` holds ||M^k||_F / (||M^(k-1)||_F * ||M||_F)
    for k = 1 .. N+1, a scale-free measure of how much of M^(k-1) survives
    one more application of M.  At the critical loss the chain collapses
    exactly at k = N+1; away from it the ratios stay of order one.
    """

    order: int
    shift: complex
    gamma: float
    nilpotency_ratios: tuple[float, ...]
    passed: bool


def certify_ep(
    h: HamiltonianMatrix,
    zero_tol: float = NILPOTENCY_TOLERANCE,
    support_tol: float = SUPPORT_TOLERANCE,
) -> EpCertificate:
    """Test nilpotency of index N+1 for M = H - (omega0 - i*kappa)*N*Id.

    The certificate passes exactly when the normalized norm of M^(N+1) falls
    below ``zero_tol`` while that of M^N stays above ``support_tol``.  Built
    for matrices at gamma = 2*kappa; off-critical input simply fails.
    """
    p = h.params
    n = p.n_photons
    shift = (p.omega0 - 1j * p.kappa) * n
    m = np.asarray(h.matrix) - shift * np.eye(n + 1)
    norm_m = np.linalg.norm(m)

    ratios = []
    power = np.eye(n + 1, dtype=complex)
    prev_norm = np.linalg.norm(power)
    for _ in range(n + 1):
        power = power @ m
        cur_norm = np.linalg.norm(power)
        ratios.append(float(cur_norm / (prev_norm * norm_m)) if prev_norm > 0 else 0.0)
        prev_norm = cur_norm

    passed = ratios[n] < zero_tol and ratios[n - 1] > support_tol
    return EpCertificate(
        order=n + 1,
        shift=complex(shift),
        gamma=p.gamma,
        nilpotency_ratios=tuple(ratios),
        passed=bool(passed),
    )
