"""Spectrum of the subspace Hamiltonian and exceptional-point certification.

The eigenvalues are known in closed form,

    lambda_r = (omega0 - i*Gamma/2) * N + r * sqrt(4*kappa^2 - Gamma^2),

with r = -N/2 .. N/2 in unit steps: an equidistant ladder with complex
spacing Delta_lambda = sqrt(4*kappa^2 - Gamma^2).  Below the critical loss
Gamma_c = 2*kappa the spacing is real (all modes decay at the common rate
Gamma*N/2); above it the spacing is purely imaginary and slow/fast decaying
modes split off.  At Gamma_c all N+1 eigenvalues and eigenvectors coalesce:
the shifted matrix M = H - (omega0 - i*kappa)*N*Id is nilpotent of index
N+1.  ``certify_ep`` gives that verdict exactly, from the parameters, and
reports normalized norms of M's powers beside it.

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
]


def delta_lambda(kappa: float, gamma: float) -> complex:
    """Adjacent eigenvalue spacing sqrt(4*kappa^2 - gamma^2).

    Principal branch: real non-negative for gamma <= 2*kappa, positive
    imaginary above, so that smaller |Im lambda| (slow modes) sit at larger r.
    """
    return complex(np.sqrt(complex(4.0 * kappa * kappa - gamma * gamma)))


def classify_regime(kappa: float, gamma: float) -> str:
    """Classify the loss regime: 'unbroken', 'exceptional' or 'broken'.

    'exceptional' holds exactly when gamma == 2*kappa, where ``certify_ep``
    passes; doubling a float is exact, and the engine's sign of
    4*kappa^2 - gamma^2 agrees with this rule to the last ulp.
    """
    gc = 2.0 * kappa
    if gamma == gc:
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
    -gamma*N/2; for gamma > 2*kappa every real part equals omega0*N.  The
    ladder is ``eigenvalue_flow``'s row at gamma.
    """
    p = params
    lam = eigenvalue_flow(p.omega0, p.kappa, p.n_photons, [p.gamma]).eigenvalues[0]
    return Spectrum(
        eigenvalues=lam,
        delta_lambda=delta_lambda(p.kappa, p.gamma),
        gamma_critical=p.gamma_critical,
        regime=classify_regime(p.kappa, p.gamma),
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
    BeamsplitterParams(omega0, kappa, 0.0, n_photons)  # raises for a bad omega0, kappa or N
    gammas = np.asarray(gamma_grid, dtype=float)
    if gammas.ndim != 1 or gammas.size == 0:
        raise ValueError("gamma grid must be a non-empty 1-D sequence")
    if not (np.isfinite(gammas) & (gammas >= 0)).all():
        raise ValueError("gamma grid values must be finite and >= 0")
    dl = np.sqrt((4.0 * kappa * kappa - gammas * gammas).astype(complex))
    r = np.arange(n_photons + 1) - n_photons / 2.0
    rows = (omega0 - 0.5j * gammas[:, None]) * n_photons + r * dl[:, None]
    rows.setflags(write=False)
    return EigenvalueFlow(gammas=gammas, eigenvalues=rows, n_photons=n_photons)


@dataclass(frozen=True)
class EpCertificate:
    """Nilpotency evidence for an exceptional point of order N+1.

    ``passed`` is the exact verdict.  ``nilpotency_ratios[k-1]`` holds
    ||M^k||_F / (||M^(k-1)||_F * ||M||_F) for k = 1 .. N+1, a scale-free
    measure of how much of M^(k-1) survives one more application of M,
    taken on the float matrix.  At the critical loss the chain collapses at
    k = N+1 in exact arithmetic; in floats its last ratio is the rounding
    of M^N times M, 4e-13 at N = 40, 1.2e-8 at N = 80 and 0.07 (no longer
    below the others) at N = 200, so near N = 80 the ratios lose their
    meaning as evidence.  Away from the critical loss they stay of order
    one.
    """

    order: int
    shift: complex
    gamma: float
    nilpotency_ratios: tuple[float, ...]
    passed: bool


def certify_ep(h: HamiltonianMatrix) -> EpCertificate:
    """Certify nilpotency of index N+1 for M = H - (omega0 - i*kappa)*N*Id.

    H_N is the N-photon image dSym^N(h1) of the one-photon generator, so M
    is that of n = kappa sigma_x - i (Gamma/2) sigma_z + i (kappa - Gamma/2) I.
    For Gamma != 2 kappa the traceless part of n has two distinct
    eigenvalues and H_N has N+1 simple ones.  At Gamma = 2 kappa, n is a
    non-zero nilpotent, similar to the 2x2 Jordan block, whose dSym^N is a
    single Jordan block of size N+1 (Kac, Amer. Math. Monthly 54, 369
    (1947)).  So the certificate passes exactly when ``gamma == 2 * kappa``;
    doubling a float is exact, so the test holds at every N.  The power is
    renormalized at each step, so the ratios stay finite at any N.
    """
    p = h.params
    n = p.n_photons
    shift = (p.omega0 - 1j * p.kappa) * n
    m = np.asarray(h.matrix) - shift * np.eye(n + 1)
    norm_m = np.linalg.norm(m)

    ratios = []
    power = np.eye(n + 1, dtype=complex) / np.sqrt(n + 1.0)
    for _ in range(n + 1):
        power = power @ m
        cur_norm = np.linalg.norm(power)
        ratios.append(float(cur_norm / norm_m))
        if cur_norm > 0:
            power /= cur_norm

    return EpCertificate(
        order=n + 1,
        shift=complex(shift),
        gamma=p.gamma,
        nilpotency_ratios=tuple(ratios),
        passed=bool(p.gamma == 2.0 * p.kappa),
    )
