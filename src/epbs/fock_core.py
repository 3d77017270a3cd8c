"""N-photon subspace of a lossy two-waveguide beamsplitter.

Two coupled waveguide modes a (neutral) and b (lossy) restricted to a fixed
total photon number N span an (N+1)-dimensional space with orthonormal basis

    |m) := |N-m>_a |m>_b,    m = 0 .. N,

i.e. index m counts photons in the lossy guide, so loss grows with m.  On
this subspace the two-mode operators reduce to a spin S = N/2 representation
of the angular momentum algebra, and the beamsplitter Hamiltonian becomes
the dense complex (N+1)x(N+1) matrix

    H_N = (omega0 - i*Gamma/2) * N * Id + 2*kappa*Jx - i*Gamma*Jz,

an (N+1)-site tight-binding chain with real hopping kappa*sqrt((m+1)(N-m))
and on-site terms omega0*N - i*Gamma*m whose loss ramps linearly in m.

All rates are in cm^-1, propagation distance z in cm; products kappa*z are
dimensionless.  Every constructor here is a pure function and the returned
arrays are marked read-only, so values are safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "BeamsplitterParams",
    "OperatorSet",
    "HamiltonianMatrix",
    "LatticeSite",
    "subspace_dimension",
    "detection_outcome_count",
    "basis_labels",
    "build_operators",
    "build_hamiltonian",
    "lattice_view",
    "lattice_matrix",
]


def subspace_dimension(n_photons: int) -> int:
    """Dimension N+1 of the N-photon two-mode subspace."""
    return n_photons + 1


def detection_outcome_count(n_photons: int) -> int:
    """Number of distinct photon-number-resolved detector outcomes.

    Counting all |p>_a |q>_b with p + q <= N gives (N+1)(N+2)/2 classes; the
    post-selected dynamics modeled here keeps only the p + q = N manifold,
    the remaining classes are counted for reporting purposes only.
    """
    return (n_photons + 1) * (n_photons + 2) // 2


def basis_labels(n_photons: int) -> list[str]:
    """Human-readable labels |N-m,m> for the basis ordering used throughout."""
    return [f"|{n_photons - m},{m}>" for m in range(n_photons + 1)]


def _n_photons_faults(n) -> list[str]:
    """Why ``n`` is not a photon number N: a Python or numpy integer >= 1, not a bool."""
    if isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1:
        return []
    return [f"n_photons: must be an integer >= 1, got {n!r}"]


@dataclass(frozen=True)
class BeamsplitterParams:
    """Physical inputs of the lossy beamsplitter.

    Attributes
    ----------
    omega0 : common propagation constant of both guides (cm^-1), finite.
    kappa : inter-guide coupling (cm^-1), strictly positive and below 2^1023, so that
        Gamma_c = 2 kappa is finite.
    gamma : dissipation coefficient of guide b (cm^-1), finite, non-negative.
    n_photons : total photon number N >= 1, a Python or numpy integer, not a bool.

    Construction raises one ``ValueError`` that lists every failed rule as
    "field: reason", joined by "; ".
    """

    omega0: float
    kappa: float
    gamma: float
    n_photons: int

    def __post_init__(self):
        finite = {k: math.isfinite(getattr(self, k)) for k in ("omega0", "kappa", "gamma")}
        faults = [f"{k}: must be finite" for k, ok in finite.items() if not ok]
        if finite["kappa"] and self.kappa <= 0:
            faults.append(f"kappa: kappa must be positive, got {self.kappa}")
        elif finite["kappa"] and math.isinf(2.0 * self.kappa):
            faults.append(f"kappa: must be below 2^1023, where Gamma_c = 2 kappa is not a double, "
                          f"got {self.kappa}")
        if finite["gamma"] and self.gamma < 0:
            faults.append(f"gamma: gamma must be non-negative, got {self.gamma}")
        faults += _n_photons_faults(self.n_photons)
        if faults:
            raise ValueError("; ".join(faults))

    @property
    def gamma_critical(self) -> float:
        """Critical loss 2*kappa where all eigenvalues coalesce; never stored."""
        return 2.0 * self.kappa

    @property
    def spin(self) -> float:
        """Effective spin S = N/2 of the subspace representation."""
        return self.n_photons / 2.0

    @property
    def dim(self) -> int:
        return subspace_dimension(self.n_photons)


@dataclass(frozen=True)
class OperatorSet:
    """Dense angular-momentum matrices on the N-photon subspace.

    ``j_z`` is diagonal with entries (2m - N)/2, ascending in m, ``j_plus``
    raises m (moves a photon into the lossy guide) and is strictly lower
    triangular, ``j_minus = j_plus^dagger``.  The total photon-number
    operator acts as the scalar N here and is kept as ``number_op_scalar``.
    """

    dim: int
    j_x: np.ndarray
    j_y: np.ndarray
    j_z: np.ndarray
    j_plus: np.ndarray
    j_minus: np.ndarray
    number_op_scalar: int


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def build_operators(n_photons: int) -> OperatorSet:
    """Build the spin S = N/2 operator matrices in the |m) ordering.

    Raises ``ValueError`` unless n_photons is an integer >= 1, as
    ``BeamsplitterParams`` requires.
    """
    if faults := _n_photons_faults(n_photons):
        raise ValueError(faults[0])
    n = int(n_photons)
    dim = n + 1
    m = np.arange(dim)

    j_z = np.diag((2.0 * m - n) / 2.0).astype(complex)
    # <m+1| J+ |m> = sqrt((m+1)(N-m)); strictly lower triangular -> nilpotent
    amps = np.sqrt((m[:-1] + 1.0) * (n - m[:-1]))
    j_plus = np.zeros((dim, dim), dtype=complex)
    j_plus[m[:-1] + 1, m[:-1]] = amps
    j_minus = j_plus.conj().T.copy()
    j_x = (j_plus + j_minus) / 2.0
    j_y = (j_plus - j_minus) / 2.0j

    return OperatorSet(
        dim=dim,
        j_x=_freeze(j_x),
        j_y=_freeze(j_y),
        j_z=_freeze(j_z),
        j_plus=_freeze(j_plus),
        j_minus=_freeze(j_minus),
        number_op_scalar=n,
    )


@dataclass(frozen=True)
class HamiltonianMatrix:
    """The non-Hermitian subspace Hamiltonian together with its parameters."""

    matrix: np.ndarray
    params: BeamsplitterParams


def build_hamiltonian(params: BeamsplitterParams) -> HamiltonianMatrix:
    """Assemble H_N = (omega0 - i*Gamma/2)*N*Id + 2*kappa*Jx - i*Gamma*Jz.

    The result is tridiagonal: hopping kappa*sqrt((m+1)(N-m)) between m and
    m+1, on-site omega0*N - i*Gamma*m.  Hermitian exactly when gamma == 0.
    """
    ops = build_operators(params.n_photons)
    n = params.n_photons
    h = (
        (params.omega0 - 0.5j * params.gamma) * n * np.eye(ops.dim, dtype=complex)
        + 2.0 * params.kappa * ops.j_x
        - 1.0j * params.gamma * ops.j_z
    )
    return HamiltonianMatrix(matrix=_freeze(h), params=params)


class LatticeSite(NamedTuple):
    """One site of the equivalent tight-binding chain."""

    site: int
    onsite: complex
    hop_to_next: float  # 0.0 on the last site


def lattice_view(h: HamiltonianMatrix) -> list[LatticeSite]:
    """Expose the Hamiltonian as an (N+1)-site chain for reports and plots.

    The on-site imaginary parts decrease linearly in m (the loss ramp); the
    hoppings are the real super-diagonal entries.  ``lattice_matrix``
    round-trips the view back to the exact matrix.
    """
    mat = h.matrix
    dim = mat.shape[0]
    sites = []
    for m in range(dim):
        hop = float(mat[m, m + 1].real) if m + 1 < dim else 0.0
        sites.append(LatticeSite(site=m, onsite=complex(mat[m, m]), hop_to_next=hop))
    return sites


def lattice_matrix(sites: list[LatticeSite]) -> np.ndarray:
    """Rebuild the dense Hamiltonian matrix from its lattice view."""
    dim = len(sites)
    mat = np.zeros((dim, dim), dtype=complex)
    for s in sites:
        mat[s.site, s.site] = s.onsite
        if s.site + 1 < dim:
            mat[s.site, s.site + 1] = s.hop_to_next
            mat[s.site + 1, s.site] = s.hop_to_next
    return mat
