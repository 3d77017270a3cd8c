"""Independent numerical oracles the tests check the package against.

Dense matrix exponentials, direct integration of the Wei-Norman coefficient
system and an optimal pairing of two spectra.  They are the only users of
scipy, which is why they live with the tests and not in the package.
"""

from __future__ import annotations

import cmath

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from epbs.errors import OverflowGuardError, SimulationError
from epbs.fock_core import BeamsplitterParams, HamiltonianMatrix
from epbs.propagator import PropagatorMatrix, WeiNormanParams, _prefactor_exponent

# Documented bound on ||H||_1 * z for the matrix-exponential oracle.
EXPM_NORM_BOUND = 1e5

_BLOWUP_LIMIT = 1e6


class RiccatiBlowupError(SimulationError):
    """The f+ Riccati equation blew up inside the requested z range."""

    def __init__(self, z_blowup: float, z_requested: float):
        super().__init__(
            f"f+ diverges near z={z_blowup:.6g} (first factorization pole); "
            f"cannot integrate the coefficient functions out to z={z_requested:.6g}"
        )
        self.z_blowup = z_blowup
        self.z_requested = z_requested


def matrix_exp_oracle(h: HamiltonianMatrix, z: float) -> PropagatorMatrix:
    """exp(-i*H*z) by dense scaling-and-squaring (Pade kernel).

    Independent of the factored path; never diagonalizes, so it remains
    well-defined on the defective matrix at the critical loss.  Rejects
    ||H||_1 * z beyond ``EXPM_NORM_BOUND``, past which squaring cost and
    roundoff make the result untrustworthy.
    """
    if z < 0:
        raise ValueError(f"z must be >= 0, got {z}")
    a = np.asarray(h.matrix)
    scale = float(np.linalg.norm(a, 1)) * z
    if scale > EXPM_NORM_BOUND:
        raise OverflowGuardError(
            f"||H||_1 * z = {scale:.3g} exceeds the matrix-exponential bound "
            f"{EXPM_NORM_BOUND:.1e}"
        )
    return PropagatorMatrix(
        core=expm(-1j * a * z), prefactor_exponent=0j, method="matrix_exp"
    )


def ode_oracle(
    params: BeamsplitterParams,
    z_grid,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> list[WeiNormanParams]:
    """Integrate the coefficient system numerically along an ascending grid.

    The system is f_+' = kappa (1 + f_+^2) - Gamma f_+,
    f_z' = -i Gamma + 2 i kappa f_+, f_-' = kappa e^{-i f_z}, all zero at
    z = 0.  Uses an adaptive 8th-order Runge-Kutta scheme on it; the
    tolerances keep the oracle ~100x tighter than the comparisons it backs.
    The grid must start at 0.  If f_+ blows up inside the requested range
    (the same poles as the closed form), ``RiccatiBlowupError`` reports the
    estimated blow-up location.
    """
    grid = np.asarray(z_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("z grid must be a non-empty 1-D sequence")
    if grid[0] != 0.0:
        raise ValueError(f"z grid must start at 0, got {grid[0]}")
    if np.any(np.diff(grid) < 0):
        raise ValueError("z grid must be ascending")

    kappa, gamma = params.kappa, params.gamma

    def rhs(_z, y):
        f_p, f_z, _f_m = y
        return [
            kappa * (1.0 + f_p * f_p) - gamma * f_p,
            -1j * gamma + 2j * kappa * f_p,
            kappa * np.exp(-1j * f_z),
        ]

    def blowup(_z, y):
        return abs(y[0]) - _BLOWUP_LIMIT

    blowup.terminal = True

    sol = solve_ivp(
        rhs,
        (0.0, float(grid[-1])),
        np.zeros(3, dtype=complex),
        method="DOP853",
        t_eval=grid,
        rtol=rtol,
        atol=atol,
        events=blowup,
    )
    if sol.status == 1:  # terminated by the blow-up event
        raise RiccatiBlowupError(float(sol.t_events[0][0]), float(grid[-1]))
    if not sol.success:
        raise RiccatiBlowupError(float(sol.t[-1]) if sol.t.size else 0.0, float(grid[-1]))

    out = []
    for k, z in enumerate(grid):
        f_p, f_z, f_m = sol.y[:, k]
        out.append(
            WeiNormanParams(
                z=float(z),
                f_plus=float(f_p.real),
                f_minus=float(f_m.real),
                f_z=complex(f_z),
                prefactor_exponent=_prefactor_exponent(params, float(z)),
                w=cmath.exp(0.5j * f_z),
                n_photons=params.n_photons,
                source="ode",
            )
        )
    return out


def pairing_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max |a_i - b_j| under the optimal one-to-one pairing of two spectra.

    Sorting complex eigenvalues lexicographically is unstable when real
    parts are degenerate up to roundoff, so oracle comparisons match the two
    sets through a minimal-cost assignment instead.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"spectra have different sizes: {a.shape} vs {b.shape}")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
