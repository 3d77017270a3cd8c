"""Evolution operators G(z) = exp(-i*H_N*z): one exact engine and the factorization.

The dynamics are linear in the mode operators, so G_N(z) is the spin-N/2
symmetric power Sym^N(g1) of the 2x2 single-photon propagator (Schwinger's
oscillator model of angular momentum),

    g1(z) = e^{-i(omega0 - i*Gamma/2) z} [[u, v], [v, t]],
    u, t = c +/- (Gamma/2) s,    v = -i*kappa*s,

with c = cos(theta), s = sin(theta)/(Delta_lambda/2), theta = z*Delta_lambda/2
(cosh and sinh above the loss threshold, exactly c = 1 and s = z at the
critical loss); the core [[u, v], [v, t]] has unit determinant.  A state
on |m) = |N-m>_a |m>_b is the polynomial P(x, y) = sum_m c_m sqrt(C(N, m))
x^(N-m) y^m, and G_N maps it to P(u x + v y, v x + t y) times the scalar
prefactor.  ``evolve_grid`` composes that polynomial homogeneous-Horner
style, O(N^2) per z and vectorised over whole z grids, without forming G_N;
``evolution_operator`` builds the matrix from the same algebra.  g1 is
entire in z, so there are no poles, switching thresholds or fallbacks, and
its scale is kept in log space with the decay -Gamma*N*z, so nothing
overflows.

The paper's closed form factorizes the same operator as
e^{-i(omega0 - i*Gamma/2) N z} e^{-i f_+ J_+} e^{-i f_z J_z} e^{-i f_- J_-}
with f_+ = f_- = q/w, f_z = -2i ln w, q = kappa*s and w = u (q = kappa*z,
w = 1 + kappa*z at the critical loss); it is singular at the zeros of w,
which exist only below threshold.  ``wei_norman_params``,
``ep_limit_params`` and ``assemble_propagator`` evaluate it as the
reproduced result; with dense matrix exponentials (``matrix_exp_oracle``)
and direct integration of the coefficient system (``ode_oracle``) they
cross-check the engine in the tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import OverflowGuardError, PoleProximityError, RiccatiBlowupError
from .fock_core import BeamsplitterParams, HamiltonianMatrix, OperatorSet

__all__ = [
    "WeiNormanParams",
    "PropagatorMatrix",
    "wei_norman_params",
    "ep_limit_params",
    "assemble_propagator",
    "matrix_exp_oracle",
    "ode_oracle",
    "evolution_operator",
    "evolve_grid",
    "evolve_state",
    "first_pole",
    "METHOD",
    "EP_SWITCH_THRESHOLD",
    "POLE_TOLERANCE",
    "EXPM_NORM_BOUND",
]

# Label of the single evaluation path, reported with every operator and trace.
METHOD = "symmetric_power"
# z points per block of the batched state update; the working set is a few
# arrays of _BLOCK x (N+1) complex numbers.
_BLOCK = 512
# |Delta_lambda|*z below which wei_norman_params defers to ep_limit_params.
EP_SWITCH_THRESHOLD = 1e-6
# |w(z)| below which the factored form is rejected as pole-adjacent.
POLE_TOLERANCE = 1e-6
# Documented bound on ||H||_1 * z for the matrix-exponential oracle.
EXPM_NORM_BOUND = 1e5


@dataclass(frozen=True)
class WeiNormanParams:
    """Scalar coefficients of the factored propagator at one distance z.

    ``f_plus == f_minus`` holds for every z.  ``w`` is real for the closed
    form in either regime (it only becomes genuinely complex when produced
    by the numerical integrator) and carries all branch information:
    e^{-i f_z} == w^{-2} exactly, so diagonal factors are integer powers of
    w.  ``prefactor_exponent`` is -i(omega0 - i*Gamma/2)*N*z; its real part
    -Gamma*N*z/2 is the global decay and is kept separate so norms and
    intensities can be formed in log space.
    """

    z: float
    f_plus: float
    f_minus: float
    f_z: complex
    prefactor_exponent: complex
    w: complex
    n_photons: int  # binds the prefactor to the subspace it was built for
    source: str = "wei_norman"


def first_pole(params: BeamsplitterParams, z_start: float = 0.0) -> float | None:
    """Distance of the first zero of w(z) past ``z_start``.

    Zeros exist only below the loss threshold, at theta values with
    tan(theta) = -Delta_lambda/Gamma; above threshold returns ``None``.
    """
    dl2 = 4.0 * params.kappa**2 - params.gamma**2
    if dl2 <= 0:
        return None
    d = math.sqrt(dl2)
    if params.gamma == 0.0:
        theta0 = math.pi / 2.0
    else:
        theta0 = math.pi - math.atan(d / params.gamma)
    z0 = 2.0 * theta0 / d
    period = 2.0 * math.pi / d
    if z0 <= z_start:
        z0 += math.ceil((z_start - z0) / period) * period
        if z0 <= z_start:
            z0 += period
    return z0


def _prefactor_exponent(params: BeamsplitterParams, z: float) -> complex:
    return -1j * (params.omega0 - 0.5j * params.gamma) * params.n_photons * z


def wei_norman_params(
    params: BeamsplitterParams, z: float, pole_tol: float = POLE_TOLERANCE
) -> WeiNormanParams:
    """Closed-form coefficient functions at distance z.

    Raises ``ValueError`` for z < 0 or when |Delta_lambda|*z is inside the
    critical-loss switch window (use ``ep_limit_params`` there), and
    ``PoleProximityError`` when |w(z)| < ``pole_tol``.
    """
    if z < 0:
        raise ValueError(f"z must be >= 0, got {z}")
    if z == 0.0:
        return WeiNormanParams(
            z=0.0, f_plus=0.0, f_minus=0.0, f_z=0j, prefactor_exponent=0j,
            w=1.0 + 0j, n_photons=params.n_photons,
        )

    kappa, gamma = params.kappa, params.gamma
    dl2 = 4.0 * kappa * kappa - gamma * gamma
    u = math.sqrt(abs(dl2)) * z
    if u < EP_SWITCH_THRESHOLD:
        raise ValueError(
            f"|Delta_lambda|*z = {u:.2e} is below the critical-loss switch "
            f"threshold {EP_SWITCH_THRESHOLD:.0e}; use ep_limit_params"
        )

    if dl2 > 0:
        d = math.sqrt(dl2)
        theta = 0.5 * z * d
        s = math.sin(theta) / d
        w = math.cos(theta) + gamma * s
    else:
        d = math.sqrt(-dl2)
        x = 0.5 * z * d
        if x > 700.0:
            raise OverflowGuardError(
                f"w(z) ~ exp({x:.3g}) exceeds double-precision range at z={z!r}"
            )
        s = math.sinh(x) / d
        w = math.cosh(x) + gamma * s

    if abs(w) < pole_tol:
        raise PoleProximityError(z, abs(w), pole_tol)

    f = 2.0 * kappa * s / w
    return WeiNormanParams(
        z=float(z),
        f_plus=f,
        f_minus=f,
        f_z=-2j * cmath.log(w),
        prefactor_exponent=_prefactor_exponent(params, z),
        w=complex(w),
        n_photons=params.n_photons,
    )


def ep_limit_params(params: BeamsplitterParams, z: float) -> WeiNormanParams:
    """Coefficient functions in the Delta_lambda -> 0 limit.

    f_+/- = kappa*z/(1 + kappa*z) and w = 1 + kappa*z are exact at the
    critical loss (not approximations of it); f_+/- approach unity for
    kappa*z >> 1, which is what turns the propagator polynomial in z there.
    """
    if z < 0:
        raise ValueError(f"z must be >= 0, got {z}")
    kz = params.kappa * z
    return WeiNormanParams(
        z=float(z),
        f_plus=kz / (1.0 + kz),
        f_minus=kz / (1.0 + kz),
        f_z=-2j * math.log1p(kz),
        prefactor_exponent=_prefactor_exponent(params, z),
        w=1.0 + kz + 0j,
        n_photons=params.n_photons,
        source="ep_limit",
    )


@dataclass(frozen=True)
class PropagatorMatrix:
    """G(z) split as exp(prefactor_exponent) * core.

    ``core`` is the operator with the scalar prefactor removed; it has unit
    determinant and stays representable long after the full matrix has
    decayed below the double-precision floor, which is what makes log-space
    intensities possible.  ``matrix`` reassembles the full
    operator and may underflow to zero entries for very large Gamma*N*z.
    """

    core: np.ndarray
    prefactor_exponent: complex
    method: str

    @property
    def matrix(self) -> np.ndarray:
        return np.exp(self.prefactor_exponent) * self.core

    @property
    def dim(self) -> int:
        return self.core.shape[0]


def assemble_propagator(wn: WeiNormanParams, ops: OperatorSet) -> PropagatorMatrix:
    """Evaluate the factored propagator from its scalar coefficients.

    On one photon the three factors are the 2x2 matrices [[1, 0], [-i f_+, 1]],
    diag(w, 1/w) and [[1, -i f_-], [0, 1]]; the symmetric power of their
    product [[u, v], [w, t]] is e^{-i f_+ J_+} w^{N-2 J_z} e^{-i f_- J_-}.
    Raises on dimension mismatch, at w = 0 and when the result leaves the
    double range.
    """
    n = ops.number_op_scalar
    if wn.n_photons != n:
        raise ValueError(
            f"coefficients were built for N={wn.n_photons} but the operator "
            f"set represents N={n}"
        )
    w, f_p, f_m = complex(wn.w), wn.f_plus, wn.f_minus
    if abs(w) < 1e-300:
        raise PoleProximityError(wn.z, abs(w), 1e-300)
    entries = (w, -1j * f_m * w, -1j * f_p * w, 1.0 / w - f_p * f_m * w)
    core = _sym_matrix(n, entries, 0.0, wn.z)
    return PropagatorMatrix(
        core=core, prefactor_exponent=complex(wn.prefactor_exponent), method=wn.source
    )


def matrix_exp_oracle(h: HamiltonianMatrix, z: float) -> PropagatorMatrix:
    """exp(-i*H*z) by dense scaling-and-squaring (Pade kernel).

    Independent of the factored path; never diagonalizes, so it remains
    well-defined on the defective matrix at the critical loss.  Rejects
    ||H||_1 * z beyond ``EXPM_NORM_BOUND``, past which squaring cost and
    roundoff make the result untrustworthy.
    """
    from scipy.linalg import expm

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


_BLOWUP_LIMIT = 1e6


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
    from scipy.integrate import solve_ivp

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


def _g1_core(kappa: float, gamma: float, z: np.ndarray):
    """Entries (u, v, t) of g1's core [[u, v], [v, t]] over an array of z.

    Returns them with a log scale: the core is exp(log_scale) times
    [[u, v], [v, t]].  Above threshold the common growth e^x of cosh and
    sinh (x = z*|Delta_lambda|/2) goes into the log scale, so no entry
    overflows.
    """
    dl2 = 4.0 * kappa * kappa - gamma * gamma
    log_scale = np.zeros_like(z)
    if dl2 > 0:
        half = 0.5 * math.sqrt(dl2)
        c, s = np.cos(half * z), np.sin(half * z) / half
    elif dl2 < 0:
        half = 0.5 * math.sqrt(-dl2)
        log_scale = half * z
        c = 0.5 * (1.0 + np.exp(-2.0 * log_scale))
        s = -0.5 * np.expm1(-2.0 * log_scale) / half
    else:
        c, s = np.ones_like(z), z
    return c + 0.5 * gamma * s, -1j * kappa * s, c - 0.5 * gamma * s, log_scale


def _sym_power(u, v, w, t, amplitudes: np.ndarray):
    """Sym^N of [[u, v], [w, t]] applied to states, up to a scale per row.

    The entries hold one value per row of the result (or one for all rows);
    ``amplitudes`` holds one state per row (or one for all rows).  Each
    state is the polynomial P(x, y) = sum_m a_m x^(N-m) y^m with
    a_m = c_m sqrt(C(N, m)); its image P(X, Y), X = u x + w y,
    Y = v x + t y, is composed homogeneous-Horner style,
    T_k = T_(k-1) X + a_k Y^k, carrying Y^k only up to the last non-zero
    a_k: O(N^2) per row.  The 2x2 is first normalised so that its larger
    column has unit norm.  Returns (psi, log_scale) with the image equal to
    exp(N * log_scale) * psi on the orthonormal basis.
    """
    norm = np.maximum(np.hypot(abs(u), abs(w)), np.hypot(abs(v), abs(t)))
    u, v, w, t = (np.asarray(e / norm)[:, None] for e in (u, v, w, t))
    n = amplitudes.shape[-1] - 1
    log_fact = [math.lgamma(k + 1.0) for k in range(n + 1)]
    roots = np.exp(0.5 * (log_fact[n] - np.add(log_fact, log_fact[::-1])))  # sqrt(C(N, m))
    coeffs = amplitudes * roots
    rows = max(u.shape[0], coeffs.shape[0])
    poly = np.zeros((rows, n + 1), dtype=complex)
    poly[:, 0] = coeffs[:, 0]
    y_pow = np.zeros((rows, n + 1), dtype=complex)
    y_pow[:, 0] = 1.0
    last = np.flatnonzero(np.any(coeffs != 0, axis=0)).max(initial=0)
    for k in range(1, n + 1):
        shifted = poly[:, :k] * w
        poly[:, :k] *= u
        poly[:, 1 : k + 1] += shifted
        if k <= last:
            shifted = y_pow[:, :k] * t
            y_pow[:, :k] *= v
            y_pow[:, 1 : k + 1] += shifted
            poly[:, : k + 1] += coeffs[:, k : k + 1] * y_pow[:, : k + 1]
    return poly / roots, np.log(norm)


def _sym_matrix(n: int, entries, log_scale: float, z: float) -> np.ndarray:
    """exp(N * log_scale) * Sym^N([[u, v], [w, t]]) as a matrix, entries (u, v, w, t).

    Column k is the image of |k), i.e. the coefficients of X^(N-k) Y^k.
    Raises ``OverflowGuardError`` when the matrix leaves the double range.
    """
    u, v, w, t = (np.atleast_1d(e) for e in entries)
    with np.errstate(over="ignore", invalid="ignore"):
        images, log_norm = _sym_power(u, v, w, t, np.eye(n + 1, dtype=complex))
        core = images.T * np.exp(n * (log_scale + log_norm[0]))
    if not np.isfinite(core).all():
        raise OverflowGuardError(
            f"N-photon propagator leaves double-precision range at z={z!r} (N={n})"
        )
    return core


def evolve_grid(
    params: BeamsplitterParams, amplitudes, z_grid
) -> tuple[np.ndarray, np.ndarray]:
    """log I(z) and occupations P(m; z) of G(z) applied to a state, over a z array.

    log I is ln ||G(z) psi||^2 for the amplitudes as given; P is the
    normalized |(m|G(z) psi>|^2, which stays exact after I itself has
    underflowed.  G is never formed.  The z values may come in any order;
    they are worked through in blocks, so the working set stays a few
    block x (N+1) arrays.  Raises ``OverflowGuardError`` if any value is
    not finite.
    """
    n = params.n_photons
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (n + 1,):
        raise ValueError(f"state has shape {amps.shape}, expected ({n + 1},)")
    z = np.asarray(z_grid, dtype=float)
    if z.ndim != 1 or np.any(z < 0):
        raise ValueError("z must be a 1-D array of distances >= 0")
    log_i = np.empty(z.size)
    occ = np.empty((z.size, n + 1))
    for lo in range(0, z.size, _BLOCK):
        zb = z[lo : lo + _BLOCK]
        u, v, t, log_scale = _g1_core(params.kappa, params.gamma, zb)
        # out-of-range intermediates surface as non-finite values, caught below
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            psi, log_norm = _sym_power(u, v, v, t, amps[None, :])
            weights = psi.real**2 + psi.imag**2
            total = weights.sum(axis=1)
            li = np.log(total) + n * (2.0 * (log_scale + log_norm) - params.gamma * zb)
            pb = weights / total[:, None]
        bad = np.flatnonzero(~(np.isfinite(li) & np.isfinite(pb).all(axis=1)))
        if bad.size:
            raise OverflowGuardError(
                f"state update leaves double-precision range at "
                f"z={float(zb[bad[0]])!r} (N={n}, log I = {li[bad[0]]})"
            )
        log_i[lo : lo + zb.size] = li
        occ[lo : lo + zb.size] = pb
    return log_i, occ


def evolution_operator(
    params: BeamsplitterParams,
    z: float,
    ops: OperatorSet | None = None,
) -> PropagatorMatrix:
    """G(z) = exp(prefactor_exponent) * core, the core being Sym^N of g1's core.

    The core has unit determinant; column k is the image of |k), built from
    the coefficients of X^(N-k) Y^k.  ``ops`` is optional and only checked
    against N.  Raises ``OverflowGuardError`` when the core itself leaves
    the double range (the log intensities of ``evolve_grid`` never do).
    """
    if z < 0:
        raise ValueError(f"z must be >= 0, got {z}")
    n = params.n_photons
    if ops is not None and ops.number_op_scalar != n:
        raise ValueError(
            f"operator set represents N={ops.number_op_scalar} but params have N={n}"
        )
    u, v, t, log_scale = _g1_core(params.kappa, params.gamma, np.array([float(z)]))
    core = _sym_matrix(n, (u, v, v, t), float(log_scale[0]), z)
    return PropagatorMatrix(
        core=core, prefactor_exponent=_prefactor_exponent(params, z), method=METHOD
    )


def evolve_state(
    state: np.ndarray, g: PropagatorMatrix, check_normalized: bool = True
) -> np.ndarray:
    """Apply G(z) to a state vector without renormalizing.

    The squared norm of the result is the post-selection probability.  The
    input must be unit-normalized to 1e-10 unless the check is disabled.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (g.dim,):
        raise ValueError(f"state has shape {state.shape}, expected ({g.dim},)")
    if check_normalized:
        norm = np.linalg.norm(state)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"input state is not normalized: ||psi|| = {norm!r}")
    return g.matrix @ state
