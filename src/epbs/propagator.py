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
prefactor.  g1 is entire in z, so there are no poles.  Its scale is kept
in log space with the decay -Gamma*N*z, so nothing overflows.
``_g1`` forms g1's core once per call, for one z or a whole grid, and
``_sympower`` evaluates Sym^N of it: ``evolve_grid``, the one state entry,
holds amplitudes to one rule and maps them over a z grid without forming
G_N; ``evolution_operator`` builds the matrix, each column with its own
bound.  A value not certified to ``ERROR_LIMIT`` raises ``PrecisionError``.

The paper's closed form factorizes the same operator as
e^{-i(omega0 - i*Gamma/2) N z} e^{-i f_+ J_+} e^{-i f_z J_z} e^{-i f_- J_-}
with f_+ = f_- = q/w, f_z = -2i ln w, q = kappa*s and w = u (q = kappa*z,
w = 1 + kappa*z at the critical loss); it is singular at the zeros of w,
which exist only below threshold.  ``wei_norman_params`` reads w and q
off the engine's g1 core, so one evaluation serves every regime, the
critical loss included; ``ep_limit_params`` is the paper's critical-loss
form.  ``assemble_propagator`` multiplies the one-photon factors and takes
Sym^N of their product as ``evolution_operator`` takes it of g1's core,
with column bounds that carry the product's rounding, N eps / |w| near a
zero of w.  They are the reproduced result.  The tests check them
against each other, literal factor products, dense matrix exponentials and
direct integration of the coefficient system (``tests/oracles.py``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._sympower import ERROR_LIMIT, _core_matrix, _state_rows
from .errors import OverflowGuardError, PoleProximityError, PrecisionError
from .fock_core import BeamsplitterParams

__all__ = [
    "WeiNormanParams",
    "PropagatorMatrix",
    "wei_norman_params",
    "ep_limit_params",
    "assemble_propagator",
    "evolution_operator",
    "evolve_grid",
    "evolve_state",
    "first_pole",
    "METHOD",
    "ERROR_LIMIT",
]

# Label of the single evaluation path, reported with every operator and trace.
METHOD = "symmetric_power"
_TINY = np.finfo(float).tiny
# ln 2 split as in fdlibm: k * _LN2_HI is exact for |k| < 2^20
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


@dataclass(frozen=True)
class WeiNormanParams:
    """Scalar coefficients of the factored propagator at one distance z.

    ``f_plus == f_minus`` holds for every z.  ``w`` is real for the closed
    form in either regime (only the numerical integrator of the tests gives
    a complex one; ``assemble_propagator`` needs it real, and f_+ == f_-)
    and carries all branch information:
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


def _check_z(z, ndim: int) -> np.ndarray:
    """z as floats, if it has ``ndim`` dimensions (0 for one z) and holds finite distances >= 0."""
    out = np.asarray(z, dtype=float)
    # NaN fails both comparisons
    if out.ndim != ndim or not (out.min(initial=0.0) >= 0.0 and out.max(initial=0.0) < math.inf):
        raise ValueError(f"z must be finite distances >= 0 in {ndim} dimension(s), got {out}")
    return out


def _g1(kappa: float, gamma: float, z):
    """(c, kappa s, (Gamma/2) s, log_scale, Gamma z, theta) of g1's core at z, an array or a scalar.

    theta = z |Delta_lambda|/2; c and s are cos(theta) and sin(theta)/(Delta_lambda/2)
    below threshold, cosh and sinh above it with their growth e^theta in
    the log scale, exactly 1 and z at the critical loss.
    """
    dl2 = 4.0 * kappa * kappa - gamma * gamma
    half = 0.5 * math.sqrt(abs(dl2))
    theta = half * z
    if dl2 > 0:
        c, s, log_scale = np.cos(theta), np.sin(theta) / half, 0.0 * z
    elif dl2 < 0:
        log_scale, c = theta, 0.5 * (1.0 + np.exp(-2.0 * theta))
        s = -0.5 * np.expm1(-2.0 * theta) / half
    else:
        c, s, log_scale = 0.0 * z + 1.0, z, 0.0 * z
    return c, kappa * s, 0.5 * gamma * s, log_scale, gamma * z, theta


def _prefactor_exponent(params: BeamsplitterParams, z: float) -> complex:
    return -1j * (params.omega0 - 0.5j * params.gamma) * params.n_photons * z


def wei_norman_params(params: BeamsplitterParams, z: float) -> WeiNormanParams:
    """Closed-form coefficient functions at distance z, read off g1's core.

    w = u = c + y and f_+/- = kappa*s/u, from the same evaluation of g1
    the engine uses, in either regime and at the critical loss.  Raises
    ``ValueError`` for a negative or non-finite z, ``OverflowGuardError``
    when w leaves the double range, and ``PoleProximityError`` where w is
    exactly 0.
    """
    _check_z(z, 0)
    c, ks, y, log_scale = _g1(params.kappa, params.gamma, np.float64(z))[:4]
    u = c + y
    with np.errstate(over="ignore"):
        w = float(u * np.exp(log_scale))
    if not math.isfinite(w):
        raise OverflowGuardError(f"w(z) exceeds double-precision range at z={z!r}")
    if w == 0.0:
        raise PoleProximityError(z)
    f = float(ks / u)
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
    _check_z(z, 0)
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


def assemble_propagator(wn: WeiNormanParams) -> PropagatorMatrix:
    """Evaluate the factored propagator from its scalar coefficients.

    On one photon the factors are [[1, 0], [-i f, 1]], diag(w, 1/w) and
    [[1, -i f], [0, 1]] (f = f_+ = f_-); their product is the unit-
    determinant core [[w, -i f w], [-i f w, t]], t = 1/w - f^2 w.  Its
    Sym^N, e^{-i f J_+} w^{N-2 J_z} e^{-i f J_-} with N = ``wn.n_photons``,
    is built as ``evolution_operator``'s core is, its column bounds adding
    t's rounding dt.  Near a zero of w, t cancels: |dt| / eps is (1/|w| +
    2 f^2 |w| + |t|) / 2 for its roundings, plus f^2 |w| + |t| max(|w|,
    |t|) / |w| for f's, as u = c + y is off by eps max(|w|, |t|).  Sym^N
    turns dt [[0, 0], [i f w, w]], the core's change times its inverse,
    into a relative column change of at most |dt| (|f w| (N+1)/2 + |w| N).
    Raises ``ValueError`` for a complex w or f_+ != f_- (no closed form
    gives them), ``PoleProximityError`` where w is exactly 0,
    ``OverflowGuardError`` when the result leaves the double range and
    ``PrecisionError`` when a column's bound exceeds ``ERROR_LIMIT``.
    """
    w, f = complex(wn.w), wn.f_plus
    if w.imag != 0.0 or f != wn.f_minus:
        raise ValueError(f"assembly needs a real w and f_+ == f_-, got {w}, {f}, {wn.f_minus}")
    w = w.real
    if w == 0.0:
        raise PoleProximityError(wn.z)
    t = 1.0 / w - f * f * w
    a_w, a_t, ffw = abs(w), abs(t), f * f * abs(w)
    t_err = 0.5 * (1.0 / a_w + 2.0 * ffw + a_t) + ffw + a_t * max(a_w, a_t) / a_w
    rounding = 1.0 + 0.25 * t_err * (abs(f * w) + 2.0 * a_w)
    core = _core_matrix(wn.n_photons, wn.z, rounding, 0.5 * (w + t), f * w, 0.5 * (w - t), 0.0)[0]
    return PropagatorMatrix(
        core=core, prefactor_exponent=complex(wn.prefactor_exponent), method=wn.source
    )


def _scale_amplitudes(amps: np.ndarray) -> tuple[np.ndarray, int]:
    """(a 2^-e, e) for the e that puts a's largest real or imaginary part in [1/2, 1).

    Raises ``ValueError`` for a non-finite amplitude or the zero vector.
    """
    parts = np.ascontiguousarray(amps, dtype=complex).view(float)
    if not np.isfinite(parts).all():
        raise ValueError("amplitudes must be finite")
    top = np.abs(parts).max()
    if not top:
        raise ValueError("amplitudes must not be the zero vector")
    exp = math.frexp(top)[1]
    return np.ldexp(parts, -exp).view(complex), exp


def evolve_grid(
    params: BeamsplitterParams, amplitudes, z_grid, with_occupations: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """(log I, P) of G(z) applied to a state, over a z array; P is None without occupations.

    log I is ln ||G(z) psi||^2 for the amplitudes as given; P is the
    normalized |(m|G(z) psi>|^2, which stays exact after I itself has
    underflowed.  G is never formed: ``_sympower._state_rows`` maps the
    state in blocks of z, which may come in any order, and allocates no
    (z, N+1) array without occupations.  Amplitudes whose ||a||^2 leaves the
    normal range are first scaled by ``make_input``'s power of two, which
    log I gets back.  Raises ``ValueError`` for a negative or non-finite z,
    a non-finite amplitude or the zero vector, ``OverflowGuardError`` for a
    non-finite computed value, and ``PrecisionError`` where no form is
    certified to ``ERROR_LIMIT`` or log I breaks the contraction (unitarity
    at Gamma = 0) of G_N by more than that.
    """
    n = params.n_photons
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (n + 1,):
        raise ValueError(f"state has shape {amps.shape}, expected ({n + 1},)")
    z = _check_z(z_grid, 1)
    norm2 = float(np.vdot(amps, amps).real)
    exp = 0
    # the scaling refuses a non-finite amplitude and fixes a finite one of extreme scale
    if not _TINY <= norm2 < math.inf:
        amps, exp = _scale_amplitudes(amps)
        norm2 = float(np.vdot(amps, amps).real)
    # out-of-range intermediates surface as non-finite values, which the engine refuses
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_i, occ = _state_rows(n, amps, z, _g1(params.kappa, params.gamma, z)[:5],
                                 params.gamma == 0.0, math.log(norm2), with_occupations)
    if exp:
        # 2 exp ln 2 in two parts, so that it adds a single rounding
        log_i += 2 * exp * _LN2_LO
        log_i += 2 * exp * _LN2_HI
    return log_i, occ


def evolution_operator(params: BeamsplitterParams, z: float) -> PropagatorMatrix:
    """G(z) = exp(prefactor_exponent) * core, the core being Sym^N of g1's core.

    The core has unit determinant; column k is the image of |k), the
    coefficients of X^(N-k) Y^k.  A column whose error bound
    (``_sympower._core_matrix``, its entries rounded by theta + 1 eps)
    exceeds ``ERROR_LIMIT`` raises ``PrecisionError`` naming z, N and the
    column.  At z = 0 the core is I.
    Raises ``OverflowGuardError`` when the core itself leaves the double
    range (the log intensities of ``evolve_grid`` never do), and
    ``ValueError`` for a negative or non-finite z.
    """
    _check_z(z, 0)
    c, ks, y, log_scale, _, theta = map(float, _g1(params.kappa, params.gamma, z))
    core = _core_matrix(params.n_photons, z, theta + 1.0, c, ks, y, log_scale)[0]
    return PropagatorMatrix(
        core=core, prefactor_exponent=_prefactor_exponent(params, z), method=METHOD
    )


def evolve_state(state: np.ndarray, g: PropagatorMatrix) -> np.ndarray:
    """Apply G(z) to a state vector without renormalizing.

    The squared norm of the result is the post-selection probability.  The
    input must be unit-normalized to 1e-10.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (g.dim,):
        raise ValueError(f"state has shape {state.shape}, expected ({g.dim},)")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"input state is not normalized: ||psi|| = {norm!r}")
    return g.matrix @ state
