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
prefactor.  ``evolve_grid`` applies that map over whole z grids without
forming G_N, in one of three forms chosen by the amplitudes (``_sympower``):
an O(N) binomial form in real arithmetic for states on |0) and |N) only
(``all_in_a``, ``all_in_b``, ``noon``), an SVD form with three real matrix
products per block of z for any other state (one without occupations),
and Horner composition with Higham's bound on the z whose SVD error
estimate exceeds ``ERROR_LIMIT``.  A z that neither form certifies raises
``PrecisionError``, as does a log I that breaks G_N's contraction
(unitarity at Gamma = 0).  ``evolution_operator`` builds the matrix with
the same SVD form on blocks of basis columns at one z, each column scaled
for itself; a column bound above ``ERROR_LIMIT`` raises ``PrecisionError``.
g1 is entire in z, so there are no poles.  Its scale is kept in log space
with the decay -Gamma*N*z, so nothing overflows.

The paper's closed form factorizes the same operator as
e^{-i(omega0 - i*Gamma/2) N z} e^{-i f_+ J_+} e^{-i f_z J_z} e^{-i f_- J_-}
with f_+ = f_- = q/w, f_z = -2i ln w, q = kappa*s and w = u (q = kappa*z,
w = 1 + kappa*z at the critical loss); it is singular at the zeros of w,
which exist only below threshold.  ``wei_norman_params`` reads w and q
off the engine's g1 core, so one evaluation serves every regime, the
critical loss included; ``ep_limit_params`` is the paper's critical-loss
form.  ``assemble_propagator`` multiplies the one-photon factors and takes
Sym^N of their product with ``evolution_operator``'s certified core
builder.  They are the reproduced result.  The tests check them against
each other, literal factor products, dense matrix exponentials and direct
integration of the coefficient system (``tests/oracles.py``).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._sympower import (
    _EST_FACTOR,
    _LOG_FLUSH,
    _SVD_ENTRIES,
    ERROR_LIMIT,
    _check_rows,
    _edge_rows,
    _g1_core,
    _g1_cs,
    _interior_rows,
    _running_powers,
    _spin_basis,
    _svd_form,
)
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
    "POLE_TOLERANCE",
]

# Label of the single evaluation path, reported with every operator and trace.
METHOD = "symmetric_power"
# Entries per block of the O(N) update of states on |0) and |N):
# _EDGE_ENTRIES // (N+1) z points, so each of its few block x (N+1) real
# arrays stays at most 256 kB and a 2000-point trace at N <= 15 is one
# block.  A budget four times larger raised the peak memory of a
# paper-traces benchmark process by 0.5 MB and saved no time.
_EDGE_ENTRIES = 1 << 15
# |w(z)| below which the factored form is rejected as pole-adjacent.
POLE_TOLERANCE = 1e-6
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
# ln 2 split as in fdlibm: k * _LN2_HI is exact for |k| < 2^20
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
_HALF_SUMS = np.array([[0.5, 0.5], [0.5, -0.5]])  # (a2, a1) -> (p1, p2) = (a2 +/- a1) / 2


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


def _check_z(z: float) -> None:
    if not 0 <= z < math.inf:
        raise ValueError(f"z must be a finite distance >= 0, got {z}")


def _prefactor_exponent(params: BeamsplitterParams, z: float) -> complex:
    return -1j * (params.omega0 - 0.5j * params.gamma) * params.n_photons * z


def wei_norman_params(params: BeamsplitterParams, z: float) -> WeiNormanParams:
    """Closed-form coefficient functions at distance z, read off g1's core.

    w = u and f_+/- = kappa*s/u = -Im(v)/u, with (u, v) from the same exact
    evaluation the engine uses, in either regime and at the critical loss.
    Raises ``ValueError`` for a negative or non-finite z,
    ``OverflowGuardError`` when w leaves the double range, and
    ``PoleProximityError`` when |w(z)| < ``POLE_TOLERANCE``.
    """
    _check_z(z)
    u, v, _, log_scale = _g1_core(params.kappa, params.gamma, np.float64(z))
    with np.errstate(over="ignore"):
        w = float(u * np.exp(log_scale))
    if not math.isfinite(w):
        raise OverflowGuardError(f"w(z) exceeds double-precision range at z={z!r}")
    if abs(w) < POLE_TOLERANCE:
        raise PoleProximityError(z, abs(w), POLE_TOLERANCE)
    f = float(-v.imag / u)
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
    _check_z(z)
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
    is built as ``evolution_operator``'s core is, with the same column
    bounds.  Raises ``ValueError`` for a complex w or f_+ != f_- (no closed
    form gives them), ``PoleProximityError`` at w = 0,
    ``OverflowGuardError`` when the result leaves the double range and
    ``PrecisionError`` when a column's bound exceeds ``ERROR_LIMIT``.
    """
    w, f = complex(wn.w), wn.f_plus
    if w.imag != 0.0 or f != wn.f_minus:
        raise ValueError(f"assembly needs a real w and f_+ == f_-, got {w}, {f}, {wn.f_minus}")
    w = w.real
    if abs(w) < 1e-300:
        raise PoleProximityError(wn.z, abs(w), 1e-300)
    t = 1.0 / w - f * f * w
    core = _core_matrix(wn.n_photons, wn.z, 0.0, 0.5 * (w + t), f * w, 0.5 * (w - t), 0.0)[0]
    return PropagatorMatrix(
        core=core, prefactor_exponent=complex(wn.prefactor_exponent), method=wn.source
    )


def evolve_grid(
    params: BeamsplitterParams, amplitudes, z_grid
) -> tuple[np.ndarray, np.ndarray]:
    """log I(z) and occupations P(m; z) of G(z) applied to a state, over a z array.

    log I is ln ||G(z) psi||^2 for the amplitudes as given; P is the
    normalized |(m|G(z) psi>|^2, which stays exact after I itself has
    underflowed.  G is never formed.  A state on |0) and |N) only takes the
    O(N) binomial form; any other state takes the SVD form, with Horner on
    the z its error estimate flags.  The z values may come in any order;
    they are worked through in blocks, so the working set stays a few
    block x (N+1) arrays.  Amplitudes whose ||a||^2 leaves the normal range
    are first scaled by a power of two.  Raises ``ValueError`` for a
    negative or non-finite z or a non-finite amplitude,
    ``OverflowGuardError`` if any computed value is not finite, and
    ``PrecisionError`` where neither form is certified to ``ERROR_LIMIT``
    or log I breaks the contraction (unitarity at Gamma = 0) of G_N by more
    than ``ERROR_LIMIT``.
    """
    return _evolve_grid(params, amplitudes, z_grid, True)


def _evolve_grid(params: BeamsplitterParams, amplitudes, z_grid, with_occupations: bool):
    """``evolve_grid``; without occupations it returns (log I, None).

    The kernels write each block's occupations straight into the result.
    Without occupations the edge form builds none for a single term, and
    otherwise they are dropped per block, so no (z, N+1) array is
    allocated.
    """
    n = params.n_photons
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (n + 1,):
        raise ValueError(f"state has shape {amps.shape}, expected ({n + 1},)")
    z = np.asarray(z_grid, dtype=float)
    # NaN fails both comparisons
    if z.ndim != 1 or not (z.min(initial=0.0) >= 0.0 and z.max(initial=0.0) < math.inf):
        raise ValueError("z must be a 1-D array of finite distances >= 0")
    if amps[1:n].any():
        rows, block = _interior_rows, max(1, _SVD_ENTRIES // (n + 1))
    else:
        rows, block = _edge_rows, max(1, _EDGE_ENTRIES // (n + 1))
    norm2 = float(np.vdot(amps, amps).real)
    # a NaN or inf amplitude makes ||a||^2 NaN or inf; a finite one may overflow it
    if not norm2 < math.inf and not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite")
    exp = 0
    if not _TINY <= norm2 < math.inf:
        # the exact power-of-two scaling of make_input, which log I gets back
        parts = np.ascontiguousarray(amps).view(float)
        exp = math.frexp(np.abs(parts).max())[1]
        amps = np.ldexp(parts, -exp).view(complex)
        norm2 = float(np.vdot(amps, amps).real)
    log_norm2 = math.log(norm2) if norm2 > 0 else -math.inf
    log_i = np.empty(z.size)
    occ = np.empty((z.size, n + 1)) if with_occupations else None
    # out-of-range intermediates surface as non-finite values, caught by _check_rows
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for lo in range(0, z.size, block):
            zb, hi = z[lo : lo + block], lo + block
            pb = None if occ is None else occ[lo:hi]
            log_i[lo:hi] = rows(params, amps, zb, pb)
            _check_rows(params, zb, log_i[lo:hi], pb, log_norm2)
    if exp:
        # 2 exp ln 2 in two parts, so that it adds a single rounding
        log_i += 2 * exp * _LN2_LO
        log_i += 2 * exp * _LN2_HI
    return log_i, occ


@functools.lru_cache(maxsize=4)
def _column_grid(n: int) -> np.ndarray:
    """Rows (2f - 1) / sqrt(f (1 - f)), N/2, k/2 and (-1)^k, k = 0..N, f = k/N kept off 0 and 1."""
    k = np.arange(n + 1.0)
    frac = np.clip(k / n, 1e-12, 1.0 - 1e-12)
    skew = (2.0 * frac - 1.0) / np.sqrt(frac * (1.0 - frac))
    out = np.array([skew, np.full(n + 1, 0.5 * n), 0.5 * k, 1.0 - 2.0 * (k % 2)])
    out.setflags(write=False)
    return out


def _column_factors(n: int, c: float, ks: float, y: float, log_scale: float):
    """(first, step, half log scale, half log size) of each basis column k's own scaled SVD form.

    Column k of Sym^N(g) is alpha^-k times that of Sym^N(g diag(1, alpha)),
    g = e^log_scale [[u, -i ks], [-i ks, t]], u, t = c +/- y, and g diag(1,
    alpha) = B(p1) diag(s1, s2) B(p2) sigma_z by the closed-form 2x2 SVD
    (Golub & Van Loan, Sec. 8.6).  alpha_k, 1 at Gamma = 0, puts the top
    right singular vector at weight k/N on y.  Rows of first and step: e^(i
    N p1), e^(i N p2), (-1)^k; e^(-2i p1), e^(-2i p2), s2/s1 (s2 from det).
    Also halved: the log scale N (ln s1 + log_scale) - k ln alpha_k and the
    log size, the sum of the magnitudes of its two terms.
    """
    u, t = c + y, c - y
    # numpy scalars, so that entries beyond the double range give inf, not exceptions
    a, cc = np.float64(u * u + ks * ks), np.float64(ks * ks + t * t)
    grid = _column_grid(n)
    # rows ln s1 + log_scale and ln alpha, then their terms of the log scale
    logs = np.empty((2, n + 1))
    np.arcsinh(np.multiply(grid[0], abs(ks * y) / np.sqrt(a * cc), out=logs[1]), out=logs[1])
    logs[1] += 0.5 * np.log(a / cc)
    alpha = np.exp(logs[1])
    # rows e + i h, f + i g with e, f = (u -/+ t alpha) / 2 and h, g = ks (1 -/+ alpha) / 2
    w = np.multiply.outer(np.array((-0.5 * (t + 1j * ks), 0.5 * (t + 1j * ks))), alpha)
    w += 0.5 * (u + 1j * ks)
    s1 = np.add(*np.abs(w))
    # a2 = atan2(h, e), a1 = atan2(g, f)
    p = _HALF_SUMS @ np.arctan2(w.imag, w.real)
    factors = np.empty((2, 3, n + 1), dtype=complex)
    np.exp(np.multiply.outer(np.array([1j * n, -2j]), p), out=factors[:, :2])
    factors[0, 2] = grid[3]
    np.divide(alpha, s1 * s1, out=factors[1, 2])
    factors[1, 2] *= -math.exp(-2.0 * log_scale)
    np.log(s1, out=logs[0])
    logs[0] += log_scale
    logs *= grid[1:3]
    half_log_col = logs[0] - logs[1]
    np.abs(logs, out=logs)
    return factors[0], factors[1], half_log_col, logs[0] + logs[1]


def _core_matrix(n: int, z: float, theta: float, c: float, ks: float, y: float, log_scale):
    """(core, estimate): Sym^N of a core at one z and the relative error bounds of its columns.

    The core is e^log_scale [[c + y, -i ks], [-i ks, c - y]] with real
    entries and unit determinant, from an argument theta (g1's, or 0 for
    given entries).  Column k, the image of |k), takes its own scaled SVD
    form, one pass per block of ``_SVD_ENTRIES`` entries, and its scale last,
    in two halves.  Its bound, ||col|| before the scale: 16 (N+1) eps /
    ||col|| for the form, whose scaled operator has norm 1; 20 N eps /
    ||col|| for the 2x2 SVD of ``_column_factors``, whose s1, s2/s1, p1 and
    p2 are exact for a matrix within 20 eps s1 of g diag(1, alpha) (3.4 from
    e, f, g, h, 3 from each angle, 8 from s2/s1, 2 from s1), moved at most
    N-fold by Sym^N; and 2 (N+1) eps (theta + log size / N + 1) for rounding
    theta and the scale.  Raises ``OverflowGuardError`` when the core leaves
    the double range and ``PrecisionError`` when a bound exceeds
    ``ERROR_LIMIT``.  At z = 0 the core is I.
    """
    if z == 0:
        return np.eye(n + 1, dtype=complex), np.zeros(n + 1)
    q, core = _spin_basis(n), np.empty((n + 1, n + 1), dtype=complex)
    width = max(1, _SVD_ENTRIES // (n + 1))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        first, step, half_log_col, half_log_size = _column_factors(n, c, ks, y, log_scale)
        for lo in range(0, n + 1, width):
            cols = slice(lo, lo + width)
            table = _running_powers(first[:, cols], step[:, cols], n)
            scaling = table[:, 2].real
            # |s2/s1| <= 1, so the last row holds each column's smallest scaling
            if np.abs(scaling[-1]).min() < math.exp(_LOG_FLUSH):
                scaling[np.abs(scaling) < math.exp(_LOG_FLUSH)] = 0.0
            core[:, cols] = _svd_form(q, q[cols].T, table[:, 0], table[:, 1], scaling)
        squares = np.einsum("ij,ij->j", core.view(float), core.view(float))
        slack = 2.0 * (n + 1) * _EPS
        estimate = (_EST_FACTOR * (n + 1) + 20.0 * n * _EPS) / np.sqrt(squares[::2] + squares[1::2])
        estimate += half_log_size * (2.0 * slack / n) + slack * (theta + 1.0)
        # in two halves, so that only entries beyond the double range overflow
        half_scale = np.exp(half_log_col)
        core *= half_scale
        core *= half_scale
    if not np.isfinite(core).all():
        raise OverflowGuardError(
            f"N-photon propagator leaves double-precision range at z={z!r} (N={n})"
        )
    if estimate.max() > ERROR_LIMIT:
        k = np.argmax(estimate > ERROR_LIMIT)
        raise PrecisionError(
            float(z),
            f"column {k} of the N-photon propagator has error bound {estimate[k]:.1e} "
            f"> {ERROR_LIMIT:g} (N={n})",
        )
    return core, estimate


def evolution_operator(params: BeamsplitterParams, z: float) -> PropagatorMatrix:
    """G(z) = exp(prefactor_exponent) * core, the core being Sym^N of g1's core.

    The core has unit determinant; column k is the image of |k), the
    coefficients of X^(N-k) Y^k, built by the SVD form of Sym^N(g1 diag(1,
    alpha_k)), whose column k is alpha_k^k times the core's, O(N^3) in three
    real matrix products per block of columns.  A column whose error bound
    (``_core_matrix``) exceeds ``ERROR_LIMIT`` raises ``PrecisionError``
    naming z, N and the column.  At z = 0 the core is I.  Raises
    ``OverflowGuardError`` when the core itself leaves the double range (the
    log intensities of ``evolve_grid`` never do), and ``ValueError`` for a
    negative or non-finite z.
    """
    _check_z(z)
    kappa, gamma = params.kappa, params.gamma
    c, s, log_scale = map(float, _g1_cs(kappa, gamma, z))
    theta = 0.5 * math.sqrt(abs(4.0 * kappa**2 - gamma**2)) * z
    core = _core_matrix(params.n_photons, z, theta, c, kappa * s, 0.5 * gamma * s, log_scale)[0]
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
