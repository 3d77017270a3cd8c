"""The symmetric-power kernels behind ``propagator``: G_N = Sym^N(g1) on states.

g1's core [[u, v], [v, t]] (unit determinant, scale kept in log space) is
evaluated once per z; a state is then mapped in one of three forms, chosen
by its amplitudes:

- edge: a state on |0) and |N) only maps to a_0 X^N + a_N Y^N, two
  binomial expansions, O(N) per z.  Term magnitudes are formed in log
  space, so the weights sqrt(C(N, m)) never overflow.
- SVD: any other state.  The core factors as B(phi) diag(lambda, 1/lambda)
  B(phi) with B(phi) = exp(-i phi sigma_x), so Sym^N of it is
  E diag(lambda^(N-2m)) E, E = Q diag(e^(-i phi mu)) Q^T, with Q the real
  eigenbasis of 2 J_x (built once per N).  A block of z costs three real
  matrix products; 16 (N+1) eps ||a|| / ||psi|| estimates the relative
  error of each image psi.
- Horner: the z whose SVD estimate exceeds ``ERROR_LIMIT`` are recomposed
  homogeneous-Horner style, O(N^2) per z, with Higham's bound; where that
  bound exceeds ``ERROR_LIMIT`` too, the update is refused with
  ``PrecisionError``.  This fallback is Horner's only use.

Each form returns (log I, P) per z; ``_check_rows`` then holds every
result to finiteness and to G_N's contraction (unitarity at Gamma = 0).

``propagator`` builds G_N's matrix, and the Wei-Norman product's, with the
same SVD form: ``_svd_factors`` and ``_svd_form`` take any real core
e^log_scale [[c + y, -i ks], [-i ks, c - y]] of unit determinant.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import OverflowGuardError, PrecisionError
from .fock_core import BeamsplitterParams

# Relative error of a state image above which the SVD form's z are redone by
# Horner and Horner's are refused; also the slack of the log I invariants.
ERROR_LIMIT = 1e-10
# Constant of both error estimates: 16 (N+1) eps per unit of magnitude.
_EST_FACTOR = 16.0 * np.finfo(float).eps
# Log magnitude given to a zero entry, so that its powers underflow to 0.
_LOG_ZERO = -1e4
# Entries per block of the SVD form, _SVD_ENTRIES // (N+1) columns (z points
# of a state, or basis states at one z), so each of its few (N+1) x block
# arrays stays at most 64 kB: blocks eight times larger saved little time
# and raised a process's peak memory.
_SVD_ENTRIES = 1 << 12
# SVD-form scalings below e^_LOG_FLUSH are set to 0: they change an image by
# far less than its error estimate, and subnormal products slow the GEMMs.
_LOG_FLUSH = -600.0


def _g1_cs(kappa: float, gamma: float, z: np.ndarray):
    """(c, s, log_scale) of g1 at z, an array or a scalar; c and s are scaled by e^-log_scale.

    c = cos(theta) and s = sin(theta)/(Delta_lambda/2) below threshold,
    cosh and sinh above it, exactly 1 and z at the critical loss.  Above
    threshold their common growth e^x (x = z*|Delta_lambda|/2) goes into
    the log scale, so neither overflows.
    """
    dl2 = 4.0 * kappa * kappa - gamma * gamma
    if dl2 > 0:
        half = 0.5 * math.sqrt(dl2)
        return np.cos(half * z), np.sin(half * z) / half, np.zeros_like(z)
    if dl2 < 0:
        half = 0.5 * math.sqrt(-dl2)
        log_scale = half * z
        c = 0.5 * (1.0 + np.exp(-2.0 * log_scale))
        return c, -0.5 * np.expm1(-2.0 * log_scale) / half, log_scale
    return np.ones_like(z), z, np.zeros_like(z)


def _g1_core(kappa: float, gamma: float, z: np.ndarray):
    """Entries (u, v, t) of g1's core [[u, v], [v, t]] at z, an array or a scalar.

    Returns them with a log scale: the core is exp(log_scale) times
    [[u, v], [v, t]], u, t = c +/- (Gamma/2) s and v = -i*kappa*s.
    """
    c, s, log_scale = _g1_cs(kappa, gamma, z)
    return c + 0.5 * gamma * s, -1j * kappa * s, c - 0.5 * gamma * s, log_scale


@functools.lru_cache(maxsize=16)
def _half_log_binomial(n: int) -> np.ndarray:
    """ln sqrt(C(N, m)) for m = 0..N."""
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    out = 0.5 * (log_fact[n] - (log_fact + log_fact[::-1]))
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=4)
def _spin_basis(n: int) -> np.ndarray:
    """Q: the real orthonormal eigenbasis of 2 J_x on |0) ... |N), eigenvalues -N, -N+2, ..., N.

    2 J_x is the tridiagonal matrix with off-diagonal sqrt((m+1)(N-m)), the
    generator of the lossless beamsplitter exp(-i phi sigma_x) on N
    photons; Q is the Wigner small-d matrix at pi/2 up to column signs
    (Feng, Wang, Yang & Jin, PRE 92, 043307 (2015)).  Its columns come in
    ascending order of eigenvalue.
    """
    m = np.arange(1, n + 1)
    off = np.sqrt(m * (n + 1.0 - m))
    q = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))[1]
    q.setflags(write=False)
    return q


def _observe(psi: np.ndarray, log_gain: np.ndarray):
    """(log I, P, ||psi||) of states psi, one per row, whose true image is exp(log_gain / 2) psi."""
    weights = psi.real**2
    weights += psi.imag**2
    total = weights.sum(axis=1)
    weights /= total[:, None]
    return np.log(total) + log_gain, weights, np.sqrt(total)


def _running_powers(first: np.ndarray, ratio: np.ndarray, n: int) -> np.ndarray:
    """first * ratio^m for m = 0..N, one column per entry, by repeated doubling.

    Rows m < 2^k are multiplied by ratio^(2^k) into rows 2^k ... 2^(k+1) - 1:
    log2(N) vectorised products instead of N.
    """
    out = np.empty((n + 1, ratio.size), dtype=ratio.dtype)
    out[0] = first
    step, size = ratio, 1
    while size <= n:
        k = min(size, n + 1 - size)
        np.multiply(out[:k], step, out=out[size : size + k])
        step = step * step
        size += k
    return out


def _edge_terms(p: np.ndarray, q: np.ndarray, n: int, weight: np.ndarray) -> np.ndarray:
    """weight * sqrt(C(N, m)) p^(N-m) q^m for m = 0..N, one column per entry of p and q.

    With |p|^2 + |q|^2 = 1 the terms of a unit weight have unit norm: the
    image of x^N under x -> p x + q y.  Each magnitude is formed in log
    space and the whole block takes one exp, so no binomial weight
    overflows at any N; the phase is unit_p^N times powers of the unit
    phase of q/p.  A zero p or q (z = 0) gets the log _LOG_ZERO, whose
    powers underflow to exactly 0.
    """
    m = np.arange(n + 1.0)
    abs_p, abs_q = np.abs(p), np.abs(q)
    log_p = np.log(abs_p, out=np.full(abs_p.shape, _LOG_ZERO), where=abs_p > 0)
    log_q = np.log(abs_q, out=np.full(abs_q.shape, _LOG_ZERO), where=abs_q > 0)
    log_mag = np.multiply.outer(n - m, log_p)
    log_mag += np.multiply.outer(m, log_q)
    log_mag += _half_log_binomial(n)[:, None]
    unit_p = np.divide(p, abs_p, out=np.ones_like(p), where=abs_p > 0)
    unit_q = np.divide(q, abs_q, out=np.ones_like(q), where=abs_q > 0)
    terms = _running_powers(weight * unit_p**n, unit_q * unit_p.conj(), n)
    terms *= np.exp(log_mag, out=log_mag)
    return terms


def _edge_rows(params: BeamsplitterParams, amps: np.ndarray, z: np.ndarray):
    """(log I, P) at each z of a state on |0) and |N) only: O(N) per z.

    The image is a_0 X^N + a_N Y^N with X = u x + v y and Y = v x + t y,
    two binomial expansions.  Each column (u, v), (v, t) is scaled to unit
    norm, which is exactly the norm of its power's image, and the row keeps
    the larger scale of the columns it uses, so light in either column
    stays in range.
    """
    n = params.n_photons
    u, v, t, log_scale = _g1_core(params.kappa, params.gamma, z)
    col_x, col_y = np.hypot(abs(u), abs(v)), np.hypot(abs(v), abs(t))
    log_x, log_y = np.log(col_x), np.log(col_y)
    a_x, a_y = amps[0], amps[n]
    log_col = np.maximum(log_x if a_x else -np.inf, log_y if a_y else -np.inf)
    psi = np.zeros((n + 1, z.size), dtype=complex)
    for a, p, q, col, log_c in ((a_x, u, v, col_x, log_x), (a_y, v, t, col_y, log_y)):
        if a:
            psi += _edge_terms(p / col, q / col, n, a * np.exp(n * (log_c - log_col)))
    log_i, occ, _ = _observe(psi.T, n * (2.0 * (log_scale + log_col) - params.gamma * z))
    return log_i, occ


def _real_matmul(mat: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """mat @ x for a real matrix and a C-contiguous complex x, as one real GEMM.

    x's float view interleaves the real and imaginary parts of its columns,
    and a real matrix maps each part separately.
    """
    if out is None:
        out = np.empty((mat.shape[0], x.shape[1]), dtype=complex)
    np.matmul(mat, x.view(float), out=out.view(float))
    return out


def _svd_factors(n: int, c, ks, y, log_scale):
    """(phase, scaling, ln lambda) of the SVD form of Sym^N of a core, one column per entry.

    The unit-determinant core e^log_scale [[c + y, -i ks], [-i ks, c - y]]
    (c, ks, y real; y >= 0 where log_scale > 0) factors as B(phi)
    diag(lambda, 1/lambda) B(phi), B(phi) = exp(-i phi sigma_x), with
    2 phi = atan2(ks, c) and ln lambda = asinh(y e^log_scale).  So Sym^N of
    it is E diag(lambda^(N-2m)) E with E = Q diag(e^(-i phi mu)) Q^T.
    Returns phase = e^(-i phi mu) and scaling = lambda^(N-2m) / max(lambda,
    1/lambda)^N <= 1, whose scale N |ln lambda| the callers keep apart.
    """
    phi = 0.5 * np.arctan2(ks, c)
    with np.errstate(divide="ignore", invalid="ignore"):
        # asinh of the unscaled y; where log_scale > 0 the scale is
        # factored out of the argument first
        log_lam = np.where(
            log_scale > 0,
            log_scale + np.log(y + np.hypot(y, np.exp(-log_scale))),
            np.arcsinh(y),
        )
    phase = _running_powers(np.exp(1j * n * phi), np.exp(-2j * phi), n)
    scaling = np.multiply.outer(n - 2.0 * np.arange(n + 1), log_lam) - n * np.abs(log_lam)
    scaling[scaling < _LOG_FLUSH] = -np.inf
    return phase, np.exp(scaling, out=scaling), log_lam


def _svd_form(q: np.ndarray, x: np.ndarray, left, right, scaling: np.ndarray):
    """E(left) diag(scaling) E(right), E(phase) = Q diag(phase) Q^T, on the columns Q^T x.

    The factors hold one column per z (x one state) or per column of x, or
    are one column (one z, a block of states); x must be C-contiguous.  Two
    phase multiplies, one diagonal scaling and three real GEMMs on the real
    and imaginary parts at once.
    """
    x = right * x
    out = _real_matmul(q, x)
    out *= scaling
    _real_matmul(q.T, out, out=x)
    x *= left
    return _real_matmul(q, x, out=out)


def _svd_rows(params: BeamsplitterParams, amps: np.ndarray, z: np.ndarray):
    """(log I, P, error estimate) at each z by the SVD form of Sym^N(g1).

    The scale N |ln lambda| goes into log I.  The form is normwise
    backward stable, so 16 (N+1) eps ||a|| / ||psi|| estimates the
    relative error of each image psi.
    """
    n = params.n_photons
    q = _spin_basis(n)
    c, s, log_scale = _g1_cs(params.kappa, params.gamma, z)
    ks, y = params.kappa * s, 0.5 * params.gamma * s
    phase, scaling, log_lam = _svd_factors(n, c, ks, y, log_scale)
    out = _svd_form(q, _real_matmul(q.T, amps[:, None]), phase, phase, scaling)
    del phase, scaling
    log_i, occ, norm = _observe(out.T, n * (2.0 * np.abs(log_lam) - params.gamma * z))
    return log_i, occ, _EST_FACTOR * (n + 1) * np.linalg.norm(amps) / norm


def _horner(u, v, t, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs_k X^(N-k) Y^k on the monomials x^(N-j) y^j, X = u x + v y, Y = v x + t y.

    The entries hold one value per row of the result; ``coeffs`` is one
    coefficient vector for all rows.  Composed homogeneous-Horner style,
    T_k = T_(k-1) X + coeffs_k Y^k: O(N^2) per row.  T stays zero below the
    first non-zero coefficient, a zero coefficient adds nothing and Y^k is
    needed only up to the last one, so those updates are skipped.
    """
    n = coeffs.size - 1
    # monomials run down the first axis, so that each update is one
    # contiguous slice rather than one strided slice per row
    poly = np.zeros((n + 1, u.size), dtype=np.result_type(u, coeffs))
    poly[0] = coeffs[0]
    y_pow = np.zeros_like(poly)
    y_pow[0] = 1.0
    nonzero = np.flatnonzero(coeffs)
    first, last = nonzero.min(initial=n), nonzero.max(initial=0)
    used = (coeffs != 0).tolist()
    for k in range(1, n + 1):
        if k > first:
            shifted = poly[:k] * v
            poly[:k] *= u
            poly[1 : k + 1] += shifted
        if k <= last:
            shifted = y_pow[:k] * t
            y_pow[:k] *= v
            y_pow[1 : k + 1] += shifted
            if used[k]:
                poly[: k + 1] += coeffs[k] * y_pow[: k + 1]
    return np.ascontiguousarray(poly.T)


def _horner_rows(params: BeamsplitterParams, amps: np.ndarray, z: np.ndarray):
    """(log I, P, error bound) at each z by the Horner composition.

    g1's core is scaled to unit norm in its larger column, and the
    amplitudes a_m are weighted by sqrt(C(N, m)) / sqrt(C(N, N/2)), which
    never overflows, so the image P(X, Y) of P(x, y) = sum_m a_m
    sqrt(C(N, m)) x^(N-m) y^m is composed by ``_horner`` and divided back.
    The bound is Higham's for Horner's rule (Accuracy and Stability of
    Numerical Algorithms, 2002): running the same recursion on the
    absolute values of the entries and coefficients bounds every rounding,
    so 16 (N+1) eps times that image's norm, over ||psi||, bounds the
    relative error of psi.  Subnormal weights (N >= ~2050) add their own
    relative spacing.
    """
    n = params.n_photons
    u, v, t, log_scale = _g1_core(params.kappa, params.gamma, z)
    norm = np.maximum(np.hypot(abs(u), abs(v)), np.hypot(abs(v), abs(t)))
    u, v, t = u / norm, v / norm, t / norm
    half = _half_log_binomial(n)
    roots = np.exp(half - half[n // 2])
    poly = _horner(u, v, t, amps * roots)
    # part by part: a complex division by a real root is not exact for poly = root
    psi = np.empty_like(poly)
    psi.real, psi.imag = poly.real / roots, poly.imag / roots
    log_i, occ, psi_norm = _observe(psi, n * (2.0 * (log_scale + np.log(norm)) - params.gamma * z))
    magnitude = _horner(abs(u), abs(v), abs(t), abs(amps * roots)) / roots
    factor = _EST_FACTOR * (n + 1) + 2.0 * np.max(np.spacing(roots) / roots)
    return log_i, occ, factor * np.linalg.norm(magnitude, axis=1) / psi_norm


def _interior_rows(params: BeamsplitterParams, amps: np.ndarray, z: np.ndarray):
    """(log I, P) at each z of a state with light on |1) ... |N-1).

    The SVD form runs on every z; the z whose estimate exceeds
    ``ERROR_LIMIT`` are recomputed by Horner, and refused with
    ``PrecisionError`` where Horner's bound exceeds it too.
    """
    log_i, occ, estimate = _svd_rows(params, amps, z)
    flagged = np.flatnonzero(estimate > ERROR_LIMIT)
    if flagged.size:
        log_i[flagged], occ[flagged], bound = _horner_rows(params, amps, z[flagged])
        refused = np.flatnonzero(bound > ERROR_LIMIT)
        if refused.size:
            k = refused[0]
            raise PrecisionError(
                float(z[flagged[k]]),
                f"SVD estimate {estimate[flagged[k]]:.1e} and Horner bound {bound[k]:.1e} "
                f"both exceed {ERROR_LIMIT:g} (N={params.n_photons})",
            )
    return log_i, occ


def _check_rows(params: BeamsplitterParams, z, log_i, occ, log_norm2: float) -> None:
    """Raise for the first z whose values are not finite or break an invariant.

    G_N is a contraction for Gamma >= 0 (its anti-Hermitian part
    -i Gamma (N/2 + J_z) is negative semidefinite) and unitary at Gamma = 0,
    so log I never exceeds ln ||a||^2 and equals it without loss.
    """
    n = params.n_photons
    bad = np.flatnonzero(~(np.isfinite(log_i) & np.isfinite(occ).all(axis=1)))
    if bad.size:
        raise OverflowGuardError(
            f"state update leaves double-precision range at "
            f"z={float(z[bad[0]])!r} (N={n}, log I = {log_i[bad[0]]})"
        )
    excess = log_i - log_norm2
    broken = np.flatnonzero(
        (excess > ERROR_LIMIT) | ((params.gamma == 0.0) & (excess < -ERROR_LIMIT))
    )
    if broken.size:
        k = broken[0]
        law = "unitary at Gamma = 0" if params.gamma == 0.0 else "a contraction"
        raise PrecisionError(
            float(z[k]),
            f"log I - ln||a||^2 = {excess[k]:.3g}, but G_N is {law} (N={n})",
        )
