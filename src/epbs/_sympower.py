"""The Sym^N engine: G_N = Sym^N(g) on states and on basis columns, for 2x2 cores g.

Cores come in, never parameters: real arrays (c, ks, y, log_scale, Gamma
z), one entry per z, give e^log_scale [[c + y, -i ks], [-i ks, c - y]]
(unit determinant) and its prefactor's decay.  One cached table per N
(``_basis_rows``) holds the rows over the basis index m that the forms
read.  ``_state_rows`` maps a state over a z grid in blocks, in the form
its amplitudes choose:

- edge: a state on |0) and |N) only maps to a_0 X^N + a_N Y^N, two
  binomial expansions, O(N) per z, in real arithmetic with the magnitudes
  in log space, so the weights sqrt(C(N, m)) never overflow.
- SVD: any other state.  One 2x2 SVD per z, ``_svd_2x2``, writes the core
  as B(p) diag(s1, s2) B(p), B(p) = exp(-i p sigma_x), so Sym^N of it is
  E diag(s1^(N-m) s2^m) E, E = Q diag(e^(-i p mu)) Q^T, with Q the real
  eigenbasis of 2 J_x (built once per N): Q^T a and the SVDs once per call,
  three real GEMMs per block (one without P); 16 (N+1) eps ||a|| / ||psi||
  estimates each image's error.
- Horner: the z whose SVD estimate exceeds ``ERROR_LIMIT`` are recomposed
  homogeneous-Horner style, O(N^2) per z, with Higham's bound; where that
  bound exceeds ``ERROR_LIMIT`` too, the update raises ``PrecisionError``.

Each form returns log I per z and writes P, in (z, m) order, into the
array it is given; ``_check_rows`` holds every block to finiteness and to
G_N's contraction (unitarity without loss).  ``_core_matrix`` builds G_N's
matrix with the same SVD form: each basis column k takes the form of
Sym^N(g diag(1, alpha_k)), whose column k is alpha_k^k times G_N's, and
carries its own error bound, the caller's rounding of the entries included.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import OverflowGuardError, PrecisionError

# Relative error of a state image above which the SVD form's z are redone by
# Horner and Horner's are refused; also the slack of the log I invariants.
ERROR_LIMIT = 1e-10
_EPS = np.finfo(float).eps
# Constant of both error estimates: 16 (N+1) eps per unit of magnitude.
_EST_FACTOR = 16.0 * _EPS
# Log magnitude given to a zero entry, so that its powers underflow to 0
# (their logs are its multiples).
_LOG_ZERO = -1e4
# Entries per block of the SVD form, _SVD_ENTRIES // (N+1) columns (z points
# of a state, or basis states at one z, each with its own factors), so each
# of its few (N+1) x block arrays stays at most 64 kB: blocks eight times
# larger saved little time and raised a process's peak memory.
_SVD_ENTRIES = 1 << 12
# Entries per block of the edge form: _EDGE_ENTRIES // (N+1) z points, so
# each of its few block x (N+1) real arrays stays at most 256 kB and a
# 2000-point trace at N <= 15 is one block.  A budget four times larger
# raised the peak memory of a paper-traces benchmark process by 0.5 MB and
# saved no time.
_EDGE_ENTRIES = 1 << 15
# SVD-form scalings below e^_LOG_FLUSH are set to 0: they change an image by
# far less than its error estimate, and subnormal products slow the GEMMs.
_LOG_FLUSH = -600.0


@functools.lru_cache(maxsize=16)
def _basis_rows(n: int) -> np.ndarray:
    """Rows N - m, m, ln sqrt(C(N, m)), 1, (-1)^m and (2f - 1) / sqrt(f (1 - f)), m = 0..N.

    f = m/N is kept off 0 and 1.  The first five rows are the exponents of
    the edge and SVD forms, the last the skew of each operator column's
    scaling alpha_m.
    """
    m = np.arange(n + 1.0)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    frac = np.clip(m / n, 1e-12, 1.0 - 1e-12)
    out = np.stack((
        n - m,
        m,
        0.5 * (log_fact[n] - (log_fact + log_fact[::-1])),
        np.ones(n + 1),
        1.0 - 2.0 * (m % 2),
        (2.0 * frac - 1.0) / np.sqrt(frac * (1.0 - frac)),
    ))
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


def _observe(psi: np.ndarray, log_gain: np.ndarray, out=None):
    """(log I, ||psi||) of rows psi whose true image is e^(log_gain/2) psi; P goes into ``out``."""
    weights = psi.real**2
    weights += psi.imag**2
    total = np.einsum("zm->z", weights)
    if out is not None:
        np.divide(weights, total[:, None], out=out)
    return np.log(total) + log_gain, np.sqrt(total)


def _running_powers(first: np.ndarray, ratio: np.ndarray, n: int, out=None) -> np.ndarray:
    """first * ratio^m for m = 0..N along a new first axis, by repeated doubling, into ``out``.

    Rows m < 2^k are multiplied by ratio^(2^k) into rows 2^k ... 2^(k+1) - 1:
    log2(N) vectorised products instead of N.
    """
    if out is None:
        out = np.empty((n + 1,) + ratio.shape, dtype=ratio.dtype)
    out[0] = first
    step, size = ratio, 1
    while size <= n:
        k = min(size, n + 1 - size)
        np.multiply(out[:k], step, out=out[size : size + k])
        step = step * step
        size += k
    return out


def _edge_rows(n: int, amps: np.ndarray, z: np.ndarray, core, out=None):
    """log I at each z of a state on |0) and |N) only, O(N) per z; P goes into ``out``, if given.

    The core is [[u, -i w], [-i w, t]] with u, t = c +/- y and w = ks real, so
    the image of a_0 x^N + a_N y^N has the amplitudes psi_m = sqrt(C(N, m))
    (-i)^m [a_0 u^(N-m) w^m + b (-1)^m w^(N-m) t^m], b = (-i)^N a_N.  The
    (-i)^m drops out of |psi_m|^2, and each term is real up to the phase of
    its amplitude, so |psi_m|^2 = (A_m + cos(D) s_m B_m)^2 + (sin(D) B_m)^2
    with A_m, B_m >= 0 the terms' magnitudes, D the phase of b over a_0
    and s_m = +-1 the sign of their product, from the parities of m and N
    and the signs of u, w and t.  The magnitudes come from one exp of a
    (rows, 4) x (4, N+1) product of logs: the entries of each column
    (u, w), (w, t) over its norm, which is exactly the norm of its power's
    image, so no binomial weight overflows at any N.  The signs come from
    a (z, 2) x (2, N+1) product with the rows 1 and (-1)^m.  Every array
    is real and in (z, m) order, and P is formed in ``out`` itself.  The
    term with the larger image keeps unit norm, so light in either column
    stays in range.  A zero entry gets the log _LOG_ZERO, whose multiples
    underflow to 0.  A single term needs no sum for log I: its image has
    norm |a| col^N.
    """
    c, w, y, log_scale, gz = core
    a0, b = complex(amps[0]), complex(amps[n]) * (1, -1j, -1, 1j)[n % 4]
    # the terms in use: a_0 on the column (u, w), b on (w, t)
    lo, hi = (0 if a0 else 1), (2 if b else 1)
    entries = np.array((c + y, w, c - y))
    p, q = entries[lo:hi], entries[lo + 1 : hi + 1]
    col = np.hypot(p, q)
    logs = n * np.log(col)
    for row, a in zip(logs, (a0, b)[lo:hi]):
        row += math.log(abs(a))
    top = logs.max(axis=0)
    gain = 2.0 * top + n * (2.0 * log_scale - gz)
    if hi - lo == 1 and out is None:
        return gain
    ratios = np.abs(np.array((p, q)) / col).reshape(2, -1)
    left = np.empty((4, ratios.shape[1]))
    # a zero entry's log -inf becomes _LOG_ZERO
    np.maximum(np.log(ratios, out=left[:2]), _LOG_ZERO, out=left[:2])
    left[2] = 1.0
    left[3] = (logs - top).ravel()
    exponents = _basis_rows(n)[:5]
    if hi - lo == 1:
        # |psi_m|^2 in one exp, from doubled logs, straight into out
        left *= 2.0
        weights = np.matmul(left.T, exponents[:4], out=out)
        np.exp(weights, out=weights)
        weights /= np.einsum("zm->z", weights)[:, None]
        return gain
    b_mag = left[:, z.size :].T @ exponents[:4]
    np.exp(b_mag, out=b_mag)
    # out holds the signs first, then |psi|^2
    weights = np.empty((z.size, n + 1)) if out is None else out
    phase = b * a0.conjugate()
    phase /= abs(phase)
    if phase.real:
        # s_m = (sign(u) sign(w))^N (-sign(u) sign(t))^m goes into B, and
        # with it cos(D) when that is +-1: a constant per z, times (-1)^m
        # where sign(u) = sign(t), as one product with the last two rows
        su, sw, st = np.copysign(1.0, entries)
        even = su * sw if n % 2 else np.ones(z.size)
        if not phase.imag:
            even *= phase.real
        flip = su == st
        b_mag *= np.matmul(np.array((even * ~flip, even * flip)).T, exponents[3:], out=weights)
    np.matmul(left[:, : z.size].T, exponents[:4], out=weights)
    np.exp(weights, out=weights)
    if phase.real:
        weights += phase.real * b_mag if phase.imag else b_mag
    np.square(weights, out=weights)
    if phase.imag:
        b_mag *= phase.imag
        weights += np.square(b_mag, out=b_mag)
    total = np.einsum("zm->z", weights)
    if out is not None:
        weights /= total[:, None]
    return np.log(total) + gain


def _real_matmul(mat: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """mat @ x for a real matrix and a C-contiguous complex x, as one real GEMM.

    x's float view interleaves the real and imaginary parts of its columns,
    and a real matrix maps each part separately.
    """
    if out is None:
        out = np.empty((mat.shape[0], x.shape[1]), dtype=complex)
    np.matmul(mat, x.view(float), out=out.view(float))
    return out


def _svd_2x2(c, ks, y, log_scale, log_alpha):
    """((p_l, p_r), ln s1, ln s2/s1) of each core diag(1, alpha) = B(p_l) diag(s1, s2) B(p_r).

    The cores e^log_scale [[c + y, -i ks], [-i ks, c - y]] have real c, ks,
    y and unit determinant (y >= 0 where log_scale > 0); alpha = e^log_alpha
    is 1 for states, and B(p) = exp(-i p sigma_x).  Conjugated by diag(1, i)
    the product is real, and its closed-form SVD (Golub & Van Loan, Sec.
    8.6) reads e, f = ((1 +/- alpha) y + (1 -/+ alpha) c) / 2 and g, h =
    (1 -/+ alpha) ks / 2, exactly y, c, 0 and ks at alpha = 1: with r =
    sign(e) hypot(e, g), 2 p_l, 2 p_r = atan2(h, f) +/- atan2(sign(e) g, |e|),
    ln s1 = ln(alpha) / 2 + t and ln s2/s1 = -2t, t = asinh(r e^log_scale /
    sqrt(alpha)).  Each entry forms t its own way: by asinh where log_scale
    = 0, else from ln max(s1, s2) = log_scale + ln(|r| + hypot(r, sqrt(alpha)
    e^-log_scale)), which sums magnitudes and never overflows.  At alpha = 1
    p_l = p_r = atan2(ks, c) / 2 and t = ln lambda, lambda^(+/-1) the core's
    singular values.
    """
    alpha = np.exp(log_alpha)
    plus, minus = 0.5 * (1.0 + alpha), 0.5 * (1.0 - alpha)
    e, f = plus * y + minus * c, plus * c + minus * y
    g, h = minus * ks, plus * ks
    sign = np.copysign(1.0, e)
    a, b = np.arctan2(h, f), np.arctan2(sign * g, np.abs(e))
    r, half = sign * np.hypot(e, g), 0.5 * log_alpha
    root = np.exp(half)
    top = log_scale + np.log(np.abs(r) + np.hypot(r, root * np.exp(-log_scale)))
    t = np.where(log_scale == 0, np.arcsinh(r / root), sign * (top - half))
    return 0.5 * np.array((a + b, a - b)), half + t, -2.0 * t


def _svd_table(n: int, angles: np.ndarray, log_ratio: np.ndarray):
    """(phase, scaling): rows m = 0..N of the SVD form, one column per entry of ``angles``.

    phase = e^(-i p mu), mu = 2m - N, for each angle p, whatever the shape
    of ``angles``: powers of h^2, h = e^(-i p), for mu >= 0, conjugates
    below.  scaling = s1^(N-m) s2^m / max(s1, s2)^N <= 1 for each
    d = ln s2/s1 of ``log_ratio``, from one exp of (N - m) min(-d, 0) +
    m min(d, 0), set to 0 below e^_LOG_FLUSH.
    """
    h, half = np.exp(-1j * angles), n // 2
    phase = np.empty((n + 1,) + angles.shape, dtype=complex)
    _running_powers(h if n % 2 else np.ones_like(h), h * h, half, out=phase[n - half :])
    np.conjugate(phase[n:half:-1], out=phase[: n - half])
    exponents = np.array([np.minimum(-log_ratio, 0.0), np.minimum(log_ratio, 0.0)])
    scaling = _basis_rows(n)[:2].T @ exponents
    scaling[scaling < _LOG_FLUSH] = -np.inf
    return phase, np.exp(scaling, out=scaling)


def _svd_form(q: np.ndarray, x: np.ndarray, left, right, scaling: np.ndarray):
    """E(left) diag(scaling) E(right), E(phase) = Q diag(phase) Q^T, on the columns Q^T x.

    The factors hold one column per z (x one state) or per column of x, or
    are one column (one z, a block of states).  Two phase multiplies, one
    diagonal scaling and three real GEMMs, into new arrays (x is never
    written).  Without ``left`` it stops at diag(scaling) E(right) x after
    one GEMM: E(left) is unitary, so the columns have the whole form's norms.
    """
    x = np.multiply(right, x, order="C")
    out = _real_matmul(q, x)
    out *= scaling
    if left is None:
        return out
    _real_matmul(q.T, out, out=x)
    x *= left
    return _real_matmul(q, x, out=out)


def _svd_rows(n: int, x: np.ndarray, a_norm: float, core, out=None):
    """(log I, error estimate) at each z by the SVD form of Sym^N of the core; P goes into ``out``.

    The state is x = Q^T a; ``core`` ends in Gamma z and the ``_svd_2x2``
    factors.  The form is normwise backward stable, so 16 (N+1) eps ||a|| /
    ||psi|| estimates the relative error of each image psi; without P the
    form stops early.
    """
    gz, angle, log_s1, log_ratio = core[4:]
    phase, scaling = _svd_table(n, angle, log_ratio)
    psi = _svd_form(_spin_basis(n), x, None if out is None else phase, phase, scaling)
    del phase, scaling
    log_i, norm = _observe(psi.T, n * (2.0 * (log_s1 + np.maximum(log_ratio, 0.0)) - gz), out)
    return log_i, _EST_FACTOR * (n + 1) * a_norm / norm


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


def _horner_rows(n: int, amps: np.ndarray, z: np.ndarray, core):
    """(log I, P, error bound) at each z by the Horner composition.

    The core is scaled to unit norm in its larger column, and the
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
    c, ks, y, log_scale, gz = core[:5]
    u, v, t = c + y, -1j * ks, c - y
    norm = np.maximum(np.hypot(abs(u), abs(v)), np.hypot(abs(v), abs(t)))
    u, v, t = u / norm, v / norm, t / norm
    half = _basis_rows(n)[2]
    roots = np.exp(half - half[n // 2])
    poly = _horner(u, v, t, amps * roots)
    # part by part: a complex division by a real root is not exact for poly = root
    psi = np.empty_like(poly)
    psi.real, psi.imag = poly.real / roots, poly.imag / roots
    occ = np.empty(psi.shape)
    log_i, psi_norm = _observe(psi, n * (2.0 * (log_scale + np.log(norm)) - gz), occ)
    magnitude = _horner(abs(u), abs(v), abs(t), abs(amps * roots)) / roots
    factor = _EST_FACTOR * (n + 1) + 2.0 * np.max(np.spacing(roots) / roots)
    return log_i, occ, factor * np.linalg.norm(magnitude, axis=1) / psi_norm


def _interior_rows(n: int, amps: np.ndarray, x, a_norm: float, z: np.ndarray, core, out=None):
    """log I at each z of a state with light on |1) ... |N-1); P goes into ``out``, if given.

    The SVD form runs on every z, from x = Q^T a and the SVDs that end
    ``core``; the z whose estimate exceeds ``ERROR_LIMIT`` are redone by
    Horner, and refused with ``PrecisionError`` where its bound does too.
    """
    log_i, estimate = _svd_rows(n, x, a_norm, core, out)
    flagged = np.flatnonzero(estimate > ERROR_LIMIT)
    if flagged.size:
        log_i[flagged], occ, bound = _horner_rows(n, amps, z[flagged], [a[flagged] for a in core])
        if out is not None:
            out[flagged] = occ
        refused = np.flatnonzero(bound > ERROR_LIMIT)
        if refused.size:
            k = refused[0]
            raise PrecisionError(
                float(z[flagged[k]]),
                f"SVD estimate {estimate[flagged[k]]:.1e} and Horner bound {bound[k]:.1e} "
                f"both exceed {ERROR_LIMIT:g} (N={n})",
            )
    return log_i


def _check_rows(n: int, z, lossless: bool, log_i, occ, log_norm2: float) -> None:
    """Raise for the first z whose values are not finite or break an invariant.

    ``occ`` is None when no occupations were formed.  A finite P lies in
    [0, 1], so one sum over all of it is finite exactly when every entry
    is; the rows are searched only when it is not.  G_N is a contraction
    for Gamma >= 0 (its anti-Hermitian part -i Gamma (N/2 + J_z) is
    negative semidefinite) and unitary at Gamma = 0, so log I never
    exceeds ln ||a||^2 and equals it where ``lossless``.
    """
    finite = np.isfinite(log_i)
    if occ is not None and not np.isfinite(occ.sum()):
        finite &= np.isfinite(occ).all(axis=1)
    if not finite.all():
        k = np.argmin(finite)
        raise OverflowGuardError(
            f"state update leaves double-precision range at "
            f"z={float(z[k])!r} (N={n}, log I = {log_i[k]})"
        )
    excess = log_i - log_norm2
    if lossless:
        excess = np.abs(excess, out=excess)
    if excess.max(initial=-np.inf) > ERROR_LIMIT:
        k = np.argmax(excess > ERROR_LIMIT)
        law = "unitary at Gamma = 0" if lossless else "a contraction"
        raise PrecisionError(
            float(z[k]),
            f"log I - ln||a||^2 = {log_i[k] - log_norm2:.3g}, but G_N is {law} (N={n})",
        )


def _state_rows(n: int, amps: np.ndarray, z: np.ndarray, core, lossless: bool, log_norm2: float,
                with_occupations: bool):
    """(log I, P or None) of ``amps`` at each z, by blocks, each checked against ln ||a||^2.

    Without occupations no (z, N+1) array is allocated.
    """
    if amps[1:n].any():
        x = _real_matmul(_spin_basis(n).T, amps[:, None])
        # every z's 2x2 SVD, formed once per call as Q^T a is; the blocks slice it
        angles, log_s1, log_ratio = _svd_2x2(*core[:4], 0.0)
        core = (*core, angles[0], log_s1, log_ratio)
        rows = functools.partial(_interior_rows, n, amps, x, np.linalg.norm(amps))
        block = max(1, _SVD_ENTRIES // (n + 1))
    else:
        rows, block = functools.partial(_edge_rows, n, amps), max(1, _EDGE_ENTRIES // (n + 1))
    log_i = np.empty(z.size)
    occ = np.empty((z.size, n + 1)) if with_occupations else None
    for lo in range(0, z.size, block):
        zb, hi = z[lo : lo + block], lo + block
        pb = None if occ is None else occ[lo:hi]
        cb = core if zb.size == z.size else [a[lo:hi] for a in core]
        log_i[lo:hi] = rows(zb, cb, pb)
        _check_rows(n, zb, lossless, log_i[lo:hi], pb, log_norm2)
    return log_i, occ


def _core_matrix(n: int, z: float, rounding: float, c: float, ks: float, y: float, log_scale):
    """(core, estimate): Sym^N of a core at one z and the relative error bounds of its columns.

    The core g = e^log_scale [[c + y, -i ks], [-i ks, c - y]] has real
    entries and unit determinant, rounded by ``rounding`` eps (its change
    of a column, relative, is at most 2 (N+1) eps rounding).  Column k of
    Sym^N(g) is alpha_k^-k times that of Sym^N(g diag(1, alpha_k)), where
    alpha_k, 1 at Gamma = 0, puts the top right singular vector at weight
    k/N on y.  Each column takes the SVD form of its own ``_svd_2x2``
    factors, one pass per block of ``_SVD_ENTRIES`` entries, and its scale
    N ln max(s1, s2) - k ln alpha_k last, in two halves.  Its bound, ||col||
    before the scale: 16 (N+1) eps / ||col|| for the form, whose scaled
    operator has norm 1 and whose table entries e^x (x <= 0) are off by at
    most eps |x| e^x; 14 N eps / ||col|| for the SVD, exact for a matrix
    within 14 eps max(s1, s2) of g diag(1, alpha_k) (3.4 from e, f, g, h,
    3 from each angle, 4.5 from t), moved at most N-fold by Sym^N; and
    2 (N+1) eps (rounding + log size / N) for the entries and the logs,
    the log size (N/2 + k) |ln alpha_k| + N |ln s2/s1| / 2 bounding the
    terms that ln max(s1, s2) = ln(alpha_k) / 2 + |t| and the scale are
    summed from.  Raises ``OverflowGuardError`` when the core leaves the
    double range and ``PrecisionError`` when a bound exceeds
    ``ERROR_LIMIT``.  At z = 0 the core is I.
    """
    if z == 0:
        return np.eye(n + 1, dtype=complex), np.zeros(n + 1)
    q, core = _spin_basis(n), np.empty((n + 1, n + 1), dtype=complex)
    width = max(1, _SVD_ENTRIES // (n + 1))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rows, u, t = _basis_rows(n), c + y, c - y
        # numpy scalars, so that entries beyond the double range give inf, not exceptions
        a, cc = np.float64(u * u + ks * ks), np.float64(ks * ks + t * t)
        log_alpha = np.arcsinh(rows[5] * (abs(ks * y) / np.sqrt(a * cc))) + 0.5 * np.log(a / cc)
        angles, log_s1, log_ratio = _svd_2x2(c, ks, y, log_scale, log_alpha)
        for lo in range(0, n + 1, width):
            cols = slice(lo, lo + width)
            phase, scaling = _svd_table(n, angles[:, cols], log_ratio[cols])
            core[:, cols] = _svd_form(q, q[cols].T, phase[:, 0], phase[:, 1], scaling)
        squares = np.einsum("ij,ij->j", core.view(float), core.view(float))
        slack = 2.0 * (n + 1) * _EPS
        estimate = (_EST_FACTOR * (n + 1) + 14.0 * n * _EPS) / np.sqrt(squares[::2] + squares[1::2])
        log_size = (0.5 * n + rows[1]) * np.abs(log_alpha) + 0.5 * n * np.abs(log_ratio)
        estimate += log_size * (slack / n) + slack * rounding
        # in two halves, so that only entries beyond the double range overflow
        half_scale = np.exp(0.5 * (n * (log_s1 + np.maximum(log_ratio, 0.0)) - rows[1] * log_alpha))
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
