"""High-precision reference for G_N(z) = exp(-i H_N z) and its observables.

The post-selected dynamics is linear in the mode operators, so the N-photon
propagator is the symmetric power Sym^N(g1) of the 2x2 single-photon
propagator

    g1(z) = e^{-i(omega0 - i*Gamma/2) z} [[c + (Gamma/2) s, -i kappa s],
                                          [-i kappa s, c - (Gamma/2) s]],

c = cos(theta), s = sin(theta)/(Delta/2), theta = Delta z/2 and
Delta = sqrt(4 kappa^2 - Gamma^2) (hyperbolic functions above threshold; the
exact limit c = 1, s = z at Gamma = 2 kappa).  On |m) = |N-m>_a |m>_b the
photon in guide a maps to g11 a+ + g21 b+ and the one in guide b to
g12 a+ + g22 b+.

The entries of g1 are evaluated with mpmath at ``DPS`` digits.  Everything
after that is exact polynomial algebra on Gaussian integers in fixed point
with ``FRAC_BITS`` fractional bits, so the only roundings are one unit in
2**-FRAC_BITS per product; the results carry well over 30 correct digits.
Intensities are returned as log I (the decay prefactor is handled
analytically), occupations as a normalized float array.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

DPS = 50
FRAC_BITS = 192

ctx = mpmath.MPContext()
ctx.dps = DPS

_ONE = 1 << FRAC_BITS


def _to_fixed(x) -> int:
    return int(ctx.nint(ctx.ldexp(ctx.mpf(x), FRAC_BITS)))


def _to_mpf(n: int):
    return ctx.ldexp(ctx.mpf(n), -FRAC_BITS)


def core_g1(kappa: float, gamma: float, z: float):
    """(u, v, w, t) = entries of g1 without its scalar prefactor, as mpc."""
    k, g, z = ctx.mpf(kappa), ctx.mpf(gamma), ctx.mpf(z)
    d2 = 4 * k * k - g * g
    if d2 == 0:
        c, s = ctx.mpf(1), z
    elif d2 > 0:
        d = ctx.sqrt(d2)
        c, s = ctx.cos(d * z / 2), ctx.sin(d * z / 2) / (d / 2)
    else:
        d = ctx.sqrt(-d2)
        c, s = ctx.cosh(d * z / 2), ctx.sinh(d * z / 2) / (d / 2)
    off = ctx.mpc(0, -k * s)
    return ctx.mpc(c + g * s / 2), off, off, ctx.mpc(c - g * s / 2)


def g1_matrix(omega0: float, kappa: float, gamma: float, z: float) -> np.ndarray:
    """The full single-photon propagator as a complex128 2x2 array."""
    u, v, w, t = core_g1(kappa, gamma, z)
    pre = ctx.exp(-1j * (ctx.mpf(omega0) - 0.5j * ctx.mpf(gamma)) * ctx.mpf(z))
    return np.array([[complex(pre * u), complex(pre * v)],
                     [complex(pre * w), complex(pre * t)]])


def _log_decay(n: int, gamma: float, z: float):
    """log |prefactor|^2 of G_N: -Gamma N z."""
    return -ctx.mpf(gamma) * n * ctx.mpf(z)


# ---------------------------------------------------------------------------
# Gaussian fixed-point polynomials: a homogeneous polynomial of degree k in
# (A, B) is the pair of int lists (re, im) of its k+1 coefficients, indexed
# by the power of B.

def _gauss(x) -> tuple[int, int]:
    x = ctx.mpc(x)
    return _to_fixed(x.real), _to_fixed(x.imag)


def _times_linear(re, im, a, b):
    """(re, im) * (a A + b B), a and b Gaussian fixed-point scalars."""
    ar, ai = a
    br, bi = b
    k = len(re)
    out_re = [0] * (k + 1)
    out_im = [0] * (k + 1)
    for j in range(k):
        x, y = re[j], im[j]
        out_re[j] += (x * ar - y * ai) >> FRAC_BITS
        out_im[j] += (x * ai + y * ar) >> FRAC_BITS
        out_re[j + 1] += (x * br - y * bi) >> FRAC_BITS
        out_im[j + 1] += (x * bi + y * br) >> FRAC_BITS
    return out_re, out_im


def _poly_product(p, q):
    pre, pim = p
    qre, qim = q
    out_re = [0] * (len(pre) + len(qre) - 1)
    out_im = [0] * len(out_re)
    for i, (x, y) in enumerate(zip(pre, pim)):
        for j, (a, b) in enumerate(zip(qre, qim)):
            out_re[i + j] += (x * a - y * b) >> FRAC_BITS
            out_im[i + j] += (x * b + y * a) >> FRAC_BITS
    return out_re, out_im


def _binom_sqrt(n: int):
    return [ctx.sqrt(math.comb(n, m)) for m in range(n + 1)]


def _sym_apply(entries, coeffs):
    """sum_m c_m L1^(N-m) L2^m with L1 = u A + w B, L2 = v A + t B.

    Horner-like in O(N^2): T_k = T_(k-1) L1 + c_k L2^k.
    """
    u, v, w, t = entries
    t_re, t_im = [coeffs[0][0]], [coeffs[0][1]]
    p_re, p_im = [_ONE], [0]
    for cr, ci in coeffs[1:]:
        t_re, t_im = _times_linear(t_re, t_im, u, w)
        p_re, p_im = _times_linear(p_re, p_im, v, t)
        for j in range(len(p_re)):
            x, y = p_re[j], p_im[j]
            t_re[j] += (x * cr - y * ci) >> FRAC_BITS
            t_im[j] += (x * ci + y * cr) >> FRAC_BITS
    return t_re, t_im


def _weights(re, im, n):
    """|phi_k|^2 = |d_k|^2 / C(N, k) as mpf."""
    return [(_to_mpf(x) ** 2 + _to_mpf(y) ** 2) / math.comb(n, k)
            for k, (x, y) in enumerate(zip(re, im))]


def _summarize(weights, log_decay, log_norm0):
    total = ctx.fsum(weights)
    if total == 0:
        return -math.inf, np.full(len(weights), np.nan)
    log_i = ctx.log(total) + log_decay - log_norm0
    return float(log_i), np.array([float(wk / total) for wk in weights])


def evolve(params, amplitudes, z: float) -> tuple[float, np.ndarray]:
    """(log I, P) for an arbitrary input state, via Sym^N(g1) on psi.

    The amplitudes are taken exactly as given and normalized here.
    """
    n = params.n_photons
    amps = np.asarray(amplitudes, dtype=complex)
    roots = _binom_sqrt(n)
    coeffs = [_gauss(ctx.mpc(a.real, a.imag) * roots[m]) for m, a in enumerate(amps)]
    norm0 = ctx.fsum(ctx.mpf(a.real) ** 2 + ctx.mpf(a.imag) ** 2 for a in amps)
    entries = [_gauss(x) for x in core_g1(params.kappa, params.gamma, z)]
    re, im = _sym_apply(entries, coeffs)
    return _summarize(_weights(re, im, n), _log_decay(n, params.gamma, z), ctx.log(norm0))


def evolve_named(kind: str, params, z: float) -> tuple[float, np.ndarray]:
    """O(N) closed forms for 'all_in_a' (binomial) and 'noon'."""
    n = params.n_photons
    u, v, w, t = core_g1(params.kappa, params.gamma, z)
    log_decay = _log_decay(n, params.gamma, z)
    if kind == "all_in_a":
        a2, b2 = abs(u) ** 2, abs(w) ** 2
        s = a2 + b2
        p = b2 / s
        occ = np.array([float(math.comb(n, k) * p**k * (1 - p) ** (n - k))
                        for k in range(n + 1)])
        return float(n * ctx.log(s) + log_decay), occ
    if kind != "noon":
        raise ValueError(f"no closed form for input kind {kind!r}")
    weights = []
    u_pow, w_pow, v_pow, t_pow = [ctx.mpc(1)], [ctx.mpc(1)], [ctx.mpc(1)], [ctx.mpc(1)]
    for _ in range(n):
        u_pow.append(u_pow[-1] * u)
        w_pow.append(w_pow[-1] * w)
        v_pow.append(v_pow[-1] * v)
        t_pow.append(t_pow[-1] * t)
    for k in range(n + 1):
        amp = u_pow[n - k] * w_pow[k] + v_pow[n - k] * t_pow[k]
        weights.append(math.comb(n, k) * abs(amp) ** 2 / 2)
    return _summarize(weights, log_decay, ctx.mpf(0))


def log_intensity_all_in_a(params, z: float) -> float:
    """log I = N log(|u|^2 + |w|^2) - Gamma N z, O(1) per point."""
    u, _v, w, _t = core_g1(params.kappa, params.gamma, z)
    n = params.n_photons
    return float(n * ctx.log(abs(u) ** 2 + abs(w) ** 2) + _log_decay(n, params.gamma, z))


def core_matrix(params, z: float) -> np.ndarray:
    """Sym^N(g1) without the scalar prefactor exp(-i(omega0 - i Gamma/2) N z).

    This is what the library keeps as ``PropagatorMatrix.core``; column m is
    the image of |m), normalized as G[k, m] = d_km sqrt(C(N, m) / C(N, k)).
    """
    n = params.n_photons
    u, v, w, t = (_gauss(x) for x in core_g1(params.kappa, params.gamma, z))
    pow1 = [([_ONE], [0])]
    pow2 = [([_ONE], [0])]
    for _ in range(n):
        pow1.append(_times_linear(*pow1[-1], u, w))
        pow2.append(_times_linear(*pow2[-1], v, t))
    roots = _binom_sqrt(n)
    out = np.empty((n + 1, n + 1), dtype=complex)
    for m in range(n + 1):
        re, im = _poly_product(pow1[n - m], pow2[m])
        for k in range(n + 1):
            scale = roots[m] / roots[k]
            out[k, m] = complex(_to_mpf(re[k]) * scale, _to_mpf(im[k]) * scale)
    return out


def eigenvalues(params) -> list[complex]:
    """lambda_r = (omega0 - i Gamma/2) N + r sqrt(4 kappa^2 - Gamma^2), r = -N/2..N/2."""
    n = params.n_photons
    k, g = ctx.mpf(params.kappa), ctx.mpf(params.gamma)
    base = (ctx.mpf(params.omega0) - 0.5j * g) * n
    d = ctx.sqrt(ctx.mpc(4 * k * k - g * g))
    return [complex(base + (ctx.mpf(r) - ctx.mpf(n) / 2) * d) for r in range(n + 1)]


def self_check(library) -> float:
    """Worst relative entry error of the library's N=1 propagator vs g1.

    Covers all three regimes at a few distances; the oracle's conventions
    (basis order, prefactor, branch) are right only if this is ~1e-15.
    """
    worst = 0.0
    for gamma in (1.0, 2.0, 2.4):
        p = library.BeamsplitterParams(omega0=1.0, kappa=1.0, gamma=gamma, n_photons=1)
        for z in (0.0, 0.37, 1.9, 4.2):
            lib = library.evolution_operator(p, z).matrix
            ref = g1_matrix(1.0, 1.0, gamma, z)
            worst = max(worst, float(np.abs(lib - ref).max() / np.abs(ref).max()))
    return worst
