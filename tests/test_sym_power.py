"""The symmetric-power engine against an exact high-precision reference.

The reference evaluates g1's core in mpmath and composes Sym^N(g1) with
exact-precision polynomial algebra (40 digits), independently of the
library's float64 kernel; it is the oracle for N > 20, where dense matrix
exponentials stop being trustworthy.  The cases pin defects of the former
path-switching propagator: a wrong split product below threshold at N=40,
NaN for N >= 86 and an overflow guard firing on a regular trace.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from epbs.errors import IntensityUnderflowError, OverflowGuardError
from epbs.fock_core import BeamsplitterParams
from epbs.observables import INTENSITY_FLOOR_LOG, make_input, occupations, trace_evolution
from epbs.propagator import evolution_operator, evolve_grid

DPS = 40


def params(gamma, n, omega0=1.0, kappa=1.0):
    return BeamsplitterParams(omega0, kappa, gamma, n)


def exact_core_g1(kappa, gamma, z):
    """(u, v, t) of g1's unit-determinant core [[u, v], [v, t]] as mpc."""
    k, g, z = mp.mpf(kappa), mp.mpf(gamma), mp.mpf(z)
    d2 = 4 * k * k - g * g
    if d2 > 0:
        half = mp.sqrt(d2) / 2
        c, s = mp.cos(half * z), mp.sin(half * z) / half
    elif d2 < 0:
        half = mp.sqrt(-d2) / 2
        c, s = mp.cosh(half * z), mp.sinh(half * z) / half
    else:
        c, s = mp.mpf(1), z
    return mp.mpc(c + g * s / 2), mp.mpc(0, -k * s), mp.mpc(c - g * s / 2)


def times_linear(poly, a, b):
    """poly(x, y) * (a x + b y) on coefficient lists indexed by the power of y."""
    out = [mp.mpc(0)] * (len(poly) + 1)
    for j, p in enumerate(poly):
        out[j] += p * a
        out[j + 1] += p * b
    return out


def exact_core(n, kappa, gamma, z):
    """Sym^N of g1's core as a complex128 matrix: column m holds X^(N-m) Y^m."""
    with mp.workdps(DPS):
        u, v, t = exact_core_g1(kappa, gamma, z)
        x_pow, y_pow = [[mp.mpc(1)]], [[mp.mpc(1)]]
        for _ in range(n):
            x_pow.append(times_linear(x_pow[-1], u, v))
            y_pow.append(times_linear(y_pow[-1], v, t))
        roots = [mp.sqrt(math.comb(n, m)) for m in range(n + 1)]
        out = np.empty((n + 1, n + 1), dtype=complex)
        for m in range(n + 1):
            col = [mp.mpc(0)] * (n + 1)
            for i, a in enumerate(x_pow[n - m]):
                for j, b in enumerate(y_pow[m]):
                    col[i + j] += a * b
            for k in range(n + 1):
                out[k, m] = complex(col[k] * roots[m] / roots[k])
        return out


def exact_evolve(p, amplitudes, z):
    """(log I, P) of G_N(z) psi by Horner composition at high precision."""
    n = p.n_photons
    with mp.workdps(DPS):
        u, v, t = exact_core_g1(p.kappa, p.gamma, z)
        roots = [mp.sqrt(math.comb(n, m)) for m in range(n + 1)]
        coeffs = [mp.mpc(complex(a)) * roots[m] for m, a in enumerate(amplitudes)]
        poly, y_pow = [coeffs[0]], [mp.mpc(1)]
        for k in range(1, n + 1):
            poly = times_linear(poly, u, v)
            y_pow = times_linear(y_pow, v, t)
            poly = [c + coeffs[k] * y for c, y in zip(poly, y_pow)]
        weights = [abs(c) ** 2 / math.comb(n, k) for k, c in enumerate(poly)]
        total = mp.fsum(weights)
        norm0 = mp.fsum(abs(mp.mpc(complex(a))) ** 2 for a in amplitudes)
        log_i = mp.log(total / norm0) - mp.mpf(p.gamma) * n * mp.mpf(z)
        return float(log_i), np.array([float(w / total) for w in weights])


def seeded_state(n, seed):
    rng = np.random.default_rng(seed)
    return make_input("custom", n, rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))


def test_reference_matches_closed_form_at_one_photon():
    # N=1 is g1 itself, so the reference's conventions are checked directly
    p = params(1.0, 1, omega0=0.0)
    z = 0.7
    d = math.sqrt(3.0)
    c, s = math.cos(d * z / 2), math.sin(d * z / 2) / (d / 2)
    g1 = np.array([[c + 0.5 * s, -1j * s], [-1j * s, c - 0.5 * s]])
    np.testing.assert_allclose(exact_core(1, 1.0, 1.0, z), g1, atol=1e-15)
    np.testing.assert_allclose(evolution_operator(p, z).core, g1, atol=1e-15)


@pytest.mark.parametrize("z", [2.0, 5.0])
def test_columns_exact_below_threshold_at_n40(z):
    # the split product of the former path was off by 2e-1 (kz=2), 9e-2 (kz=5)
    n = 40
    core = evolution_operator(params(1.0, n), z).core
    ref = exact_core(n, 1.0, 1.0, z)
    col_err = np.linalg.norm(core - ref, axis=0) / np.linalg.norm(ref, axis=0)
    assert col_err.max() <= 1e-12


def test_n100_custom_trace_matches_reference():
    # formerly NaN at every z, including z = 0
    n = 100
    p = params(1.0, n)
    state = seeded_state(n, 7)
    grid = np.linspace(0.0, 5.0, 51)
    tr = trace_evolution(state, p, grid)
    assert np.isfinite(tr.log_intensity).all() and np.isfinite(tr.occupations).all()
    for k in (0, 7, 23, 50):
        ref_li, ref_p = exact_evolve(p, state.amplitudes, grid[k])
        assert abs(tr.log_intensity[k] - ref_li) <= 1e-10
        assert np.abs(tr.occupations[k] - ref_p).max() <= 1e-10


def test_n40_broken_regime_noon_trace_completes():
    # the former path raised OverflowGuardError near kappa*z = 13.7
    n = 40
    p = params(2.4, n)
    state = make_input("noon", n)
    grid = np.linspace(0.0, 20.0, 401)
    tr = trace_evolution(state, p, grid, with_occupations=False)
    for k in (100, 274, 400):
        ref_li, ref_p = exact_evolve(p, state.amplitudes, grid[k])
        assert abs(tr.log_intensity[k] - ref_li) <= 1e-10
        occ = occupations(state, p, grid[k], enforce_floor=False)
        assert np.abs(occ - ref_p).max() <= 1e-10
    # with occupations the trace stops where the weight leaves double range
    first_below = grid[np.argmax(tr.log_intensity < INTENSITY_FLOOR_LOG)]
    with pytest.raises(IntensityUnderflowError) as err:
        trace_evolution(state, p, grid)
    assert err.value.z == first_below


def test_grid_values_equal_single_point_values():
    # blocks, order and batch size do not change a value
    p = params(2.0, 6)
    amps = seeded_state(6, 3).amplitudes
    grid = np.linspace(0.0, 40.0, 1100)[::-1]
    log_i, occ = evolve_grid(p, amps, grid)
    for k in (0, 511, 512, 1099):
        li_k, occ_k = evolve_grid(p, amps, grid[k : k + 1])
        assert li_k[0] == pytest.approx(log_i[k], rel=1e-14, abs=1e-14)
        np.testing.assert_allclose(occ_k[0], occ[k], rtol=0, atol=1e-15)


def test_non_finite_values_raise():
    with pytest.raises(OverflowGuardError, match="double-precision range"):
        evolve_grid(params(1.0, 3), [1.0, math.nan, 0.0, 0.0], [0.0, 1.0])
    # far above threshold the core itself overflows; log intensities do not
    p = params(3.0, 10)
    with pytest.raises(OverflowGuardError):
        evolution_operator(p, 700.0)
    log_i, _ = evolve_grid(p, make_input("all_in_a", 10).amplitudes, [700.0])
    assert np.isfinite(log_i).all()
