"""The symmetric-power engine against an exact high-precision reference.

The reference evaluates g1's core in mpmath and composes Sym^N(g1) with
exact-precision polynomial algebra (40 digits), independently of the
library's float64 kernel; it is the oracle for N > 20, where dense matrix
exponentials stop being trustworthy.  The cases pin defects of the former
path-switching propagator: a wrong split product below threshold at N=40,
NaN for N >= 86 and an overflow guard firing on a regular trace.  States
on |0) and |N) take the engine's O(N) binomial form; they are checked
against the reference and against the operator's columns, and at large N
(beyond the former sqrt(C(N, m)) overflow) against closed forms.  Other
states take the SVD form; the sweep checks its error estimate and
Horner's bound against the reference, and that every z is accurate to
ERROR_LIMIT or refused; intensity-only traces, which stop the form after
its first product, are checked against full ones.  The operator's
columns take the SVD form too, each scaled for its own column in one pass
per block; every column is checked against the reference and its own
bound, and so are the columns of the assembled Wei-Norman product, built
the same way.
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from epbs.errors import OverflowGuardError, PrecisionError
from epbs.fock_core import BeamsplitterParams
from epbs.observables import make_input, occupations, trace_evolution
from epbs import _sympower, propagator
from epbs._sympower import (
    _check_rows,
    _horner_rows,
    _spin_basis,
    _svd_2x2,
    _svd_rows,
)
from epbs.propagator import (
    ERROR_LIMIT,
    _core_matrix,
    _g1,
    assemble_propagator,
    evolution_operator,
    evolve_grid,
    first_pole,
    wei_norman_params,
)

DPS = 40
# Largest N for which DPS digits are the default.  At N = 1000, 0.25 Gamma_c,
# kappa z = 0.76 the dense seeded state's log I reads 171.0 at 40 digits,
# -12.64 at 80 and -42.26 (the float engine's value to 1.7e-15) at 400.
DPS_MAX_N = 400


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


def digits(n, dps):
    """``dps``, or ``DPS`` when it is None and N <= ``DPS_MAX_N``."""
    if dps is None:
        if n > DPS_MAX_N:
            raise ValueError(f"N={n} > {DPS_MAX_N}: pass the digits, {DPS} are too few")
        return DPS
    return dps


def times_linear(poly, a, b):
    """poly(x, y) * (a x + b y) on coefficient lists indexed by the power of y."""
    out = [0] * (len(poly) + 1)
    for j, p in enumerate(poly):
        out[j] += p * a
        out[j + 1] += p * b
    return out


def exact_core(n, kappa, gamma, z, dps=None):
    """Sym^N of g1's core as a complex128 matrix: column m holds X^(N-m) Y^m.

    The core is D R D with D = diag(1, -i) and R = [[u, kappa s], [kappa s,
    -t]] real, so Sym^N(R) is composed in real arithmetic and entry (k, m)
    takes the phase (-i)^(k+m).  The composition cancels more digits as N
    grows, so beyond N = ``DPS_MAX_N`` the caller must pass ``dps``.
    """
    with mp.workdps(digits(n, dps)):
        u, v, t = exact_core_g1(kappa, gamma, z)
        u, ks, t = u.real, -v.imag, -t.real
        x_pow, y_pow = [[mp.mpf(1)]], [[mp.mpf(1)]]
        for _ in range(n):
            x_pow.append(times_linear(x_pow[-1], u, ks))
            y_pow.append(times_linear(y_pow[-1], ks, t))
        roots = [mp.sqrt(math.comb(n, m)) for m in range(n + 1)]
        out = np.empty((n + 1, n + 1))
        for m in range(n + 1):
            a, b = x_pow[n - m], y_pow[m]
            for k in range(n + 1):
                # coefficient of x^(N-k) y^k in X^(N-m) Y^m: sum over i + j = k
                lo, hi = max(0, k - m), min(k, n - m)
                col = mp.fdot(a[lo : hi + 1], b[k - hi : k - lo + 1][::-1])
                out[k, m] = float(col * roots[m] / roots[k])
        phase = np.array([1, -1j, -1, 1j])[np.arange(n + 1) % 4]  # (-1j)**k, exactly
        return out * np.multiply.outer(phase, phase)


def exact_evolve(p, amplitudes, z, dps=None):
    """(log I, P) of G_N(z) psi by Horner composition at high precision.

    The composition cancels more digits as N grows, so beyond N =
    ``DPS_MAX_N`` the caller must pass ``dps``.
    """
    n = p.n_photons
    with mp.workdps(digits(n, dps)):
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


def g1_core_matrix(p, z):
    """``_core_matrix`` on g1's entries at z, as ``evolution_operator`` passes them."""
    core = _g1(p.kappa, p.gamma, z)
    entries = map(float, (core.c, core.ks, core.y, core.log_scale))
    return _core_matrix(p.n_photons, z, float(core.theta) + 1.0, *entries)


def g1_core(p, z):
    """g1's core at each z, as the state kernels take it."""
    return _g1(p.kappa, p.gamma, np.asarray(z, dtype=float))


def svd_rows(n, amps, z, core, out=None):
    """``_svd_rows`` on a state given as amplitudes, prepared as ``_state_rows`` prepares it."""
    x = _sympower._real_matmul(_spin_basis(n).T, amps[:, None])
    svd = _svd_2x2(core.c, core.ks, core.y, core.log_scale, 0.0)
    return _svd_rows(n, x, np.linalg.norm(amps), core, svd, out)


def column_errors(core, ref):
    """||col - ref|| / ||ref|| per column, each column scaled first so no square overflows."""
    scale = np.abs(ref).max(axis=0)
    return np.linalg.norm((core - ref) / scale, axis=0) / np.linalg.norm(ref / scale, axis=0)


@pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0, 1.2, 2.0])
@pytest.mark.parametrize("n", [1, 2, 10, 40, 80])
def test_operator_columns_against_reference(n, ratio):
    # the Horner-only operator lost 9.7e-7 of a column at N=80, Gamma=0, z=3.68
    p = params(2.0 * ratio, n)
    for z in np.random.default_rng([n, int(10 * ratio)]).uniform(0.0, 5.0, 3):
        core, estimate = g1_core_matrix(p, z)
        assert np.array_equal(evolution_operator(p, z).core, core)
        col_err = column_errors(core, exact_core(n, p.kappa, p.gamma, z))
        if ratio == 0.0:
            assert col_err.max() <= 1e-12
        if n <= 40:
            assert col_err.max() <= 1e-11
        # every column is within its bound, and no bound exceeds the limit
        assert np.all(col_err <= estimate)
        assert estimate.max() <= ERROR_LIMIT


@pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0, 1.2])
@pytest.mark.parametrize("n", [80, 200])
def test_assembled_columns_against_reference(n, ratio):
    # composed by Horner, the assembly lost 1.3e-6 of a column here at N=80,
    # Gamma=0, and 1.3e-8 (Gamma=0) and 0.18 (Gamma_c/2) at N=200; |w| >= 0.1
    # keeps the cancellation in the product's entry 1/w - f^2 w small
    p = params(2.0 * ratio, n)
    zs = np.random.default_rng([n, int(10 * ratio)]).uniform(0.05, 5.0, 8)
    zs = [z for z in zs if abs(wei_norman_params(p, z).w) >= 0.1][: 2 if n == 80 else 1]
    assert zs
    for z in zs:
        core = assemble_propagator(wei_norman_params(p, z)).core
        assert column_errors(core, exact_core(n, p.kappa, p.gamma, z)).max() <= 1e-10


def _near_poles(p, rng):
    """z = z_pole -/+ |w| / |w'(z_pole)| at the first two zeros of w.

    |w| is seeded in each decade from 1e-2 to 1e-12.
    """
    half = 0.5 * math.sqrt(4.0 * p.kappa**2 - p.gamma**2)
    first = first_pole(p)
    for pole in (first, first + math.pi / half):
        slope = abs(-half * math.sin(half * pole) + 0.5 * p.gamma * math.cos(half * pole))
        for k in range(2, 12):
            for side in (-1.0, 1.0):
                yield pole + side * 10.0 ** -rng.uniform(k, k + 1) / slope


@pytest.mark.parametrize("ratio", [0.25, 0.5, 0.95])
@pytest.mark.parametrize("n", [1, 10, 40, 200])
def test_assembly_near_poles_is_accurate_or_refused(n, ratio, monkeypatch):
    # with only |w| < 1e-6 refused, 49 of the 192 points returned here were
    # off by more than 1e-10, silently, up to 1.8e-8.  Each column must be
    # within its bound of evolution_operator's (within both bounds, so
    # neither is taken as exact), and a returned core within 1e-10 in the
    # max entry.  No point may be refused that the former assembly returned
    # (|w| >= 1e-6 and its own bounds met) within 1e-12
    p = params(2.0 * ratio, n)
    limit = ERROR_LIMIT
    monkeypatch.setattr(_sympower, "ERROR_LIMIT", math.inf)
    bounds = []

    def recording(n, z, rounding, *entries):
        core, estimate = _core_matrix(n, z, rounding, *entries)
        # the former bound: the entries' rounding taken as 1
        bounds.append((estimate, estimate - 2.0 * (n + 1) * EPS * (rounding - 1.0)))
        return core, estimate

    monkeypatch.setattr(propagator, "_core_matrix", recording)

    for z in _near_poles(p, np.random.default_rng([n, int(100 * ratio)])):
        wn = wei_norman_params(p, z)
        core = assemble_propagator(wn).core
        estimate, former = bounds[-1]
        ref, ref_estimate = g1_core_matrix(p, z)
        assert ref_estimate.max() <= limit
        assert np.all(column_errors(core, ref) <= estimate + ref_estimate)
        err = np.abs(core - ref).max() / np.abs(ref).max()
        if estimate.max() <= limit:
            assert err <= limit
        elif abs(wn.w) >= 1e-6 and former.max() <= limit:
            assert err > 1e-12, z


@pytest.mark.parametrize("ratio", [0.0, 0.5, 0.95, 1.0, 1.2, 2.0])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_column_bound_holds_at_small_n(n, ratio):
    # without the rounding of theta and of the scale, the bound was exceeded
    # 1.8-fold at N=2, 0.95 Gamma_c, kappa z = 29.3; without the rounding of
    # the closed-form 2x2 SVD, 1.1-fold at N=2, 0.95 Gamma_c, kappa z = 29.70
    p = params(2.0 * ratio, n)
    for z in np.append(np.random.default_rng([n, int(100 * ratio)]).uniform(0.0, 30.0, 20), 29.3):
        core, estimate = g1_core_matrix(p, z)
        assert np.all(column_errors(core, exact_core(n, p.kappa, p.gamma, z)) <= estimate)


@pytest.mark.parametrize("gamma", [1.0, 2.0, 2.4])
@pytest.mark.parametrize("n", [10, 40])
def test_no_column_refused_on_benchmark_inputs(n, gamma):
    # the benchmark's matrix cases: kappa z on (0, 30] at N=10, (0, 10] at N=40
    z_max = 30.0 if n == 10 else 10.0
    p = params(gamma, n)
    for z in z_max - np.random.default_rng([n, int(10 * gamma)]).uniform(0.0, z_max, 50):
        _, estimate = g1_core_matrix(p, z)
        assert estimate.max() <= ERROR_LIMIT


def test_refused_column_names_z_n_and_column(monkeypatch):
    # below 16 (N+1) eps every column fails the limit
    monkeypatch.setattr(_sympower, "ERROR_LIMIT", 1e-14)
    with pytest.raises(PrecisionError) as err:
        evolution_operator(params(2.0, 10), 1.5)
    assert err.value.z == 1.5
    assert "z=1.5" in str(err.value) and "N=10" in str(err.value)
    assert "column 0 " in str(err.value)


@pytest.mark.parametrize("n", [1, 40, 200])
def test_operator_at_z0_is_the_identity(n, monkeypatch):
    def fail(*args):
        raise AssertionError("no form runs at z = 0")

    monkeypatch.setattr(_sympower, "_svd_form", fail)
    for ratio in (0.0, 0.5, 1.0, 1.2):
        core = evolution_operator(params(2.0 * ratio, n), 0.0).core
        assert core.dtype == complex and np.array_equal(core, np.eye(n + 1))


@pytest.mark.parametrize("n, gamma", [(40, 1.0), (40, 2.0), (40, 2.4), (200, 2.0)])
def test_one_form_pass_per_column_block(n, gamma, monkeypatch):
    # every column takes its own scaled form in the one pass over its
    # block: _SVD_ENTRIES // (N+1) columns, one block at N=40 and eleven at
    # N=200; nothing is run again
    calls = []

    def counted(*args):
        calls.append(args[1].shape[1])
        return svd_form(*args)

    svd_form = _sympower._svd_form
    monkeypatch.setattr(_sympower, "_svd_form", counted)
    width = _sympower._SVD_ENTRIES // (n + 1)
    for z in (0.7, 3.1, 9.4):
        calls.clear()
        evolution_operator(params(gamma, n), z)
        assert len(calls) == -(-(n + 1) // width) and sum(calls) == n + 1


def test_operator_core_near_the_double_range_limit():
    # N |ln lambda| = 710.1 here, so e^(N |ln lambda|) alone overflows while
    # the core's largest entry is 9.2e307
    p = params(3.0, 10)
    z = 63.25
    core = evolution_operator(p, z).core
    ref = exact_core(10, p.kappa, p.gamma, z)
    assert np.isfinite(ref).all() and np.abs(ref).max() > 1e307
    core, ref = core / 1e300, ref / 1e300  # squares of the entries overflow
    col_err = np.linalg.norm(core - ref, axis=0) / np.linalg.norm(ref, axis=0)
    assert col_err.max() <= 1e-12


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
        occ = occupations(state, p, grid[k])
        assert np.abs(occ - ref_p).max() <= 1e-10
    # with occupations the trace runs on past the first z with I < 1e-300
    full = trace_evolution(state, p, grid)
    first = int(np.argmax(full.log_intensity < math.log(1e-300)))
    assert 0 < first < grid.size - 1
    for k in (first, (first + grid.size) // 2, grid.size - 1):
        ref_li, ref_p = exact_evolve(p, state.amplitudes, grid[k])
        assert abs(full.log_intensity[k] - ref_li) <= 1e-10
        assert np.abs(full.occupations[k] - ref_p).max() <= 1e-10


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


@pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 2.4])
@pytest.mark.parametrize("n", [1, 2, 10, 40])
@pytest.mark.parametrize("kind", ["all_in_a", "all_in_b", "noon"])
def test_edge_supported_states_match_both_references(kind, n, gamma):
    # kappa*z <= 24 keeps the N=40 operator core inside double range at 2.4 kappa
    p = params(gamma, n)
    amps = make_input(kind, n).amplitudes
    grid = np.array([0.0, 0.4, 3.3, 11.7, 24.0])
    log_i, occ = evolve_grid(p, amps, grid)
    for k, z in enumerate(grid):
        ref_li, ref_p = exact_evolve(p, amps, z)
        assert abs(log_i[k] - ref_li) <= 1e-10
        assert np.abs(occ[k] - ref_p).max() <= 1e-10
        g = evolution_operator(p, z)
        # g.matrix @ amps with the prefactor and the peak magnitude taken out,
        # since the matrix underflows and squares of the core overflow here
        psi = g.core @ amps
        peak = np.abs(psi).max()
        weights = np.abs(psi / peak) ** 2
        op_li = math.log(weights.sum()) + 2.0 * (math.log(peak) + g.prefactor_exponent.real)
        assert log_i[k] == pytest.approx(op_li, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(occ[k], weights / weights.sum(), rtol=0, atol=1e-12)


@pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0, 1.2])
@pytest.mark.parametrize("n", [1, 2, 3, 10, 11, 40, 41])
def test_edge_real_form_every_sign_case(n, ratio):
    # the edge form sums the real and imaginary parts of two signed real
    # terms; the signs follow the parities of m and N and the signs of u, w
    # and t.  States: two random complex (a_0, a_N), one with b = (-i)^N a_N
    # in phase with a_0 (only the real part) and one in quadrature (no
    # cross term).  z: 0, a grid, and both sides of the zero of u below
    # threshold, where the Wei-Norman pole lies
    p = params(2.0 * ratio, n)
    rng = np.random.default_rng(100 * n + int(10 * ratio))
    ends = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(2)]
    ends += [(0.8, -0.6 * 1j**n), (0.6, 0.8j * 1j**n)]
    z = [0.0, 0.4, 3.3, 11.7]
    pole = first_pole(p)
    if pole is not None:
        z += [pole * (1.0 + d) for d in (-1e-3, -1e-9, 1e-9, 1e-3)]
    for a0, an in ends:
        amps = make_input("custom", n, np.r_[a0, np.zeros(n - 1), an]).amplitudes
        log_i, occ = evolve_grid(p, amps, z)
        for k, zk in enumerate(z):
            ref_li, ref_p = exact_evolve(p, amps, zk)
            assert abs(log_i[k] - ref_li) <= 1e-10, (a0, an, zk)
            assert np.abs(occ[k] - ref_p).max() <= 1e-10, (a0, an, zk)


@pytest.mark.parametrize("gamma", [2.0, 2.4])
@pytest.mark.parametrize("n", [600, 1000])
def test_all_in_b_at_large_n_matches_single_column_form(n, gamma):
    # with one scale for both columns the lossy column underflowed and the
    # update raised OverflowGuardError near kappa*z = 0.3-0.6
    p = params(gamma, n)
    grid = np.linspace(0.0, 10.0, 201)
    log_i, occ = evolve_grid(p, make_input("all_in_b", n).amplitudes, grid)
    core = _g1(p.kappa, p.gamma, grid)
    col = core.ks**2 + (core.c - core.y) ** 2
    closed = n * np.log(col) + 2 * n * core.log_scale - gamma * n * grid
    np.testing.assert_allclose(log_i, closed, rtol=0, atol=1e-10)
    assert np.isfinite(occ).all()


def test_edge_blocks_do_not_change_values(monkeypatch):
    # blocks hold _EDGE_ENTRIES // (N+1) z (16 at N=2000); one whole-grid
    # block and 7-z blocks give the same values to the bit
    n = 2000
    p = params(1.0, n)
    amps = make_input("noon", n).amplitudes
    grid = np.linspace(0.0, 6.0, 600)
    log_i, occ = evolve_grid(p, amps, grid)
    for entries in (1 << 30, 7 * (n + 1)):
        monkeypatch.setattr(_sympower, "_EDGE_ENTRIES", entries)
        li_b, occ_b = evolve_grid(p, amps, grid)
        assert np.array_equal(li_b, log_i) and np.array_equal(occ_b, occ)


@pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 3.0])
def test_intensity_only_trace_allocates_no_occupations(gamma):
    # a (z, N+1) occupation array would take 32 MB here; with 512-z blocks
    # the former edge form's temporaries alone reached 78 MB.  A single
    # term's log I is closed-form, so the trace allocates no (z, N+1) array,
    # not even one block of it: ten z-length vectors hold fewer entries, in
    # every regime
    n, size = 2000, 2000
    grid = np.linspace(0.0, 5.0, size)
    tracemalloc.start()
    try:
        tr = trace_evolution(make_input("all_in_a", n), params(gamma, n), grid,
                             with_occupations=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.occupations is None and np.isfinite(tr.log_intensity).all()
    assert peak < size * (n + 1) * 8 / 2
    assert peak < 10 * size * 8


def test_non_finite_values_raise():
    # a non-finite amplitude or distance is the caller's error, not the engine's
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            evolve_grid(params(1.0, 3), [1.0, bad, 0.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="finite distances"):
            evolve_grid(params(1.0, 3), make_input("noon", 3).amplitudes, [0.0, bad])
        with pytest.raises(ValueError, match="finite distance"):
            evolution_operator(params(1.0, 3), bad)
    # far above threshold the core itself overflows; log intensities do not
    p = params(3.0, 10)
    with pytest.raises(OverflowGuardError):
        evolution_operator(p, 700.0)
    log_i, _ = evolve_grid(p, make_input("all_in_a", 10).amplitudes, [700.0])
    assert np.isfinite(log_i).all()


@pytest.mark.parametrize("n", [1, 3, 40])
def test_zero_vector_raises_value_error(n):
    # a state without light is the caller's error; it used to reach the
    # edge form and raise OverflowGuardError ("log I = -inf")
    with pytest.raises(ValueError, match="amplitudes must not be the zero vector"):
        evolve_grid(params(1.0, n), np.zeros(n + 1), [0.0, 1.0])
    with pytest.raises(ValueError, match="amplitudes must not be the zero vector"):
        evolve_grid(params(1.0, n), np.zeros(n + 1), [0.0, 1.0], with_occupations=False)


@pytest.mark.parametrize("gamma", [0.0, 1.0])
@pytest.mark.parametrize("amplitudes", [[1e200, 1, 0], [1e-170, 1e-170, 0], [1e-160, 1e-160, 0]],
                         ids=["norm-overflows", "norm-underflows", "norm-subnormal"])
def test_amplitudes_of_any_finite_scale(amplitudes, gamma):
    # these were refused, or (the subnormal ||a||^2 at Gamma = kappa) off by 1.4e-3 in log I
    p = params(gamma, 2)
    grid = np.linspace(0.0, 3.0, 7)
    log_i, occ = evolve_grid(p, amplitudes, grid)
    ref_li, ref_p = evolve_grid(p, make_input("custom", 2, amplitudes).amplitudes, grid)
    with mp.workdps(40):
        log_norm2 = mp.log(mp.fsum(mp.mpf(a) ** 2 for a in amplitudes))
        excess = [float(mp.mpf(li) - log_norm2) for li in log_i]
    np.testing.assert_allclose(excess, ref_li, rtol=0, atol=1e-13)
    np.testing.assert_allclose(occ, ref_p, rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# states with interior light: the SVD form, its estimate and the Horner fallback

EPS = np.finfo(float).eps
SWEEP_RATIOS = (0.0, 0.25, 0.5, 1.0, 1.2, 2.0)  # Gamma / Gamma_c
SWEEP_KINDS = ("dense", "twin", "sparse")


def interior_state(kind, n):
    """A dense seeded state, the twin Fock state |N/2) or a 3-sparse state."""
    if kind == "dense":
        return seeded_state(n, n)
    amps = np.zeros(n + 1, dtype=complex)
    if kind == "twin":
        amps[n // 2] = 1.0
    else:
        amps[[3, n // 3, n - 2]] = [0.6, 0.64j, 0.48]
    return make_input("custom", n, amps)


def _sweep_points():
    # a Latin square over (N, Gamma, state): every pair of the three appears
    rng = np.random.default_rng(8)
    points = []
    for i, n in enumerate((40, 100, 200)):
        for j, ratio in enumerate(SWEEP_RATIOS):
            kind = SWEEP_KINDS[(i + j) % 3]
            points.append((n, ratio, kind, float(rng.uniform(0.0, 20.0))))
    return points


def _errors(log_i, occ, ref_li, ref_p):
    return abs(log_i - ref_li), float(np.abs(occ - ref_p).max())


@pytest.mark.parametrize("n, ratio, kind, z", _sweep_points())
def test_interior_states_are_accurate_or_refused(n, ratio, kind, z):
    p = params(2.0 * ratio, n)
    amps = interior_state(kind, n).amplitudes
    ref_li, ref_p = exact_evolve(p, amps, z)
    # log-space bookkeeping adds rounding of the size of the terms it sums
    slack = 8 * EPS * (abs(ref_li) + n * p.gamma * z)
    zs = np.array([z])
    occ = np.empty((1, n + 1))
    li, estimate = svd_rows(n, amps, zs, g1_core(p, zs), occ)
    d_li, d_p = _errors(li[0], occ[0], ref_li, ref_p)
    assert d_li <= estimate[0] + slack and d_p <= estimate[0]
    li, occ, bound = _horner_rows(n, amps, zs, g1_core(p, zs))
    d_li, d_p = _errors(li[0], occ[0], ref_li, ref_p)
    assert d_li <= bound[0] + slack and d_p <= bound[0]
    try:
        li, occ = evolve_grid(p, amps, zs)
    except PrecisionError as err:
        # refused only where neither form is certified
        assert err.z == z and kind != "dense"
        assert min(estimate[0], bound[0]) > ERROR_LIMIT
        return
    d_li, d_p = _errors(li[0], occ[0], ref_li, ref_p)
    assert d_li <= 1e-10 and d_p <= 1e-10


def test_lossless_dense_n200_is_unitary_where_horner_fails():
    # Horner is off by tens in log I here; the SVD form is not flagged
    p = params(0.0, 200)
    amps = interior_state("dense", 200).amplitudes
    grid = np.linspace(0.0, 24.5, 50)
    log_i, occ = evolve_grid(p, amps, grid)
    assert np.abs(log_i).max() <= 1e-10
    assert np.abs(occ.sum(axis=1) - 1.0).max() <= 1e-13
    horner_li = _horner_rows(200, amps, grid, g1_core(p, grid))[0]
    assert np.abs(horner_li).max() > 1.0


def test_flagged_rows_are_the_horner_rows():
    # edge light with a 1e-6 interior amplitude at 2 Gamma_c: the SVD form
    # loses the interior light past kappa*z ~ 1, Horner does not
    n = 200
    p = params(4.0, n)
    amps = np.zeros(n + 1, dtype=complex)
    amps[[0, n]] = 1.0
    amps[n // 2] = 1e-6
    amps /= np.linalg.norm(amps)
    grid = np.linspace(0.0, 20.0, 41)
    core = g1_core(p, grid)
    flagged = svd_rows(n, amps, grid, core, np.empty((grid.size, n + 1)))[1] > ERROR_LIMIT
    assert 0 < flagged.sum() < grid.size
    log_i, occ = evolve_grid(p, amps, grid)
    horner_li, horner_occ, bound = _horner_rows(n, amps, grid[flagged], g1_core(p, grid[flagged]))
    assert np.array_equal(log_i[flagged], horner_li)
    assert np.array_equal(occ[flagged], horner_occ)
    assert bound.max() <= ERROR_LIMIT
    # the intensity-only form flags the same z and takes Horner's log I there
    assert np.array_equal(svd_rows(n, amps, grid, core)[1] > ERROR_LIMIT, flagged)
    log_i_only, no_occ = evolve_grid(p, amps, grid, with_occupations=False)
    assert no_occ is None
    assert np.array_equal(log_i_only[flagged], horner_li)
    k = int(np.flatnonzero(flagged)[-1])
    ref_li, ref_p = exact_evolve(p, amps, grid[k])
    assert abs(log_i[k] - ref_li) <= 1e-10 and np.abs(occ[k] - ref_p).max() <= 1e-10


@pytest.mark.parametrize("n", [10, 40])
def test_svd_form_takes_each_cores_own_factors(n):
    # a batch that mixes regimes, 0.95 Gamma_c with y < 0, Gamma_c and
    # 1.2 Gamma_c: each z gets the bits it gets in a batch of copies of
    # itself (the same shape, so the same products).  With one asinh form
    # per block, the one the lossy cores above threshold need, log I moved
    # by 2.8e-14 at y < 0 and P at Gamma_c
    amps = interior_state("dense", n).amplitudes
    cases = ((0.95, [14.0, 17.5]), (1.0, [0.0, 1.3, 6.0]), (1.2, [0.0, 2.1, 9.0]))
    parts = [g1_core(params(2.0 * ratio, n), zs) for ratio, zs in cases]
    assert (parts[0].y < 0).all() and (parts[2].log_scale[1:] > 0).all()
    batch = _sympower.Core(*map(np.concatenate, zip(*parts)))
    size = batch.c.size
    occ = np.empty((size, n + 1))
    log_i, estimate = svd_rows(n, amps, None, batch, occ)
    for k in range(size):
        occ_k = np.empty_like(occ)
        li_k, est_k = svd_rows(n, amps, None, _sympower._take(batch, np.full(size, k)), occ_k)
        assert li_k[k] == log_i[k] and est_k[k] == estimate[k], k
        assert np.array_equal(occ_k[k], occ[k]), k


@pytest.mark.parametrize("ratio", [0.5, 1.0, 1.2])
@pytest.mark.parametrize("n", [10, 40, 100])
def test_intensity_only_trace_matches_full_trace(n, ratio):
    # without occupations the SVD form stops at diag(scaling) E(phi) a, whose
    # norm is the image's since E(phi) is unitary: one product of three
    p = params(2.0 * ratio, n)
    amps = interior_state("dense", n).amplitudes
    grid = np.linspace(0.0, 10.0 if n <= 40 else 5.0, 101)
    log_i, _ = evolve_grid(p, amps, grid)
    log_i_only, occ = evolve_grid(p, amps, grid, with_occupations=False)
    assert occ is None
    np.testing.assert_allclose(log_i_only, log_i, rtol=0, atol=1e-13)
    for k in (17, 58, 100):
        assert abs(log_i_only[k] - exact_evolve(p, amps, grid[k])[0]) <= 1e-10


@pytest.mark.parametrize("blocks", [1, 2, 11])
@pytest.mark.parametrize("n", [10, 40, 100])
def test_interior_state_is_prepared_once_per_call(n, blocks, monkeypatch):
    # Q^T a serves every block of z: one (N+1) x 1 product per call, and
    # one or three products per block, each over all of the block's z
    def counted(mat, x, out=None):
        shapes.append(x.shape)
        return real_matmul(mat, x, out)

    real_matmul, shapes = _sympower._real_matmul, []
    monkeypatch.setattr(_sympower, "_real_matmul", counted)
    width = _sympower._SVD_ENTRIES // (n + 1)
    grid = np.linspace(0.0, 5.0, (blocks - 1) * width + 2)
    amps = interior_state("dense", n).amplitudes
    for with_occupations, per_block in ((True, 3), (False, 1)):
        shapes.clear()
        evolve_grid(params(1.0, n), amps, grid, with_occupations)
        assert shapes.count((n + 1, 1)) == 1
        assert len(shapes) == 1 + blocks * per_block


def test_uncertified_z_is_refused():
    # the twin state at N=200 and Gamma_c / 4: the SVD estimate is 4e-7 and
    # Horner, whose bound is 5e4, is off by 24 in log I
    p = params(0.5, 200)
    amps = interior_state("twin", 200).amplitudes
    with pytest.raises(PrecisionError, match="SVD estimate .* and Horner bound") as err:
        evolve_grid(p, amps, [0.1, 0.65])
    assert err.value.z == 0.65


def test_custom_state_far_above_threshold():
    # kappa*z = 700 at 1.2 Gamma_c: g1's entries are e^464, G_N's far beyond
    p = params(2.4, 40)
    amps = interior_state("dense", 40).amplitudes
    log_i, occ = evolve_grid(p, amps, [700.0])
    assert np.isfinite(log_i).all() and np.isfinite(occ).all()
    ref_li, ref_p = exact_evolve(p, amps, 700.0)
    assert abs(log_i[0] - ref_li) <= 1e-10
    assert np.abs(occ[0] - ref_p).max() <= 1e-10


def test_spin_basis_diagonalizes_2jx():
    n = 40
    q = _spin_basis(n)
    m = np.arange(1, n + 1)
    off = np.sqrt(m * (n + 1.0 - m))
    jx2 = np.diag(off, 1) + np.diag(off, -1)
    assert np.abs(q.T @ q - np.eye(n + 1)).max() <= 1e-13
    # eigenvalues -N, -N+2, ..., N in column order
    assert np.abs(jx2 @ q - q * np.arange(-n, n + 1, 2)).max() <= 1e-12
    assert _spin_basis(n) is _spin_basis(n)  # built once per N


def test_invariant_guards_name_z():
    # lossy (Gamma = 1) and lossless rows at N = 3
    z = np.array([0.5, 1.5])
    occ = np.full((2, 4), 0.25)
    _check_rows(3, z, z, np.array([-0.1, -1.0]), occ, 0.0)
    with pytest.raises(PrecisionError, match="contraction") as err:
        _check_rows(3, z, z, np.array([-0.1, 2e-10]), occ, 0.0)
    assert err.value.z == 1.5
    _check_rows(3, z, 0 * z, np.array([0.0, 5e-11]), occ, 0.0)
    with pytest.raises(PrecisionError, match="unitary") as err:
        _check_rows(3, z, 0 * z, np.array([-2e-10, 0.0]), occ, 0.0)
    assert err.value.z == 0.5
    # the norm of the amplitudes as given is the reference
    _check_rows(3, z, z, np.array([math.log(4.0), 0.0]), occ, math.log(4.0))
    # a non-finite occupation names its own z, also beside finite log I
    for bad in (math.nan, math.inf):
        occ_bad = occ.copy()
        occ_bad[1, 2] = bad
        with pytest.raises(OverflowGuardError, match="z=1.5"):
            _check_rows(3, z, z, np.array([-0.1, -1.0]), occ_bad, 0.0)


def test_decay_law_reads_each_entrys_gamma_z():
    # each photon keeps at least e^(-2 Gamma z): the floor at N = 3, Gamma z = 1.5
    # is -9, and an entry with Gamma z = 0 (Gamma = 0, or z = 0) must be unitary
    z, gz = np.array([0.0, 0.7, 1.5]), np.array([0.0, 0.0, 1.5])
    with pytest.raises(PrecisionError, match="unitary") as err:
        _check_rows(3, z, gz, np.array([-2e-10, 0.0, -1.0]), None, 0.0)
    assert err.value.z == 0.0
    with pytest.raises(PrecisionError, match="2 N Gamma z = 9") as err:
        _check_rows(3, z, gz, np.array([0.0, 0.0, -9.1]), None, 0.0)
    assert err.value.z == 1.5
    _check_rows(3, z, gz, np.array([0.0, 0.0, -8.9]), None, 0.0)
    # the floor is relative to ln ||a||^2
    _check_rows(3, z, gz, np.array([2.0, 2.0, -6.9]), None, 2.0)


# ---------------------------------------------------------------------------
# states on |0) and |N) beyond the former sqrt(C(N, m)) overflow at N >= 2060


def _log_closed_forms(p, z):
    """log I of all_in_a, all_in_b and noon from g1's entries, in log space."""
    n = p.n_photons
    core = _g1(p.kappa, p.gamma, z)
    u, v, t = core.c + core.y, -1j * core.ks, core.c - core.y
    shift = 2 * n * core.log_scale - p.gamma * n * z
    log_a = n * np.log(abs(u) ** 2 + abs(v) ** 2)
    log_b = n * np.log(abs(v) ** 2 + abs(t) ** 2)
    # <X^N, Y^N> = <X, Y>^N on Sym^N
    overlap = u.conj() * v + v.conj() * t
    top = np.maximum(log_a, log_b)
    with np.errstate(divide="ignore"):  # the columns are orthogonal at z = 0
        cross = np.exp(n * np.log(abs(overlap)) - top) * np.cos(n * np.angle(overlap))
    log_noon = top + np.log((np.exp(log_a - top) + np.exp(log_b - top) + 2 * cross) / 2)
    return {"all_in_a": log_a + shift, "all_in_b": log_b + shift, "noon": log_noon + shift}


@pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 2.4])
@pytest.mark.parametrize("n", [2100, 3000])
def test_edge_states_beyond_binomial_overflow(n, gamma):
    p = params(gamma, n)
    grid = np.array([0.0, 0.3, 1.7, 6.1])
    closed = _log_closed_forms(p, grid)
    for kind in ("all_in_a", "all_in_b", "noon"):
        log_i, occ = evolve_grid(p, make_input(kind, n).amplitudes, grid)
        np.testing.assert_allclose(log_i, closed[kind], rtol=1e-12, atol=1e-10)
        np.testing.assert_allclose(occ.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    # all_in_a spreads binomially: P(m) = C(N, m) p^(N-m) (1-p)^m
    core = _g1(p.kappa, p.gamma, grid)
    share = (core.c + core.y) ** 2 / ((core.c + core.y) ** 2 + core.ks**2)
    m = np.arange(n + 1)
    log_binom = np.array(
        [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) for k in m]
    )
    with np.errstate(divide="ignore", invalid="ignore"):  # share = 1 at z = 0
        log_rest = np.where(m > 0, np.multiply.outer(np.log1p(-share), m), 0.0)
        log_pmf = log_binom + np.multiply.outer(np.log(share), n - m) + log_rest
    occ = evolve_grid(p, make_input("all_in_a", n).amplitudes, grid)[1]
    np.testing.assert_allclose(occ, np.exp(log_pmf), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# far above threshold, where the slowest mode decays at 4 kappa^2 / (Gamma +
# |Delta_lambda|) per photon, small beside Gamma: log I against 60 digits

FAR_RATIOS = (10.0, 100.0, 1e4)


def _edge_log_intensity(p, z, kind):
    """log I of ``all_in_a`` or ``all_in_b`` at z: N ln ||column||^2 - N Gamma z, in mpmath."""
    with mp.workdps(60):
        u, v, t = exact_core_g1(p.kappa, p.gamma, z)
        a, b = (u, v) if kind == "all_in_a" else (v, t)
        n, gz = p.n_photons, mp.mpf(p.gamma) * mp.mpf(z)
        return float(n * (mp.log(abs(a) ** 2 + abs(b) ** 2) - gz))


@pytest.mark.parametrize("kind", ["all_in_a", "all_in_b"])
@pytest.mark.parametrize("n", [100, 1000])
def test_edge_log_intensity_far_above_threshold(n, kind):
    # forming N (2 log_scale - Gamma z) cancelled two terms of size N Gamma z:
    # off by 1.3e-10 at N = 100, 10 Gamma_c and by 1.2e-6 at N = 1000, 1e4 Gamma_c
    grid = np.logspace(-3, 3, 13)
    for ratio in FAR_RATIOS:
        p = params(2.0 * ratio, n)
        log_i = evolve_grid(p, make_input(kind, n).amplitudes, grid, False)[0]
        want = [_edge_log_intensity(p, z, kind) for z in grid.tolist()]
        np.testing.assert_allclose(log_i, want, rtol=0, atol=ERROR_LIMIT, err_msg=f"{ratio=}")


@pytest.mark.parametrize("n", [10, 100])
def test_dense_log_intensity_far_above_threshold(n):
    # the SVD form's scale cancelled the same way: off by 1.4e-10 at N = 10,
    # 100 Gamma_c and by 6.4e-9 at N = 100, 1e4 Gamma_c
    grid = np.array([0.01, 1.0, 30.0, 1000.0])
    amps = seeded_state(n, 7).amplitudes
    for ratio in FAR_RATIOS:
        p = params(2.0 * ratio, n)
        log_i = evolve_grid(p, amps, grid, False)[0]
        want = [exact_evolve(p, amps, z, dps=60)[0] for z in grid.tolist()]
        np.testing.assert_allclose(log_i, want, rtol=0, atol=ERROR_LIMIT, err_msg=f"{ratio=}")
