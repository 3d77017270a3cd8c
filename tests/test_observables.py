import math
import time

import mpmath as mp
import numpy as np
import pytest

from epbs import observables
from epbs.fock_core import BeamsplitterParams, build_hamiltonian, build_operators
from epbs.observables import (
    STEADY_THRESHOLD,
    InputState,
    _autocorrelation,
    fit_ep_order,
    make_input,
    occupations,
    periodicity_check,
    steady_state_onset,
    trace_evolution,
)
from epbs.propagator import evolve_grid
from oracles import matrix_exp_oracle
from test_sym_power import exact_evolve


def params(gamma, n, omega0=1.0, kappa=1.0):
    return BeamsplitterParams(omega0, kappa, gamma, n)


def intensity_at(state, p, z):
    """(I, log I) of an intensity-only trace at the one distance z."""
    tr = trace_evolution(state, p, [z], with_occupations=False)
    return tr.intensity[0], tr.log_intensity[0]


def mp_log_intensity_critical(n, gamma, z, amplitudes, dps=50):
    """High-precision oracle for log I(z) at the critical loss: the shifted
    propagator is a terminating polynomial there, evaluated exactly in
    mpmath, and the scalar decay is added back analytically."""
    kappa = gamma / 2.0
    ops = build_operators(n)
    m_shift = 2.0 * kappa * (ops.j_x - 1j * ops.j_z)
    with mp.workdps(dps):
        mat = mp.matrix(
            [[mp.mpc(m_shift[i, j]) for j in range(n + 1)] for i in range(n + 1)]
        )
        total = mp.eye(n + 1)
        term = mp.eye(n + 1)
        for k in range(1, n + 1):
            term = term * (-1j * mp.mpf(z)) * mat / k
            total += term
        vec = total * mp.matrix([mp.mpc(a) for a in amplitudes])
        norm_sq = sum(abs(vec[i]) ** 2 for i in range(n + 1))
        return float(-n * gamma * z + mp.log(norm_sq))


# ---------------------------------------------------------------------------
# input states


def test_make_input_kinds():
    s = make_input("all_in_a", 5)
    assert s.amplitudes[0] == 1.0 and np.count_nonzero(s.amplitudes) == 1
    s = make_input("all_in_b", 5)
    assert s.amplitudes[5] == 1.0 and np.count_nonzero(s.amplitudes) == 1
    s = make_input("noon", 8)
    assert s.amplitudes[0] == pytest.approx(1 / math.sqrt(2))
    assert s.amplitudes[8] == pytest.approx(1 / math.sqrt(2))
    assert np.count_nonzero(s.amplitudes) == 2
    s = make_input("custom", 2, custom=[1.0, 1.0, 0.0])
    np.testing.assert_allclose(
        s.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2), 0.0], atol=1e-15
    )


@pytest.mark.parametrize("kind", ["all_in_a", "all_in_b", "noon"])
def test_make_input_normalized(kind):
    s = make_input(kind, 7)
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert s.label == kind


def test_make_input_errors():
    with pytest.raises(ValueError):
        make_input("sideways", 3)
    with pytest.raises(ValueError):
        make_input("custom", 3)  # missing amplitudes
    with pytest.raises(ValueError):
        make_input("noon", 3, custom=[1, 0, 0, 0])  # amplitudes without custom
    with pytest.raises(ValueError):
        make_input("custom", 3, custom=[0, 0, 0, 0])  # zero vector
    with pytest.raises(ValueError):
        make_input("custom", 3, custom=[1, 0])  # wrong length


@pytest.mark.parametrize("n", [-1, 0, 2.0, True])
@pytest.mark.parametrize("kind, custom", [
    ("noon", None), ("all_in_b", None), ("custom", [1, 0, 1]),
])
def test_make_input_rejects_bad_photon_number(kind, custom, n):
    # N = -1 gave IndexError, N = 0 a one-entry state and N = 2.0 TypeError
    with pytest.raises(ValueError, match="n_photons: must be an integer >= 1"):
        make_input(kind, n, custom)


def test_make_input_checks_before_allocating():
    # a billion photons would take 16 GB; each fault is found without it
    import tracemalloc

    tracemalloc.start()
    try:
        for kind, custom in [("sideways", None), ("noon", [1, 0]), ("custom", [1, 0, 1])]:
            with pytest.raises(ValueError):
                make_input(kind, 10**9, custom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("custom, want", [
    ([1e308, 1e308, 0.0], [2**-0.5, 2**-0.5, 0.0]),  # the plain norm overflows
    ([1e-320, 0.0, 1e-320], [2**-0.5, 0.0, 2**-0.5]),  # the plain norm underflows
    ([1.0, math.nan, 0.0], None),
    ([1.0, 0.0, complex(0.0, math.inf)], None),
])
def test_make_input_custom_any_finite_scale(custom, want):
    if want is None:
        with pytest.raises(ValueError, match="must be finite"):
            make_input("custom", 2, custom=custom)
        return
    s = make_input("custom", 2, custom=custom)
    np.testing.assert_allclose(s.amplitudes, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("custom", [[1.0, math.nan, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
def test_make_input_refuses_as_the_engine_does(custom):
    # one amplitude rule, one message per fault
    with pytest.raises(ValueError) as built:
        make_input("custom", 3, custom=custom)
    with pytest.raises(ValueError) as evolved:
        evolve_grid(params(1.0, 3), custom, [0.0, 1.0])
    assert str(built.value) == str(evolved.value)


def test_input_amplitudes_read_only():
    s = make_input("noon", 4)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 9.0


# ---------------------------------------------------------------------------
# intensity


def test_intensity_initial_and_lossless():
    s = make_input("all_in_a", 5)
    value, log_value = intensity_at(s, params(1.0, 5), 0.0)
    assert value == pytest.approx(1.0, abs=1e-14)
    assert log_value == pytest.approx(0.0, abs=1e-14)
    for z in (0.7, 3.9, 40.0):
        value = intensity_at(s, params(0.0, 5), z)[0]
        assert value == pytest.approx(1.0, abs=1e-12)


def test_intensity_log_value_survives_underflow():
    s = make_input("all_in_a", 10)
    value, log_value = intensity_at(s, params(2.0, 10), 100.0)
    assert value == 0.0
    assert -1950.0 < log_value < -1850.0


@pytest.mark.parametrize("gamma", [0.0, 0.9, 2.0, 2.8])
def test_intensity_matches_matrix_exp(gamma):
    p = params(gamma, 6)
    s = make_input("noon", 6)
    h = build_hamiltonian(p)
    for z in (0.3, 1.4, 3.8):
        expected = np.linalg.norm(matrix_exp_oracle(h, z).matrix @ s.amplitudes) ** 2
        assert intensity_at(s, p, z)[0] == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("z", [20.0, 60.0])
def test_intensity_deep_tail_vs_high_precision(z):
    # the matrix exponential is no longer trustworthy out here; compare the
    # factored log-intensity against an exact high-precision evaluation
    n = 5
    s = make_input("all_in_a", n)
    got = intensity_at(s, params(2.0, n), z)[1]
    want = mp_log_intensity_critical(n, 2.0, z, s.amplitudes)
    assert got == pytest.approx(want, abs=1e-9)


def test_intensity_bounded_by_one():
    for gamma in (0.0, 0.5, 2.0, 3.0):
        p = params(gamma, 4)
        s = make_input("noon", 4)
        for z in np.linspace(0.0, 6.0, 25):
            assert intensity_at(s, p, float(z))[0] <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# occupations


def test_occupations_initial_noon():
    p = params(1.0, 5)
    occ = occupations(make_input("noon", 5), p, 0.0)
    np.testing.assert_allclose(occ, [0.5, 0, 0, 0, 0, 0.5], atol=1e-15)


def test_occupations_lossless_binomial_rotation():
    # with no loss the chain rotates rigidly: starting from m=0 the
    # occupations follow a binomial profile in cos^2/sin^2(kappa z)
    n, z = 5, 0.4
    occ = occupations(make_input("all_in_a", n), params(0.0, n), z)
    c2, s2 = math.cos(z) ** 2, math.sin(z) ** 2
    expected = [
        math.comb(n, m) * c2 ** (n - m) * s2**m for m in range(n + 1)
    ]
    np.testing.assert_allclose(occ, expected, atol=1e-12)


def test_occupations_perfect_state_transfer():
    n = 6
    occ = occupations(make_input("all_in_a", n), params(0.0, n), math.pi / 2)
    assert occ[n] > 1.0 - 1e-10
    np.testing.assert_allclose(occ[:n], 0.0, atol=1e-10)


@pytest.mark.parametrize("gamma,z", [(0.5, 2.0), (2.0, 5.0), (3.0, 1.5)])
def test_occupations_normalized(gamma, z):
    occ = occupations(make_input("noon", 7), params(gamma, 7), z)
    assert occ.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(occ >= 0.0)


def test_occupations_past_floor_match_reference():
    # P is scale-free and log I a logarithm, so both stay exact where I < 1e-300
    p = params(2.0, 5)
    s = make_input("noon", 5)
    for z in (100.0, 200.0, 400.0):
        ref_li, ref_p = exact_evolve(p, s.amplitudes, z)
        assert ref_li < math.log(1e-300)
        assert abs(intensity_at(s, p, z)[1] - ref_li) <= 1e-10
        occ = occupations(s, p, z)
        assert np.abs(occ - ref_p).max() <= 1e-10
        assert occ.sum() == pytest.approx(1.0, abs=1e-10)


def test_occupations_match_matrix_exp():
    p = params(1.3, 6)
    s = make_input("noon", 6)
    h = build_hamiltonian(p)
    for z in (0.5, 2.1, 4.4):
        v = matrix_exp_oracle(h, z).matrix @ s.amplitudes
        expected = np.abs(v) ** 2
        expected /= expected.sum()
        np.testing.assert_allclose(occupations(s, p, z), expected, atol=1e-10)


def test_occupations_critical_loss_settles_in_low_loss_region():
    n = 5
    p = params(2.0, n)
    s = make_input("noon", n)
    occ = occupations(s, p, 400.0)
    # weight concentrated at or below the chain midpoint, none beyond it wins
    assert int(np.argmax(occ)) <= n / 2
    assert occ[: n // 2 + 1].sum() > occ[n // 2 + 1 :].sum()


# ---------------------------------------------------------------------------
# traces


def test_trace_evolution_basic():
    p = params(1.0, 4)
    s = make_input("noon", 4)
    grid = np.linspace(0.0, 4.0, 41)
    tr = trace_evolution(s, p, grid)
    assert tr.occupations.shape == (41, 5)
    np.testing.assert_allclose(tr.occupations.sum(axis=1), 1.0, atol=1e-10)
    assert tr.intensity[0] == pytest.approx(1.0, abs=1e-14)
    assert np.all(tr.intensity <= 1.0 + 1e-12)
    np.testing.assert_allclose(
        tr.intensity[1:], np.exp(tr.log_intensity[1:]), rtol=1e-12
    )


def test_trace_without_occupations_reaches_deep_tail():
    p = params(2.0, 10)
    s = make_input("all_in_a", 10)
    tr = trace_evolution(s, p, np.logspace(1, 2, 50), with_occupations=False)
    assert tr.occupations is None
    assert np.isfinite(tr.log_intensity).all()


def test_trace_grid_validation():
    p = params(1.0, 3)
    s = make_input("noon", 3)
    with pytest.raises(ValueError):
        trace_evolution(s, p, [])
    with pytest.raises(ValueError):
        trace_evolution(s, p, [0.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        trace_evolution(s, p, [-1.0, 0.0])
    with pytest.raises(ValueError):
        trace_evolution(make_input("noon", 4), p, [0.0, 1.0])


def test_trace_refuses_what_the_engine_refuses():
    # the trace keeps only its own rules (non-empty, ascending); each z is
    # held to the engine's, and a zero vector is refused there too
    p = params(1.0, 3)
    s = make_input("noon", 3)
    for grid in ([-1.0, 0.0], [0.0, math.nan, 1.0], [[0.0, 1.0], [2.0, 3.0]]):
        with pytest.raises(ValueError, match="finite distances"):
            trace_evolution(s, p, grid)
    zero = InputState(amplitudes=np.zeros(4, dtype=complex), label="custom")
    for with_occupations in (True, False):
        with pytest.raises(ValueError, match="zero vector"):
            trace_evolution(zero, p, [0.0, 1.0], with_occupations)


def test_trace_past_floor_matches_reference():
    # the trace runs on past the first z with I < 1e-300, exact in log I and P
    p = params(2.0, 5)
    s = make_input("noon", 5)
    grid = np.linspace(0.0, 200.0, 11)
    tr = trace_evolution(s, p, grid)
    first = int(np.argmax(tr.log_intensity < math.log(1e-300)))
    assert 0 < first < grid.size - 1
    for k in range(first, grid.size):
        ref_li, ref_p = exact_evolve(p, s.amplitudes, grid[k])
        assert abs(tr.log_intensity[k] - ref_li) <= 1e-10
        assert np.abs(tr.occupations[k] - ref_p).max() <= 1e-10


# ---------------------------------------------------------------------------
# order extraction


def test_fit_ep_order_n5():
    p = params(2.0, 5)
    s = make_input("all_in_a", 5)
    tr = trace_evolution(s, p, np.logspace(1, 2, 200), with_occupations=False)
    fit = fit_ep_order(tr)
    assert fit.expected_slope == 10.0
    assert abs(fit.fitted_slope - 10.0) / 10.0 < 0.02
    assert fit.residual < 0.1
    assert fit.window[0] >= 10.0 and fit.window[1] <= 100.0


def chain_depth(p, amplitudes, dps=60):
    """Largest k with M^k a != 0, M = H_N - tr(H_N)/(N+1), from exact entries at dps digits.

    The entries follow build_hamiltonian's convention (hopping
    kappa sqrt((m+1)(N-m)), on-site -i Gamma (m - N/2) past the trace),
    which is checked against the library's matrix first.
    """
    n = p.n_photons
    h = build_hamiltonian(p).matrix
    shifted = h - np.trace(h) / (n + 1) * np.eye(n + 1)
    with mp.workdps(dps):
        mat = mp.matrix(n + 1, n + 1)
        for m in range(n + 1):
            mat[m, m] = -1j * mp.mpf(p.gamma) * (m - mp.mpf(n) / 2)
            if m < n:
                hop = mp.mpf(p.kappa) * mp.sqrt((m + 1) * (n - m))
                mat[m, m + 1] = mat[m + 1, m] = hop
        assert max(abs(complex(mat[i, j]) - shifted[i, j])
                   for i in range(n + 1) for j in range(n + 1)) < 1e-13
        vec = mp.matrix([mp.mpc(complex(a)) for a in amplitudes])
        depth = 0
        for k in range(1, n + 2):
            vec = mat * vec
            if mp.norm(vec) > mp.mpf(10) ** (-dps // 2):
                depth = k
        return depth


@pytest.mark.parametrize("n", [2, 3, 4, 6, 10])
def test_fit_ep_order_expects_the_chain_depth(n):
    # the growth is z^(2d): d = N - 1 for a_0 + (-i)^N a_N = 0 (noon at
    # N = 2 mod 4, |0) - |N) at N = 0 mod 4, |0) - i^N |N) at any N), else N
    p = params(2.0, n)
    states = {
        "all_in_a": make_input("all_in_a", n),
        "noon": make_input("noon", n),
        "anti_noon": make_input("custom", n, np.r_[1.0, np.zeros(n - 1), -1.0]),
        "short": make_input("custom", n, np.r_[1.0, np.zeros(n - 1), -(1j**n)]),
    }
    grid = np.logspace(1, 2, 200)
    for kind, s in states.items():
        depth = chain_depth(p, s.amplitudes)
        short = kind == "short" or (kind, n % 4) in (("noon", 2), ("anti_noon", 0))
        assert depth == (n - 1 if short else n), kind
        fit = fit_ep_order(trace_evolution(s, p, grid, with_occupations=False))
        assert fit.expected_slope == 2.0 * depth, kind
        assert abs(fit.fitted_slope - fit.expected_slope) / fit.expected_slope < 0.02, kind


def test_fit_ep_order_window_validation():
    p = params(2.0, 5)
    s = make_input("all_in_a", 5)
    short = trace_evolution(s, p, np.linspace(10.0, 30.0, 50), with_occupations=False)
    with pytest.raises(ValueError, match="decade"):
        fit_ep_order(short)


@pytest.mark.parametrize("grid", [np.logspace(0.0, 2.0, 400), np.linspace(0.5, 120.0, 400)],
                         ids=["log-1-100", "linear-0.5-120"])
def test_fit_ep_order_accepts_any_grid_covering_the_window(grid):
    # neither grid has points at exactly kappa*z = 10 and 100, and both were
    # refused as too short; only the points inside [10, 100] are fitted
    n = 5
    fit = fit_ep_order(trace_evolution(make_input("all_in_a", n), params(2.0, n), grid,
                                       with_occupations=False))
    inside = grid[(grid >= 10.0) & (grid <= 100.0)]
    assert fit.window == (inside[0], inside[-1])
    assert fit.expected_slope == 2 * n
    assert abs(fit.fitted_slope - fit.expected_slope) / fit.expected_slope < 0.02


# ---------------------------------------------------------------------------
# periodicity


def test_periodicity_lossless():
    # generic input: the occupations repeat after 2*pi/Delta_lambda = pi
    p = params(0.0, 5)
    s = make_input("all_in_a", 5)
    tr = trace_evolution(s, p, np.linspace(0.0, 8.0, 400))
    res = periodicity_check(tr)
    assert res.period_detected == pytest.approx(math.pi, abs=1e-8)
    assert res.deviation < 1e-8
    # the lossless balanced superposition is an eigenstate of the half-turn
    # about x, so its occupations genuinely repeat twice as fast; the
    # detector reports that fundamental and the deviation records the gap
    res_noon = periodicity_check(
        trace_evolution(make_input("noon", 5), p, np.linspace(0.0, 8.0, 400))
    )
    assert res_noon.period_detected == pytest.approx(math.pi / 2, abs=1e-8)
    assert res_noon.deviation == pytest.approx(math.pi / 2, abs=1e-8)


def test_periodicity_quarter_critical():
    p = params(0.5, 5)
    s = make_input("noon", 5)
    t_exact = 2.0 * math.pi / math.sqrt(4.0 - 0.25)
    tr = trace_evolution(s, p, np.linspace(0.0, 3.0 * t_exact, 400))
    res = periodicity_check(tr)
    assert res.period_detected == pytest.approx(t_exact, abs=1e-8)


def test_periodicity_nonunit_kappa():
    kappa = 0.5
    gamma = 0.25  # quarter of the critical loss
    p = BeamsplitterParams(1.0, kappa, gamma, 5)
    s = make_input("noon", 5)
    t_exact = 2.0 * math.pi / math.sqrt(4.0 * kappa**2 - gamma**2)
    tr = trace_evolution(s, p, np.linspace(0.0, 3.0 * t_exact, 400))
    res = periodicity_check(tr)
    assert res.period_detected == pytest.approx(t_exact, rel=1e-9)


@pytest.mark.parametrize(
    "kind,n,kappa,gamma,periods,expected",
    [
        ("all_in_a", 5, 1.0, 0.0, None, math.pi),
        ("noon", 5, 1.0, 0.0, None, math.pi / 2),  # half-turn symmetry, see above
        ("noon", 5, 1.0, 0.5, 3, 2.0 * math.pi / math.sqrt(3.75)),
        ("noon", 8, 1.0, 0.5, 3, 2.0 * math.pi / math.sqrt(3.75)),
        ("noon", 5, 0.5, 0.25, 3, 2.0 * math.pi / math.sqrt(0.9375)),
    ],
)
def test_periodicity_unchanged_by_batched_probes(kind, n, kappa, gamma, periods, expected):
    # the inputs of the periodicity tests above and of acceptance criterion
    # 7; the refinement lands on the exact fundamental to roundoff
    p = BeamsplitterParams(1.0, kappa, gamma, n)
    stop = 8.0 if periods is None else periods * 2.0 * math.pi / math.sqrt(
        4.0 * kappa**2 - gamma**2
    )
    tr = trace_evolution(make_input(kind, n), p, np.linspace(0.0, stop, 400))
    assert abs(periodicity_check(tr).period_detected - expected) <= 1e-12


@pytest.mark.parametrize(
    "n,start,stop,gamma",
    [(10, 0.012, 30.0, 1.0), (40, 0.0004, 10.0, 1.0), (5, 0.0, 30.0, 1.9)],
    ids=["10-0.012-30.0", "40-0.0004-10.0", "5-0.0-30.0-1.9"],
)
def test_periodicity_on_shifted_grid(n, start, stop, gamma):
    # grids that do not start at z = 0, and the decay close to the critical
    # loss, put the coarse autocorrelation peak off the period (2.4 grid
    # steps for N = 5 at 0.95 gamma_c); the refinement must still reach it
    # to roundoff
    tr = trace_evolution(make_input("noon", n), params(gamma, n), np.linspace(start, stop, 2000))
    t_exact = 2.0 * math.pi / math.sqrt(4.0 - gamma**2)
    assert periodicity_check(tr).period_detected == pytest.approx(t_exact, rel=1e-12, abs=0)


_SHIFT = np.random.default_rng(19).uniform(0.0, 1e-3)


@pytest.mark.parametrize("count", [400, 2000])
@pytest.mark.parametrize("start", [0.0, 30.0 * _SHIFT], ids=["unshifted", "shifted"])
@pytest.mark.parametrize("kind", ["noon", "all_in_a"])
@pytest.mark.parametrize("n", [10, 40, 200, 500, 1000, 2000])
def test_periodicity_never_returns_a_multiple(n, kind, start, count):
    # the autocorrelation can miss the fundamental's narrow peak, and the
    # refinement then verified a multiple: noon on 400 unshifted points gave
    # 4T at N=200 and 2T at N=500.  The grid start is shifted by up to 1e-3
    # of the span, as the benchmark shifts its grids
    t_exact = 2.0 * math.pi / math.sqrt(3.0)
    tr = trace_evolution(make_input(kind, n), params(1.0, n), np.linspace(start, 30.0, count))
    assert abs(periodicity_check(tr).period_detected - t_exact) <= 1e-12


@pytest.mark.parametrize("n, start", [(40, 0.0126), (40, 0.0191), (1000, 0.0), (2000, 0.0)])
def test_periodicity_refines_past_a_concave_sample(n, start):
    # the mismatch valley is narrower than the grid step here, so the first
    # three samples were concave and the refinement stopped as if settled;
    # no candidate then matched and these grids were refused
    t_exact = 2.0 * math.pi / math.sqrt(3.0)
    tr = trace_evolution(make_input("noon", n), params(1.0, n), np.linspace(start, 30.0, 400))
    assert abs(periodicity_check(tr).period_detected - t_exact) <= 1e-12 * t_exact


def test_periodicity_preconditions():
    s = make_input("noon", 4)
    tr = trace_evolution(s, params(2.0, 4), np.linspace(0.0, 10.0, 100))
    with pytest.raises(ValueError, match="gamma"):
        periodicity_check(tr)
    short = trace_evolution(s, params(0.5, 4), np.linspace(0.0, 2.0, 50))
    with pytest.raises(ValueError, match="periods"):
        periodicity_check(short)
    no_occ = trace_evolution(
        s, params(0.5, 4), np.linspace(0.0, 10.0, 100), with_occupations=False
    )
    with pytest.raises(ValueError, match="occupations"):
        periodicity_check(no_occ)
    nonuniform = trace_evolution(s, params(0.5, 4), np.logspace(-2, 1, 120))
    with pytest.raises(ValueError, match="uniform"):
        periodicity_check(nonuniform)


def test_periodicity_rejects_stationary_input():
    # a lossless eigenvector of the coupling never moves; there is no period
    n = 4
    ops_x = np.linalg.eigh(
        np.diag(np.sqrt((np.arange(n) + 1) * (n - np.arange(n))), 1) / 2
        + np.diag(np.sqrt((np.arange(n) + 1) * (n - np.arange(n))), -1) / 2
    )[1][:, 0]
    s = make_input("custom", n, custom=ops_x)
    tr = trace_evolution(s, params(0.0, n), np.linspace(0.0, 8.0, 200))
    with pytest.raises(ValueError, match="constant"):
        periodicity_check(tr)


def correlate_reference(sig):
    """The direct per-column autocorrelation sum the FFT form must reproduce."""
    n_z = sig.shape[0]
    n_lag = n_z // 2
    corr = np.zeros(n_lag)
    for col in sig.T:
        corr += np.correlate(col, col, mode="full")[n_z - 1 :][:n_lag]
    return corr / (n_z - np.arange(n_lag))


def candidate_peaks(corr):
    """periodicity_check's candidate lags: local maxima past the zero-lag lobe."""
    below = np.flatnonzero(corr < 0)
    if below.size == 0:
        return []
    interior = np.arange(below[0] + 1, corr.size - 1)
    is_max = (corr[interior] >= corr[interior - 1]) & (corr[interior] >= corr[interior + 1])
    return interior[is_max & (corr[interior] > 0)].tolist()


@pytest.mark.parametrize(
    "n,gamma", [(1, 0.0), (1, 1.0), (1, 1.9), (10, 0.0), (10, 1.0), (10, 1.9), (40, 0.0), (40, 1.0)]
)
def test_autocorrelation_matches_direct_sum(n, gamma):
    # the FFT sums in another order, so the tolerance is set from the dtype
    # beforehand; the candidate lags that periodicity_check refines must
    # not change
    rng = np.random.default_rng(1000 * n + int(10 * gamma))
    span = 10.0 if n == 40 else 30.0
    grid = np.linspace(rng.uniform(0.0, 0.1), span * rng.uniform(0.8, 1.0), 2000)
    tr = trace_evolution(make_input("noon", n), params(gamma, n), grid)
    sig = tr.occupations - tr.occupations.mean(axis=0)
    want = correlate_reference(sig)
    got = _autocorrelation(sig)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    if (n, gamma) == (1, 0.0):
        # noon at N=1 without loss is an eigenstate: P = 1/2 at every z, so
        # sig is roundoff and its peaks mean nothing; the check refuses it
        with pytest.raises(ValueError, match="constant"):
            periodicity_check(tr)
    else:
        assert candidate_peaks(got) == candidate_peaks(want)


def test_occupations_exactly_periodic_below_threshold():
    # the spectrum is an equidistant real ladder on a common decay, so the
    # normalized occupations repeat exactly after 2*pi/Delta_lambda
    p = params(0.5, 5)
    s = make_input("noon", 5)
    t_exact = 2.0 * math.pi / math.sqrt(4.0 - 0.25)
    for z in (0.3, 1.1, 2.9):
        a = occupations(s, p, z)
        b = occupations(s, p, z + t_exact)
        assert np.abs(a - b).max() < 1e-8


@pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 2.4])
def test_intensity_is_the_trace_value(gamma):
    # one expression reads I off log I: clamped at 1 (at Gamma = 0 log I
    # rounds above 0 at about half the z) and 0.0 below the double range
    z = np.linspace(0.0, 30.0, 200)
    for n in (1, 5, 10, 40):
        p = params(gamma, n)
        for kind in ("noon", "all_in_a", "all_in_b"):
            s = make_input(kind, n)
            for zk in z.tolist():
                got, log_i = intensity_at(s, p, zk)
                want = np.exp(min(log_i, 0.0)) if log_i > -745.0 else 0.0
                assert got == want and got <= 1.0, (n, kind, zk, got, want)


# ---------------------------------------------------------------------------
# steady state


def test_steady_state_onset_broken_regime():
    p = params(2.4, 5)
    s = make_input("noon", 5)
    onset = steady_state_onset(s, p, z_max=40.0)
    assert onset is not None
    assert 5.0 < onset < 15.0


def test_steady_state_onset_critical_loss():
    p = params(2.0, 5)
    s = make_input("noon", 5)
    onset = steady_state_onset(s, p, z_max=900.0, dz=1.0)
    assert onset is not None
    # algebraic approach: late but reached
    assert onset > 100.0


def test_steady_state_onset_not_reached():
    p = params(2.0, 5)
    s = make_input("noon", 5)
    assert steady_state_onset(s, p, z_max=10.0) is None


@pytest.mark.parametrize("kappa", [1.0, 0.7])
def test_steady_state_onset_evaluates_each_z_once(monkeypatch, kappa):
    # each batch asks for exactly the z the scalar scan evaluates for its
    # steps, the steps and the steps + 1/kappa, and for each only once; at
    # kappa = 1 with dz = 0.5, z + 1 is bit for bit the step two places
    # later, so a 256-step batch needs 258 z, not 512
    p = params(2.0 * kappa, 5, kappa=kappa)
    s = make_input("noon", 5)
    want = scalar_onset(s, p, 1000.0 / kappa)
    requested = []

    def recording(p, amplitudes, z):
        requested.append(np.array(z))
        return evolve_grid(p, amplitudes, z)

    monkeypatch.setattr(observables, "evolve_grid", recording)
    assert steady_state_onset(s, p, z_max=1000.0 / kappa) == want
    steps, z = [], 0.0
    while len(steps) < 256 * len(requested):
        steps.append(z)
        z += 0.5 / kappa
    for i, asked in enumerate(requested):
        chunk = steps[256 * i : 256 * (i + 1)]
        expected = set(chunk) | {x + 1.0 / kappa for x in chunk}
        assert asked.size == len(expected)
        assert set(asked.tolist()) == expected
        if kappa == 1.0:
            assert asked.size == 258


def scalar_onset(state, p, z_max, dz=None):
    """The point-by-point scan the batched steady_state_onset must reproduce."""
    dz = 0.5 / p.kappa if dz is None else dz
    gap = 1.0 / p.kappa
    z = 0.0
    while z <= z_max:
        here = occupations(state, p, z)
        ahead = occupations(state, p, z + gap)
        if np.abs(here - ahead).max() < STEADY_THRESHOLD:
            return z
        z += dz
    return None


ONSET_SCANS = [
    (2.0, 900.0, 1.0, 1.0), (2.4, 900.0, 1.0, 1.0), (2.0, 900.0, None, 1.0),
    (2.4, 40.0, None, 1.0), (2.4, 40.0, 0.1, 1.0), (2.0, 10.0, 0.1, 1.0),
    # dz = 0.5/0.7 and 1/0.7 are not binary fractions: z + 1/kappa is bit
    # for bit a step only where the roundings agree (421 of 2099 steps)
    (1.4, 1500.0, None, 0.7),
]


@pytest.mark.parametrize(
    "gamma,z_max,dz,kappa",
    ONSET_SCANS,
    ids=[f"{g}-{zm}-{d}" + ("" if k == 1.0 else f"-kappa{k}") for g, zm, d, k in ONSET_SCANS],
)
def test_steady_state_onset_matches_scalar_scan(gamma, z_max, dz, kappa):
    # same z sequence (accumulated dz, not a binary fraction for 0.1), same
    # answer to the bit, including None when the criterion is never met
    p = params(gamma, 5, kappa=kappa)
    s = make_input("noon", 5)
    got = steady_state_onset(s, p, z_max=z_max, dz=dz)
    want = scalar_onset(s, p, z_max, dz)
    assert got == want
    if (gamma, dz) in ((2.0, 1.0), (2.4, 1.0)):
        assert got == {2.0: 685.0, 2.4: 10.0}[gamma]


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_steady_state_onset_refuses_unbroken_regime(gamma):
    # below threshold the profile oscillates forever, so a scan to 1e300
    # would not end; the call returns at once whatever z_max is
    s = make_input("noon", 5)
    for z_max in (10.0, 1e300):
        started = time.perf_counter()
        with pytest.raises(ValueError, match="below threshold"):
            steady_state_onset(s, params(gamma, 5), z_max=z_max)
        assert time.perf_counter() - started < 1.0


def test_steady_state_onset_validation():
    p = params(2.0, 5)
    s = make_input("noon", 5)
    with pytest.raises(ValueError):
        steady_state_onset(s, p, z_max=-1.0)
    with pytest.raises(ValueError):
        steady_state_onset(s, p, z_max=10.0, dz=0.0)
    # z_max = inf below threshold would scan forever; nan would return None
    below = params(1.0, 5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            steady_state_onset(s, below, z_max=bad)
        with pytest.raises(ValueError):
            steady_state_onset(s, below, z_max=10.0, dz=bad)


# ---------------------------------------------------------------------------
# cross-path equivalence of observables


@pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 2.6])
def test_observables_equal_matrix_exp_oracle(gamma):
    p = params(gamma, 5)
    s = make_input("noon", 5)
    h = build_hamiltonian(p)
    for z in np.linspace(0.1, 5.0, 17):
        v = matrix_exp_oracle(h, float(z)).matrix @ s.amplitudes
        i_ref = float(np.linalg.norm(v) ** 2)
        occ_ref = np.abs(v) ** 2 / np.linalg.norm(v) ** 2
        assert abs(intensity_at(s, p, float(z))[0] - i_ref) < 1e-8
        assert np.abs(occupations(s, p, float(z)) - occ_ref).max() < 1e-8
