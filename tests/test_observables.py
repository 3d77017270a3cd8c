import math

import mpmath as mp
import numpy as np
import pytest

from epbs.errors import IntensityUnderflowError
from epbs.fock_core import BeamsplitterParams, build_hamiltonian, build_operators
from epbs.observables import (
    STEADY_THRESHOLD,
    fit_ep_order,
    intensity,
    make_input,
    occupations,
    periodicity_check,
    steady_state_onset,
    trace_evolution,
)
from epbs.propagator import matrix_exp_oracle


def params(gamma, n, omega0=1.0, kappa=1.0):
    return BeamsplitterParams(omega0, kappa, gamma, n)


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


def test_input_amplitudes_read_only():
    s = make_input("noon", 4)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 9.0


# ---------------------------------------------------------------------------
# intensity


def test_intensity_initial_and_lossless():
    s = make_input("all_in_a", 5)
    val = intensity(s, params(1.0, 5), 0.0)
    assert val.value == pytest.approx(1.0, abs=1e-14)
    assert val.log_value == pytest.approx(0.0, abs=1e-14)
    for z in (0.7, 3.9, 40.0):
        val = intensity(s, params(0.0, 5), z)
        assert val.value == pytest.approx(1.0, abs=1e-12)


def test_intensity_log_value_survives_underflow():
    s = make_input("all_in_a", 10)
    val = intensity(s, params(2.0, 10), 100.0)
    assert val.value == 0.0
    assert -1950.0 < val.log_value < -1850.0


@pytest.mark.parametrize("gamma", [0.0, 0.9, 2.0, 2.8])
def test_intensity_matches_matrix_exp(gamma):
    p = params(gamma, 6)
    s = make_input("noon", 6)
    h = build_hamiltonian(p)
    for z in (0.3, 1.4, 3.8):
        expected = np.linalg.norm(matrix_exp_oracle(h, z).matrix @ s.amplitudes) ** 2
        assert intensity(s, p, z).value == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("z", [20.0, 60.0])
def test_intensity_deep_tail_vs_high_precision(z):
    # the matrix exponential is no longer trustworthy out here; compare the
    # factored log-intensity against an exact high-precision evaluation
    n = 5
    s = make_input("all_in_a", n)
    got = intensity(s, params(2.0, n), z).log_value
    want = mp_log_intensity_critical(n, 2.0, z, s.amplitudes)
    assert got == pytest.approx(want, abs=1e-9)


def test_intensity_bounded_by_one():
    for gamma in (0.0, 0.5, 2.0, 3.0):
        p = params(gamma, 4)
        s = make_input("noon", 4)
        for z in np.linspace(0.0, 6.0, 25):
            assert intensity(s, p, float(z)).value <= 1.0 + 1e-12


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


def test_occupations_underflow_error_and_override():
    p = params(2.0, 5)
    s = make_input("noon", 5)
    with pytest.raises(IntensityUnderflowError):
        occupations(s, p, 200.0)
    occ = occupations(s, p, 200.0, enforce_floor=False)
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
    occ = occupations(s, p, 400.0, enforce_floor=False)
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
    assert len(tr.methods) == 41


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


def test_trace_underflow_raises_with_occupations():
    p = params(2.0, 5)
    s = make_input("noon", 5)
    with pytest.raises(IntensityUnderflowError):
        trace_evolution(s, p, np.linspace(0.0, 200.0, 11))


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


def test_fit_ep_order_window_validation():
    p = params(2.0, 5)
    s = make_input("all_in_a", 5)
    tr = trace_evolution(s, p, np.logspace(1, 2, 200), with_occupations=False)
    with pytest.raises(ValueError):
        fit_ep_order(tr, window_kz=(5.0, 100.0))
    short = trace_evolution(s, p, np.linspace(10.0, 30.0, 50), with_occupations=False)
    with pytest.raises(ValueError, match="decade"):
        fit_ep_order(short)


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
        ("all_in_a", 5, 1.0, 0.0, None, 3.141592652996599),
        ("noon", 5, 1.0, 0.0, None, 1.5707963268587923),
        ("noon", 5, 1.0, 0.5, 3, 3.2446229408574183),
        ("noon", 8, 1.0, 0.5, 3, 3.2446229408436986),
        ("noon", 5, 0.5, 0.25, 3, 6.489245881714837),
    ],
)
def test_periodicity_unchanged_by_batched_probes(kind, n, kappa, gamma, periods, expected):
    # periods detected by the former point-by-point probe evaluation on the
    # inputs of the periodicity tests above and of acceptance criterion 7
    p = BeamsplitterParams(1.0, kappa, gamma, n)
    stop = 8.0 if periods is None else periods * 2.0 * math.pi / math.sqrt(
        4.0 * kappa**2 - gamma**2
    )
    tr = trace_evolution(make_input(kind, n), p, np.linspace(0.0, stop, 400))
    assert abs(periodicity_check(tr).period_detected - expected) <= 1e-12


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


def scalar_onset(state, p, z_max, dz=None):
    """The point-by-point scan the batched steady_state_onset must reproduce."""
    dz = 0.5 / p.kappa if dz is None else dz
    gap = 1.0 / p.kappa
    z = 0.0
    while z <= z_max:
        here = occupations(state, p, z, enforce_floor=False)
        ahead = occupations(state, p, z + gap, enforce_floor=False)
        if np.abs(here - ahead).max() < STEADY_THRESHOLD:
            return z
        z += dz
    return None


@pytest.mark.parametrize(
    "gamma,z_max,dz",
    [(2.0, 900.0, 1.0), (2.4, 900.0, 1.0), (2.0, 900.0, None), (2.4, 40.0, None),
     (2.4, 40.0, 0.1), (2.0, 10.0, 0.1)],
)
def test_steady_state_onset_matches_scalar_scan(gamma, z_max, dz):
    # same z sequence (accumulated dz, not a binary fraction for 0.1), same
    # answer to the bit, including None when the criterion is never met
    p = params(gamma, 5)
    s = make_input("noon", 5)
    got = steady_state_onset(s, p, z_max=z_max, dz=dz)
    want = scalar_onset(s, p, z_max, dz)
    assert got == want
    if (gamma, dz) in ((2.0, 1.0), (2.4, 1.0)):
        assert got == {2.0: 685.0, 2.4: 10.0}[gamma]


def test_steady_state_onset_validation():
    p = params(2.0, 5)
    s = make_input("noon", 5)
    with pytest.raises(ValueError):
        steady_state_onset(s, p, z_max=-1.0)
    with pytest.raises(ValueError):
        steady_state_onset(s, p, z_max=10.0, dz=0.0)


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
        assert abs(intensity(s, p, float(z)).value - i_ref) < 1e-8
        assert np.abs(occupations(s, p, float(z)) - occ_ref).max() < 1e-8
