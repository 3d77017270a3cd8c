import mpmath as mp
import numpy as np
import pytest
import scipy.linalg

from epbs.fock_core import BeamsplitterParams, build_hamiltonian
from epbs.spectral import (
    analytic_spectrum,
    certify_ep,
    classify_regime,
    delta_lambda,
    eigenvalue_flow,
    numeric_spectrum,
    slow_decay,
)
from oracles import pairing_distance


def params(gamma, n, omega0=1.0, kappa=1.0):
    return BeamsplitterParams(omega0, kappa, gamma, n)


def test_delta_lambda_branches():
    assert delta_lambda(1.0, 0.0) == 2.0
    assert delta_lambda(1.0, 2.0) == 0.0
    above = delta_lambda(1.0, 4.0)
    assert above.real == 0.0
    assert above.imag == pytest.approx(np.sqrt(12.0))
    below = delta_lambda(1.0, 1.0)
    assert below.imag == 0.0 and below.real == pytest.approx(np.sqrt(3.0))


def test_analytic_examples_n4():
    s0 = analytic_spectrum(params(0.0, 4))
    np.testing.assert_allclose(s0.eigenvalues, [0.0, 2.0, 4.0, 6.0, 8.0], atol=1e-14)
    assert s0.regime == "unbroken"

    s_ep = analytic_spectrum(params(2.0, 4))
    np.testing.assert_allclose(s_ep.eigenvalues, np.full(5, 4.0 - 4.0j), atol=1e-14)
    assert s_ep.regime == "exceptional"
    assert s_ep.delta_lambda == 0.0

    s_b = analytic_spectrum(params(4.0, 4))
    assert np.all(s_b.eigenvalues.real == 4.0)
    imag = s_b.eigenvalues.imag
    np.testing.assert_allclose(np.diff(imag), np.sqrt(12.0), atol=1e-14)
    assert imag.mean() == pytest.approx(-8.0)
    assert s_b.regime == "broken"


@pytest.mark.parametrize("gamma", [0.0, 0.7, 2.0, 3.3])
def test_spectrum_ladder_construction(gamma):
    p = params(gamma, 6, omega0=0.4, kappa=0.9)
    s = analytic_spectrum(p)
    r = np.arange(7) - 3.0
    expected = (0.4 - 0.5j * gamma) * 6 + r * s.delta_lambda
    if gamma > 1.8:
        # above Gamma_c the imaginary parts are formed from the slow end, without cancellation
        expected.imag = -3.0 * slow_decay(0.9, gamma) - (3.0 - r) * s.delta_lambda.imag
    assert np.abs(s.eigenvalues - expected).max() == 0.0
    assert s.gamma_critical == pytest.approx(1.8)
    if gamma < 1.8:
        np.testing.assert_allclose(s.eigenvalues.imag, -gamma * 3.0, atol=1e-14)
    if gamma > 1.8:
        assert np.all(s.eigenvalues.real == 0.4 * 6)


def test_regime_classification_monotone_and_tolerant():
    assert classify_regime(1.0, 1.999999) == "unbroken"
    assert classify_regime(1.0, 2.0) == "exceptional"
    assert classify_regime(1.0, 2.0 * (1 + 1e-10)) == "broken"
    assert classify_regime(1.0, 2.000001) == "broken"
    gammas = np.linspace(0.0, 4.0, 400)
    labels = [classify_regime(1.0, g) for g in gammas]
    first_broken = labels.index("broken")
    assert all(lab == "unbroken" for lab in labels[:first_broken])
    assert all(lab == "broken" for lab in labels[first_broken:])


@pytest.mark.parametrize("kappa", [1.0, 0.3, 1.7, 123.456, 1e-3])
def test_regime_label_agrees_with_certificate(kappa):
    # the label is "exceptional" exactly where certify_ep passes, even one ulp away
    gc = 2.0 * kappa
    gammas = [gc, np.nextafter(gc, 0.0), np.nextafter(gc, np.inf),
              gc * (1 - 1e-12), gc * (1 + 1e-12)]
    for gamma in gammas:
        cert = certify_ep(build_hamiltonian(BeamsplitterParams(1.0, kappa, gamma, 3)))
        label = classify_regime(kappa, gamma)
        assert (label == "exceptional") == cert.passed
        assert label == ("exceptional" if gamma == gc else "unbroken" if gamma < gc else "broken")


def test_numeric_spectrum_hand_case():
    vals = numeric_spectrum(build_hamiltonian(params(0.0, 1)))
    np.testing.assert_allclose(vals, [0.0, 2.0], atol=1e-14)


def test_numeric_spectrum_sorted_lexicographically():
    vals = numeric_spectrum(build_hamiltonian(params(1.0, 5)))
    keys = [(v.real, v.imag) for v in vals]
    assert keys == sorted(keys)


_ORACLE_GRID = [
    (n, g) for n in range(1, 11) for g in (0.0, 0.5, 1.0, 1.5, 1.9, 2.5, 3.0)
]


def _eig_condition_max(h: np.ndarray) -> float:
    """max_r ||y_r|| ||x_r|| / |y_r^H x_r|, left and right eigenvectors y_r, x_r of h."""
    _, left, right = scipy.linalg.eig(h, left=True, right=True)
    overlap = np.abs(np.einsum("ij,ij->j", left.conj(), right))
    return float((np.linalg.norm(left, axis=0) * np.linalg.norm(right, axis=0) / overlap).max())


@pytest.mark.parametrize("n,gamma", _ORACLE_GRID)
def test_numeric_matches_analytic(n, gamma):
    p = params(gamma, n)
    h = build_hamiltonian(p)
    d = pairing_distance(numeric_spectrum(h), analytic_spectrum(p).eigenvalues)
    if (n, gamma) == (10, 1.9):
        # close to the degeneracy at gamma = 2 kappa the dense solver's error is
        # set by eigenvalue conditioning: d = 1.28e-7 here, within the first-order
        # bound 16 kappa_max eps ||H||_2 = 1.88e-6 (kappa_max = 2.22e7)
        matrix = np.asarray(h.matrix)
        eps = np.finfo(float).eps
        assert d <= 16.0 * _eig_condition_max(matrix) * eps * np.linalg.norm(matrix, 2)
    else:
        assert d < 1e-8


def test_numeric_near_degeneracy_loose():
    p = params(2.0, 4)
    d = pairing_distance(
        numeric_spectrum(build_hamiltonian(p)), analytic_spectrum(p).eigenvalues
    )
    assert d < 1e-2


@pytest.mark.parametrize("n,gamma", [(3, 0.0), (5, 1.3), (8, 2.0), (10, 3.1)])
def test_trace_identity(n, gamma):
    p = params(gamma, n, omega0=0.7, kappa=1.2)
    vals = numeric_spectrum(build_hamiltonian(p))
    expected = (0.7 - 0.5j * gamma) * n * (n + 1)
    assert abs(vals.sum() - expected) < 1e-10


def test_eigenvalue_flow_examples():
    flow = eigenvalue_flow(1.0, 1.0, 4, [0.0, 1.0, 2.0, 3.0])
    assert flow.eigenvalues.shape == (4, 5)
    # gamma = 0: all imaginary parts zero
    np.testing.assert_allclose(flow.eigenvalues[0].imag, 0.0, atol=1e-14)
    # below threshold: common imaginary part -gamma*N/2
    np.testing.assert_allclose(flow.eigenvalues[1].imag, -2.0, atol=1e-14)
    # at and above threshold: real parts pinned at omega0*N
    assert np.all(flow.eigenvalues[2].real == 4.0)
    assert np.all(flow.eigenvalues[3].real == 4.0)


@pytest.mark.parametrize("ratio", [10.0, 1e3, 1e6])
def test_slow_end_of_the_ladder_keeps_its_digits(ratio):
    # -Gamma N/2 + r Im Delta_lambda cancelled at the slow end: 1.3e-10 relative
    # at 1e3 Gamma_c and 1.3e-4 at 1e6 Gamma_c against 50 digits
    n, kappa = 10, 1.0
    gamma = ratio * 2.0 * kappa
    got = eigenvalue_flow(1.0, kappa, n, [gamma]).eigenvalues[0].imag
    with mp.workdps(50):
        g = mp.mpf(gamma)
        root = mp.sqrt(g * g - 4 * mp.mpf(kappa) ** 2)
        want = np.array([float(-g * n / 2 + (k - mp.mpf(n) / 2) * root) for k in range(n + 1)])
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_eigenvalue_flow_rejects_bad_grid():
    with pytest.raises(ValueError):
        eigenvalue_flow(1.0, 1.0, 4, [])
    with pytest.raises(ValueError):
        eigenvalue_flow(1.0, 1.0, 4, [-0.5, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eigenvalue_flow_rejects_non_finite_grid(bad):
    # a NaN gamma gave a row of NaN eigenvalues
    with pytest.raises(ValueError, match="finite"):
        eigenvalue_flow(1.0, 1.0, 4, [0.0, bad, 1.0])


@pytest.mark.parametrize("omega0, kappa, n", [(1.0, 1.0, 10), (-0.3, 0.7, 1), (5.1, 2.3, 40)])
def test_eigenvalue_flow_matches_per_gamma_ladder(omega0, kappa, n):
    # the closed form evaluated one gamma at a time in Python complex arithmetic,
    # above Gamma_c with Im lambda_r = -(N/2) slow_decay - (N/2 - r) Im Delta_lambda
    gammas = np.concatenate([np.linspace(0.0, 4.0 * kappa, 200), [2.0 * kappa]])
    r = np.arange(n + 1) - n / 2.0
    want = []
    for g in gammas.tolist():
        dl = complex(np.sqrt(complex(4.0 * kappa * kappa - g * g)))
        row = (omega0 - 0.5j * g) * n + r * dl
        if dl.imag > 0.0:
            row.imag = -0.5 * n * slow_decay(kappa, g) - (0.5 * n - r) * dl.imag
        want.append(row)
    want = np.array(want)
    got = eigenvalue_flow(omega0, kappa, n, gammas).eigenvalues
    assert np.array_equal(got.view(float), want.view(float))
    assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


@pytest.mark.parametrize("n", range(1, 11))
def test_certificate_passes_at_critical_loss(n):
    cert = certify_ep(build_hamiltonian(params(2.0, n)))
    assert cert.order == n + 1
    assert cert.shift == (1.0 - 1.0j) * n
    assert len(cert.nilpotency_ratios) == n + 1
    assert cert.passed
    assert cert.nilpotency_ratios[n] < 1e-8
    assert cert.nilpotency_ratios[n - 1] > 1e-4


@pytest.mark.parametrize("n", [1, 10, 80, 100, 200])
def test_certificate_is_exact_at_any_n(n):
    # the powers overflowed at N >= 100, and the ratio test failed from N = 80
    cert = certify_ep(build_hamiltonian(params(2.0, n)))
    assert cert.passed and np.isfinite(cert.nilpotency_ratios).all()
    # one ulp off the critical loss the EP is gone
    assert not certify_ep(build_hamiltonian(params(np.nextafter(2.0, 3.0), n))).passed


def test_certificate_kappa_scale_free():
    # same normalized ratios for rescaled kappa (and gamma = 2*kappa); the
    # final ratio is pure roundoff, so it is only bounded, not compared
    c1 = certify_ep(build_hamiltonian(params(2.0, 5)))
    c2 = certify_ep(build_hamiltonian(BeamsplitterParams(1.0, 17.0, 34.0, 5)))
    np.testing.assert_allclose(
        c1.nilpotency_ratios[:-1], c2.nilpotency_ratios[:-1], rtol=1e-10
    )
    assert c1.nilpotency_ratios[-1] < 1e-12 and c2.nilpotency_ratios[-1] < 1e-12


def test_certificate_fails_off_critical():
    cert = certify_ep(build_hamiltonian(params(1.0, 4)))
    assert not cert.passed
    assert cert.gamma == 1.0


def test_certificate_n1_exact_nilpotent():
    cert = certify_ep(build_hamiltonian(params(2.0, 1)))
    # the 2x2 shifted matrix squares to zero at machine precision
    assert cert.nilpotency_ratios[1] < 1e-15


def test_pairing_distance_mismatched_sizes():
    with pytest.raises(ValueError):
        pairing_distance(np.array([1.0]), np.array([1.0, 2.0]))
