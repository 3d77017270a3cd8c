import numpy as np
import pytest

from epbs.fock_core import (
    BeamsplitterParams,
    basis_labels,
    build_hamiltonian,
    build_operators,
    detection_outcome_count,
    lattice_matrix,
    lattice_view,
    subspace_dimension,
)


def two_mode_subspace_operators(n):
    """Brute-force oracle: build a, b on the full two-mode Fock space and
    project onto the fixed-total-photon basis |N-m, m>, m ascending."""
    dim1 = n + 1
    a1 = np.diag(np.sqrt(np.arange(1, dim1)), k=1)  # annihilation, one mode
    eye = np.eye(dim1)
    a = np.kron(a1, eye)
    b = np.kron(eye, a1)
    # column selector for |N-m>_a |m>_b
    cols = [(n - m) * dim1 + m for m in range(n + 1)]
    proj = np.zeros((n + 1, dim1 * dim1))
    for row, col in enumerate(cols):
        proj[row, col] = 1.0

    def sub(op):
        return proj @ op @ proj.T

    j_x = sub((a.conj().T @ b + a @ b.conj().T) / 2)
    j_y = sub(1j * (a.conj().T @ b - a @ b.conj().T) / 2)
    j_z = sub((b.conj().T @ b - a.conj().T @ a) / 2)
    j_plus = sub(a @ b.conj().T)
    number = sub(a.conj().T @ a + b.conj().T @ b)
    return j_x, j_y, j_z, j_plus, number


def test_counts_and_labels():
    assert subspace_dimension(4) == 5
    assert detection_outcome_count(1) == 3
    assert detection_outcome_count(4) == 15
    assert basis_labels(2) == ["|2,0>", "|1,1>", "|0,2>"]


def test_params_validation():
    with pytest.raises(ValueError):
        BeamsplitterParams(1.0, 0.0, 0.0, 2)
    with pytest.raises(ValueError):
        BeamsplitterParams(1.0, -1.0, 0.0, 2)
    with pytest.raises(ValueError):
        BeamsplitterParams(1.0, 1.0, -0.1, 2)
    with pytest.raises(ValueError):
        BeamsplitterParams(1.0, 1.0, 0.0, 0)
    p = BeamsplitterParams(1.0, 0.7, 0.3, 3)
    assert p.gamma_critical == pytest.approx(1.4)
    assert p.spin == 1.5
    assert p.dim == 4


def test_build_operators_rejects_bad_photon_number():
    for bad in (0, -3):
        with pytest.raises(ValueError):
            build_operators(bad)


@pytest.mark.parametrize("field", ["omega0", "kappa", "gamma"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_params_reject_non_finite_rates(field, value):
    # NaN passed the sign checks and gave NaN eigenvalues labelled "broken"
    kwargs = {"omega0": 1.0, "kappa": 1.0, "gamma": 1.0, "n_photons": 4, field: value}
    with pytest.raises(ValueError, match=f"{field}: must be finite"):
        BeamsplitterParams(**kwargs)


@pytest.mark.parametrize("n", [4.0, True, np.float64(4.0), "4", None])
def test_photon_number_must_be_an_integer(n):
    # a float N made every trace raise TypeError; True passed as N = 1
    with pytest.raises(ValueError, match="n_photons: must be an integer >= 1"):
        BeamsplitterParams(1.0, 1.0, 1.0, n)
    with pytest.raises(ValueError, match="n_photons: must be an integer >= 1"):
        build_operators(n)


def test_numpy_integer_photon_number_accepted():
    p = BeamsplitterParams(1.0, 1.0, 1.0, np.int64(4))
    assert p.dim == 5 and build_operators(np.int32(4)).dim == 5


def test_params_report_every_fault_at_once():
    with pytest.raises(ValueError) as err:
        BeamsplitterParams(np.nan, -1.0, -0.5, 0)
    assert str(err.value).split("; ") == [
        "omega0: must be finite",
        "kappa: kappa must be positive, got -1.0",
        "gamma: gamma must be non-negative, got -0.5",
        "n_photons: must be an integer >= 1, got 0",
    ]


def test_spin_half_matrices():
    ops = build_operators(1)
    np.testing.assert_allclose(ops.j_x, [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)
    np.testing.assert_allclose(ops.j_z, np.diag([-0.5, 0.5]), atol=1e-15)
    np.testing.assert_allclose(ops.j_y, [[0.0, 0.5j], [-0.5j, 0.0]], atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_operators_match_two_mode_fock_oracle(n):
    ops = build_operators(n)
    j_x, j_y, j_z, j_plus, number = two_mode_subspace_operators(n)
    np.testing.assert_allclose(ops.j_x, j_x, atol=1e-13)
    np.testing.assert_allclose(ops.j_y, j_y, atol=1e-13)
    np.testing.assert_allclose(ops.j_z, j_z, atol=1e-13)
    np.testing.assert_allclose(ops.j_plus, j_plus, atol=1e-13)
    # the total photon number acts as the scalar N on this subspace
    np.testing.assert_allclose(number, n * np.eye(n + 1), atol=1e-13)
    assert ops.number_op_scalar == n


def test_two_photon_example_values():
    ops = build_operators(2)
    off = np.diagonal(ops.j_x, offset=1).real
    np.testing.assert_allclose(off, [np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-15)
    np.testing.assert_allclose(np.diag(ops.j_z).real, [-1.0, 0.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("n", range(1, 13))
def test_angular_momentum_algebra(n):
    ops = build_operators(n)

    def comm(a, b):
        return a @ b - b @ a

    assert np.abs(comm(ops.j_z, ops.j_x) - 1j * ops.j_y).max() < 1e-12
    assert np.abs(comm(ops.j_x, ops.j_y) - 1j * ops.j_z).max() < 1e-12
    assert np.abs(comm(ops.j_y, ops.j_z) - 1j * ops.j_x).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_hermiticity_and_ladder_structure(n):
    ops = build_operators(n)
    for j in (ops.j_x, ops.j_y, ops.j_z):
        assert np.abs(j - j.conj().T).max() < 1e-15
    assert np.abs(ops.j_plus - ops.j_minus.conj().T).max() == 0.0
    # strictly triangular ladders: the (N+1)-th power is the exact zero matrix
    assert np.count_nonzero(np.triu(ops.j_plus)) == 0
    power = np.eye(n + 1, dtype=complex)
    for _ in range(n + 1):
        power = power @ ops.j_plus
    assert np.count_nonzero(power) == 0


def test_jz_diagonal_unit_steps():
    ops = build_operators(6)
    diag = np.diag(ops.j_z).real
    np.testing.assert_allclose(diag, np.arange(7) - 3.0, atol=0)
    assert np.abs(ops.j_z - np.diag(np.diag(ops.j_z))).max() == 0.0


def test_hamiltonian_hand_values():
    h0 = build_hamiltonian(BeamsplitterParams(1.0, 1.0, 0.0, 1))
    np.testing.assert_allclose(h0.matrix, [[1.0, 1.0], [1.0, 1.0]], atol=1e-15)
    h2 = build_hamiltonian(BeamsplitterParams(1.0, 1.0, 2.0, 1))
    np.testing.assert_allclose(h2.matrix, [[1.0, 1.0], [1.0, 1.0 - 2.0j]], atol=1e-14)


@pytest.mark.parametrize("n,gamma", [(1, 0.0), (3, 1.2), (6, 2.0), (9, 3.7)])
def test_hamiltonian_structure(n, gamma):
    params = BeamsplitterParams(1.3, 0.8, gamma, n)
    h = build_hamiltonian(params).matrix
    # tridiagonal for every parameter value
    off = np.triu(np.abs(h), k=2)
    assert off.max() == 0.0
    # hopping between m and m+1 is kappa*sqrt((m+1)(N-m))
    m = np.arange(n)
    np.testing.assert_allclose(
        np.diagonal(h, offset=1), 0.8 * np.sqrt((m + 1) * (n - m)), atol=1e-14
    )
    np.testing.assert_allclose(np.diagonal(h, offset=1), np.diagonal(h, offset=-1))
    # on-site: omega0*N - i*gamma*m
    np.testing.assert_allclose(
        np.diag(h), 1.3 * n - 1j * gamma * np.arange(n + 1), atol=1e-13
    )


def test_hamiltonian_equals_operator_combination():
    params = BeamsplitterParams(0.9, 1.1, 1.7, 5)
    ops = build_operators(5)
    expected = (
        (params.omega0 - 0.5j * params.gamma) * 5 * np.eye(6)
        + 2 * params.kappa * ops.j_x
        - 1j * params.gamma * ops.j_z
    )
    assert np.abs(build_hamiltonian(params).matrix - expected).max() < 1e-14


@pytest.mark.parametrize("n", [1, 4, 10])
def test_lossless_hamiltonian_is_hermitian_with_equidistant_spectrum(n):
    params = BeamsplitterParams(1.0, 1.0, 0.0, n)
    h = build_hamiltonian(params).matrix
    assert np.abs(h - h.conj().T).max() < 1e-14
    # perfect-state-transfer chain: eigenvalues omega0*N + 2*kappa*r
    vals = np.sort(np.linalg.eigvalsh(h.real))
    expected = 1.0 * n + 2.0 * (np.arange(n + 1) - n / 2.0)
    np.testing.assert_allclose(vals, expected, atol=1e-10)


def test_lattice_view_example_and_roundtrip():
    h = build_hamiltonian(BeamsplitterParams(1.0, 1.0, 0.0, 2))
    sites = lattice_view(h)
    assert [s.site for s in sites] == [0, 1, 2]
    np.testing.assert_allclose([s.hop_to_next for s in sites], [np.sqrt(2), np.sqrt(2), 0.0])
    np.testing.assert_allclose([s.onsite for s in sites], [2.0, 2.0, 2.0])
    assert np.array_equal(lattice_matrix(sites), h.matrix)


def test_lattice_onsite_loss_ramp_linear():
    h = build_hamiltonian(BeamsplitterParams(1.0, 1.0, 2.0, 4))
    sites = lattice_view(h)
    imag = np.array([s.onsite.imag for s in sites])
    # strictly decreasing, linear in m with slope -gamma
    np.testing.assert_allclose(np.diff(imag), -2.0, atol=1e-14)
    assert np.array_equal(lattice_matrix(sites), h.matrix)


def test_operator_arrays_are_read_only():
    ops = build_operators(3)
    with pytest.raises(ValueError):
        ops.j_x[0, 0] = 5.0
    h = build_hamiltonian(BeamsplitterParams(1.0, 1.0, 1.0, 3))
    with pytest.raises(ValueError):
        h.matrix[0, 0] = 5.0
