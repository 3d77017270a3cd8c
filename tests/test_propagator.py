import math
from dataclasses import replace

import numpy as np
import pytest

from epbs.errors import OverflowGuardError, PoleProximityError, PrecisionError
from epbs.fock_core import BeamsplitterParams, build_hamiltonian, build_operators
from epbs.propagator import (
    METHOD,
    assemble_propagator,
    ep_limit_params,
    evolution_operator,
    evolve_state,
    first_pole,
    wei_norman_params,
)
from epbs.spectral import delta_lambda
from oracles import RiccatiBlowupError, matrix_exp_oracle, ode_oracle


def params(gamma, n, omega0=1.0, kappa=1.0):
    return BeamsplitterParams(omega0, kappa, gamma, n)


def eq9_tangent_form(kappa, gamma, z):
    """The raising/lowering coefficient in its raw tangent form (complex
    arithmetic handles the hyperbolic regime); independent cross-check of
    the branch-free evaluation used by the library."""
    dl = delta_lambda(kappa, gamma)
    t = np.tan(z * dl / 2.0)
    val = gamma / (2 * kappa) + (dl / (2 * kappa)) * (t - gamma / dl) / (
        1.0 + (gamma / dl) * t
    )
    assert abs(val.imag) < 1e-10
    return val.real


def literal_factor_product(wn, ops):
    """Four-factor product built naively: terminating exponential series of
    the ladder operators around the diagonal of integer powers of w."""
    n = ops.number_op_scalar

    def nilpotent_exp(coeff, ladder):
        total = np.eye(n + 1, dtype=complex)
        term = np.eye(n + 1, dtype=complex)
        for k in range(1, n + 1):
            term = term @ (coeff * ladder) / k
            total = total + term
        return total

    up = nilpotent_exp(-1j * wn.f_plus, ops.j_plus)
    um = nilpotent_exp(-1j * wn.f_minus, ops.j_minus)
    diag = np.diag(wn.w ** (n - 2.0 * np.arange(n + 1)))
    return np.exp(wn.prefactor_exponent) * (up @ diag @ um)


# ---------------------------------------------------------------------------
# coefficient functions


def test_wn_params_initial_condition():
    wn = wei_norman_params(params(1.3, 4), 0.0)
    assert wn.f_plus == 0.0 and wn.f_minus == 0.0
    assert wn.f_z == 0.0 and wn.w == 1.0
    assert wn.prefactor_exponent == 0.0


def test_wn_params_lossless_is_tangent():
    wn = wei_norman_params(params(0.0, 3), math.pi / 8)
    assert wn.f_plus == pytest.approx(math.tan(math.pi / 8), abs=1e-14)
    assert wn.f_plus == wn.f_minus
    assert wn.w == pytest.approx(math.cos(math.pi / 8), abs=1e-14)


def test_wn_params_rejects_pole_and_negative_z():
    # at Gamma = 0, z = pi/2 the computed w is 6e-17, not 0: the assembly's
    # column bounds refuse it, and only w = 0 exactly is a pole
    wn = wei_norman_params(params(0.0, 3), math.pi / 2)
    with pytest.raises(PrecisionError):
        assemble_propagator(wn)
    with pytest.raises(PoleProximityError, match=r"w\(z\) = 0;"):
        assemble_propagator(replace(wn, w=0j))
    for z in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            wei_norman_params(params(0.0, 3), z)


def test_wn_params_at_and_near_critical_loss():
    # at the critical loss the general form is the paper's limit form
    p = params(2.0, 3)
    for z in (1e-9, 1.0, 1e3):
        wn, wn_ep = wei_norman_params(p, z), ep_limit_params(p, z)
        assert wn.f_plus == wn_ep.f_plus and wn.f_minus == wn_ep.f_minus
        assert wn.w == wn_ep.w
        assert abs(wn.f_z - wn_ep.f_z) <= 1e-15
    # next to it, small |Delta_lambda|*z included, it matches the integrated
    # coefficient system
    grid = np.array([0.0, 1e-9, 1e-3, 0.5, 1.0, 5.0])
    for ratio in (1.0 + 3e-7, 1.0 - 3e-7, 1.0 + 1e-12, 1.0 - 1e-12):
        p_near = params(2.0 * ratio, 3)
        for wn_ode in ode_oracle(p_near, grid)[1:]:
            wn = wei_norman_params(p_near, wn_ode.z)
            assert abs(wn.f_plus - wn_ode.f_plus) < 1e-9
            assert abs(wn.f_z - wn_ode.f_z) < 1e-9
            assert abs(wn.w - wn_ode.w) < 1e-9


@pytest.mark.parametrize("gamma,z", [(0.0, 0.4), (0.9, 1.1), (1.8, 0.7), (3.0, 1.5), (2.6, 4.0)])
def test_wn_params_match_tangent_form(gamma, z):
    wn = wei_norman_params(params(gamma, 2), z)
    assert wn.f_plus == pytest.approx(eq9_tangent_form(1.0, gamma, z), abs=1e-12)
    # e^{-i f_z} = w^{-2}: the diagonal factor is an integer power of w
    assert np.exp(-1j * wn.f_z) == pytest.approx(wn.w ** (-2.0), rel=1e-12)


def test_wn_f_real_in_both_regimes():
    for gamma, z in [(0.5, 2.0), (3.5, 2.0)]:
        wn = wei_norman_params(params(gamma, 2), z)
        assert isinstance(wn.f_plus, float)
        assert wn.w.imag == 0.0


def test_ep_limit_examples():
    wn = ep_limit_params(params(2.0, 4), 1.0)
    assert wn.f_plus == pytest.approx(0.5, abs=1e-15)
    assert wn.w == pytest.approx(2.0, abs=1e-15)
    assert wn.f_z == pytest.approx(-2j * math.log(2.0), abs=1e-15)

    wn0 = ep_limit_params(params(2.0, 4), 0.0)
    assert wn0.f_plus == 0.0 and wn0.w == 1.0

    wn_far = ep_limit_params(params(2.0, 4), 1e3)
    assert wn_far.f_plus == pytest.approx(1000.0 / 1001.0, rel=1e-14)
    for z in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ep_limit_params(params(2.0, 4), z)


def test_closed_form_continuous_near_critical_loss():
    # near the critical loss the closed form agrees with the limit formulas
    # up to the O(|Delta_lambda|^2 z^3) truncation
    p_near = params(2.0 * (1.0 + 3e-7), 3)
    z = 0.9
    wn_cf = wei_norman_params(p_near, z)
    wn_ep = ep_limit_params(p_near, z)
    assert wn_cf.f_plus == pytest.approx(wn_ep.f_plus, abs=1e-6)
    assert wn_cf.w.real == pytest.approx(wn_ep.w.real, abs=1e-6)
    # and against the integrated system it is accurate outright
    wn_ode = ode_oracle(p_near, np.array([0.0, z]))[-1]
    assert wn_cf.f_plus == pytest.approx(wn_ode.f_plus, abs=1e-9)


# ---------------------------------------------------------------------------
# assembly


def test_assemble_identity_at_z0():
    g = assemble_propagator(wei_norman_params(params(1.0, 5), 0.0))
    assert np.abs(g.matrix - np.eye(6)).max() < 1e-14


@pytest.mark.parametrize(
    "n,gamma,z",
    [(1, 0.0, 0.3), (3, 0.9, 1.2), (5, 1.8, 0.8), (4, 3.0, 2.0), (8, 0.4, 1.0)],
)
def test_assemble_matches_literal_factor_product(n, gamma, z):
    p = params(gamma, n)
    ops = build_operators(n)
    wn = wei_norman_params(p, z)
    g = assemble_propagator(wn)
    np.testing.assert_allclose(g.matrix, literal_factor_product(wn, ops), atol=1e-12)


def test_assemble_ep_limit_matches_literal_product():
    p = params(2.0, 6)
    ops = build_operators(6)
    wn = ep_limit_params(p, 1.7)
    g = assemble_propagator(wn)
    np.testing.assert_allclose(g.matrix, literal_factor_product(wn, ops), atol=1e-12)


def test_assemble_n1_lossless_closed_form():
    z = 0.1
    g = assemble_propagator(wei_norman_params(params(0.0, 1), z))
    rot = np.exp(-1j * z) * np.array(
        [[np.cos(z), -1j * np.sin(z)], [-1j * np.sin(z), np.cos(z)]]
    )
    assert np.abs(g.matrix - rot).max() < 1e-12


def test_assemble_overflow_guard():
    p = params(3.0, 10)
    with pytest.raises(OverflowGuardError):
        assemble_propagator(wei_norman_params(p, 700.0))
    # hand-made coefficients whose core leaves the double range: the column
    # factors take inf or 0 there, and the former builder raised
    # ZeroDivisionError at w = 1e-100 and at f = 1e150
    wn = wei_norman_params(params(1.0, 10), 0.5)
    for w in (1e-100, 1e-200, 1e250, -1e-200):
        for f in (0.0, 0.5, 1e150):
            with pytest.raises(OverflowGuardError):
                assemble_propagator(replace(wn, w=complex(w), f_plus=f, f_minus=f))


# ---------------------------------------------------------------------------
# matrix-exponential oracle


def test_matrix_exp_identity_and_swap():
    h = build_hamiltonian(params(0.0, 1, omega0=0.0))
    assert np.abs(matrix_exp_oracle(h, 0.0).matrix - np.eye(2)).max() < 1e-15
    g = matrix_exp_oracle(h, math.pi / 2)
    np.testing.assert_allclose(g.matrix, [[0.0, -1.0j], [-1.0j, 0.0]], atol=1e-14)


def test_matrix_exp_semigroup():
    h = build_hamiltonian(params(1.7, 5))
    g1 = matrix_exp_oracle(h, 0.8).matrix
    g2 = matrix_exp_oracle(h, 1.3).matrix
    g12 = matrix_exp_oracle(h, 2.1).matrix
    assert np.abs(g1 @ g2 - g12).max() < 1e-10


def test_matrix_exp_norm_guard():
    h = build_hamiltonian(params(1.0, 5))
    with pytest.raises(OverflowGuardError):
        matrix_exp_oracle(h, 1e6)
    with pytest.raises(ValueError):
        matrix_exp_oracle(h, -1.0)


# ---------------------------------------------------------------------------
# numerical integration oracle


def test_ode_matches_critical_loss_limit():
    out = ode_oracle(params(2.0, 2), np.linspace(0.0, 1.0, 5))
    assert out[-1].f_plus == pytest.approx(0.5, abs=1e-8)
    assert out[-1].f_z == pytest.approx(-2j * math.log(2.0), abs=1e-8)


def test_ode_matches_lossless_tangent():
    out = ode_oracle(params(0.0, 2), np.array([0.0, math.pi / 8]))
    assert out[-1].f_plus == pytest.approx(math.tan(math.pi / 8), abs=1e-8)


def test_ode_matches_closed_form_above_threshold():
    grid = np.linspace(0.0, 2.0, 9)
    out = ode_oracle(params(3.0, 2), grid)
    for wn_ode, z in zip(out[1:], grid[1:]):
        wn_cf = wei_norman_params(params(3.0, 2), float(z))
        assert wn_ode.f_plus == pytest.approx(wn_cf.f_plus, abs=1e-8)
        assert wn_ode.f_z == pytest.approx(wn_cf.f_z, abs=1e-8)


def test_ode_f_plus_equals_f_minus():
    out = ode_oracle(params(1.2, 2), np.linspace(0.0, 1.2, 7))
    for wn in out:
        assert wn.f_minus == pytest.approx(wn.f_plus, abs=1e-9)


def test_ode_blowup_reports_pole_location():
    p = params(0.0, 2)
    with pytest.raises(RiccatiBlowupError) as err:
        ode_oracle(p, np.linspace(0.0, 3.0, 31))
    assert err.value.z_blowup == pytest.approx(math.pi / 2, abs=0.05)


def test_ode_grid_validation():
    p = params(1.0, 2)
    with pytest.raises(ValueError):
        ode_oracle(p, [0.5, 1.0])
    with pytest.raises(ValueError):
        ode_oracle(p, [0.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        ode_oracle(p, [])


def test_ode_params_assemble_into_propagator():
    # the integrated coefficients match the closed form, whose coefficients
    # assemble into the propagator
    p = params(1.1, 4)
    h = build_hamiltonian(p)
    for wn_ode in ode_oracle(p, np.linspace(0.0, 1.5, 4))[1:]:
        wn = wei_norman_params(p, wn_ode.z)
        assert abs(wn_ode.f_plus - wn.f_plus) < 1e-8 and abs(wn_ode.f_minus - wn.f_minus) < 1e-8
        assert abs(wn_ode.w - wn.w) < 1e-8
        g = assemble_propagator(wn)
        assert np.abs(g.matrix - matrix_exp_oracle(h, wn.z).matrix).max() < 1e-8


def test_assemble_rejects_coefficients_no_closed_form_gives():
    wn = wei_norman_params(params(1.1, 4), 0.8)
    assemble_propagator(wn)
    for bad in (replace(wn, w=wn.w + 1e-12j), replace(wn, f_minus=wn.f_plus + 1e-12)):
        with pytest.raises(ValueError, match="real w and f_"):
            assemble_propagator(bad)
    # the integrated coefficients are complex to rounding
    with pytest.raises(ValueError):
        assemble_propagator(ode_oracle(params(1.1, 4), [0.0, 0.8])[-1])


# ---------------------------------------------------------------------------
# symmetric-power engine and state evolution


def test_evolution_operator_method_selection():
    # one engine in every regime, with no switching between paths
    for gamma in (1.0, 2.0, 3.0):
        assert evolution_operator(params(gamma, 4), 1.0).method == METHOD
    assert METHOD == "symmetric_power"
    # z = 0 is served exactly regardless of gamma
    g0 = evolution_operator(params(0.7, 4), 0.0)
    assert g0.method == METHOD
    assert np.abs(g0.matrix - np.eye(5)).max() == 0.0


def test_evolution_operator_accurate_at_factorization_pole():
    # the factored form is singular at kappa*z = pi/2 for gamma = 0; the
    # symmetric-power engine has no poles and gives the exact swap there
    p = params(0.0, 1, omega0=0.0)
    g = evolution_operator(p, math.pi / 2)
    np.testing.assert_allclose(g.matrix, [[0.0, -1.0j], [-1.0j, 0.0]], atol=1e-12)


@pytest.mark.parametrize("ratio", [0.0, 0.25, 0.6, 0.95, 1.0, 1.05, 1.5])
@pytest.mark.parametrize("n", [2, 5])
def test_path_equivalence_sampled(n, ratio):
    gamma = 2.0 * ratio
    p = params(gamma, n)
    h = build_hamiltonian(p)
    for z in np.linspace(0.0, 5.0, 21):
        g = evolution_operator(p, float(z))
        assert np.abs(g.matrix - matrix_exp_oracle(h, float(z)).matrix).max() < 1e-10


@pytest.mark.parametrize("kappa,omega0", [(0.37, 2.2), (3.1, 0.0), (1.7, -0.6)])
def test_path_equivalence_nonunit_rates(kappa, omega0):
    # unit handling: nothing in the closed form may silently assume kappa=1
    for gamma_ratio in (0.0, 0.5, 1.0, 1.3):
        p = BeamsplitterParams(omega0, kappa, 2.0 * kappa * gamma_ratio, 4)
        h = build_hamiltonian(p)
        for z in (0.0, 0.3 / kappa, 1.9 / kappa, 4.2 / kappa):
            g = evolution_operator(p, z)
            assert np.abs(g.matrix - matrix_exp_oracle(h, z).matrix).max() < 1e-10


@pytest.mark.parametrize("gamma", [0.0, 0.8, 2.0, 3.0])
def test_semigroup_property(gamma):
    p = params(gamma, 4)
    z1, z2 = 0.6, 1.1
    g1 = evolution_operator(p, z1).matrix
    g2 = evolution_operator(p, z2).matrix
    g12 = evolution_operator(p, z1 + z2).matrix
    assert np.abs(g1 @ g2 - g12).max() < 1e-10


@pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 2.5])
def test_contraction_no_gain(gamma):
    p = params(gamma, 6)
    for z in np.linspace(0.0, 6.0, 25):
        g = evolution_operator(p, float(z))
        assert np.linalg.svd(g.matrix, compute_uv=False)[0] <= 1.0 + 1e-10


def test_lossless_evolution_unitary():
    p = params(0.0, 5)
    for z in (0.3, 1.0, 2.2, 4.9):
        g = evolution_operator(p, z).matrix
        assert np.abs(g.conj().T @ g - np.eye(6)).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_critical_loss_polynomial_growth(n):
    # rescaled operator norm e^{N Gamma z / 2} ||G|| grows like z^N
    p = params(2.0, n)
    zs = np.logspace(1.0, 2.0, 40)
    norms = [np.linalg.norm(evolution_operator(p, float(z)).core, 2) for z in zs]
    slope = np.polyfit(np.log(zs), np.log(norms), 1)[0]
    assert abs(slope - n) < 0.05


def test_prefactor_carries_global_decay():
    p = params(1.6, 5)
    g = evolution_operator(p, 2.0)
    assert g.prefactor_exponent.real == pytest.approx(-1.6 * 5 * 2.0 / 2.0)
    np.testing.assert_allclose(
        g.matrix, np.exp(g.prefactor_exponent) * g.core, atol=1e-15
    )


def test_evolve_state_contracts():
    p = params(0.0, 3)
    g = evolution_operator(p, 1.3)
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    out = evolve_state(state, g)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(ValueError):
        evolve_state(np.ones(3, dtype=complex), g)
    with pytest.raises(ValueError):
        evolve_state(2.0 * state, g)


def test_first_pole_locations():
    assert first_pole(params(0.0, 2)) == pytest.approx(math.pi / 2)
    assert first_pole(params(3.0, 2)) is None
    p = params(1.0, 2)
    z_star = first_pole(p)
    # w changes sign across the reported location
    w_lo = wei_norman_params(p, z_star - 1e-3).w.real
    w_hi = wei_norman_params(p, z_star + 1e-3).w.real
    assert w_lo * w_hi < 0
    z_next = first_pole(p, z_start=z_star + 1e-6)
    assert z_next > z_star
