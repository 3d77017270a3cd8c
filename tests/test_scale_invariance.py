"""Results depend on kappa, Gamma and z only through Gamma/kappa and kappa*z.

Scaling kappa and Gamma by s and z by 1/s leaves g1's core, every state's
log I and P, the operator core and the spectrum divided by s unchanged.  So
each quantity at a kappa far from 1 must match the same quantity at kappa =
1, Gamma/Gamma_c and kappa*z held fixed, with no warning on the way: the
level spacing is squared only after a power-of-two scaling.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest

from epbs.cli import SCENARIOS, main, validate
from epbs.fock_core import BeamsplitterParams
from epbs.observables import fit_ep_order, make_input, trace_evolution
from epbs.propagator import _g1, evolution_operator, evolve_grid, first_pole
from epbs.spectral import classify_regime, delta_lambda, eigenvalue_flow
from test_cli import _cfg_for

KAPPAS = [2.0**-1000, 1e-300, 1e-200, 1e-165, 1e-160, 1e-155, 1e154, 1e160, 1e200, 1e300]
RATIOS = [0.0, 0.5, 1.0, 1.5, 3.0]  # Gamma / Gamma_c
KZ = np.array([0.5, 3.0, 10.0])
RTOL = 1e-13


def _dense(n):
    rng = np.random.default_rng(7)
    return rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)


_STATES = {
    "noon": (10, make_input("noon", 10).amplitudes),
    "all_in_a": (10, make_input("all_in_a", 10).amplitudes),
    "dense": (40, _dense(40)),
}


def _params(kappa, ratio, n):
    return BeamsplitterParams(0.0, kappa, ratio * 2.0 * kappa, n)


def _assert_log_close(actual, expected):
    """log I to RTOL relative, and to RTOL nats where |log I| < 1 (I itself to RTOL relative)."""
    err = np.abs(actual - expected) / np.maximum(1.0, np.abs(expected))
    assert err.max() <= RTOL, (actual, expected)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("state", sorted(_STATES))
def test_evolve_grid_is_scale_invariant(state, kappa, ratio):
    n, amps = _STATES[state]
    log_ref, occ_ref = evolve_grid(_params(1.0, ratio, n), amps, KZ)
    log_i, occ = evolve_grid(_params(kappa, ratio, n), amps, KZ / kappa)
    _assert_log_close(log_i, log_ref)
    assert np.abs(occ - occ_ref).max() <= RTOL


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("kappa", KAPPAS)
def test_evolution_operator_is_scale_invariant(kappa, ratio):
    for kz in KZ:
        ref = evolution_operator(_params(1.0, ratio, 10), kz)
        op = evolution_operator(_params(kappa, ratio, 10), kz / kappa)
        assert np.abs(op.core - ref.core).max() <= RTOL * np.abs(ref.core).max()
        assert abs(op.prefactor_exponent - ref.prefactor_exponent) <= RTOL * max(
            1.0, abs(ref.prefactor_exponent)
        )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("kappa", KAPPAS)
def test_spectrum_and_first_pole_are_scale_invariant(kappa, ratio):
    gamma = ratio * 2.0 * kappa
    ref = delta_lambda(1.0, 2.0 * ratio)
    assert abs(delta_lambda(kappa, gamma) / kappa - ref) <= RTOL * abs(ref)

    gammas = [0.0, gamma, 4.0 * kappa]
    flow = eigenvalue_flow(kappa, kappa, 10, gammas).eigenvalues / kappa
    flow_ref = eigenvalue_flow(1.0, 1.0, 10, [0.0, 2.0 * ratio, 4.0]).eigenvalues
    assert np.abs(flow - flow_ref).max() <= RTOL * np.abs(flow_ref).max()

    pole_ref = first_pole(_params(1.0, ratio, 1))
    pole = first_pole(_params(kappa, ratio, 1))
    if ratio < 1.0:
        assert abs(pole * kappa - pole_ref) <= RTOL * pole_ref
    else:
        assert pole is None and pole_ref is None


def _branch(kappa, gamma):
    """The branch ``_g1`` took at z = 1/kappa: theta is 0 only at the EP, log_scale > 0 only above."""
    log_scale, theta = np.asarray(_g1(kappa, gamma, np.float64(1.0 / kappa)))[[3, 5]]
    if log_scale > 0.0:
        return "broken"
    return "unbroken" if theta > 0.0 else "exceptional"


def test_g1_branch_is_classify_regime_to_the_ulp():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for decade in range(-300, 301):
            kappa = 10.0**decade
            gc = 2.0 * kappa
            for gamma in (math.nextafter(gc, 0.0), gc, math.nextafter(gc, math.inf)):
                assert _branch(kappa, gamma) == classify_regime(kappa, gamma), (kappa, gamma)


# ---------------------------------------------------------------------------
# the CLI at extreme scale


def _run_cli(tmp_path, name, doc, capsys):
    out = tmp_path / name
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**doc, "output": {"directory": str(out), "svg": True}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([doc["scenario"], "--config", str(path)]) == 0
    assert "Warning" not in capsys.readouterr().err
    for f in out.iterdir():
        assert not re.search(r"(?i)\b(nan|inf|infinity)\b", f.read_text()), f.name
    return out


def _csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_cli_spectrum_flow_at_huge_kappa_is_finite(tmp_path, capsys):
    doc = {
        "scenario": "spectrum-flow",
        "params": {"omega0": 0.0, "kappa": 1e154, "gamma": 0.0, "n_photons": 2},
        "gamma_grid": {"start": 0.0, "stop": 4e154, "count": 3},
    }
    rows = _csv(_run_cli(tmp_path, "huge", doc, capsys) / "spectrum_flow.csv")
    assert rows.shape == (9, 4)
    doc["params"]["kappa"], doc["gamma_grid"]["stop"] = 1.0, 4.0
    ref = _csv(_run_cli(tmp_path, "unit", doc, capsys) / "spectrum_flow.csv")
    scaled = rows / np.array([1e154, 1.0, 1e154, 1e154])
    assert np.abs(scaled - ref).max() <= RTOL * np.abs(ref).max()


def test_cli_intensity_decay_at_tiny_kappa_matches_unit_kappa(tmp_path, capsys):
    def doc(kappa):
        return {
            "scenario": "intensity-decay",
            "params": {"omega0": 0.0, "kappa": kappa, "gamma": 3.0 * kappa, "n_photons": 10},
            "z_grid": {"start": 0.0, "stop": 3.0 / kappa, "count": 31},
            "input_state": {"kind": "noon"},
        }

    tiny = _csv(_run_cli(tmp_path, "tiny", doc(1e-165), capsys) / "intensity.csv")
    ref = _csv(_run_cli(tmp_path, "unit", doc(1.0), capsys) / "intensity.csv")
    assert np.abs(tiny[:, 0] * 1e-165 - ref[:, 0]).max() <= RTOL * 3.0
    _assert_log_close(tiny[:, 2], ref[:, 2])
    # an error of x nats in log I is a relative error of x in I
    assert (np.abs(tiny[:, 1] / ref[:, 1] - 1.0) <= RTOL * np.maximum(1.0, -ref[:, 2])).all()


def test_cli_kappa_past_double_range_exits_1(tmp_path, capsys):
    # at kappa >= 2^1023 Gamma_c = 2 kappa is not a double: the parameters
    # are refused as a configuration error, not left to fail in the run
    # (spectrum-flow exited 2 with "math range error")
    for scenario in SCENARIOS:
        doc = _cfg_for(scenario, tmp_path / scenario)
        doc["params"]["kappa"] = 2.0**1023
        path = tmp_path / f"{scenario}.json"
        path.write_text(json.dumps(doc))
        assert main([scenario, "--config", str(path)]) == 1, scenario
        assert "kappa: must be below 2^1023" in capsys.readouterr().err, scenario
        assert not (tmp_path / scenario).exists()
    for kappa in (math.nextafter(2.0**1023, 0.0), 1e300):
        assert BeamsplitterParams(0.0, kappa, 0.0, 2).gamma_critical == 2.0 * kappa < math.inf
    with pytest.raises(ValueError, match="^kappa: must be below 2\\^1023"):
        BeamsplitterParams(0.0, 1e308, 0.0, 2)


def _order_fit_doc(kappa):
    return {
        "scenario": "order-fit",
        "params": {"omega0": 0.0, "kappa": kappa, "gamma": 2.0 * kappa, "n_photons": 4},
    }


def test_order_fit_default_grid_fits_at_every_kappa():
    # logspace rounds its end points: the fit refused its own default grid
    # at 252 of these 601 kappa, first at kappa = 0.0010471285480508996,
    # where the last point read kappa*z = 99.9999999999999
    for k in range(-300, 301):
        kappa = 10.0 ** (k / 100)
        cfg, errors = validate(json.dumps(_order_fit_doc(kappa)))
        assert errors == [], kappa
        grid = cfg.z_grid.to_array()
        assert grid[0] == 10.0 / kappa and grid[-1] == 100.0 / kappa, kappa
        trace = trace_evolution(make_input("all_in_a", 4), cfg.params, grid, False)
        assert fit_ep_order(trace).window == (grid[0], grid[-1]), kappa


def test_cli_order_fit_default_grid_at_awkward_kappa(tmp_path, capsys):
    kappa = 0.0010471285480508996
    out = _run_cli(tmp_path, "fit", _order_fit_doc(kappa), capsys)
    report = json.loads((out / "report.json").read_text())
    assert report["window_z_min"] == 10.0 / kappa and report["window_z_max"] == 100.0 / kappa
