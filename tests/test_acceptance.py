"""Acceptance suite: the numbered requirements at their stated tolerances.

Each test prints one `[PASS]/[FAIL] criterion N: ...` line (visible with
`pytest tests/test_acceptance.py -v -s`) before asserting, so a red run
still reports every criterion's verdict.

Known red: the final clause of criterion 7 asserts that the steady-state
criterion is met at strictly larger z for gamma = 1.2*gamma_c than at
gamma_c.  The dynamics give the opposite ordering: at the critical loss the
normalized profile converges only algebraically (the propagator is
polynomial in z there, onset near z ~ 6.9e2 at the 1e-6 threshold), while
past it the convergence is exponential with rate sqrt(gamma^2 - 4 kappa^2)
(onset near z ~ 10).  The assertion is implemented as stated and fails.
"""

import hashlib
import json
import math
import time

import numpy as np

from epbs.cli import run, validate
from epbs.fock_core import BeamsplitterParams, build_hamiltonian, build_operators
from epbs.observables import (
    fit_ep_order,
    intensity,
    make_input,
    occupations,
    periodicity_check,
    steady_state_onset,
    trace_evolution,
)
from epbs.propagator import (
    ep_limit_params,
    evolution_operator,
    first_pole,
    matrix_exp_oracle,
    ode_oracle,
    wei_norman_params,
)
from epbs.spectral import analytic_spectrum, certify_ep, numeric_spectrum, pairing_distance


def _verdict(num, label, ok, detail=""):
    flag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[{flag}] criterion {num}: {label}{suffix}")
    return ok


def params(gamma, n, omega0=1.0, kappa=1.0):
    return BeamsplitterParams(omega0, kappa, gamma, n)


def test_criterion_1_spectrum_reproduction():
    started = time.perf_counter()
    n = 4
    worst_far, worst_near = 0.0, 0.0
    exact_re = exact_im = True
    for gamma in np.linspace(0.0, 4.0, 100):
        p = params(float(gamma), n)
        spec = analytic_spectrum(p)
        dist = pairing_distance(numeric_spectrum(build_hamiltonian(p)), spec.eigenvalues)
        if abs(gamma - 2.0) < 1e-3:
            worst_near = max(worst_near, dist)
        else:
            worst_far = max(worst_far, dist)
        if gamma >= 2.0 and not np.all(spec.eigenvalues.real == 4.0):
            exact_re = False
        if gamma <= 2.0 and not np.all(spec.eigenvalues.imag == -2.0 * gamma):
            exact_im = False
    elapsed = time.perf_counter() - started
    ok = worst_far < 1e-8 and worst_near < 1e-2 and exact_re and exact_im and elapsed < 1.0
    _verdict(
        1,
        "numeric vs analytic spectra across the loss sweep",
        ok,
        f"max err {worst_far:.2e} (near-degenerate {worst_near:.2e}), {elapsed:.2f}s",
    )
    assert worst_far < 1e-8
    assert worst_near < 1e-2
    assert exact_re and exact_im
    assert elapsed < 1.0


def test_criterion_2_ep_certification():
    started = time.perf_counter()
    ok = True
    worst_zero, worst_support = 0.0, 1.0
    for n in range(1, 11):
        cert = certify_ep(build_hamiltonian(params(2.0, n)))
        worst_zero = max(worst_zero, cert.nilpotency_ratios[n])
        worst_support = min(worst_support, cert.nilpotency_ratios[n - 1])
        ok = ok and cert.passed and cert.nilpotency_ratios[n] < 1e-8
        ok = ok and cert.nilpotency_ratios[n - 1] > 1e-4
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    _verdict(
        2,
        "nilpotency of order N+1 at the critical loss for N=1..10",
        ok,
        f"max ||M^(N+1)|| {worst_zero:.1e}, min ||M^N|| {worst_support:.1e}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_3_propagator_equivalence():
    started = time.perf_counter()
    worst = 0.0
    compared = 0
    for n in range(1, 9):
        ops = build_operators(n)
        for ratio in (0.0, 0.25, 0.6, 0.95, 1.0, 1.05, 1.5):
            p = params(2.0 * ratio, n)
            h = build_hamiltonian(p)
            for z in np.linspace(0.0, 5.0, 50):
                g = evolution_operator(p, float(z), ops)
                compared += 1
                diff = np.abs(g.matrix - matrix_exp_oracle(h, float(z)).matrix).max()
                worst = max(worst, diff)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8 and elapsed < 10.0
    _verdict(
        3,
        "symmetric-power propagator vs matrix exponential, N<=8, all regimes",
        ok,
        f"max entry diff {worst:.2e} over {compared} points, {elapsed:.2f}s",
    )
    assert worst < 1e-8
    assert elapsed < 10.0


def test_criterion_4_ode_consistency():
    started = time.perf_counter()
    worst = 0.0
    for ratio in (0.0, 0.25, 0.6, 0.95, 1.0, 1.05, 1.5):
        gamma = 2.0 * ratio
        p = params(gamma, 2)
        z_stop = 5.0
        pole = first_pole(p)
        if pole is not None:
            z_stop = min(z_stop, 0.95 * pole)
        grid = np.linspace(0.0, z_stop, 40)
        for wn_ode in ode_oracle(p, grid)[1:]:
            if ratio == 1.0:
                wn_cf = ep_limit_params(p, wn_ode.z)
            else:
                wn_cf = wei_norman_params(p, wn_ode.z)
            worst = max(worst, abs(wn_ode.f_plus - wn_cf.f_plus))
            worst = max(worst, abs(wn_ode.f_z - wn_cf.f_z))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-7 and elapsed < 5.0
    _verdict(
        4,
        "integrated coefficient functions vs closed forms",
        ok,
        f"max |f - f_closed| {worst:.2e}, {elapsed:.2f}s",
    )
    assert worst < 1e-7
    assert elapsed < 5.0


def test_criterion_5_intensity_scaling_order():
    started = time.perf_counter()
    results = {}
    for n in (5, 7, 10):
        p = params(2.0, n)
        state = make_input("all_in_a", n)
        trace = trace_evolution(state, p, np.logspace(1, 2, 200), with_occupations=False)
        results[n] = fit_ep_order(trace).fitted_slope
    elapsed = time.perf_counter() - started
    devs = {n: abs(results[n] - 2 * n) / (2 * n) for n in results}
    ok = all(d < 0.02 for d in devs.values()) and elapsed < 5.0
    _verdict(
        5,
        "log-log slopes of rescaled intensity equal 2N",
        ok,
        ", ".join(f"N={n}: {results[n]:.3f}" for n in results) + f", {elapsed:.2f}s",
    )
    assert all(d < 0.02 for d in devs.values()), results
    assert elapsed < 5.0


def test_criterion_6_unitary_limit_and_state_transfer():
    n = 5
    p = params(0.0, n)
    state = make_input("all_in_a", n)
    worst = 0.0
    for z in np.linspace(0.0, 100.0, 501):
        worst = max(worst, abs(intensity(state, p, float(z)).value - 1.0))
    occ = occupations(state, p, math.pi / 2)
    ok = worst < 1e-12 and occ[n] > 1.0 - 1e-10
    _verdict(
        6,
        "lossless intensity stays 1; full transfer at kappa z = pi/2",
        ok,
        f"max |I-1| {worst:.1e}, P(N) = 1 - {1.0 - occ[n]:.1e}",
    )
    assert worst < 1e-12
    assert occ[n] > 1.0 - 1e-10


def test_criterion_7_noon_dynamics():
    started = time.perf_counter()
    kappa = 1.0

    # exact periodicity at quarter-critical loss
    gamma = 0.5
    t_exact = 2.0 * math.pi / math.sqrt(4.0 * kappa**2 - gamma**2)
    p5 = params(gamma, 5)
    noon5 = make_input("noon", 5)
    period_defect = 0.0
    for z in (0.2, 1.0, 2.3, 3.7):
        a = occupations(noon5, p5, z)
        b = occupations(noon5, p5, z + t_exact)
        period_defect = max(period_defect, float(np.abs(a - b).max()))

    # detected periods agree between photon numbers
    detected = {}
    for n in (5, 8):
        state = make_input("noon", n)
        trace = trace_evolution(state, params(gamma, n), np.linspace(0.0, 3 * t_exact, 400))
        detected[n] = periodicity_check(trace).period_detected
    rel_period = abs(detected[5] - detected[8]) / detected[5]

    # steady profile at the critical loss, weight in the low-loss half
    p_c = params(2.0, 5)
    onset_c = steady_state_onset(noon5, p_c, z_max=900.0, dz=1.0)
    steady_ok = onset_c is not None
    argmax_ok = False
    if steady_ok:
        profile = occupations(noon5, p_c, onset_c, enforce_floor=False)
        argmax_ok = int(np.argmax(profile)) <= 5 / 2

    # past the transition the steady criterion is claimed to arrive later
    onset_12 = steady_state_onset(noon5, params(2.4, 5), z_max=900.0, dz=1.0)
    ordering_ok = steady_ok and onset_12 is not None and onset_12 > onset_c

    elapsed = time.perf_counter() - started
    ok = (
        period_defect < 1e-8
        and rel_period < 1e-8
        and steady_ok
        and argmax_ok
        and ordering_ok
        and elapsed < 10.0
    )
    _verdict(
        7,
        "balanced-superposition dynamics: periodicity, N-independence, steady state",
        ok,
        f"periodicity defect {period_defect:.1e}, period N-agreement {rel_period:.1e}, "
        f"onsets: critical {onset_c}, 1.2x critical {onset_12}, {elapsed:.2f}s",
    )
    assert period_defect < 1e-8
    assert rel_period < 1e-8
    assert steady_ok and argmax_ok
    assert elapsed < 10.0
    assert ordering_ok, (
        f"steady onset at 1.2x critical loss ({onset_12}) is not later than at the "
        f"critical loss ({onset_c}): above threshold the normalized profile "
        f"converges exponentially with rate sqrt(gamma^2 - 4 kappa^2) while at the "
        f"critical loss it converges only algebraically, so the stated ordering "
        f"cannot hold at the 1e-6 steady threshold"
    )


def test_criterion_8_cli_determinism(tmp_path):
    scenarios = {
        "spectrum-flow": {
            "scenario": "spectrum-flow",
            "params": {"omega0": 1.0, "kappa": 1.0, "gamma": 0.0, "n_photons": 4},
            "gamma_grid": {"start": 0.0, "stop": 4.0, "count": 60},
        },
        "occupation-dynamics": {
            "scenario": "occupation-dynamics",
            "params": {"omega0": 1.0, "kappa": 1.0, "gamma": 0.5, "n_photons": 5},
            "z_grid": {"start": 0.0, "stop": 10.0, "count": 160},
        },
    }
    ok = True
    for name, doc in scenarios.items():
        sums = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            doc_run = dict(doc, output={"directory": str(out)})
            cfg, errors = validate(json.dumps(doc_run))
            assert errors == []
            run(cfg)
            sums.append(
                {
                    f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                    for f in sorted(out.iterdir())
                    if f.name != "manifest.json"
                }
            )
        ok = ok and sums[0] == sums[1] and len(sums[0]) >= 2
    _verdict(8, "identical configs yield byte-identical data outputs", ok)
    assert ok
