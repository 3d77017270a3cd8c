"""The two in-process workloads: ``paper-traces`` and ``general-states``.

Each workload is a list of cases, run in order once per pass.  A case's
``run`` is the timed call into the public epbs API; it receives the outputs
of the earlier cases of the same pass (diagnostics consume traces).  Its
``check`` runs after timing and compares the output with the oracle.

The seed draws the custom-state amplitudes, a small shift of each grid's
start, the z points the oracle checks (stratified, one per stratum) and the
z of the matrix evaluations.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracle
from ledger import ASSEMBLY_OVERFLOW, PERIODICITY_SHIFT, SPLIT_PRODUCT, TOL, Ledger

OMEGA0 = 1.0
KAPPA = 1.0
GAMMAS = (1.0, 2.0, 2.4)  # 0.5, 1 and 1.2 times the critical loss 2*kappa
CHECKED_POINTS = 41
CHECKED_POINTS_N100 = 11
MATRIX_EVALS = 8


def known_defect(n: int, gamma: float) -> str | None:
    """Label of the recorded defect that covers failures at (N, Gamma)."""
    if n >= 86:
        return ASSEMBLY_OVERFLOW
    if n >= 40 and gamma < 2.0 * KAPPA:
        return SPLIT_PRODUCT
    return None


@dataclass
class Case:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object, Ledger], None]
    known: str | None = None


@dataclass
class Workload:
    cases: list[Case]
    warm: Callable[[], None]
    sizes: list[tuple[int, float, float]] = field(default_factory=list)  # (N, Gamma, z_max)
    # untimed defect probes: (outputs of the checked pass, ledger) -> None
    probes: Callable[[dict, Ledger], None] = lambda outputs, ledger: None


def stratified(n_points: int, k: int, rng) -> np.ndarray:
    """One random index in each of k equal strata of range(n_points)."""
    if k >= n_points:
        return np.arange(n_points)
    edges = np.linspace(0, n_points, k + 1).astype(int)
    return np.array([rng.integers(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])])


def shifted_linspace(start, stop, count, rng):
    return np.linspace(start + rng.uniform(0.0, 1e-3) * (stop - start), stop, count)


def error_reason(exc: BaseException, epbs) -> str:
    return "refused" if isinstance(exc, epbs.SimulationError) else "crashed"


# ---------------------------------------------------------------------------
# checks

def trace_check(params, reference, idx, with_occ: bool, known):
    """Finiteness at every point, oracle agreement at the indices ``idx``.

    ``reference(z)`` returns the oracle's (log I, P).
    """

    def check(trace, ledger: Ledger):
        n = trace.z_grid.size
        bad = {}
        finite = np.isfinite(trace.log_intensity)
        if with_occ:
            finite &= np.isfinite(trace.occupations).all(axis=1)
        for i in np.flatnonzero(~finite):
            bad[int(i)] = "nonfinite"
        for i in idx:
            i = int(i)
            if i in bad:
                ledger.error("log_i", math.nan)
                continue
            ref_li, ref_p = reference(float(trace.z_grid[i]))
            ok = ledger.error("log_i", abs(float(trace.log_intensity[i]) - ref_li))
            if with_occ:
                ok &= ledger.error("occ", float(np.abs(trace.occupations[i] - ref_p).max()))
            if not ok:
                bad[i] = "inaccurate"
        ledger.ops(f"trace N={params.n_photons} gamma={params.gamma}", n,
                   Counter(bad.values()), known)

    return check


def named_reference(kind, params):
    return lambda z: oracle.evolve_named(kind, params, z)


def _custom(params, amplitudes):
    return lambda z: oracle.evolve(params, amplitudes, z)


def _one_op(where, known, ok: bool, ledger: Ledger):
    ledger.ops(where, 1, Counter() if ok else Counter({"inaccurate": 1}), known)


def _steady(params, z):
    """The oracle's max_m |P(m; z) - P(m; z + 1/kappa)| for noon."""
    _, p0 = oracle.evolve_named("noon", params, z)
    _, p1 = oracle.evolve_named("noon", params, z + 1.0 / KAPPA)
    return float(np.abs(p0 - p1).max())


# ---------------------------------------------------------------------------
# workloads

def paper_traces(epbs, rng) -> Workload:
    """noon traces with occupations, all_in_a order fits and the diagnostics."""
    cases, sizes = [], []
    for n in (1, 10, 40):
        z_max = 30.0 if n <= 10 else 10.0
        for gamma in GAMMAS:
            p = epbs.BeamsplitterParams(OMEGA0, KAPPA, gamma, n)
            state = epbs.make_input("noon", n)
            grid = shifted_linspace(0.0, z_max / KAPPA, 2000, rng)
            key = f"noon.N{n}.gamma{gamma}"
            known = known_defect(n, gamma)
            sizes.append((n, gamma, z_max / KAPPA))
            cases.append(Case(
                key,
                lambda prev, s=state, p=p, g=grid: epbs.trace_evolution(s, p, g),
                trace_check(p, named_reference("noon", p),
                            stratified(grid.size, CHECKED_POINTS, rng), True, known),
                known,
            ))
            if gamma < 2.0 * KAPPA and n <= 10:
                # at N=40 the baseline refuses (see probe.n40-periodicity-refusal)
                known_p = PERIODICITY_SHIFT if n >= 10 else None
                cases.append(Case(
                    f"periodicity.N{n}",
                    lambda prev, key=key: epbs.periodicity_check(prev[key]),
                    _period_check(p, known_p),
                    known_p,
                ))
    for n in (1, 10, 40):
        p = epbs.BeamsplitterParams(OMEGA0, KAPPA, 2.0 * KAPPA, n)
        state = epbs.make_input("all_in_a", n)
        # not shifted: fit_ep_order needs the full decade kappa*z in [10, 100]
        grid = np.logspace(1.0, 2.0, 2000) / KAPPA
        key = f"all_in_a.N{n}"
        cases.append(Case(
            key,
            lambda prev, s=state, p=p, g=grid:
                epbs.trace_evolution(s, p, g, with_occupations=False),
            _all_in_a_check(p),
        ))
        cases.append(Case(f"fit_ep_order.N{n}",
                          lambda prev, key=key: epbs.fit_ep_order(prev[key]),
                          _fit_check(p, grid)))
    for n in (1, 10, 40):
        for gamma in GAMMAS[1:]:
            p = epbs.BeamsplitterParams(OMEGA0, KAPPA, gamma, n)
            state = epbs.make_input("noon", n)
            cases.append(Case(
                f"steady_state_onset.N{n}.gamma{gamma}",
                lambda prev, s=state, p=p: epbs.steady_state_onset(s, p, z_max=1000.0 / KAPPA),
                _onset_check(epbs, p, state),
            ))
    return Workload(cases, _warmer(epbs, (1, 10, 40)), sizes, _paper_probes(epbs, rng))


def general_states(epbs, rng) -> Workload:
    """Seeded custom states, N=100 traces and full-matrix consumers."""
    cases, sizes = [], []
    states = {}
    for n in (10, 40, 100):
        amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        states[n] = epbs.make_input("custom", n, amps)
    for n in (10, 40):
        z_max = 30.0 if n <= 10 else 10.0
        for gamma in GAMMAS:
            p = epbs.BeamsplitterParams(OMEGA0, KAPPA, gamma, n)
            grid = shifted_linspace(0.0, z_max / KAPPA, 1000, rng)
            known = known_defect(n, gamma)
            sizes.append((n, gamma, z_max / KAPPA))
            cases.append(Case(
                f"custom.N{n}.gamma{gamma}",
                lambda prev, s=states[n], p=p, g=grid: epbs.trace_evolution(s, p, g),
                trace_check(p, _custom(p, states[n].amplitudes),
                            stratified(grid.size, CHECKED_POINTS, rng), True, known),
                known,
            ))
    for gamma in GAMMAS:
        p = epbs.BeamsplitterParams(OMEGA0, KAPPA, gamma, 100)
        grid = shifted_linspace(0.0, 5.0 / KAPPA, 200, rng)
        known = known_defect(100, gamma)
        cases.append(Case(
            f"custom.N100.gamma{gamma}",
            lambda prev, s=states[100], p=p, g=grid:
                epbs.trace_evolution(s, p, g, with_occupations=False),
            trace_check(p, _custom(p, states[100].amplitudes),
                        stratified(grid.size, CHECKED_POINTS_N100, rng), False, known),
            known,
        ))
    for n in (10, 40):
        z_max = 30.0 if n <= 10 else 10.0
        for gamma in GAMMAS:
            p = epbs.BeamsplitterParams(OMEGA0, KAPPA, gamma, n)
            zs = np.sort(rng.uniform(0.0, z_max / KAPPA, MATRIX_EVALS))
            known = known_defect(n, gamma)
            cases.append(Case(
                f"matrix.N{n}.gamma{gamma}",
                lambda prev, s=states[n], p=p, zs=zs: [
                    epbs.evolve_state(s.amplitudes, epbs.evolution_operator(p, float(z)))
                    for z in zs],
                _matrix_check(p, states[n].amplitudes, zs, known),
                known,
            ))
    return Workload(cases, _warmer(epbs, (10, 40, 100)), sizes)


WORKLOADS = {"paper-traces": paper_traces, "general-states": general_states}


def _warmer(epbs, ns):
    def warm():
        for n in ns:
            epbs.evolution_operator(epbs.BeamsplitterParams(OMEGA0, KAPPA, 2.0 * KAPPA, n), 0.5)
    return warm


def _period_check(params, known):
    exact = 2 * oracle.ctx.pi / oracle.ctx.sqrt(4 * KAPPA**2 - params.gamma**2)

    def check(result, ledger: Ledger):
        err = abs(float(result.period_detected) - float(exact)) / float(exact)
        _one_op(f"periodicity N={params.n_photons}", known, ledger.error("other", err), ledger)

    return check


def _all_in_a_check(params):
    def check(trace, ledger: Ledger):
        bad = Counter()
        for z, li in zip(trace.z_grid, trace.log_intensity):
            if not math.isfinite(li):
                bad["nonfinite"] += 1
                ledger.error("log_i", math.nan)
            elif not ledger.error("log_i", abs(li - oracle.log_intensity_all_in_a(params, z))):
                bad["inaccurate"] += 1
        ledger.ops(f"all_in_a N={params.n_photons}", trace.z_grid.size, bad, None)

    return check


def _fit_check(params, grid):
    """Slope against np.polyfit of the oracle's log I over the same window."""

    def check(fit, ledger: Ledger):
        n, gamma = params.n_photons, params.gamma
        zw = grid[(grid * KAPPA >= 10.0) & (grid * KAPPA <= 100.0)]
        y = np.array([oracle.log_intensity_all_in_a(params, z) for z in zw]) + n * gamma * zw
        ref = float(np.polyfit(np.log(zw), y, 1)[0])
        err = abs(fit.fitted_slope - ref) / abs(ref)
        _one_op(f"fit_ep_order N={n}", None, ledger.error("other", err), ledger)

    return check


def _onset_check(epbs, params, state):
    """The scan's answer must meet the criterion and the step before must not."""
    dz = 0.5 / KAPPA  # the scan's default step and gap of 1/kappa are assumed
    threshold = epbs.observables.STEADY_THRESHOLD

    def check(onset, ledger: Ledger):
        where = f"steady_state_onset N={params.n_photons} gamma={params.gamma}"
        if onset is None:
            _one_op(where, None, False, ledger)
            return
        lib = epbs.occupations(state, params, onset, enforce_floor=False)
        _, ref = oracle.evolve_named("noon", params, onset)
        ok = ledger.error("occ", float(np.abs(lib - ref).max()))
        ok &= _steady(params, onset) < threshold + TOL
        if onset >= dz:
            ok &= _steady(params, onset - dz) >= threshold - TOL
        _one_op(where, None, ok, ledger)

    return check


def _matrix_check(params, amplitudes, zs, known):
    def check(states, ledger: Ledger):
        bad = Counter()
        for z, psi in zip(zs, states):
            weight = float(np.vdot(psi, psi).real)
            if not (np.isfinite(psi).all() and weight > 0):
                bad["nonfinite"] += 1
                ledger.error("log_i", math.nan)
                continue
            ref_li, ref_p = oracle.evolve(params, amplitudes, float(z))
            ok = ledger.error("log_i", abs(math.log(weight) - ref_li))
            ok &= ledger.error("occ", float(np.abs(np.abs(psi) ** 2 / weight - ref_p).max()))
            if not ok:
                bad["inaccurate"] += 1
        ledger.ops(f"matrix N={params.n_photons} gamma={params.gamma}", len(zs), bad, known)

    return check


# ---------------------------------------------------------------------------
# defect probes: untimed, one op each, failing at the baseline

_NO_MATCH = "ValueError: no candidate lag matches the occupation profile periodically"


def _paper_probes(epbs, rng):
    p40 = epbs.BeamsplitterParams(OMEGA0, KAPPA, GAMMAS[2], 40)
    overflow_grid = shifted_linspace(0.0, 20.0 / KAPPA, 400, rng)
    overflow_idx = stratified(overflow_grid.size, CHECKED_POINTS_N100, rng)
    p10 = epbs.BeamsplitterParams(OMEGA0, KAPPA, GAMMAS[0], 10)

    def run(outputs, ledger: Ledger):
        reason, detail = _probe_call(
            epbs, lambda: epbs.trace_evolution(epbs.make_input("noon", 40), p40, overflow_grid),
            lambda trace: _probe_trace_check(p40, overflow_idx, trace))
        ledger.probe("probe.n40-broken-overflow", reason, detail,
                     "OverflowGuardError near kappa*z = 13.7")
        reason, detail = _probe_call(
            epbs, lambda: epbs.periodicity_check(outputs["noon.N40.gamma1.0"]),
            _probe_period_check)
        ledger.probe("probe.n40-periodicity-refusal", reason, detail, _NO_MATCH)
        shifted = epbs.trace_evolution(epbs.make_input("noon", 10), p10,
                                       np.linspace(0.012 / KAPPA, 30.0 / KAPPA, 2000))
        reason, detail = _probe_call(epbs, lambda: epbs.periodicity_check(shifted),
                                     _probe_period_check)
        ledger.probe("probe.n10-periodicity-shifted-grid", reason, detail, _NO_MATCH)

    return run


def _probe_call(epbs, call, judge):
    """(failure reason or None, detail) of one probe call."""
    try:
        out = call()
    except Exception as exc:  # the probe records whatever the program does
        return error_reason(exc, epbs), f"{type(exc).__name__}: {exc}"
    return judge(out)


def _probe_trace_check(params, idx, trace):
    probe_ledger = Ledger()
    trace_check(params, named_reference("noon", params), idx, True, None)(trace, probe_ledger)
    if probe_ledger.n_failed:
        return (probe_ledger.failed.most_common(1)[0][0],
                f"{dict(probe_ledger.failed)} points failed")
    return None, "completed, matches the oracle"


def _probe_period_check(result):
    """Period at 0.5 Gamma_c, where it is 2 pi / sqrt(3) for every N."""
    exact = 2 * math.pi / math.sqrt(3.0)
    err = abs(result.period_detected - exact) / exact
    if err > TOL:
        return "inaccurate", f"relative period error {err:.3g}"
    return None, "completed, matches 2 pi / sqrt(3)"
