"""Post-selection intensity, normalized occupations and their diagnostics.

For a normalized input the intensity I(z) = <psi(0)| G^dag(z) G(z) |psi(0)>
is the probability that all N photons survive to distance z, i.e. the
fraction of trials kept by number-resolved post-selection.  The normalized
occupation P(m; z) = |(m|psi(z)>|^2 / <psi(z)|psi(z)> distributes that
surviving weight over the N+1 basis states.

I(z) decays like exp(-N*Gamma*z) times slow structure, far below the double
range for interesting parameter windows, so all intensity bookkeeping runs
in log space.  Every entry point evaluates whole z arrays at once through
the symmetric-power engine (``propagator.evolve_grid``), which updates the
input state without forming the propagator and carries the decay and the
scale of the single-photon propagator as logarithms; single points are a
batch of one.  Occupations are scale-free and stay exact arbitrarily deep
in the tail, but they stop being physically meaningful once the
post-selection weight underflows entirely, which is reported as an error
rather than a silent 0/0 unless the caller opts out.

Three diagnostics quantify what the dynamics encode: a log-log slope fit of
exp(N*Gamma*z) * I(z), which approaches 2N at the critical loss; period
detection of the occupation oscillations below threshold (the exact period
2*pi/Delta_lambda is independent of N); and steady-state onset detection
above and at threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import IntensityUnderflowError
from .fock_core import BeamsplitterParams, OperatorSet
from .propagator import METHOD, evolve_grid
from .spectral import classify_regime, delta_lambda

__all__ = [
    "InputState",
    "IntensityValue",
    "EvolutionTrace",
    "OrderFit",
    "PeriodicityResult",
    "INPUT_KINDS",
    "INTENSITY_FLOOR_LOG",
    "make_input",
    "intensity",
    "occupations",
    "trace_evolution",
    "fit_ep_order",
    "periodicity_check",
    "steady_state_onset",
]

INPUT_KINDS = ("all_in_a", "all_in_b", "noon", "custom")

# Below this log-intensity the post-selected manifold carries no
# representable weight and normalized occupations are undefined.
INTENSITY_FLOOR_LOG = math.log(1e-300)

# Steady-state criterion: occupations at z and z + 1/kappa agree to this.
STEADY_THRESHOLD = 1e-6
# Scan steps evaluated per batch by steady_state_onset.
_ONSET_CHUNK = 256


@dataclass(frozen=True)
class InputState:
    """Normalized amplitude vector over the |m) basis."""

    amplitudes: np.ndarray
    label: str

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


def make_input(kind: str, n_photons: int, custom=None) -> InputState:
    """Construct a named input state in the |m) = |N-m>_a |m>_b ordering.

    'all_in_a' puts every photon in the neutral guide (m=0), 'all_in_b' in
    the lossy guide (m=N), 'noon' is the balanced superposition of the two,
    and 'custom' normalizes a caller-supplied length-(N+1) vector.
    """
    if kind not in INPUT_KINDS:
        raise ValueError(f"unknown input kind {kind!r}; expected one of {INPUT_KINDS}")
    if (custom is not None) != (kind == "custom"):
        raise ValueError("custom amplitudes must be given exactly when kind='custom'")
    dim = n_photons + 1
    amp = np.zeros(dim, dtype=complex)
    if kind == "all_in_a":
        amp[0] = 1.0
    elif kind == "all_in_b":
        amp[-1] = 1.0
    elif kind == "noon":
        amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    else:
        amp = np.asarray(custom, dtype=complex)
        if amp.shape != (dim,):
            raise ValueError(f"custom amplitudes have shape {amp.shape}, expected ({dim},)")
        norm = np.linalg.norm(amp)
        if norm == 0.0:
            raise ValueError("custom amplitudes must not be the zero vector")
        amp = amp / norm
    amp.setflags(write=False)
    return InputState(amplitudes=amp, label=kind)


class IntensityValue(NamedTuple):
    value: float  # may underflow to 0.0; log_value stays finite
    log_value: float


def _evolve(
    state0: InputState, params: BeamsplitterParams, z: np.ndarray, enforce_floor: bool
) -> tuple[np.ndarray, np.ndarray]:
    """log I and occupations at each z.

    With ``enforce_floor`` the first z, in the order given, whose
    post-selection weight is below the floor raises
    ``IntensityUnderflowError``.
    """
    log_i, occ = evolve_grid(params, state0.amplitudes, z)
    if enforce_floor:
        below = np.flatnonzero(log_i < INTENSITY_FLOOR_LOG)
        if below.size:
            raise IntensityUnderflowError(float(z[below[0]]), float(log_i[below[0]]))
    return log_i, occ


def intensity(
    state0: InputState,
    params: BeamsplitterParams,
    z: float,
    ops: OperatorSet | None = None,
) -> IntensityValue:
    """Post-selection probability at distance z, with its natural log.

    The log value is exact even where the probability itself underflows
    (e.g. deep in the algebraic tail at the critical loss); the plain value
    then reads 0.0.  ``ops`` is accepted for compatibility and not needed.
    """
    log_i = float(evolve_grid(params, state0.amplitudes, [z])[0][0])
    value = math.exp(log_i) if log_i > -745.0 else 0.0
    return IntensityValue(value=value, log_value=log_i)


def occupations(
    state0: InputState,
    params: BeamsplitterParams,
    z: float,
    ops: OperatorSet | None = None,
    enforce_floor: bool = True,
) -> np.ndarray:
    """Normalized occupation vector P(m; z); sums to one.

    Raises ``IntensityUnderflowError`` once the post-selection weight falls
    below the representable floor.  The normalized ratio itself stays exact
    arbitrarily deep in the tail (the decay is carried as a logarithm), so
    diagnostics that legitimately probe past the floor, like steady-state
    detection at the critical loss, pass ``enforce_floor=False``.  ``ops``
    is accepted for compatibility and not needed.
    """
    return _evolve(state0, params, np.array([float(z)]), enforce_floor)[1][0]


@dataclass(frozen=True)
class EvolutionTrace:
    """Per-z intensity and occupation history of one evolution."""

    z_grid: np.ndarray
    intensity: np.ndarray
    log_intensity: np.ndarray
    occupations: np.ndarray | None  # shape (len(z_grid), N+1)
    methods: tuple[str, ...]  # propagator path used at each z (one engine)
    params: BeamsplitterParams
    input_state: InputState


def trace_evolution(
    state0: InputState,
    params: BeamsplitterParams,
    z_grid,
    with_occupations: bool = True,
    ops: OperatorSet | None = None,
) -> EvolutionTrace:
    """Evaluate intensity (and optionally occupations) along a z grid.

    The grid must be non-negative and ascending and is evaluated in one
    batch.  With occupations, the first z whose post-selection weight is
    below the floor raises ``IntensityUnderflowError``; pass
    ``with_occupations=False`` for deep-tail intensity work.  ``ops`` is
    accepted for compatibility and not needed.
    """
    grid = np.asarray(z_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("z grid must be a non-empty 1-D sequence")
    if grid[0] < 0 or np.any(np.diff(grid) < 0):
        raise ValueError("z grid must be non-negative and ascending")
    if state0.dim != params.n_photons + 1:
        raise ValueError(
            f"input state dimension {state0.dim} != N+1 = {params.n_photons + 1}"
        )
    log_i, occ = _evolve(state0, params, grid, with_occupations)
    with np.errstate(under="ignore"):
        inten = np.where(log_i > -745.0, np.exp(np.minimum(log_i, 0.0)), 0.0)
    return EvolutionTrace(
        z_grid=grid,
        intensity=inten,
        log_intensity=log_i,
        occupations=occ if with_occupations else None,
        methods=(METHOD,) * grid.size,
        params=params,
        input_state=state0,
    )


@dataclass(frozen=True)
class OrderFit:
    """Least-squares slope of log[exp(N*Gamma*z) I(z)] against log z."""

    fitted_slope: float
    expected_slope: float
    window: tuple[float, float]
    residual: float


def fit_ep_order(
    trace: EvolutionTrace, window_kz: tuple[float, float] = (10.0, 100.0)
) -> OrderFit:
    """Extract the algebraic-growth exponent from a critical-loss trace.

    At the critical loss the rescaled intensity exp(N*Gamma*z)*I(z) grows
    like z^(2N), so the fitted slope reads off twice the photon number (one
    power per coalesced mode pair).  The window is in units of kappa*z and
    must start at >= 10 (the asymptotic regime) and span at least a decade.
    """
    lo, hi = window_kz
    if lo < 10.0:
        raise ValueError(f"fit window must start at kappa*z >= 10, got {lo}")
    kappa = trace.params.kappa
    sel = (trace.z_grid * kappa >= lo) & (trace.z_grid * kappa <= hi)
    z = trace.z_grid[sel]
    if z.size < 3 or math.log10(z[-1] / z[0]) < 1.0:
        raise ValueError(
            "fit window too short: need at least a decade of kappa*z with >= 3 points"
        )
    n, gamma = trace.params.n_photons, trace.params.gamma
    y = trace.log_intensity[sel] + n * gamma * z
    x = np.log(z)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return OrderFit(
        fitted_slope=float(slope),
        expected_slope=2.0 * n,
        window=(float(z[0]), float(z[-1])),
        residual=resid,
    )


class PeriodicityResult(NamedTuple):
    period_detected: float
    deviation: float  # |detected - 2*pi/Delta_lambda|


def periodicity_check(trace: EvolutionTrace) -> PeriodicityResult:
    """Detect the oscillation period of the occupations below threshold.

    The mean-centered occupation series are autocorrelated (averaged over
    m), candidate lag peaks are sharpened by quadratic interpolation, and
    the first candidate whose profile mismatch P(m; z + T) vs P(m; z) can be
    driven to roundoff is polished to full precision.  Below threshold the
    occupations are exactly periodic with 2*pi/Delta_lambda because the
    spectrum is an equidistant real ladder on top of a common decay; the
    reported deviation is measured against that value.  Inputs with extra
    symmetry can genuinely repeat faster (the lossless balanced
    superposition halves the period) and then the detected fundamental
    differs from 2*pi/Delta_lambda by construction.

    Requires gamma < 2*kappa, occupations in the trace, a uniform grid and
    a span of at least two analytic periods.
    """
    from scipy.optimize import minimize_scalar

    params = trace.params
    if classify_regime(params.kappa, params.gamma) != "unbroken":
        raise ValueError("periodicity requires gamma < 2*kappa (real level spacing)")
    if trace.occupations is None:
        raise ValueError("trace was computed without occupations")
    t_analytic = 2.0 * math.pi / delta_lambda(params.kappa, params.gamma).real

    z = trace.z_grid
    steps = np.diff(z)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("periodicity detection needs a uniform z grid")
    dz = float(steps[0])
    if z[-1] - z[0] < 2.0 * t_analytic:
        raise ValueError(
            f"grid spans {z[-1] - z[0]:.3g} but must cover >= 2 periods "
            f"(2T = {2 * t_analytic:.3g})"
        )

    sig = trace.occupations - trace.occupations.mean(axis=0)
    if np.abs(sig).max() < 1e-12:
        raise ValueError("occupations are constant along the grid; no period to detect")
    n_z = sig.shape[0]
    # unbiased autocorrelation averaged over the m-resolved series; lags
    # beyond half the span carry too few samples to be trustworthy
    n_lag = n_z // 2
    corr = np.zeros(n_lag)
    for col in sig.T:
        corr += np.correlate(col, col, mode="full")[n_z - 1 :][:n_lag]
    counts = n_z - np.arange(n_lag)
    corr /= counts

    # candidate peaks: local maxima past the zero-lag lobe, ascending lag
    below = np.flatnonzero(corr < 0)
    if below.size == 0:
        raise ValueError("no autocorrelation peak found; occupations look aperiodic")
    start = below[0]
    interior = np.arange(start + 1, corr.size - 1)
    is_max = (corr[interior] >= corr[interior - 1]) & (corr[interior] >= corr[interior + 1])
    peaks = interior[is_max & (corr[interior] > 0)]
    if peaks.size == 0:
        raise ValueError("no interior autocorrelation peak found")

    # polish candidates by direct profile matching on the exact dynamics; a
    # true period drives the mismatch to roundoff while sub-harmonic bumps
    # bottom out orders of magnitude higher, so accept the first that
    # essentially vanishes (the fundamental precedes its multiples)
    probe_span = peaks[0] * dz
    probes = z[0] + np.linspace(0.0, 0.9, 6) * probe_span
    base = _evolve(trace.input_state, params, probes, True)[1]

    def mismatch(t: float) -> float:
        shifted = _evolve(trace.input_state, params, probes + t, True)[1]
        return float(np.sum((shifted - base) ** 2))

    for k in peaks:
        c_m, c_0, c_p = corr[k - 1], corr[k], corr[k + 1]
        denom = c_m - 2.0 * c_0 + c_p
        k_hat = k + (0.5 * (c_m - c_p) / denom if denom != 0 else 0.0)
        t_coarse = k_hat * dz
        res = minimize_scalar(
            mismatch,
            bounds=(t_coarse - 2.0 * dz, t_coarse + 2.0 * dz),
            method="bounded",
            options={"xatol": 1e-12 * t_coarse},
        )
        # the bounded minimizer cannot resolve x below ~sqrt(eps)*|x|; one
        # parabolic vertex step on the locally quadratic mismatch finishes
        # the localization to roundoff
        t0, h = float(res.x), 1e-5 * t_coarse
        f_m, f_0, f_p = mismatch(t0 - h), mismatch(t0), mismatch(t0 + h)
        denom = f_m - 2.0 * f_0 + f_p
        if denom > 0:
            t0 += 0.5 * h * (f_m - f_p) / denom
        if mismatch(t0) < 1e-16:
            return PeriodicityResult(
                period_detected=t0, deviation=abs(t0 - t_analytic)
            )
    raise ValueError("no candidate lag matches the occupation profile periodically")


def steady_state_onset(
    state0: InputState,
    params: BeamsplitterParams,
    z_max: float,
    dz: float | None = None,
    threshold: float = STEADY_THRESHOLD,
    gap: float | None = None,
    ops: OperatorSet | None = None,
) -> float | None:
    """First z (scanned in steps of dz up to z_max) with a frozen profile.

    Steady is declared at z once max_m |P(m; z) - P(m; z + gap)| drops below
    ``threshold``; the comparison gap defaults to 1/kappa and the scan step
    to 0.5/kappa, which is also the resolution of the answer.  Returns
    ``None`` when the criterion is never met.

    At the critical loss the profile converges only algebraically (the
    propagator is polynomial in z there), so tight thresholds are reached at
    large z where the surviving intensity underflows; the scan therefore
    reads the normalized profile past the floor, where it remains exact.
    The scan steps z = 0, dz, 2*dz, ... (accumulated one addition at a time)
    are evaluated in batches of ``_ONSET_CHUNK`` and the scan stops at the
    first batch that holds a hit.  ``ops`` is accepted for compatibility
    and not needed.
    """
    if dz is None:
        dz = 0.5 / params.kappa
    if gap is None:
        gap = 1.0 / params.kappa
    if dz <= 0 or gap <= 0 or z_max < 0:
        raise ValueError("dz and gap must be positive, z_max non-negative")
    z = 0.0
    while z <= z_max:
        steps = []
        while z <= z_max and len(steps) < _ONSET_CHUNK:
            steps.append(z)
            z += dz
        here = np.array(steps)
        occ = evolve_grid(params, state0.amplitudes, np.concatenate([here, here + gap]))[1]
        drift = np.abs(occ[: here.size] - occ[here.size :]).max(axis=1)
        hits = np.flatnonzero(drift < threshold)
        if hits.size:
            return steps[hits[0]]
    return None
