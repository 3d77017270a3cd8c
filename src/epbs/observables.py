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
batch of one.  Occupations are scale-free and stay exact at any depth of
the tail, long after I has underflowed: at the critical loss that tail is
where the exceptional point shows.

Three diagnostics quantify what the dynamics encode: a log-log slope fit of
exp(N*Gamma*z) * I(z), which approaches 2N at the critical loss (2(N-1) for
noon at N = 2 mod 4 and the other states on |0) and |N) with
a_0 + (-i)^N a_N = 0); period
detection of the occupation oscillations below threshold (the exact period
2*pi/Delta_lambda is independent of N), whose candidates come from an
autocorrelation formed by FFT; and steady-state onset detection above and
at threshold, which evaluates each distinct scan z once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock_core import BeamsplitterParams, _n_photons_faults
from .propagator import _scale_amplitudes, evolve_grid
from .spectral import classify_regime, delta_lambda

__all__ = [
    "InputState",
    "EvolutionTrace",
    "OrderFit",
    "PeriodicityResult",
    "INPUT_KINDS",
    "make_input",
    "occupations",
    "trace_evolution",
    "fit_ep_order",
    "periodicity_check",
    "steady_state_onset",
]

INPUT_KINDS = ("all_in_a", "all_in_b", "noon", "custom")

# Steady-state criterion: occupations at z and z + 1/kappa agree to this.
STEADY_THRESHOLD = 1e-6
_FIT_WINDOW = (10.0, 100.0)  # fit_ep_order's kappa*z window; order-fit's default grid spans it
# Scan steps per batch of steady_state_onset.  A batch evaluates each of its
# steps, and each step + 1/kappa that is not itself one of them, once.
_ONSET_CHUNK = 256
# Cap on the parabolic refinement steps per periodicity candidate.
_REFINE_STEPS = 20


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
    and 'custom' normalizes a caller-supplied length-(N+1) vector: any
    finite, non-zero one, by the rule (and with the messages) of
    ``evolve_grid``.  It is first scaled by the power of two that puts its
    largest part in [1/2, 1), so that its norm neither overflows nor
    underflows; that scaling is exact, so a vector whose norm is
    representable keeps its bits.  Every check, N's as in ``BeamsplitterParams``, runs before
    anything of size N+1 is allocated; a failed one raises ``ValueError``.
    """
    if kind not in INPUT_KINDS:
        raise ValueError(f"unknown input kind {kind!r}; expected one of {INPUT_KINDS}")
    if (custom is not None) != (kind == "custom"):
        raise ValueError("custom amplitudes must be given exactly when kind='custom'")
    if faults := _n_photons_faults(n_photons):
        raise ValueError(faults[0])
    dim = n_photons + 1
    if kind == "custom":
        amp = np.ascontiguousarray(custom, dtype=complex)
        if amp.shape != (dim,):
            raise ValueError(
                f"custom amplitudes have shape {amp.shape}, expected (n_photons+1,) = ({dim},)"
            )
        amp = _scale_amplitudes(amp)[0]
        amp = amp / np.linalg.norm(amp)
    else:
        amp = np.zeros(dim, dtype=complex)
        if kind == "all_in_a":
            amp[0] = 1.0
        elif kind == "all_in_b":
            amp[-1] = 1.0
        else:
            amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    amp.setflags(write=False)
    return InputState(amplitudes=amp, label=kind)


def _intensity_of(log_i: np.ndarray) -> np.ndarray:
    """I from log I: at most 1, as G is a contraction, and 0.0 below the double range."""
    with np.errstate(under="ignore"):
        return np.where(log_i > -745.0, np.exp(np.minimum(log_i, 0.0)), 0.0)


def occupations(
    state0: InputState,
    params: BeamsplitterParams,
    z: float,
    enforce_floor: bool = True,
) -> np.ndarray:
    """Normalized occupation vector P(m; z); sums to one.

    The ratio is exact at any depth of the tail, since the decay is carried
    as a logarithm.  ``enforce_floor`` has no effect; it is kept only for
    callers that still pass it.
    """
    return evolve_grid(params, state0.amplitudes, [float(z)])[1][0]


@dataclass(frozen=True)
class EvolutionTrace:
    """Per-z intensity and occupation history of one evolution."""

    z_grid: np.ndarray
    intensity: np.ndarray
    log_intensity: np.ndarray
    occupations: np.ndarray | None  # shape (len(z_grid), N+1)
    params: BeamsplitterParams
    input_state: InputState


def trace_evolution(
    state0: InputState,
    params: BeamsplitterParams,
    z_grid,
    with_occupations: bool = True,
) -> EvolutionTrace:
    """Evaluate intensity (and optionally occupations) along a z grid.

    The grid must be non-negative and ascending and is evaluated in one
    batch.  Occupations are exact at every z, also where I reads 0.0;
    ``with_occupations=False`` skips them for intensity-only work.
    """
    grid = np.asarray(z_grid, dtype=float)
    # the engine holds each z to its own rule: a 1-D grid of finite distances >= 0
    if grid.size == 0 or np.any(np.diff(grid.ravel()) < 0):
        raise ValueError("z grid must be non-empty and ascending")
    log_i, occ = evolve_grid(params, state0.amplitudes, grid, with_occupations)
    return EvolutionTrace(
        z_grid=grid,
        intensity=_intensity_of(log_i),
        log_intensity=log_i,
        occupations=occ,
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


def _chain_depth(amplitudes: np.ndarray) -> int:
    """d, the largest k with M^k a != 0 at the critical loss, for a state a on N photons.

    There g1's core is I + kappa z n with n = [[1, -i], [-i, -1]] nilpotent,
    so a state on |0) and |N) maps to a polynomial in z whose z^N
    coefficient is (a_0 + (-i)^N a_N) (kappa z)^N (x - i y)^N and whose
    z^(N-1) coefficient is N a_0 (kappa z)^(N-1) (x - i y)^N where the
    former vanishes: d = N - 1 exactly when a_0 + (-i)^N a_N = 0 (noon at
    N = 2 mod 4), N otherwise.  Any other state is given d = N.
    """
    n = amplitudes.size - 1
    if not amplitudes[1:n].any() and amplitudes[0] + (1, -1j, -1, 1j)[n % 4] * amplitudes[n] == 0:
        return n - 1
    return n


def fit_ep_order(trace: EvolutionTrace) -> OrderFit:
    """Extract the algebraic-growth exponent from a critical-loss trace.

    At the critical loss the rescaled intensity exp(N*Gamma*z)*I(z) grows
    like z^(2d), d the largest power of the nilpotent M = H_N - tr(H_N)/(N+1)
    that does not annihilate the input: d = N (one power per coalesced mode
    pair) but for the states on |0) and |N) with a_0 + (-i)^N a_N = 0, where
    d = N - 1.  ``expected_slope`` is 2d.  The fit window is kappa*z in
    [10, 100] (the asymptotic regime), z in [10/kappa, 100/kappa], the ends
    that order-fit's default grid is built from; membership is decided in
    z, so no rounded product kappa*z moves an end.  The grid must reach
    both ends and hold at least 3 points inside.
    """
    lo, hi = (end / trace.params.kappa for end in _FIT_WINDOW)
    sel = (trace.z_grid >= lo) & (trace.z_grid <= hi)
    z = trace.z_grid[sel]
    if z.size < 3 or trace.z_grid[0] > lo or trace.z_grid[-1] < hi:
        raise ValueError(
            f"fit window too short: the grid must reach kappa*z <= {_FIT_WINDOW[0]:g} and "
            f">= {_FIT_WINDOW[1]:g}, a decade, with >= 3 points in between"
        )
    n, gamma = trace.params.n_photons, trace.params.gamma
    y = trace.log_intensity[sel] + n * gamma * z
    x = np.log(z)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return OrderFit(
        fitted_slope=float(slope),
        expected_slope=2.0 * _chain_depth(trace.input_state.amplitudes),
        window=(float(z[0]), float(z[-1])),
        residual=resid,
    )


class PeriodicityResult(NamedTuple):
    period_detected: float
    deviation: float  # |detected - 2*pi/Delta_lambda|


def _autocorrelation(sig: np.ndarray) -> np.ndarray:
    """Unbiased autocorrelation of the columns of ``sig``, summed over columns.

    Returned for lags 0 .. n_z // 2 - 1; longer lags carry too few samples
    to be trustworthy.  The transform of an autocorrelation is the power
    spectrum (Wiener-Khinchin), so one zero-padded real FFT over all
    columns, |F|^2 summed over the columns and one inverse FFT give every
    lag in O(n_z log n_z).  Padding to n_z + n_lag - 1 points or more keeps
    the circular wrap-around out of the lags returned.
    """
    n_z = sig.shape[0]
    n_lag = n_z // 2
    size = 1 << (n_z + n_lag - 2).bit_length()  # a power of two >= n_z + n_lag - 1
    spec = np.fft.rfft(sig, n=size, axis=0)
    power = (spec.real**2 + spec.imag**2).sum(axis=1)
    return np.fft.irfft(power, n=size)[:n_lag] / (n_z - np.arange(n_lag))


def periodicity_check(trace: EvolutionTrace) -> PeriodicityResult:
    """Detect the oscillation period of the occupations below threshold.

    The mean-centered occupation series are autocorrelated (unbiased,
    summed over m) from one zero-padded FFT power spectrum of all m at once,
    in O(n log n) for n grid points, and candidate lag peaks are sharpened
    by quadratic interpolation.
    Each candidate T is refined on the profile mismatch, the summed squares
    of P(m; z + T) - P(m; z) at six probe z, which near a period is an exact
    parabola with its zero there: parabolic vertex steps, each from one
    batched evaluation at T - h, T and T + h, kept within the half-width at
    half maximum of the correlation peak (at least two grid steps) around
    the candidate.  The first candidate that settles with a mismatch below
    1e-16 is taken, and then the smallest of its divisors T/j (j >= 2, at
    least two grid steps long) whose mismatch is below 1e-16 too, screened
    in one batched evaluation at the first probe: a multiple of the period
    vanishes as well.  The result is the period to a few 1e-15 relative.
    Below threshold the occupations are exactly periodic with
    2*pi/Delta_lambda because the spectrum is an equidistant real ladder on
    top of a common decay; the reported deviation is measured against that
    value.  Inputs with extra symmetry can genuinely repeat faster (the
    lossless balanced superposition halves the period) and then the
    detected fundamental differs from 2*pi/Delta_lambda by construction.

    Requires gamma < 2*kappa, occupations in the trace, a uniform grid and
    a span of at least two analytic periods.
    """
    params = trace.params
    if classify_regime(params.kappa, params.gamma) != "unbroken":
        raise ValueError("periodicity requires gamma < 2*kappa (real level spacing)")
    if trace.occupations is None:
        raise ValueError("trace was computed without occupations")
    t_analytic = 2.0 * math.pi / delta_lambda(params.kappa, params.gamma).real

    z = trace.z_grid
    if z[-1] - z[0] < 2.0 * t_analytic:
        raise ValueError(
            f"grid spans {z[-1] - z[0]:.3g} but must cover >= 2 periods "
            f"(2T = {2 * t_analytic:.3g})"
        )
    steps = np.diff(z)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("periodicity detection needs a uniform z grid")
    dz = float(steps[0])

    sig = trace.occupations - trace.occupations.mean(axis=0)
    if np.abs(sig).max() < 1e-12:
        raise ValueError("occupations are constant along the grid; no period to detect")
    corr = _autocorrelation(sig)

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

    # refine candidates by direct profile matching on the exact dynamics; a
    # true period drives the mismatch to roundoff while sub-harmonic bumps
    # bottom out orders of magnitude higher, so accept the first that
    # essentially vanishes (the fundamental precedes its multiples)
    probe_span = peaks[0] * dz
    probes = z[0] + np.linspace(0.0, 0.9, 6) * probe_span
    base = evolve_grid(params, trace.input_state.amplitudes, probes)[1]

    def mismatch(shifts, count=probes.size) -> np.ndarray:
        """Profile mismatch at each shift over the first ``count`` probes, in one evaluation."""
        shifted = np.add.outer(shifts, probes[:count]).ravel()
        occ = evolve_grid(params, trace.input_state.amplitudes, shifted)[1]
        occ = occ.reshape(len(shifts), count, base.shape[1])
        return ((occ - base[:count]) ** 2).sum(axis=(1, 2))

    for k in peaks:
        c_m, c_0, c_p = corr[k - 1], corr[k], corr[k + 1]
        denom = c_m - 2.0 * c_0 + c_p
        k_hat, reach = float(k), 2.0
        if denom < 0:
            # vertex and half-width at half maximum of the parabola through
            # the three samples; the decay can bias the peak off the period
            # by more than two grid steps
            k_hat += 0.5 * (c_m - c_p) / denom
            reach = max(reach, math.sqrt(c_0 / -denom))
        t_coarse = k_hat * dz
        lo, hi = t_coarse - reach * dz, t_coarse + reach * dz
        # the bracket h shrinks with the step but stays wide enough for the
        # mismatch at T +- h to stand above its roundoff floor
        t, h = t_coarse, dz
        for _ in range(_REFINE_STEPS):
            f_m, f_0, f_p = mismatch((t - h, t, t + h))
            denom = f_m - 2.0 * f_0 + f_p
            if denom <= 0:
                # a concave sample is no settled vertex: the valley is narrower
                # than h, so move to the lowest sample and halve h
                lowest = t + (-h, 0.0, h)[int(np.argmin((f_m, f_0, f_p)))]
                t, h = min(max(lowest, lo), hi), 0.5 * h
                continue
            step = min(max(t + 0.5 * h * (f_m - f_p) / denom, lo), hi) - t
            if abs(step) < 1e-15 * t:
                break
            t, h = t + step, max(abs(step), 1e-9 * t)
        else:
            continue  # not settled: no period located to full precision
        if f_0 < 1e-16:
            # the fundamental's narrow peak can be missed; a divisor's first
            # probe alone bounds its mismatch from below
            divisors = t / np.arange(int(t / (2.0 * dz)), 1, -1)
            divisors = divisors[mismatch(divisors, 1) < 1e-16]
            passed = np.flatnonzero(mismatch(divisors) < 1e-16)
            if passed.size:
                t = float(divisors[passed[0]])
            return PeriodicityResult(period_detected=t, deviation=abs(t - t_analytic))
    raise ValueError("no candidate lag matches the occupation profile periodically")


def steady_state_onset(
    state0: InputState,
    params: BeamsplitterParams,
    z_max: float,
    dz: float | None = None,
) -> float | None:
    """First z (scanned in steps of dz up to z_max) with a frozen profile.

    Steady is declared at z once max_m |P(m; z) - P(m; z + 1/kappa)| drops
    below ``STEADY_THRESHOLD``; the scan step defaults to 0.5/kappa, which
    is also the resolution of the answer.  Returns ``None`` when the
    criterion is not met by z_max.  Below threshold (gamma < 2*kappa) the
    profile oscillates forever, so such a call raises ``ValueError``.

    At the critical loss the profile converges only algebraically (the
    propagator is polynomial in z there), so tight thresholds are reached at
    large z where the surviving intensity underflows; the normalized
    profile the scan reads stays exact there.
    The scan steps z = 0, dz, 2*dz, ... (accumulated one addition at a time)
    are evaluated in batches of ``_ONSET_CHUNK``, and the scan stops at the
    first batch that holds a hit.  Each distinct z of a batch is evaluated
    once: a z + 1/kappa that is bit for bit a step of the batch (every step
    but the last two at kappa = 1 with the default dz) reuses that step's
    profile.  Raises ``ValueError`` unless dz is finite and positive and
    z_max finite and non-negative.
    """
    if classify_regime(params.kappa, params.gamma) == "unbroken":
        raise ValueError("the profile oscillates below threshold (gamma < 2*kappa); no onset")
    if dz is None:
        dz = 0.5 / params.kappa
    if not (math.isfinite(dz) and math.isfinite(z_max)) or dz <= 0 or z_max < 0:
        raise ValueError("dz must be finite and positive, z_max finite and non-negative")
    gap = 1.0 / params.kappa
    z = 0.0
    while z <= z_max:
        # cumsum adds one step at a time, so the steps are z, z + dz,
        # (z + dz) + dz, ... to the bit
        steps = np.full(_ONSET_CHUNK, dz, dtype=float)
        steps[0] = z
        steps = np.cumsum(steps)
        z = steps[-1] + dz
        here = steps[: np.searchsorted(steps, z_max, side="right")]
        ahead = here + gap
        # both halves ascend, so a binary search finds each z + gap that is
        # already a step, by exact equality; only the others are evaluated
        at = np.minimum(np.searchsorted(here, ahead), here.size - 1)
        fresh = here[at] != ahead
        at[fresh] = here.size + np.arange(np.count_nonzero(fresh))
        occ = evolve_grid(params, state0.amplitudes, np.concatenate([here, ahead[fresh]]))[1]
        drift = np.abs(occ[: here.size] - occ[at]).max(axis=1)
        hits = np.flatnonzero(drift < STEADY_THRESHOLD)
        if hits.size:
            return float(here[hits[0]])
    return None
