"""Scenario runner: JSON config in, deterministic CSV/JSON (and SVG) out.

Six named experiments cover the quantities the library computes:

  spectrum-flow        eigenvalue ladder swept over a loss grid
  ep-certify           nilpotency certificate of the shifted Hamiltonian
  intensity-decay      post-selection intensity I(z) along a z grid
  order-fit            log-log slope of exp(N*Gamma*z) I(z) at critical loss
  occupation-dynamics  normalized occupations P(m; z) plus period/steady report
  custom-evolve        trace of a caller-supplied input state

Configuration is a single JSON document (file or stdin); scalar fields may
be overridden from the command line with ``--param dotted.key=value``.
The config dataclasses are its schema: their fields give each object's
keys, JSON types and defaults, their ``__post_init__`` its invariants, and
``make_input`` checks the input state.  ``validate`` reports every fault in
one pass, unknown keys and a grid or input the scenario does not read too.
Every run writes a ``manifest.json`` with the normalized config echo, tool
version, wall time and a sha256 checksum per output file.  Data outputs are
byte-deterministic for identical configs: CSV numbers are printed with 17
significant digits and plots embed no timestamps.  The wall-time field makes
the manifest itself the one non-reproducible file; its checksum list still
reproduces run to run.

Exit codes: 0 success, 1 invalid configuration, 2 computation error,
3 I/O error.  ``EPBS_LOG`` selects log verbosity (debug/info/warning/error).
The tool never touches the network.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from ._svg import heatmap, line_plot
from .errors import SimulationError
from .fock_core import BeamsplitterParams, build_hamiltonian
from .observables import (
    _FIT_WINDOW,
    fit_ep_order,
    make_input,
    periodicity_check,
    steady_state_onset,
    trace_evolution,
)
from .propagator import METHOD
from .spectral import certify_ep, classify_regime, eigenvalue_flow

__all__ = ["RunConfig", "GridSpec", "InputSpec", "OutputSpec", "RunManifest",
           "validate", "run", "main", "SCENARIOS"]

log = logging.getLogger("epbs")


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    count: int
    spacing: str = "linear"  # or "log"

    def __post_init__(self):
        faults = [f"{k}: must be finite" for k in ("start", "stop")
                  if not math.isfinite(getattr(self, k))]
        if self.count < 1:
            faults.append("count: must be an integer >= 1")
        if self.spacing not in ("linear", "log"):
            faults.append("spacing: must be 'linear' or 'log'")
        if self.stop < self.start:
            faults.append("stop: grid must be ascending (start <= stop)")
        if self.spacing == "log" and self.start <= 0:
            faults.append("start: log spacing requires start > 0")
        elif self.start < 0:
            faults.append("start: must be >= 0")
        if faults:
            raise ValueError("; ".join(faults))

    def to_array(self) -> np.ndarray:
        if self.spacing == "linear":
            return np.linspace(self.start, self.stop, self.count)
        # logspace can miss start and stop by an ulp; the ends are set to them exactly
        out = np.logspace(math.log10(self.start), math.log10(self.stop), self.count)
        out[-1] = self.stop
        out[0] = self.start
        return out


@dataclass(frozen=True)
class InputSpec:
    kind: str
    amplitudes: tuple | None = None  # entries are numbers or (re, im) pairs

    def __post_init__(self):
        for i, a in enumerate(self.amplitudes or ()):
            parts = a if isinstance(a, (list, tuple)) and len(a) == 2 else [a]
            if not all(_is_number(x) and math.isfinite(_float(x)) for x in parts):
                raise ValueError(f"amplitudes[{i}]: must be finite, a number or [re, im]")

    def to_state(self, n_photons: int):
        custom = None if self.amplitudes is None else [
            complex(*a) if isinstance(a, (list, tuple)) else a for a in self.amplitudes
        ]
        return make_input(self.kind, n_photons, custom)


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "."
    csv: bool = True
    json: bool = True
    svg: bool = False

    def __post_init__(self):
        if not self.directory:
            raise ValueError("directory: must be a non-empty string")


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    params: BeamsplitterParams
    input_state: InputSpec | None = None
    z_grid: GridSpec | None = None
    gamma_grid: GridSpec | None = None
    output: OutputSpec = field(default_factory=OutputSpec)

    def echo(self) -> dict:
        """Normalized plain-dict form, sufficient to reproduce the run; unset fields left out."""
        return asdict(self, dict_factory=lambda items: {k: v for k, v in items if v is not None})


@dataclass(frozen=True)
class RunManifest:
    config: dict
    version: str
    wall_time_s: float
    outputs: tuple[dict, ...]  # {"path", "sha256", "bytes"} per file


# ---------------------------------------------------------------------------
# validation

def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _float(v: int | float) -> float:
    """A JSON number as a float; json.loads gives integers of any size, inf beyond doubles."""
    try:
        return float(v)
    except OverflowError:
        return math.inf


def _frozen(v):
    """JSON arrays as tuples, so that a built config is immutable."""
    return tuple(map(_frozen, v)) if isinstance(v, list) else v


# the JSON values each field annotation of the config classes takes
_JSON_TYPES = {
    "float": (_is_number, "a number"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple | None": (lambda v: v is None or isinstance(v, list), "a list"),
}


def _build(cls, raw, where: str, errors: list[str]):
    """``cls`` built from the JSON object ``raw``, or None after recording every fault.

    The field names, JSON types and defaults are the dataclass's own; its
    ``__post_init__`` checks the invariants and reports each failed one as
    "field: reason" in a single ``ValueError``, joined by "; ".
    """
    names = [f.name for f in fields(cls)]
    if not isinstance(raw, dict):
        errors.append(f"{where}: must be an object with {'/'.join(names)}")
        return None
    unknown = set(raw) - set(names)
    if unknown:
        errors.append(f"{where}: unknown keys {sorted(unknown)}")
    values = {}
    for f in fields(cls):
        v = raw.get(f.name, f.default)
        is_type, what = _JSON_TYPES[f.type]
        if not is_type(v):
            errors.append(f"{where}.{f.name}: must be {what}")
        else:
            values[f.name] = _float(v) if f.type == "float" else _frozen(v)
    if len(values) < len(names):
        return None
    try:
        return cls(**values)
    except ValueError as exc:
        errors.extend(f"{where}.{fault}" for fault in str(exc).split("; "))
        return None


def _apply_overrides(doc: dict, overrides) -> list[str]:
    """Set dotted-path keys in the raw config document; returns errors."""
    errors = []
    for item in overrides or ():
        if "=" not in item:
            errors.append(f"--param {item!r}: expected key=value")
            continue
        path, _, raw_val = item.partition("=")
        try:
            value = json.loads(raw_val)
        except json.JSONDecodeError:
            value = raw_val  # bare strings are fine
        node = doc
        keys = path.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                errors.append(f"--param {path!r}: {key} is not an object")
                break
        else:
            node[keys[-1]] = value
    return errors


def validate(
    text: str, scenario: str | None = None, overrides=None
) -> tuple[RunConfig | None, list[str]]:
    """Parse and fully validate a JSON config, collecting every error.

    Returns (config, []) on success or (None, errors); a config is never
    partially constructed.  ``scenario`` (from the command line) must agree
    with the config's own scenario field when both are present.
    """
    try:
        doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        return None, [f"config is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"]
    if not isinstance(doc, dict):
        return None, ["config must be a JSON object"]

    errors = _apply_overrides(doc, overrides)

    name = doc.get("scenario", scenario)
    spec = _SCENARIOS[name] if name in SCENARIOS else None
    if name is None:
        errors.append("scenario: missing (give it in the config or on the command line)")
    elif spec is None:
        errors.append(f"scenario: unknown {name!r}; expected one of {list(SCENARIOS)}")
    elif scenario is not None and name != scenario:
        errors.append(f"scenario: config says {name!r} but the command line says {scenario!r}")

    params = _build(BeamsplitterParams, doc.get("params"), "params", errors)

    # without a known scenario every grid given is checked, so that one pass
    # reports every defect
    grids = {}
    for key in ("z_grid", "gamma_grid"):
        read = spec is None or key == spec.grid
        if key in doc and not read:
            errors.append(f"{key}: not used by scenario {name}")
        elif key in doc:
            grids[key] = _build(GridSpec, doc[key], key, errors)
        elif read and spec is not None and spec.default_grid is None:
            errors.append(f"{key}: required for scenario {name}")
        elif read and spec is not None and params is not None:
            grids[key] = _build(GridSpec, spec.default_grid(params), key, errors)

    input_spec, raw_input = None, doc.get("input_state")
    if spec is None or spec.input_kind is None:
        if "input_state" in doc:
            errors.append(f"input_state: not used by scenario {name}")
    elif raw_input is None and spec.input_kind == "custom":
        errors.append(f"input_state: required for scenario {name}")
    else:
        raw = {"kind": spec.input_kind} if raw_input is None else raw_input
        input_spec = _build(InputSpec, raw, "input_state", errors)
    # make_input checks the state itself: a named one's rules do not depend
    # on N, and at N=1 it has two entries
    if input_spec is not None and (input_spec.amplitudes is None or params is not None):
        try:
            input_spec.to_state(1 if input_spec.amplitudes is None else params.n_photons)
        except ValueError as exc:
            errors.append(f"input_state: {exc}")

    raw_output = doc.get("output")
    output = _build(OutputSpec, {} if raw_output is None else raw_output, "output", errors)

    unknown = set(doc) - {f.name for f in fields(RunConfig)}
    if unknown:
        errors.append(f"config: unknown keys {sorted(unknown)}")

    if errors:
        return None, errors
    return RunConfig(name, params, input_spec, output=output, **grids), []


# ---------------------------------------------------------------------------
# output helpers

def _csv_bytes(header: list[str], *columns: np.ndarray) -> bytes:
    """One line per row of equal-length columns: integers as they are, floats to 17 digits."""
    cells = [
        list(map(("{}" if col.dtype.kind == "i" else "{:.17g}").format, col.tolist()))
        for col in columns
    ]
    return "".join(",".join(row) + "\n" for row in [header, *zip(*cells)]).encode()


def _json_bytes(payload: dict) -> bytes:
    # NaN and infinities are not JSON; a non-finite value fails the run instead
    return (json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def _trace_report(scenario: str, trace) -> dict:
    return {
        "scenario": scenario,
        "input": trace.input_state.label,
        "z_min": float(trace.z_grid[0]),
        "z_max": float(trace.z_grid[-1]),
        "final_intensity": float(trace.intensity[-1]),
        "final_log_intensity": float(trace.log_intensity[-1]),
        "methods_used": [METHOD],
    }


# ---------------------------------------------------------------------------
# scenarios: each returns {filename: function making its bytes}; ``run`` applies the flags

def _run_spectrum_flow(cfg: RunConfig) -> dict[str, Callable[[], bytes]]:
    p = cfg.params
    flow = eigenvalue_flow(p.omega0, p.kappa, p.n_photons, cfg.gamma_grid.to_array())
    lam = flow.eigenvalues
    gamma = np.repeat(flow.gammas, p.n_photons + 1)
    r = np.tile(np.arange(p.n_photons + 1) - p.n_photons / 2.0, flow.gammas.size)
    re_series = [(flow.gammas, lam[:, k].real) for k in range(p.n_photons + 1)]
    im_series = [(flow.gammas, lam[:, k].imag) for k in range(p.n_photons + 1)]
    return {
        "spectrum_flow.csv": lambda: _csv_bytes(
            ["gamma", "r", "re_lambda", "im_lambda"], gamma, r, lam.real.ravel(), lam.imag.ravel()
        ),
        "report.json": lambda: _json_bytes(
            {
                "scenario": cfg.scenario,
                "gamma_critical": p.gamma_critical,
                "n_photons": p.n_photons,
                "rows": lam.size,
            }
        ),
        "spectrum_flow_re.svg": lambda: line_plot(re_series, "gamma", "Re lambda").encode(),
        "spectrum_flow_im.svg": lambda: line_plot(im_series, "gamma", "Im lambda").encode(),
    }


def _run_ep_certify(cfg: RunConfig) -> dict[str, Callable[[], bytes]]:
    cert = certify_ep(build_hamiltonian(cfg.params))
    ratios = np.asarray(cert.nilpotency_ratios, dtype=float)
    k = np.arange(1, ratios.size + 1)
    return {
        "nilpotency_ratios.csv": lambda: _csv_bytes(["k", "normalized_norm_ratio"], k, ratios),
        "report.json": lambda: _json_bytes(
            {
                "scenario": cfg.scenario,
                "order": cert.order,
                "shift_re": cert.shift.real,
                "shift_im": cert.shift.imag,
                "gamma": cert.gamma,
                "gamma_critical": cfg.params.gamma_critical,
                "regime": classify_regime(cfg.params.kappa, cfg.params.gamma),
                "nilpotency_ratios": ratios.tolist(),
                "passed": cert.passed,
            }
        ),
        "nilpotency_ratios.svg": lambda: line_plot(
            [(k, ratios)], "k", "normalized ||M^k||"
        ).encode(),
    }


def _intensity_csv(trace) -> bytes:
    return _csv_bytes(
        ["z", "intensity", "log_intensity"], trace.z_grid, trace.intensity, trace.log_intensity
    )


def _run_intensity_decay(cfg: RunConfig) -> dict[str, Callable[[], bytes]]:
    state = cfg.input_state.to_state(cfg.params.n_photons)
    trace = trace_evolution(state, cfg.params, cfg.z_grid.to_array(), with_occupations=False)
    return {
        "intensity.csv": lambda: _intensity_csv(trace),
        "report.json": lambda: _json_bytes(_trace_report(cfg.scenario, trace)),
        "intensity.svg": lambda: line_plot(
            [(trace.z_grid, trace.log_intensity)], "z", "log I(z)"
        ).encode(),
    }


def _run_order_fit(cfg: RunConfig) -> dict[str, Callable[[], bytes]]:
    state = cfg.input_state.to_state(cfg.params.n_photons)
    trace = trace_evolution(state, cfg.params, cfg.z_grid.to_array(), with_occupations=False)
    fit = fit_ep_order(trace)
    n, gamma = cfg.params.n_photons, cfg.params.gamma
    return {
        "intensity.csv": lambda: _intensity_csv(trace),
        "report.json": lambda: _json_bytes(
            {
                "expected_slope": fit.expected_slope,
                "fitted_slope": fit.fitted_slope,
                "window_z_min": fit.window[0],
                "window_z_max": fit.window[1],
                "residual_rms": fit.residual,
                **_trace_report(cfg.scenario, trace),
            }
        ),
        "order_fit.svg": lambda: line_plot(
            [(np.log(trace.z_grid), trace.log_intensity + n * gamma * trace.z_grid)],
            "ln z", "ln[exp(N Gamma z) I]",
        ).encode(),
    }


def _occupations_csv(trace) -> bytes:
    n_z, dim = trace.occupations.shape
    z, m = np.repeat(trace.z_grid, dim), np.tile(np.arange(dim), n_z)
    return _csv_bytes(["z", "m", "p"], z, m, trace.occupations.ravel())


def _occupations_svg(trace, spacing: str) -> bytes:
    log = spacing == "log"  # a log grid's cells are evenly spaced in log10 z
    ends = np.log10(trace.z_grid[[0, -1]]) if log else trace.z_grid[[0, -1]]
    return heatmap(trace.occupations.T, *ends.tolist(), "log10 z" if log else "z", "m").encode()


def _run_occupation_dynamics(cfg: RunConfig) -> dict[str, Callable[[], bytes]]:
    p = cfg.params
    state = cfg.input_state.to_state(p.n_photons)
    trace = trace_evolution(state, p, cfg.z_grid.to_array())
    report = _trace_report(cfg.scenario, trace)
    if classify_regime(p.kappa, p.gamma) == "unbroken":
        try:
            period = periodicity_check(trace)
            report["period_detected"] = period.period_detected
            report["period_deviation"] = period.deviation
        except ValueError as exc:
            report["period_detected"] = None
            report["period_note"] = str(exc)
    else:
        onset = steady_state_onset(state, p, z_max=float(trace.z_grid[-1]))
        report["steady_onset"] = onset
        if onset is not None:
            idx = int(np.searchsorted(trace.z_grid, onset))
            idx = min(idx, len(trace.z_grid) - 1)
            report["steady_argmax_m"] = int(np.argmax(trace.occupations[idx]))
    return {
        "occupations.csv": lambda: _occupations_csv(trace),
        "intensity.csv": lambda: _intensity_csv(trace),
        "report.json": lambda: _json_bytes(report),
        "occupations.svg": lambda: _occupations_svg(trace, cfg.z_grid.spacing),
    }


def _trace_csv(trace) -> bytes:
    n = trace.params.n_photons
    header = ["z", "intensity", "log_intensity"] + [f"p{m}" for m in range(n + 1)]
    return _csv_bytes(
        header, trace.z_grid, trace.intensity, trace.log_intensity, *trace.occupations.T
    )


def _run_custom_evolve(cfg: RunConfig) -> dict[str, Callable[[], bytes]]:
    p = cfg.params
    state = cfg.input_state.to_state(p.n_photons)
    trace = trace_evolution(state, p, cfg.z_grid.to_array())
    return {
        "trace.csv": lambda: _trace_csv(trace),
        "report.json": lambda: _json_bytes(_trace_report(cfg.scenario, trace)),
        "occupations.svg": lambda: _occupations_svg(trace, cfg.z_grid.spacing),
    }


class _Scenario(NamedTuple):
    """How a scenario runs, and what it reads beyond params and output: None reads nothing."""

    runner: Callable[[RunConfig], dict[str, Callable[[], bytes]]]
    grid: str | None = None  # "z_grid" or "gamma_grid", required unless default_grid gives it
    input_kind: str | None = None  # the kind when input_state is absent; "custom" requires it
    default_grid: Callable[[BeamsplitterParams], dict] | None = None


_SCENARIOS = {
    "spectrum-flow": _Scenario(_run_spectrum_flow, "gamma_grid"),
    "ep-certify": _Scenario(_run_ep_certify),
    "intensity-decay": _Scenario(_run_intensity_decay, "z_grid", "all_in_a"),
    # fit_ep_order's kappa*z window, 200 log-spaced points
    "order-fit": _Scenario(_run_order_fit, "z_grid", "all_in_a", lambda p: {
        "start": _FIT_WINDOW[0] / p.kappa, "stop": _FIT_WINDOW[1] / p.kappa,
        "count": 200, "spacing": "log"}),
    "occupation-dynamics": _Scenario(_run_occupation_dynamics, "z_grid", "noon"),
    "custom-evolve": _Scenario(_run_custom_evolve, "z_grid", "custom"),
}
SCENARIOS = tuple(_SCENARIOS)


def run(config: RunConfig) -> RunManifest:
    """Execute a validated config: compute, write outputs, write manifest."""
    started = time.perf_counter()
    makers = _SCENARIOS[config.scenario].runner(config)
    flags = asdict(config.output)
    # keep a file when the flag its extension names is on; build all before writing any
    files = {name: makers[name]() for name in sorted(makers) if flags[name.rpartition(".")[2]]}
    out_dir = config.output.directory
    os.makedirs(out_dir, exist_ok=True)

    entries = []
    for name, data in files.items():
        path = os.path.join(out_dir, name)
        with open(path, "wb") as fh:
            fh.write(data)
        entries.append(
            {"path": name, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        )
        log.info("wrote %s (%d bytes)", path, len(data))

    manifest = RunManifest(
        config=config.echo(),
        version=__version__,
        wall_time_s=time.perf_counter() - started,
        outputs=tuple(entries),
    )
    with open(os.path.join(out_dir, "manifest.json"), "wb") as fh:
        fh.write(_json_bytes({"tool": "epbs", **asdict(manifest)}))
    return manifest


def _setup_logging():
    level = os.environ.get("EPBS_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="epbs",
        description="Lossy-beamsplitter N-photon subspace scenarios (spectra, "
        "propagators, post-selection dynamics).",
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument(
        "--config", required=True, help="path to a JSON config, or '-' for stdin"
    )
    parser.add_argument("--out", help="output directory (overrides output.directory)")
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scalar config field by dotted path, e.g. params.gamma=2.0",
    )
    args = parser.parse_args(argv)
    _setup_logging()

    try:
        if args.config == "-":
            text = sys.stdin.read()
        else:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        print(f"epbs: cannot read config: {exc}", file=sys.stderr)
        return 3

    overrides = list(args.param)
    if args.out:
        overrides.append(f"output.directory={args.out}")
    config, errors = validate(text, scenario=args.scenario, overrides=overrides)
    if errors:
        for err in errors:
            print(f"epbs: config error: {err}", file=sys.stderr)
        return 1

    try:
        manifest = run(config)
    except (SimulationError, ValueError, OverflowError) as exc:
        print(f"epbs: {config.scenario} failed: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        n = config.params.n_photons
        print(f"epbs: {config.scenario} failed: not enough memory (N={n})", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"epbs: cannot write outputs: {exc}", file=sys.stderr)
        return 3

    print(
        f"epbs: {config.scenario}: wrote {len(manifest.outputs)} file(s) + manifest "
        f"to {config.output.directory}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
