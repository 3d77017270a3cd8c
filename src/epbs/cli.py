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
import io
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from ._svg import heatmap, line_plot
from .errors import SimulationError
from .fock_core import BeamsplitterParams, build_hamiltonian
from .observables import (
    INPUT_KINDS,
    fit_ep_order,
    make_input,
    periodicity_check,
    steady_state_onset,
    trace_evolution,
)
from .spectral import certify_ep, classify_regime, eigenvalue_flow

__all__ = ["RunConfig", "GridSpec", "InputSpec", "OutputSpec", "RunManifest",
           "validate", "run", "main", "SCENARIOS"]

log = logging.getLogger("epbs")

SCENARIOS = (
    "spectrum-flow",
    "ep-certify",
    "intensity-decay",
    "order-fit",
    "occupation-dynamics",
    "custom-evolve",
)

_DEFAULT_INPUT = {
    "intensity-decay": "all_in_a",
    "order-fit": "all_in_a",
    "occupation-dynamics": "noon",
}


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    count: int
    spacing: str = "linear"  # or "log"

    def to_array(self) -> np.ndarray:
        if self.spacing == "log":
            return np.logspace(math.log10(self.start), math.log10(self.stop), self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class InputSpec:
    kind: str
    amplitudes: tuple | None = None  # entries are floats or [re, im] pairs

    def to_state(self, n_photons: int):
        custom = None
        if self.amplitudes is not None:
            custom = np.array(
                [complex(a[0], a[1]) if isinstance(a, (list, tuple)) else complex(a)
                 for a in self.amplitudes]
            )
        return make_input(self.kind, n_photons, custom)


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "."
    csv: bool = True
    json: bool = True
    svg: bool = False


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    params: BeamsplitterParams
    input_state: InputSpec | None = None
    z_grid: GridSpec | None = None
    gamma_grid: GridSpec | None = None
    output: OutputSpec = field(default_factory=OutputSpec)

    def echo(self) -> dict:
        """Normalized plain-dict form, sufficient to reproduce the run."""
        doc: dict = {"scenario": self.scenario, "params": asdict(self.params)}
        if self.input_state is not None:
            spec = {"kind": self.input_state.kind}
            if self.input_state.amplitudes is not None:
                spec["amplitudes"] = [list(a) if isinstance(a, (list, tuple)) else a
                                      for a in self.input_state.amplitudes]
            doc["input_state"] = spec
        if self.z_grid is not None:
            doc["z_grid"] = asdict(self.z_grid)
        if self.gamma_grid is not None:
            doc["gamma_grid"] = asdict(self.gamma_grid)
        doc["output"] = asdict(self.output)
        return doc


@dataclass(frozen=True)
class RunManifest:
    config: dict
    version: str
    wall_time_s: float
    outputs: tuple[dict, ...]  # {"path", "sha256", "bytes"} per file


# ---------------------------------------------------------------------------
# validation

def _check_grid(raw, where: str, errors: list[str], positive_start=False) -> GridSpec | None:
    if not isinstance(raw, dict):
        errors.append(f"{where}: must be an object with start/stop/count")
        return None
    spec = {}
    for key in ("start", "stop"):
        v = raw.get(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            errors.append(f"{where}.{key}: must be a number")
        else:
            spec[key] = float(v)
    count = raw.get("count")
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        errors.append(f"{where}.count: must be an integer >= 1")
    else:
        spec["count"] = count
    spacing = raw.get("spacing", "linear")
    if spacing not in ("linear", "log"):
        errors.append(f"{where}.spacing: must be 'linear' or 'log'")
    else:
        spec["spacing"] = spacing
    unknown = set(raw) - {"start", "stop", "count", "spacing"}
    if unknown:
        errors.append(f"{where}: unknown keys {sorted(unknown)}")
    if len(spec) != 4:
        return None
    if spec["stop"] < spec["start"]:
        errors.append(f"{where}: grid must be ascending (start <= stop)")
        return None
    if spec["spacing"] == "log" and spec["start"] <= 0:
        errors.append(f"{where}.start: log spacing requires start > 0")
        return None
    if positive_start and spec["start"] < 0:
        errors.append(f"{where}.start: must be >= 0")
        return None
    return GridSpec(**spec)


def _check_params(raw, errors: list[str]) -> BeamsplitterParams | None:
    if not isinstance(raw, dict):
        errors.append("params: must be an object with omega0/kappa/gamma/n_photons")
        return None
    vals = {}
    for key in ("omega0", "kappa", "gamma"):
        v = raw.get(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            errors.append(f"params.{key}: must be a number")
        else:
            vals[key] = float(v)
    n = raw.get("n_photons")
    if not isinstance(n, int) or isinstance(n, bool):
        errors.append("params.n_photons: must be an integer")
    else:
        vals["n_photons"] = n
    unknown = set(raw) - {"omega0", "kappa", "gamma", "n_photons"}
    if unknown:
        errors.append(f"params: unknown keys {sorted(unknown)}")
    if len(vals) != 4:
        return None
    if vals["kappa"] <= 0:
        errors.append("params.kappa: kappa must be positive")
    if vals["gamma"] < 0:
        errors.append("params.gamma: gamma must be non-negative")
    if vals["n_photons"] < 1:
        errors.append("params.n_photons: must be >= 1")
    try:
        return BeamsplitterParams(**vals)
    except ValueError:
        return None  # already reported above


def _check_input(raw, scenario: str, n_photons: int | None, errors: list[str]) -> InputSpec | None:
    if raw is None:
        kind = _DEFAULT_INPUT.get(scenario)
        if kind is None and scenario == "custom-evolve":
            errors.append("input_state: required for scenario custom-evolve")
            return None
        return InputSpec(kind=kind) if kind else None
    if not isinstance(raw, dict):
        errors.append("input_state: must be an object with a 'kind' field")
        return None
    kind = raw.get("kind")
    if kind not in INPUT_KINDS:
        errors.append(f"input_state.kind: must be one of {list(INPUT_KINDS)}")
        return None
    amps = raw.get("amplitudes")
    if (amps is not None) != (kind == "custom"):
        errors.append("input_state.amplitudes: required exactly when kind='custom'")
        return None
    if amps is not None:
        if not isinstance(amps, list) or not amps:
            errors.append("input_state.amplitudes: must be a non-empty list")
            return None
        for i, a in enumerate(amps):
            ok_scalar = isinstance(a, (int, float)) and not isinstance(a, bool)
            ok_pair = (
                isinstance(a, list) and len(a) == 2
                and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in a)
            )
            if not (ok_scalar or ok_pair):
                errors.append(f"input_state.amplitudes[{i}]: must be a number or [re, im]")
                return None
        if n_photons is not None and len(amps) != n_photons + 1:
            errors.append(
                f"input_state.amplitudes: length {len(amps)} != n_photons+1 = {n_photons + 1}"
            )
            return None
        if all((abs(a[0]) == 0 and abs(a[1]) == 0) if isinstance(a, list) else a == 0
               for a in amps):
            errors.append("input_state.amplitudes: must not be the zero vector")
            return None
        amps = tuple(tuple(a) if isinstance(a, list) else a for a in amps)
    return InputSpec(kind=kind, amplitudes=amps)


def _check_output(raw, errors: list[str]) -> OutputSpec:
    if raw is None:
        return OutputSpec()
    if not isinstance(raw, dict):
        errors.append("output: must be an object")
        return OutputSpec()
    spec = {}
    directory = raw.get("directory", ".")
    if not isinstance(directory, str) or not directory:
        errors.append("output.directory: must be a non-empty string")
    else:
        spec["directory"] = directory
    for key in ("csv", "json", "svg"):
        v = raw.get(key, OutputSpec.__dataclass_fields__[key].default)
        if not isinstance(v, bool):
            errors.append(f"output.{key}: must be true or false")
        else:
            spec[key] = v
    unknown = set(raw) - {"directory", "csv", "json", "svg"}
    if unknown:
        errors.append(f"output: unknown keys {sorted(unknown)}")
    return OutputSpec(**spec)


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
    errors: list[str] = []
    try:
        doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        return None, [f"config is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"]
    if not isinstance(doc, dict):
        return None, ["config must be a JSON object"]

    errors += _apply_overrides(doc, overrides)

    cfg_scenario = doc.get("scenario", scenario)
    if cfg_scenario is None:
        errors.append("scenario: missing (give it in the config or on the command line)")
    elif cfg_scenario not in SCENARIOS:
        errors.append(f"scenario: unknown {cfg_scenario!r}; expected one of {list(SCENARIOS)}")
    elif scenario is not None and cfg_scenario != scenario:
        errors.append(
            f"scenario: config says {cfg_scenario!r} but the command line says {scenario!r}"
        )

    params = _check_params(doc.get("params"), errors)
    n = params.n_photons if params is not None else None

    # grids are validated whenever present so that every defect is reported
    # in one pass, even when the scenario itself is missing or wrong
    z_grid = gamma_grid = None
    if "gamma_grid" in doc:
        gamma_grid = _check_grid(doc["gamma_grid"], "gamma_grid", errors, positive_start=True)
    if "z_grid" in doc:
        z_grid = _check_grid(doc["z_grid"], "z_grid", errors, positive_start=True)

    if cfg_scenario == "spectrum-flow" and "gamma_grid" not in doc:
        errors.append("gamma_grid: required for scenario spectrum-flow")
    if (
        cfg_scenario in ("intensity-decay", "occupation-dynamics", "custom-evolve")
        and "z_grid" not in doc
    ):
        errors.append(f"z_grid: required for scenario {cfg_scenario}")
    if cfg_scenario == "order-fit" and "z_grid" not in doc and params is not None:
        # asymptotic window kappa*z in [10, 100], 200 log-spaced points
        z_grid = GridSpec(10.0 / params.kappa, 100.0 / params.kappa, 200, "log")

    input_spec = None
    if cfg_scenario in ("intensity-decay", "order-fit", "occupation-dynamics", "custom-evolve"):
        input_spec = _check_input(doc.get("input_state"), cfg_scenario, n, errors)
    elif "input_state" in doc:
        errors.append(f"input_state: not used by scenario {cfg_scenario}")

    output = _check_output(doc.get("output"), errors)

    known = {"scenario", "params", "input_state", "z_grid", "gamma_grid", "output"}
    unknown = set(doc) - known
    if unknown:
        errors.append(f"config: unknown keys {sorted(unknown)}")

    if errors:
        return None, errors
    return (
        RunConfig(
            scenario=cfg_scenario,
            params=params,
            input_state=input_spec,
            z_grid=z_grid,
            gamma_grid=gamma_grid,
            output=output,
        ),
        [],
    )


# ---------------------------------------------------------------------------
# output helpers

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv_bytes(header: list[str], rows) -> bytes:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return buf.getvalue().encode()


def _json_bytes(payload: dict) -> bytes:
    # NaN and infinities are not JSON; a non-finite value fails the run instead
    return (json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def _trace_report(trace) -> dict:
    return {
        "z_min": float(trace.z_grid[0]),
        "z_max": float(trace.z_grid[-1]),
        "final_intensity": float(trace.intensity[-1]),
        "final_log_intensity": float(trace.log_intensity[-1]),
        "methods_used": sorted(set(trace.methods)),
    }


# ---------------------------------------------------------------------------
# scenarios: each returns {filename: bytes}

def _run_spectrum_flow(cfg: RunConfig) -> dict[str, bytes]:
    p = cfg.params
    flow = eigenvalue_flow(p.omega0, p.kappa, p.n_photons, cfg.gamma_grid.to_array())
    rows = []
    r_values = np.arange(p.n_photons + 1) - p.n_photons / 2.0
    for g, lams in zip(flow.gammas, flow.eigenvalues):
        for r, lam in zip(r_values, lams):
            rows.append((float(g), float(r), float(lam.real), float(lam.imag)))
    out = {}
    if cfg.output.csv:
        out["spectrum_flow.csv"] = _csv_bytes(["gamma", "r", "re_lambda", "im_lambda"], rows)
    if cfg.output.json:
        out["report.json"] = _json_bytes(
            {
                "scenario": cfg.scenario,
                "gamma_critical": p.gamma_critical,
                "n_photons": p.n_photons,
                "rows": len(rows),
            }
        )
    if cfg.output.svg:
        re_series = [(flow.gammas, flow.eigenvalues[:, k].real) for k in range(p.n_photons + 1)]
        im_series = [(flow.gammas, flow.eigenvalues[:, k].imag) for k in range(p.n_photons + 1)]
        out["spectrum_flow_re.svg"] = line_plot(re_series, "gamma", "Re lambda").encode()
        out["spectrum_flow_im.svg"] = line_plot(im_series, "gamma", "Im lambda").encode()
    return out


def _run_ep_certify(cfg: RunConfig) -> dict[str, bytes]:
    cert = certify_ep(build_hamiltonian(cfg.params))
    out = {}
    if cfg.output.csv:
        rows = [(k + 1, float(v)) for k, v in enumerate(cert.nilpotency_ratios)]
        out["nilpotency_ratios.csv"] = _csv_bytes(["k", "normalized_norm_ratio"], rows)
    if cfg.output.json:
        out["report.json"] = _json_bytes(
            {
                "scenario": cfg.scenario,
                "order": cert.order,
                "shift_re": cert.shift.real,
                "shift_im": cert.shift.imag,
                "gamma": cert.gamma,
                "gamma_critical": cfg.params.gamma_critical,
                "regime": classify_regime(cfg.params.kappa, cfg.params.gamma),
                "nilpotency_ratios": list(cert.nilpotency_ratios),
                "passed": cert.passed,
            }
        )
    if cfg.output.svg:
        ks = np.arange(1, len(cert.nilpotency_ratios) + 1)
        out["nilpotency_ratios.svg"] = line_plot(
            [(ks, np.asarray(cert.nilpotency_ratios))], "k", "normalized ||M^k||"
        ).encode()
    return out


def _intensity_csv(trace) -> bytes:
    rows = [
        (float(z), float(i), float(li))
        for z, i, li in zip(trace.z_grid, trace.intensity, trace.log_intensity)
    ]
    return _csv_bytes(["z", "intensity", "log_intensity"], rows)


def _run_intensity_decay(cfg: RunConfig) -> dict[str, bytes]:
    state = cfg.input_state.to_state(cfg.params.n_photons)
    trace = trace_evolution(state, cfg.params, cfg.z_grid.to_array(), with_occupations=False)
    out = {}
    if cfg.output.csv:
        out["intensity.csv"] = _intensity_csv(trace)
    if cfg.output.json:
        out["report.json"] = _json_bytes(
            {"scenario": cfg.scenario, "input": state.label, **_trace_report(trace)}
        )
    if cfg.output.svg:
        out["intensity.svg"] = line_plot(
            [(trace.z_grid, trace.log_intensity)], "z", "log I(z)"
        ).encode()
    return out


def _run_order_fit(cfg: RunConfig) -> dict[str, bytes]:
    state = cfg.input_state.to_state(cfg.params.n_photons)
    trace = trace_evolution(state, cfg.params, cfg.z_grid.to_array(), with_occupations=False)
    fit = fit_ep_order(trace)
    out = {}
    if cfg.output.csv:
        out["intensity.csv"] = _intensity_csv(trace)
    if cfg.output.json:
        out["report.json"] = _json_bytes(
            {
                "scenario": cfg.scenario,
                "input": state.label,
                "expected_slope": fit.expected_slope,
                "fitted_slope": fit.fitted_slope,
                "window_z_min": fit.window[0],
                "window_z_max": fit.window[1],
                "residual_rms": fit.residual,
                **_trace_report(trace),
            }
        )
    if cfg.output.svg:
        n, gamma = cfg.params.n_photons, cfg.params.gamma
        rescaled = trace.log_intensity + n * gamma * trace.z_grid
        out["order_fit.svg"] = line_plot(
            [(np.log(trace.z_grid), rescaled)], "ln z", "ln[exp(N Gamma z) I]"
        ).encode()
    return out


def _occupations_csv(trace) -> bytes:
    rows = []
    for k, z in enumerate(trace.z_grid):
        for m, p_m in enumerate(trace.occupations[k]):
            rows.append((float(z), m, float(p_m)))
    return _csv_bytes(["z", "m", "p"], rows)


def _run_occupation_dynamics(cfg: RunConfig) -> dict[str, bytes]:
    p = cfg.params
    state = cfg.input_state.to_state(p.n_photons)
    trace = trace_evolution(state, p, cfg.z_grid.to_array())
    report: dict = {"scenario": cfg.scenario, "input": state.label, **_trace_report(trace)}
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
    out = {}
    if cfg.output.csv:
        out["occupations.csv"] = _occupations_csv(trace)
        out["intensity.csv"] = _intensity_csv(trace)
    if cfg.output.json:
        out["report.json"] = _json_bytes(report)
    if cfg.output.svg:
        out["occupations.svg"] = heatmap(
            trace.occupations.T, float(trace.z_grid[0]), float(trace.z_grid[-1]), "z", "m"
        ).encode()
    return out


def _run_custom_evolve(cfg: RunConfig) -> dict[str, bytes]:
    p = cfg.params
    state = cfg.input_state.to_state(p.n_photons)
    trace = trace_evolution(state, p, cfg.z_grid.to_array())
    out = {}
    if cfg.output.csv:
        header = ["z", "intensity", "log_intensity"] + [f"p{m}" for m in range(p.n_photons + 1)]
        rows = []
        for k, z in enumerate(trace.z_grid):
            rows.append(
                (float(z), float(trace.intensity[k]), float(trace.log_intensity[k]))
                + tuple(float(v) for v in trace.occupations[k])
            )
        out["trace.csv"] = _csv_bytes(header, rows)
    if cfg.output.json:
        out["report.json"] = _json_bytes(
            {"scenario": cfg.scenario, "input": state.label, **_trace_report(trace)}
        )
    if cfg.output.svg:
        out["occupations.svg"] = heatmap(
            trace.occupations.T, float(trace.z_grid[0]), float(trace.z_grid[-1]), "z", "m"
        ).encode()
    return out


_RUNNERS = {
    "spectrum-flow": _run_spectrum_flow,
    "ep-certify": _run_ep_certify,
    "intensity-decay": _run_intensity_decay,
    "order-fit": _run_order_fit,
    "occupation-dynamics": _run_occupation_dynamics,
    "custom-evolve": _run_custom_evolve,
}


def run(config: RunConfig) -> RunManifest:
    """Execute a validated config: compute, write outputs, write manifest."""
    started = time.perf_counter()
    files = _RUNNERS[config.scenario](config)
    out_dir = config.output.directory
    os.makedirs(out_dir, exist_ok=True)

    entries = []
    for name in sorted(files):
        data = files[name]
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
    manifest_doc = {
        "tool": "epbs",
        "version": manifest.version,
        "config": manifest.config,
        "wall_time_s": manifest.wall_time_s,
        "outputs": list(manifest.outputs),
    }
    with open(os.path.join(out_dir, "manifest.json"), "wb") as fh:
        fh.write(_json_bytes(manifest_doc))
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
    except SimulationError as exc:
        print(f"epbs: {config.scenario} failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"epbs: {config.scenario} failed: {exc}", file=sys.stderr)
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
