"""The ``cli-scenarios`` workload: each scenario as a fresh CLI process.

Every invocation is ``python -m epbs.cli <scenario> --config <file>`` with
PYTHONPATH pointing at the checkout's ``src`` (the package is not
installed).  Outputs are checked after timing: exit code, manifest
checksums, strict JSON, a seeded subsample of CSV rows against the oracle,
and the scenario's headline number.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import oracle
from ledger import PERIODICITY_SHIFT, Ledger, strict_json, worst_reason

OMEGA0 = 1.0
KAPPA = 1.0
N = 10
CHECKED_ROWS = 41


@dataclass
class Invocation:
    name: str
    scenario: str
    config: dict
    known: str | None = None


def _params(gamma, n=N):
    return {"omega0": OMEGA0, "kappa": KAPPA, "gamma": gamma, "n_photons": n}


def _grid(rng, start, stop, count):
    shifted = start + rng.uniform(0.0, 1e-3) * (stop - start)
    return {"start": shifted, "stop": stop, "count": count}


def invocations(rng) -> list[Invocation]:
    amps = rng.normal(size=5) + 1j * rng.normal(size=5)
    custom = [[round(float(a.real), 6), round(float(a.imag), 6)] for a in amps]
    return [
        Invocation("spectrum-flow", "spectrum-flow",
                   {"params": _params(0.0), "gamma_grid": _grid(rng, 0.0, 4.0, 200)}),
        Invocation("ep-certify", "ep-certify", {"params": _params(2.0)}),
        Invocation("intensity-decay", "intensity-decay",
                   {"params": _params(2.4), "z_grid": _grid(rng, 0.0, 30.0, 500),
                    "input_state": {"kind": "all_in_a"}}),
        # the default grid: fit_ep_order needs the full decade kappa*z in [10, 100]
        Invocation("order-fit", "order-fit", {"params": _params(2.0)}),
        Invocation("occupation-dynamics.below", "occupation-dynamics",
                   {"params": _params(1.0), "z_grid": _grid(rng, 0.0, 30.0, 400)},
                   PERIODICITY_SHIFT),
        Invocation("occupation-dynamics.critical", "occupation-dynamics",
                   {"params": _params(2.0), "z_grid": _grid(rng, 0.0, 30.0, 400)}),
        Invocation("custom-evolve", "custom-evolve",
                   {"params": _params(2.4, 4), "z_grid": _grid(rng, 0.0, 30.0, 400),
                    "input_state": {"kind": "custom", "amplitudes": custom}}),
    ]


def probes(rng) -> list[tuple[Invocation, str]]:
    """Defect probes run through the CLI, with what the baseline does."""
    return [
        (Invocation("probe.n100-nan-json", "intensity-decay",
                    {"params": _params(2.0, 100), "z_grid": _grid(rng, 0.0, 5.0, 50),
                     "input_state": {"kind": "all_in_a"}}),
         "exit 0 with NaN values and a report.json a strict parser rejects"),
        (Invocation("probe.n200-crash", "intensity-decay",
                    {"params": _params(2.0, 200), "z_grid": _grid(rng, 0.0, 5.0, 50),
                     "input_state": {"kind": "all_in_a"}}),
         "uncaught OverflowError in _assembly_table, exit 1"),
        (Invocation("probe.critical-floor-refusal", "occupation-dynamics",
                    {"params": _params(2.0), "z_grid": _grid(rng, 0.0, 40.0, 400)}),
         "exit 2: IntensityUnderflowError near kappa*z = 38"),
    ]


@dataclass
class Result:
    code: int
    wall_s: float
    out_dir: str
    stderr: str


class Runner:
    """Writes the configs once, then runs invocations under ``work``."""

    def __init__(self, root: str, work: str, items: list[Invocation]):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.paths = {}
        for i, inv in enumerate(items):
            out_dir = os.path.join(work, f"out-{i}")
            doc = {"scenario": inv.scenario, **inv.config,
                   "output": {"directory": out_dir, "svg": True}}
            cfg = os.path.join(work, f"config-{i}.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.paths[inv.name] = (cfg, out_dir)

    def run(self, inv: Invocation, prefix=None, out_dir=None) -> Result:
        """One invocation; ``prefix`` replaces ``python -m epbs.cli``."""
        cfg, default_out = self.paths[inv.name]
        out_dir = out_dir or default_out
        argv = (prefix or [sys.executable, "-m", "epbs.cli"]) + [
            inv.scenario, "--config", cfg, "--out", out_dir]
        started = time.perf_counter()
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              text=True)
        wall = time.perf_counter() - started
        return Result(proc.returncode, wall, out_dir, proc.stderr)


# ---------------------------------------------------------------------------
# output checks

def manifest_of(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        return strict_json(fh.read())


def _csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _rows(n_rows, rng):
    if n_rows <= CHECKED_ROWS:
        return np.arange(n_rows)
    edges = np.linspace(0, n_rows, CHECKED_ROWS + 1).astype(int)
    return np.array([rng.integers(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])])


def check(inv: Invocation, res: Result, rng, ledger: Ledger,
          timed=True) -> tuple[str | None, str]:
    """Check one invocation's outputs; returns (failure reason or None, detail)."""
    if res.code != 0:
        last = (res.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        return ("refused" if res.code == 2 else "crashed"), f"exit {res.code}: {last[:300]}"
    reasons = set()
    try:
        manifest = manifest_of(res.out_dir)
        for entry in manifest["outputs"]:
            with open(os.path.join(res.out_dir, entry["path"]), "rb") as fh:
                if hashlib.sha256(fh.read()).hexdigest() != entry["sha256"]:
                    return "crashed", f"sha256 mismatch for {entry['path']}"
        with open(os.path.join(res.out_dir, "report.json"), encoding="utf-8") as fh:
            report = strict_json(fh.read())
        checker = _CHECKERS[inv.scenario]
        reasons |= checker(inv, res.out_dir, report, SimpleNamespace(**inv.config["params"]),
                           rng, ledger, timed)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return "crashed", f"exit 0, unreadable output: {type(exc).__name__}: {exc}"
    reason = worst_reason(reasons)
    if reason is not None:
        return reason, f"exit 0, {reason} output"
    return None, "exit 0, outputs match the oracle"


def _compare(ledger, kind, err, timed, reasons):
    if not ledger.error(kind, err, timed):
        reasons.add("inaccurate" if math.isfinite(err) else "nonfinite")


def _check_intensity_csv(path, reference, rng, ledger, timed, reasons):
    data = _csv(path)
    if not np.isfinite(data).all():
        reasons.add("nonfinite")
    for i in _rows(data.shape[0], rng):
        z, inten, log_i = data[i]
        ref = reference(z)
        _compare(ledger, "log_i", abs(log_i - ref), timed, reasons)
        if ref > -700.0:
            _compare(ledger, "other", abs(inten - math.exp(ref)) / math.exp(ref), timed, reasons)
    return data


def _spectrum_flow(inv, out, report, params, rng, ledger, timed):
    reasons = set()
    data = _csv(os.path.join(out, "spectrum_flow.csv"))
    if not np.isfinite(data).all():
        reasons.add("nonfinite")
    for i in _rows(data.shape[0], rng):
        gamma, r, re, im = data[i]
        p = SimpleNamespace(**{**inv.config["params"], "gamma": gamma})
        ref = oracle.eigenvalues(p)[int(round(r + p.n_photons / 2))]
        _compare(ledger, "other", abs(complex(re, im) - ref) / abs(ref), timed, reasons)
    return reasons


def _ep_certify(inv, out, report, params, rng, ledger, timed):
    return set() if report.get("passed") is True else {"inaccurate"}


def _intensity_decay(inv, out, report, params, rng, ledger, timed):
    reasons = set()
    ref = lambda z: oracle.log_intensity_all_in_a(params, z)
    data = _check_intensity_csv(os.path.join(out, "intensity.csv"), ref, rng, ledger, timed,
                                reasons)
    final = report["final_log_intensity"]
    _compare(ledger, "log_i", abs(final - ref(data[-1, 0])), timed, reasons)
    return reasons


def _order_fit(inv, out, report, params, rng, ledger, timed):
    reasons = set()
    ref = lambda z: oracle.log_intensity_all_in_a(params, z)
    data = _check_intensity_csv(os.path.join(out, "intensity.csv"), ref, rng, ledger, timed,
                                reasons)
    z = data[:, 0]
    zw = z[(z * KAPPA >= 10.0) & (z * KAPPA <= 100.0)]
    y = np.array([ref(v) for v in zw]) + params.n_photons * params.gamma * zw
    slope = float(np.polyfit(np.log(zw), y, 1)[0])
    _compare(ledger, "other", abs(report["fitted_slope"] - slope) / abs(slope), timed, reasons)
    return reasons


def _occupations_reference(inv, params):
    kind = inv.config.get("input_state", {}).get("kind", "noon")
    if kind == "custom":
        amps = [complex(*a) for a in inv.config["input_state"]["amplitudes"]]
        return lambda z: oracle.evolve(params, amps, z)
    return lambda z: oracle.evolve_named(kind, params, z)


def _occupation_dynamics(inv, out, report, params, rng, ledger, timed):
    reasons = set()
    reference = _occupations_reference(inv, params)
    occ = _csv(os.path.join(out, "occupations.csv"))
    inten = _csv(os.path.join(out, "intensity.csv"))
    if not (np.isfinite(occ).all() and np.isfinite(inten).all()):
        reasons.add("nonfinite")
    dim = params.n_photons + 1
    for i in _rows(inten.shape[0], rng):
        z, _, log_i = inten[i]
        ref_li, ref_p = reference(z)
        _compare(ledger, "log_i", abs(log_i - ref_li), timed, reasons)
        lib_p = occ[i * dim:(i + 1) * dim, 2]
        _compare(ledger, "occ", float(np.abs(lib_p - ref_p).max()), timed, reasons)
    if "period_detected" in report:  # below threshold
        if report["period_detected"] is None:
            reasons.add("refused")  # the CLI turned a refusal into period_note
        else:
            exact = 2 * math.pi / math.sqrt(4 * params.kappa**2 - params.gamma**2)
            err = abs(report["period_detected"] - exact) / exact
            _compare(ledger, "other", err, timed, reasons)
    return reasons


def _custom_evolve(inv, out, report, params, rng, ledger, timed):
    reasons = set()
    reference = _occupations_reference(inv, params)
    data = _csv(os.path.join(out, "trace.csv"))
    if not np.isfinite(data).all():
        reasons.add("nonfinite")
    for i in _rows(data.shape[0], rng):
        ref_li, ref_p = reference(data[i, 0])
        _compare(ledger, "log_i", abs(data[i, 2] - ref_li), timed, reasons)
        _compare(ledger, "occ", float(np.abs(data[i, 3:] - ref_p).max()), timed, reasons)
    return reasons


_CHECKERS = {
    "spectrum-flow": _spectrum_flow,
    "ep-certify": _ep_certify,
    "intensity-decay": _intensity_decay,
    "order-fit": _order_fit,
    "occupation-dynamics": _occupation_dynamics,
    "custom-evolve": _custom_evolve,
}


def output_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
