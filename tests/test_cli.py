import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import epbs
from epbs import _svg
from epbs.cli import GridSpec, OutputSpec, _json_bytes, main, run, validate
from epbs.fock_core import build_hamiltonian
from epbs.observables import steady_state_onset, trace_evolution
from epbs.spectral import certify_ep, eigenvalue_flow
from test_sym_power import exact_evolve


# the directory holding the package, for subprocesses that import it
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(epbs.__file__)))


def base_config(scenario, out_dir, **extra):
    doc = {
        "scenario": scenario,
        "params": {"omega0": 1.0, "kappa": 1.0, "gamma": 1.0, "n_photons": 4},
        "output": {"directory": str(out_dir)},
    }
    doc.update(extra)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# validation


def test_validate_collects_all_errors():
    doc = {
        "params": {"omega0": 1.0, "kappa": -1.0, "gamma": 0.0, "n_photons": 4},
        "gamma_grid": {"start": 3.0, "stop": 1.0, "count": 5},
    }
    cfg, errors = validate(json.dumps(doc))
    assert cfg is None
    text = "\n".join(errors)
    assert "kappa must be positive" in text
    assert "scenario: missing" in text
    assert "ascending" in text
    assert len(errors) >= 3


def test_validate_ok_roundtrip():
    doc = {
        "scenario": "spectrum-flow",
        "params": {"omega0": 1.0, "kappa": 1.0, "gamma": 0.0, "n_photons": 4},
        "gamma_grid": {"start": 0.0, "stop": 4.0, "count": 10},
    }
    cfg, errors = validate(json.dumps(doc))
    assert errors == []
    assert cfg.scenario == "spectrum-flow"
    assert cfg.params.n_photons == 4
    assert cfg.gamma_grid == GridSpec(0.0, 4.0, 10, "linear")
    echo = cfg.echo()
    cfg2, errors2 = validate(json.dumps(echo))
    assert errors2 == [] and cfg2 == cfg


def test_validate_json_error_reports_position():
    cfg, errors = validate("{\n  broken")
    assert cfg is None
    assert len(errors) == 1
    assert "line 2" in errors[0]


def test_validate_scenario_checks():
    cfg, errors = validate(json.dumps({"scenario": "noop"}))
    assert any("unknown" in e for e in errors)
    doc = base_config("ep-certify", ".")
    cfg, errors = validate(json.dumps(doc), scenario="order-fit")
    assert any("command line" in e for e in errors)


def test_validate_grid_details():
    doc = base_config("intensity-decay", ".")
    doc["z_grid"] = {"start": 0.0, "stop": 5.0, "count": 0, "spacing": "cubic"}
    cfg, errors = validate(json.dumps(doc))
    assert any("count" in e for e in errors)
    assert any("spacing" in e for e in errors)
    doc["z_grid"] = {"start": 0.0, "stop": 5.0, "count": 10, "spacing": "log"}
    cfg, errors = validate(json.dumps(doc))
    assert any("log spacing requires start > 0" in e for e in errors)


def test_validate_custom_input():
    doc = base_config("custom-evolve", ".", z_grid={"start": 0.0, "stop": 1.0, "count": 5})
    cfg, errors = validate(json.dumps(doc))
    assert any("input_state: required" in e for e in errors)
    doc["input_state"] = {"kind": "custom", "amplitudes": [1, 0, [0, 1]]}
    cfg, errors = validate(json.dumps(doc))
    assert any("n_photons+1" in e for e in errors)
    doc["input_state"] = {"kind": "custom", "amplitudes": [1, 0, [0, 1], 0, 0]}
    cfg, errors = validate(json.dumps(doc))
    assert errors == []
    state = cfg.input_state.to_state(4)
    assert state.amplitudes[2] == pytest.approx(1j / np.sqrt(2))


def test_validate_unknown_keys_flagged():
    doc = base_config("ep-certify", ".")
    doc["zgrid"] = {}
    cfg, errors = validate(json.dumps(doc))
    assert any("unknown keys" in e for e in errors)


def test_param_overrides():
    doc = base_config("ep-certify", ".")
    cfg, errors = validate(
        json.dumps(doc), overrides=["params.gamma=2.0", "output.svg=true"]
    )
    assert errors == []
    assert cfg.params.gamma == 2.0
    assert cfg.output.svg is True
    cfg, errors = validate(json.dumps(doc), overrides=["params.gamma"])
    assert any("expected key=value" in e for e in errors)


@pytest.mark.parametrize("doc, error", [
    ({"input_state": {"kind": "noon", "amplitude": [1, 0, 0, 0, 1]}},
     "input_state: unknown keys ['amplitude']"),
    ({"gamma_grid": {"start": 0.0, "stop": 4.0, "count": 5}},
     "gamma_grid: not used by scenario intensity-decay"),
], ids=["input-key", "unread-grid"])
def test_validate_rejects_what_the_scenario_ignores(doc, error):
    # both were accepted and ignored; the grid was even echoed to the manifest
    full = base_config("intensity-decay", ".", z_grid={"start": 0.0, "stop": 1.0, "count": 3})
    cfg, errors = validate(json.dumps({**full, **doc}))
    assert cfg is None and errors == [error]


@pytest.mark.parametrize("scenario, grid", [
    ("spectrum-flow", "z_grid"), ("ep-certify", "z_grid"), ("ep-certify", "gamma_grid"),
    ("order-fit", "gamma_grid"), ("custom-evolve", "gamma_grid"),
])
def test_validate_rejects_unread_grid_of_each_scenario(scenario, grid):
    doc = _cfg_for(scenario, ".")
    doc[grid] = {"start": 0.0, "stop": 1.0, "count": 3}
    cfg, errors = validate(json.dumps(doc))
    assert cfg is None and f"{grid}: not used by scenario {scenario}" in errors


def test_validate_null_output_means_defaults():
    doc = _cfg_for("ep-certify", ".")
    doc["output"] = None
    cfg, errors = validate(json.dumps(doc))
    assert errors == [] and cfg.output == OutputSpec()


# one rule for every section: null is absent; a section a known scenario does not read is
# "not used"; without a known scenario every section given is checked; an absent section the
# scenario reads takes its default or is required

@pytest.mark.parametrize("scenario", ["noop", None])
def test_validate_checks_input_state_without_a_known_scenario(scenario):
    doc = base_config(scenario, ".", input_state={"kind": "bogus"})
    if scenario is None:
        del doc["scenario"]
    cfg, errors = validate(json.dumps(doc))
    assert cfg is None
    assert any(e.startswith("input_state: unknown input kind 'bogus'") for e in errors)
    assert not any("not used" in e or "scenario None" in e for e in errors)


@pytest.mark.parametrize("scenario, key", [("order-fit", "z_grid"), ("ep-certify", "input_state")])
def test_validate_null_section_is_absent(scenario, key):
    # order-fit's grid has a default; ep-certify reads no input state
    doc = _cfg_for(scenario, ".")
    cfg, errors = validate(json.dumps(doc))
    assert errors == [] and validate(json.dumps({**doc, key: None})) == (cfg, [])


def test_validate_null_required_grid_is_required():
    doc = {**_cfg_for("intensity-decay", "."), "z_grid": None}
    assert validate(json.dumps(doc)) == (None, ["z_grid: required for scenario intensity-decay"])


@pytest.mark.parametrize("value", [{"a": 1}, ["spectrum-flow"], 3])
def test_validate_scenario_of_any_json_type(value):
    cfg, errors = validate(json.dumps({**_cfg_for("ep-certify", "."), "scenario": value}))
    assert cfg is None and any(e.startswith("scenario: unknown") for e in errors)


@pytest.mark.parametrize("kind, amplitudes", [
    ("noon", None), ("all_in_b", None), ("custom", [1, 0, 1]),
])
def test_validate_allocates_nothing_of_size_n(kind, amplitudes):
    # a billion photons is a valid N; only a run may build the state
    import tracemalloc

    doc = base_config("custom-evolve", ".", z_grid={"start": 0.0, "stop": 1.0, "count": 3},
                      input_state={"kind": kind, "amplitudes": amplitudes})
    doc["params"]["n_photons"] = 10**9
    tracemalloc.start()
    try:
        cfg, errors = validate(json.dumps(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert (cfg is None) == (amplitudes is not None)
    if amplitudes is not None:
        assert errors == ["input_state: custom amplitudes have shape (3,), "
                          "expected (n_photons+1,) = (1000000001,)"]


# ---------------------------------------------------------------------------
# runs


def _checksums(out_dir):
    sums = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "manifest.json":
            continue
        sums[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return sums


def _cfg_for(scenario, out_dir):
    if scenario == "spectrum-flow":
        return base_config(
            scenario, out_dir, gamma_grid={"start": 0.0, "stop": 4.0, "count": 25}
        )
    if scenario == "ep-certify":
        doc = base_config(scenario, out_dir)
        doc["params"]["gamma"] = 2.0
        return doc
    if scenario == "order-fit":
        doc = base_config(scenario, out_dir)
        doc["params"]["gamma"] = 2.0
        return doc
    if scenario == "occupation-dynamics":
        doc = base_config(scenario, out_dir, z_grid={"start": 0.0, "stop": 10.0, "count": 160})
        doc["params"]["gamma"] = 0.5
        return doc
    if scenario == "custom-evolve":
        return base_config(
            scenario,
            out_dir,
            z_grid={"start": 0.0, "stop": 3.0, "count": 40},
            input_state={"kind": "custom", "amplitudes": [1, 0, 0, 0, 1]},
        )
    return base_config(scenario, out_dir, z_grid={"start": 0.0, "stop": 5.0, "count": 50})


_EXPECTED_FILES = {
    "spectrum-flow": {"spectrum_flow.csv", "report.json"},
    "ep-certify": {"nilpotency_ratios.csv", "report.json"},
    "intensity-decay": {"intensity.csv", "report.json"},
    "order-fit": {"intensity.csv", "report.json"},
    "occupation-dynamics": {"occupations.csv", "intensity.csv", "report.json"},
    "custom-evolve": {"trace.csv", "report.json"},
}


@pytest.mark.parametrize("scenario", sorted(_EXPECTED_FILES))
def test_run_scenarios_and_manifest(tmp_path, scenario):
    out = tmp_path / "out"
    cfg, errors = validate(json.dumps(_cfg_for(scenario, out)))
    assert errors == []
    manifest = run(cfg)
    listed = {entry["path"] for entry in manifest.outputs}
    assert listed == _EXPECTED_FILES[scenario]
    for entry in manifest.outputs:
        data = (out / entry["path"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert len(data) == entry["bytes"]
    manifest_doc = json.loads((out / "manifest.json").read_text())
    assert manifest_doc["config"]["scenario"] == scenario
    assert manifest_doc["version"]


@pytest.mark.parametrize("scenario", sorted(_EXPECTED_FILES))
def test_validate_roundtrip_every_scenario(scenario):
    cfg, errors = validate(json.dumps(_cfg_for(scenario, "out")))
    assert errors == [] and cfg.scenario == scenario
    again, errors = validate(json.dumps(cfg.echo()))
    assert errors == [] and again == cfg


# values a fuzzed config may hold: non-finite and out-of-range numbers, every
# JSON type, names of kinds and scenarios, and photon numbers up to a billion
_FUZZ_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400), True, False, None,
                     "", "x", "log", "linear", "noon", "custom", "all_in_a", "order-fit",
                     -0.0, 1e-310, 1e308, 10**9]),
    st.integers(-3, 10**9),
    st.floats(-1e3, 1e3),
    st.lists(st.one_of(st.integers(-2, 2), st.floats(-2.0, 2.0),
                       st.lists(st.integers(-1, 1), min_size=2, max_size=2)), max_size=6),
    st.dictionaries(st.sampled_from(["kind", "start", "a"]), st.integers(0, 3), max_size=2),
)
_FUZZ_KEYS = ["scenario", "params", "input_state", "z_grid", "gamma_grid", "output", "kappa",
              "gamma", "n_photons", "start", "stop", "count", "spacing", "kind", "amplitudes",
              "directory", "svg", "extra"]


def _slots(node):
    """Every (container, key) pair of a JSON document, nested ones included."""
    for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def _mutated_configs(draw):
    doc = _cfg_for(draw(st.sampled_from(sorted(_EXPECTED_FILES))), "out")
    for _ in range(draw(st.integers(1, 3))):
        node, key = draw(st.sampled_from(list(_slots(doc))))
        if isinstance(node, dict) and draw(st.booleans()):
            key = draw(st.sampled_from(_FUZZ_KEYS))  # maybe new to this object
        if isinstance(node, dict) and draw(st.integers(0, 4)) == 0:
            node.pop(key, None)
        else:
            node[key] = draw(_FUZZ_VALUES)
    return doc


@settings(max_examples=1000, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mutated_configs())
def test_validate_fuzzed_configs(doc):
    # validation never raises, and what it accepts it writes back as it read it
    cfg, errors = validate(json.dumps(doc))
    assert (cfg is None) == bool(errors)
    if cfg is not None:
        again, errors = validate(json.dumps(cfg.echo()))
        assert errors == [] and again == cfg


_SVG_FILES = {
    "spectrum-flow": {"spectrum_flow_re.svg", "spectrum_flow_im.svg"},
    "ep-certify": {"nilpotency_ratios.svg"},
    "intensity-decay": {"intensity.svg"},
    "order-fit": {"order_fit.svg"},
    "occupation-dynamics": {"occupations.svg"},
    "custom-evolve": {"occupations.svg"},
}


@pytest.mark.parametrize("flags", [
    {"csv": True, "json": True, "svg": True},
    {"csv": False, "json": False, "svg": True},
    {"csv": False, "json": False, "svg": False},
], ids=["all", "svg-only", "none"])
@pytest.mark.parametrize("scenario", sorted(_EXPECTED_FILES))
def test_output_flags_select_files(tmp_path, scenario, flags):
    out = tmp_path / "out"
    doc = _cfg_for(scenario, out)
    doc["output"].update(flags)
    cfg, errors = validate(json.dumps(doc))
    assert errors == []
    manifest = run(cfg)
    expected = {
        name for name in _EXPECTED_FILES[scenario] | _SVG_FILES[scenario]
        if flags[name.rsplit(".", 1)[1]]
    }
    assert {entry["path"] for entry in manifest.outputs} == expected
    assert {path.name for path in out.iterdir()} == expected | {"manifest.json"}


@pytest.mark.parametrize("scenario", ["spectrum-flow", "occupation-dynamics"])
def test_runs_are_byte_deterministic(tmp_path, scenario):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        cfg, errors = validate(json.dumps(_cfg_for(scenario, out)))
        assert errors == []
        run(cfg)
    sums1, sums2 = _checksums(out1), _checksums(out2)
    assert sums1 and sums1 == sums2


def test_rerun_from_manifest_echo(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg, _ = validate(json.dumps(_cfg_for("spectrum-flow", out1)))
    first = run(cfg)
    echo = dict(first.config)
    echo["output"] = dict(echo["output"], directory=str(out2))
    cfg2, errors = validate(json.dumps(echo))
    assert errors == []
    second = run(cfg2)
    by_name = lambda m: {e["path"]: e["sha256"] for e in m.outputs}
    assert by_name(first) == by_name(second)


def test_csv_full_precision_roundtrip(tmp_path):
    out = tmp_path / "out"
    cfg, _ = validate(json.dumps(_cfg_for("spectrum-flow", out)))
    run(cfg)
    lines = (out / "spectrum_flow.csv").read_text().splitlines()
    assert lines[0] == "gamma,r,re_lambda,im_lambda"
    n = cfg.params.n_photons
    gammas = np.linspace(0.0, 4.0, 25)
    assert len(lines) == 1 + gammas.size * (n + 1)
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert len(cells) == 4
        # each gamma of the grid comes back exactly, N+1 rows per gamma
        assert float(cells[0]) == gammas[i // (n + 1)]
        # every cell is written with 17 significant digits, so it round-trips
        for cell in cells:
            assert cell == format(float(cell), ".17g")


def _reference_csv(header, rows):
    """Per-value reference: floats to 17 significant digits, integers as str."""
    lines = [",".join(header)] + [
        ",".join(format(float(v), ".17g") if isinstance(v, float) else str(v) for v in row)
        for row in rows
    ]
    return "".join(line + "\n" for line in lines)


def _reference_csvs(cfg):
    """Every CSV of a scenario, formatted value by value from the library's results."""
    p, n = cfg.params, cfg.params.n_photons
    if cfg.scenario == "spectrum-flow":
        flow = eigenvalue_flow(p.omega0, p.kappa, n, cfg.gamma_grid.to_array())
        rows = [(float(g), float(m - n / 2.0), float(lam.real), float(lam.imag))
                for g, lams in zip(flow.gammas, flow.eigenvalues) for m, lam in enumerate(lams)]
        header = ["gamma", "r", "re_lambda", "im_lambda"]
        return {"spectrum_flow.csv": _reference_csv(header, rows)}
    if cfg.scenario == "ep-certify":
        ratios = certify_ep(build_hamiltonian(p)).nilpotency_ratios
        rows = [(k + 1, float(v)) for k, v in enumerate(ratios)]
        return {"nilpotency_ratios.csv": _reference_csv(["k", "normalized_norm_ratio"], rows)}
    state = cfg.input_state.to_state(n)
    with_occ = cfg.scenario in ("occupation-dynamics", "custom-evolve")
    trace = trace_evolution(state, p, cfg.z_grid.to_array(), with_occupations=with_occ)
    scalars = [(float(z), float(i), float(li))
               for z, i, li in zip(trace.z_grid, trace.intensity, trace.log_intensity)]
    if cfg.scenario == "custom-evolve":
        header = ["z", "intensity", "log_intensity"] + [f"p{m}" for m in range(n + 1)]
        rows = [row + tuple(float(v) for v in occ) for row, occ in zip(scalars, trace.occupations)]
        return {"trace.csv": _reference_csv(header, rows)}
    csvs = {"intensity.csv": _reference_csv(["z", "intensity", "log_intensity"], scalars)}
    if with_occ:
        rows = [(float(z), m, float(v))
                for z, occ in zip(trace.z_grid, trace.occupations) for m, v in enumerate(occ)]
        csvs["occupations.csv"] = _reference_csv(["z", "m", "p"], rows)
    return csvs


@pytest.mark.parametrize("scenario", sorted(_EXPECTED_FILES))
def test_csv_bytes_match_per_value_reference(tmp_path, scenario):
    out = tmp_path / "out"
    cfg, errors = validate(json.dumps(_cfg_for(scenario, out)))
    assert errors == []
    run(cfg)
    want = _reference_csvs(cfg)
    assert set(want) == {name for name in _EXPECTED_FILES[scenario] if name.endswith(".csv")}
    for name, text in want.items():
        assert (out / name).read_bytes() == text.encode(), name


def test_line_plot_matches_per_point_reference():
    xs = np.linspace(0.0, 3.0, 7)
    ys = np.array([0.5, -1.25, math.nan, 2.0, 0.0, 1.0 / 3.0, 4.5])
    xs2, ys2 = np.arange(4.0), np.array([1.0, 2.0, 3.0, 4.0])
    svg = _svg.line_plot([(xs, ys), (xs2, ys2)], "x", "y")
    w, h, m = _svg._WIDTH, _svg._HEIGHT, _svg._MARGIN
    x_lo, x_hi, y_lo, y_hi = 0.0, 3.0, -1.25, 4.5

    def points(xs, ys):
        pts = []
        for x, y in zip(xs, ys):
            if math.isfinite(y):  # the NaN point is left out of the polyline
                px = m + (x - x_lo) / (x_hi - x_lo) * (w - 2 * m)
                py = h - m - (y - y_lo) / (y_hi - y_lo) * (h - 2 * m)
                pts.append(f"{px:.3f},{py:.3f}")
        return " ".join(pts)

    assert re.findall(r'<polyline points="([^"]*)"', svg) == [points(xs, ys), points(xs2, ys2)]


def test_heatmap_matches_per_cell_reference():
    vals = np.random.default_rng(7).random((4, 9)) ** 3
    svg = _svg.heatmap(vals, 0.0, 2.0, "z", "m")
    w, h, m = _svg._WIDTH, _svg._HEIGHT, _svg._MARGIN
    cell_w, cell_h = (w - 2 * m) / 9, (h - 2 * m) / 4
    v_max = float(vals.max())
    cells = [
        f'<rect x="{m + ix * cell_w:.3f}" y="{h - m - (iy + 1) * cell_h:.3f}" '
        f'width="{cell_w + 0.35:.3f}" height="{cell_h + 0.35:.3f}" '
        f'fill="{_svg._shade(vals[iy, ix] / v_max)}"/>'
        for iy in range(4) for ix in range(9)
    ]
    assert re.findall(r'<rect [^>]*fill="#[0-9a-f]{6}"/>', svg) == cells


def test_svg_outputs(tmp_path):
    out = tmp_path / "out"
    doc = _cfg_for("occupation-dynamics", out)
    doc["output"]["svg"] = True
    cfg, errors = validate(json.dumps(doc))
    assert errors == []
    run(cfg)
    svg = (out / "occupations.svg").read_text()
    assert svg.startswith("<svg") and "rect" in svg


def _x_axis(svg):
    """The x tick labels and the x axis label of an SVG from ``_svg``."""
    h, m = _svg._HEIGHT, _svg._MARGIN
    ticks = re.findall(rf'<text x="[0-9.]+" y="{h - m + 18}" [^>]*>([^<]*)</text>', svg)
    label = re.findall(rf'<text x="{_svg._WIDTH / 2}" y="{h - 10}" [^>]*>([^<]*)</text>', svg)
    return ticks, label


@pytest.mark.parametrize("scenario", ["occupation-dynamics", "custom-evolve"])
def test_heatmap_of_a_log_grid_has_a_log_axis(tmp_path, scenario):
    # the cells are evenly spaced in log10 z, so the middle one sits at z = 1.10, not 50
    out = tmp_path / "out"
    doc = _cfg_for(scenario, out)
    doc["z_grid"] = {"start": 0.01, "stop": 100.0, "count": 50, "spacing": "log"}
    doc["output"]["svg"] = True
    cfg, errors = validate(json.dumps(doc))
    assert errors == []
    run(cfg)
    ticks, label = _x_axis((out / "occupations.svg").read_text())
    assert ticks == ["-2", "-1", "0", "1", "2"] and label == ["log10 z"]

    doc["z_grid"]["spacing"] = "linear"
    run(validate(json.dumps(doc))[0])
    ticks, label = _x_axis((out / "occupations.svg").read_text())
    assert ticks == ["0.01", "25.01", "50", "75", "100"] and label == ["z"]


# ---------------------------------------------------------------------------
# command-line entry


def test_all_scenarios_complete_at_n10(tmp_path):
    import time

    docs = {
        "spectrum-flow": {"gamma_grid": {"start": 0.0, "stop": 4.0, "count": 100}},
        "ep-certify": {},
        "intensity-decay": {"z_grid": {"start": 0.0, "stop": 20.0, "count": 200}},
        "order-fit": {},
        "occupation-dynamics": {"z_grid": {"start": 0.0, "stop": 10.0, "count": 300}},
        "custom-evolve": {
            "z_grid": {"start": 0.0, "stop": 5.0, "count": 100},
            "input_state": {"kind": "custom", "amplitudes": [1.0] + [0.0] * 9 + [1.0]},
        },
    }
    gammas = {"spectrum-flow": 0.0, "ep-certify": 2.0, "order-fit": 2.0,
              "occupation-dynamics": 0.5}
    started = time.perf_counter()
    for scenario, extra in docs.items():
        doc = {
            "scenario": scenario,
            "params": {
                "omega0": 1.0,
                "kappa": 1.0,
                "gamma": gammas.get(scenario, 2.0),
                "n_photons": 10,
            },
            "output": {"directory": str(tmp_path / scenario)},
            **extra,
        }
        cfg, errors = validate(json.dumps(doc))
        assert errors == [], (scenario, errors)
        run(cfg)
    assert time.perf_counter() - started < 30.0


def test_main_success_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, _cfg_for("ep-certify", out))
    assert main(["ep-certify", "--config", cfg_path]) == 0
    assert (out / "report.json").exists()

    # validation failure -> 1
    bad = write_config(tmp_path, {"scenario": "ep-certify"}, name="bad.json")
    assert main(["ep-certify", "--config", bad]) == 1
    assert "config error" in capsys.readouterr().err

    # unreadable config -> 3
    assert main(["ep-certify", "--config", str(tmp_path / "missing.json")]) == 3

    # computation error -> 2 (fit window cannot span a decade)
    doc = _cfg_for("order-fit", out)
    doc["z_grid"] = {"start": 10.0, "stop": 20.0, "count": 30}
    cfg_path = write_config(tmp_path, doc, name="shortfit.json")
    assert main(["order-fit", "--config", cfg_path]) == 2


@pytest.mark.parametrize("text, out, extra, message", [
    ("[1, 2]", "out", [], "config must be a JSON object"),
    (None, "", [], "output.directory: must be a non-empty string"),
    (None, "out", ["--param", "params.gamma.x=1"],
     "--param 'params.gamma.x': gamma is not an object"),
], ids=["json-array", "empty-directory", "param-into-number"])
def test_config_shape_errors_exit_1(tmp_path, monkeypatch, capsys, text, out, extra, message):
    # the default output directory is the working directory: nothing may appear there
    monkeypatch.chdir(tmp_path)
    doc = base_config("intensity-decay", out, z_grid={"start": 0.0, "stop": 1.0, "count": 3})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc) if text is None else text)
    assert main(["intensity-decay", "--config", str(path), *extra]) == 1
    assert capsys.readouterr().err == f"epbs: config error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_main_reads_stdin_and_applies_out_flag(tmp_path, monkeypatch, capsys):
    out = tmp_path / "cli_out"
    doc = _cfg_for("ep-certify", tmp_path / "ignored")
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main(["ep-certify", "--config", "-", "--out", str(out),
                 "--param", "params.gamma=2.0"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["gamma"] == 2.0


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # the package needs no scipy: neither the import nor a below-threshold
    # run, which detects the period, loads it
    out_dir = tmp_path / "out"
    config = write_config(tmp_path, base_config(
        "occupation-dynamics", out_dir, z_grid={"start": 0.0, "stop": 30.0, "count": 400}))
    code = (
        "import sys, epbs.cli; "
        "loaded = lambda: [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
        "print(loaded()); "
        f"code = epbs.cli.main(['occupation-dynamics', '--config', {config!r}]); "
        "print(code, loaded())"
    )
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    lines = out.stdout.splitlines()  # the run also reports what it wrote
    assert (lines[0], lines[-1]) == ("[]", "0 []")
    report = json.loads((out_dir / "report.json").read_text())
    assert report["period_detected"] == pytest.approx(2.0 * math.pi / math.sqrt(3.0), rel=1e-12)


def test_json_output_is_strict():
    assert json.loads(_json_bytes({"x": 1.5})) == {"x": 1.5}
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            _json_bytes({"x": bad})


def test_ep_certify_at_n100_passes_with_strict_json(tmp_path):
    # the unnormalized matrix powers overflowed here and the report was not written
    out = tmp_path / "out"
    doc = _cfg_for("ep-certify", out)
    doc["params"]["n_photons"] = 100
    assert main(["ep-certify", "--config", write_config(tmp_path, doc)]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert report["passed"] is True and len(report["nilpotency_ratios"]) == 101


def test_non_finite_result_exits_2_without_writing(tmp_path, capsys):
    # a valid config the engine cannot represent: log I ~ -Gamma N z leaves
    # the double range at z = 5e306 for N = 100
    out = tmp_path / "out"
    doc = base_config("intensity-decay", out, z_grid={"start": 0.0, "stop": 1e307, "count": 3})
    doc["params"]["n_photons"] = 100
    assert main(["intensity-decay", "--config", write_config(tmp_path, doc)]) == 2
    assert "double-precision range" in capsys.readouterr().err
    assert not out.exists()


def test_dense_lossless_n200_custom_evolve_is_unitary(tmp_path):
    # the Horner composition gave log I = 53 here; G_N is unitary at Gamma = 0
    out = tmp_path / "out"
    rng = np.random.default_rng(200)
    amplitudes = [[float(x), float(y)] for x, y in rng.normal(size=(201, 2))]
    doc = base_config("custom-evolve", out, z_grid={"start": 0.0, "stop": 24.5, "count": 50},
                      input_state={"kind": "custom", "amplitudes": amplitudes})
    doc["params"].update(gamma=0.0, n_photons=200)
    assert main(["custom-evolve", "--config", write_config(tmp_path, doc)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert abs(report["final_log_intensity"]) <= 1e-10


def test_precision_error_exits_2_with_reason(tmp_path, capsys, monkeypatch):
    # an engine result that breaks the contraction of G_N is refused, not written
    from epbs import _sympower

    edge_rows = _sympower._edge_rows

    def amplified(*args):
        return edge_rows(*args) + 1e-6

    monkeypatch.setattr(_sympower, "_edge_rows", amplified)
    out = tmp_path / "out"
    doc = base_config("intensity-decay", out, z_grid={"start": 0.0, "stop": 1.0, "count": 3})
    assert main(["intensity-decay", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "state update at z=0.0 is not accurate" in err and "contraction" in err
    assert not out.exists()


def test_lossy_trace_off_unitarity_at_z0_exits_2(tmp_path, capsys, monkeypatch):
    # G(0) = I, so even a lossy trace is unitary at z = 0; 2e-10 below is refused
    from epbs import _sympower

    edge_rows = _sympower._edge_rows

    def lowered(*args):
        return edge_rows(*args) - 2e-10

    monkeypatch.setattr(_sympower, "_edge_rows", lowered)
    out = tmp_path / "out"
    doc = base_config("intensity-decay", out, z_grid={"start": 0.0, "stop": 1.0, "count": 3})
    assert main(["intensity-decay", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "state update at z=0.0 is not accurate" in err and "unitary" in err
    assert not out.exists()


def test_value_below_decay_floor_exits_2(tmp_path, capsys):
    # each photon keeps at least e^(-2 Gamma z) of its weight, so log I >= -2 N Gamma z;
    # here the engine's all_in_b value lies 5.3e-7 below that floor at z = 7.5e-12
    out = tmp_path / "out"
    doc = base_config("intensity-decay", out, input_state={"kind": "all_in_b"},
                      z_grid={"start": 0.0, "stop": 1e-11, "count": 5})
    doc["params"].update(gamma=2e12, n_photons=3000)
    assert main(["intensity-decay", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "state update at z=7.5e-12 is not accurate" in err and "2 N Gamma z" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega0, n, stop, first_bad", [(1.0, 10, 1e308, 5e307),
                                                        (1e307, 100, 3.0, 0.0)])
def test_spectrum_flow_past_double_range_exits_2(tmp_path, capsys, omega0, n, stop, first_bad):
    # a ladder value (omega0 - i Gamma/2) N + r Delta_lambda past the double range,
    # formed with no warning, is refused at the first such Gamma
    out = tmp_path / "out"
    doc = base_config("spectrum-flow", out, gamma_grid={"start": 0.0, "stop": stop, "count": 3})
    doc["params"].update(omega0=omega0, n_photons=n)
    assert main(["spectrum-flow", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert f"eigenvalue ladder leaves double-precision range at Gamma={first_bad!r} (N={n})" in err
    assert not out.exists()


def test_unwritable_output_exits_3(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("a regular file")
    cfg_path = write_config(tmp_path, _cfg_for("ep-certify", tmp_path / "unused"))
    assert main(["ep-certify", "--config", cfg_path, "--out", str(afile / "out")]) == 3
    err = capsys.readouterr().err
    assert "epbs: cannot write outputs:" in err and "Not a directory" in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["afile", "config.json"]
    assert afile.read_text() == "a regular file"


def test_memory_error_exits_2_with_reason(tmp_path, capsys, monkeypatch):
    # validation puts no bound on N, so a config too large to hold is a
    # failed run, not a traceback; the runner raises rather than allocate
    from epbs import cli

    def exhausted(cfg):
        raise MemoryError

    scenario = cli._SCENARIOS["ep-certify"]
    monkeypatch.setitem(cli._SCENARIOS, "ep-certify", scenario._replace(runner=exhausted))
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, _cfg_for("ep-certify", out))
    assert main(["ep-certify", "--config", cfg_path]) == 2
    assert "ep-certify failed: not enough memory (N=4)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, [0.0, -math.inf]])
def test_non_finite_amplitudes_exit_1(tmp_path, capsys, amplitude):
    # json.loads accepts NaN and Infinity in a custom state too
    out = tmp_path / "out"
    doc = base_config("custom-evolve", out, z_grid={"start": 0.0, "stop": 1.0, "count": 3},
                      input_state={"kind": "custom", "amplitudes": [1.0, amplitude, 0, 0, 1.0]})
    assert main(["custom-evolve", "--config", write_config(tmp_path, doc)]) == 1
    assert "input_state.amplitudes[1]: must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("amplitudes", [[1e308, 1e308, 0], [1e-320, 0, 1e-320]],
                         ids=["norm-overflows", "norm-underflows"])
def test_custom_state_of_any_finite_scale_runs(tmp_path, amplitudes):
    # the plain norm of these vectors overflows or underflows
    out = tmp_path / "out"
    doc = base_config("custom-evolve", out, z_grid={"start": 0.0, "stop": 1.0, "count": 3},
                      input_state={"kind": "custom", "amplitudes": amplitudes})
    doc["params"]["n_photons"] = 2
    assert main(["custom-evolve", "--config", write_config(tmp_path, doc)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["final_log_intensity"] < 0.0


def test_critical_trace_past_floor_exits_0(tmp_path):
    # I falls below 1e-300 near kappa*z = 38.4; the trace and its occupations run on
    out = tmp_path / "out"
    doc = base_config("occupation-dynamics", out, input_state={"kind": "noon"},
                      z_grid={"start": 0.0, "stop": 40.0, "count": 400})
    doc["params"].update(gamma=2.0, n_photons=10)
    assert main(["occupation-dynamics", "--config", write_config(tmp_path, doc)]) == 0
    tables = {}
    for name in ("occupations.csv", "intensity.csv"):
        rows = (out / name).read_text().splitlines()[1:]
        tables[name] = np.array([[float(x) for x in row.split(",")] for row in rows])
        assert np.isfinite(tables[name]).all()

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert tables["intensity.csv"][-1, 2] < math.log(1e-300)
    p = epbs.BeamsplitterParams(1.0, 1.0, 2.0, 10)
    amps = epbs.make_input("noon", 10).amplitudes
    occ = tables["occupations.csv"].reshape(400, 11, 3)
    for row in occ[-5:]:
        ref_p = exact_evolve(p, amps, row[0, 0])[1]
        assert np.abs(row[:, 2] - ref_p).max() <= 1e-10


@pytest.mark.parametrize("gamma, stop", [(2.0, 3000.0), (2.4, 100.0)])
def test_occupation_dynamics_reports_steady_state(tmp_path, gamma, stop):
    # the report's onset is steady_state_onset's, its argmax that of the trace's
    # occupations at the first grid point past the onset
    out = tmp_path / "out"
    grid = GridSpec(0.0, stop, 401)
    doc = base_config("occupation-dynamics", out, input_state={"kind": "noon"},
                      z_grid={"start": grid.start, "stop": grid.stop, "count": grid.count})
    doc["params"].update(gamma=gamma, n_photons=10)
    assert main(["occupation-dynamics", "--config", write_config(tmp_path, doc)]) == 0
    report = json.loads((out / "report.json").read_text())
    p, state = epbs.BeamsplitterParams(1.0, 1.0, gamma, 10), epbs.make_input("noon", 10)
    onset = steady_state_onset(state, p, z_max=stop)
    assert onset is not None and report["steady_onset"] == onset
    z = grid.to_array()
    occ = trace_evolution(state, p, z).occupations[min(np.searchsorted(z, onset), z.size - 1)]
    assert report["steady_argmax_m"] == int(np.argmax(occ))
    if gamma == 2.0:
        # at Gamma_c every mode has coalesced into one: P is binomial, peaked at N/2
        binomial = np.array([math.comb(10, m) for m in range(11)]) / 2.0**10
        assert np.abs(occ - binomial).max() <= 1e-3
        assert report["steady_argmax_m"] == 5


@pytest.mark.parametrize("where, value", [
    ("params.kappa", math.nan),
    ("params.gamma", math.inf),
    ("params.omega0", -math.inf),
    ("z_grid.stop", math.inf),
    ("z_grid.stop", math.nan),
    ("z_grid.start", math.nan),
])
def test_non_finite_config_numbers_exit_1(tmp_path, capsys, where, value):
    # json.loads accepts NaN and Infinity; validation must refuse them
    out = tmp_path / "out"
    doc = base_config("intensity-decay", out, z_grid={"start": 0.0, "stop": 1.0, "count": 3})
    section, key = where.split(".")
    doc[section][key] = value
    assert main(["intensity-decay", "--config", write_config(tmp_path, doc)]) == 1
    assert f"{where}: must be finite" in capsys.readouterr().err
    assert not out.exists()


_HUGE = 10**400  # a JSON integer beyond the double range


@pytest.mark.parametrize("where, amplitude", [
    ("params.kappa", None),
    ("z_grid.stop", None),
    ("input_state.amplitudes[1]", _HUGE),
    ("input_state.amplitudes[1]", [0, -_HUGE]),
], ids=["params.kappa", "z_grid.stop", "amplitude", "amplitude-pair"])
def test_huge_integers_exit_1(tmp_path, where, amplitude):
    # json.loads gives such integers exactly; they must not reach float()
    # unguarded, which raises OverflowError
    out = tmp_path / "out"
    doc = base_config("custom-evolve", out, z_grid={"start": 0.0, "stop": 1.0, "count": 3},
                      input_state={"kind": "custom", "amplitudes": [1.0, 0.0, 0, 0, 1.0]})
    if amplitude is None:
        section, key = where.split(".")
        doc[section][key] = _HUGE
    else:
        doc["input_state"]["amplitudes"][1] = amplitude
    proc = subprocess.run(
        [sys.executable, "-m", "epbs.cli", "custom-evolve", "--config",
         write_config(tmp_path, doc)],
        env=dict(os.environ, PYTHONPATH=SRC_DIR), capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert f"config error: {where}: must be finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_one_point_grid_below_threshold_exits_0(tmp_path):
    # one point cannot hold two periods: the report says so instead of crashing
    out = tmp_path / "out"
    doc = base_config("occupation-dynamics", out,
                      z_grid={"start": 0.0, "stop": 30.0, "count": 1})
    doc["params"]["n_photons"] = 3
    proc = subprocess.run(
        [sys.executable, "-m", "epbs.cli", "occupation-dynamics", "--config",
         write_config(tmp_path, doc)],
        env=dict(os.environ, PYTHONPATH=SRC_DIR), capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["period_detected"] is None
    assert "must cover >= 2 periods" in report["period_note"]
