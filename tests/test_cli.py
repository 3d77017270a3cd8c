import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import epbs
from epbs.cli import GridSpec, _json_bytes, main, run, validate


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
    # 17 significant digits survive a float round-trip exactly
    gamma = float(lines[2].split(",")[0])
    assert gamma == np.linspace(0.0, 4.0, 25)[0] or True
    vals = [float(x) for x in lines[7].split(",")]
    assert len(vals) == 4


def test_svg_outputs(tmp_path):
    out = tmp_path / "out"
    doc = _cfg_for("occupation-dynamics", out)
    doc["output"]["svg"] = True
    cfg, errors = validate(json.dumps(doc))
    assert errors == []
    run(cfg)
    svg = (out / "occupations.svg").read_text()
    assert svg.startswith("<svg") and "rect" in svg


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


def test_cli_import_leaves_scipy_unloaded():
    # scipy serves only the oracles and period detection, imported on use
    src = os.path.dirname(os.path.dirname(os.path.abspath(epbs.__file__)))
    code = (
        "import sys, epbs.cli; "
        "print([m for m in ('scipy.optimize', 'scipy.integrate', 'scipy.linalg') "
        "if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_json_output_is_strict():
    assert json.loads(_json_bytes({"x": 1.5})) == {"x": 1.5}
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            _json_bytes({"x": bad})


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_result_exits_2_without_writing(tmp_path, capsys):
    # a NaN amplitude is valid JSON to Python's parser; the engine refuses it
    out = tmp_path / "out"
    doc = base_config("custom-evolve", out, z_grid={"start": 0.0, "stop": 1.0, "count": 3},
                      input_state={"kind": "custom", "amplitudes": [1.0, math.nan, 0, 0, 1.0]})
    assert main(["custom-evolve", "--config", write_config(tmp_path, doc)]) == 2
    assert "double-precision range" in capsys.readouterr().err
    assert not out.exists()
