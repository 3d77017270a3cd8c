"""Digest of the engine's values over a fixed sweep, to show that a change keeps them bit for bit.

The sweep runs ``evolve_grid`` and ``evolution_operator`` through the public
API only, so the same file runs unchanged against any revision of the
package:

- states: a dense state (normal real and imaginary parts from
  ``default_rng(3)``), the same times 1e200 and times 1e-170, noon,
  ``all_in_b`` and the basis state |N/2);
- N in {1, 2, 3, 10, 40, 100, 200}, kappa in {1, 0.37, 3e5, 1e-7} and
  Gamma / Gamma_c in {0, 0.25, 0.5, 0.95, 1, 1.2, 3, 30, 1e4};
- ``evolve_grid`` on 97 z over kappa z in [0, 12], with and without
  occupations; ``evolution_operator`` at kappa z in {0.3, 2.9, 7.7}.

A refusal is recorded as its exception type and text.  The CLI section
runs configs through ``epbs.cli.main`` in a temporary directory, with SVG
output on: the six of ``_cfg_for`` in ``tests/test_cli.py`` (read from its
source, so that no test module is imported) and the ten seed-1 configs of
``bench/cli_cases.py`` (``invocations`` then ``probes`` on
``default_rng(1)``).  It hashes every file a run writes except
``manifest.json``, whose wall time varies, and a non-zero exit as its code
and message.  The script prints one sha256 per engine section (one function
at one Gamma / Gamma_c) and per CLI data file, and one over all of them.
To compare a change with its parent, check the parent out beside the
working tree and run this script once against each::

    git clone --quiet . /tmp/epbs-parent && git -C /tmp/epbs-parent checkout --quiet HEAD~1
    PYTHONPATH=/tmp/epbs-parent/src python3 tools/value_digest.py > parent.txt
    PYTHONPATH=src python3 tools/value_digest.py > head.txt
    diff parent.txt head.txt
    rm -rf /tmp/epbs-parent

It takes about 20 s on one core of a 2-CPU Intel Xeon machine.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import itertools
import json
import pathlib
import sys
import tempfile
import warnings

import numpy as np

from epbs import BeamsplitterParams, evolution_operator, evolve_grid, make_input
from epbs.cli import main as cli_main

ROOT = pathlib.Path(__file__).resolve().parents[1]

NS = (1, 2, 3, 10, 40, 100, 200)
KAPPAS = (1.0, 0.37, 3e5, 1e-7)
RATIOS = (0.0, 0.25, 0.5, 0.95, 1.0, 1.2, 3.0, 30.0, 1e4)
GRID = np.linspace(0.0, 12.0, 97)
OPERATOR_KZ = (0.3, 2.9, 7.7)


def states(n: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(3)
    dense = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    middle = np.zeros(n + 1, dtype=complex)
    middle[n // 2] = 1.0
    return {
        "dense": dense,
        "dense*1e200": dense * 1e200,
        "dense*1e-170": dense * 1e-170,
        "noon": make_input("noon", n).amplitudes,
        "all_in_b": make_input("all_in_b", n).amplitudes,
        "half": middle,
    }


def feed(h, label: str, call) -> None:
    """Hash ``label`` and the arrays ``call()`` returns, or its exception's type and text."""
    h.update(label.encode())
    try:
        values = call()
    except Exception as exc:  # a refusal is a value of the sweep
        h.update(f"{type(exc).__name__}: {exc}".encode())
        return
    for v in values:
        h.update(b"None" if v is None else np.ascontiguousarray(v).tobytes())


def sections():
    """(name, sha256) of each section of the sweep."""
    for ratio in RATIOS:
        grid_hash, operator_hash = hashlib.sha256(), hashlib.sha256()
        for n in NS:
            amps = states(n)
            for kappa in KAPPAS:
                p = BeamsplitterParams(1.0, kappa, ratio * 2.0 * kappa, n)
                for name, a in amps.items():
                    for occ in (True, False):
                        label = f"N={n} kappa={kappa!r} {name} occupations={occ}"
                        feed(grid_hash, label, lambda: evolve_grid(p, a, GRID / kappa, occ))
                for kz in OPERATOR_KZ:
                    label = f"N={n} kappa={kappa!r} kz={kz!r}"

                    def operator():
                        g = evolution_operator(p, kz / kappa)
                        return g.core, np.complex128(g.prefactor_exponent)

                    feed(operator_hash, label, operator)
        yield f"evolve_grid Gamma/Gamma_c={ratio:g}", grid_hash.hexdigest()
        yield f"evolution_operator Gamma/Gamma_c={ratio:g}", operator_hash.hexdigest()


def cli_configs(out: str) -> dict[str, dict]:
    """Name -> config document of each CLI run, writing under the directory ``out``."""
    source = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    helpers = [f for f in source.body if getattr(f, "name", None) in ("base_config", "_cfg_for")]
    scope = {}
    exec(compile(ast.Module(helpers, type_ignores=[]), "test_cli.py", "exec"), scope)
    docs = {s: scope["_cfg_for"](s, f"{out}/{s}") for s in
            ("spectrum-flow", "ep-certify", "intensity-decay", "order-fit",
             "occupation-dynamics", "custom-evolve")}
    sys.path.insert(0, str(ROOT / "bench"))
    import cli_cases

    rng = np.random.default_rng(1)
    bench = cli_cases.invocations(rng) + [inv for inv, _ in cli_cases.probes(rng)]
    for inv in bench:
        docs[f"bench {inv.name}"] = {"scenario": inv.scenario, **inv.config,
                                     "output": {"directory": f"{out}/{inv.name}"}}
    for doc in docs.values():
        doc["output"]["svg"] = True
    return docs


def cli_sections():
    """(name, sha256) of each data file, or of the exit code and message, of each CLI run."""
    with tempfile.TemporaryDirectory() as work:
        for name, doc in cli_configs(work).items():
            path = pathlib.Path(work, "config.json")
            path.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli_main([doc["scenario"], "--config", str(path)])
            if code:
                message = f"exit {code}: {err.getvalue()}".replace(work, "<work>").encode()
                yield f"cli {name} exit {code}", hashlib.sha256(message).hexdigest()
                continue
            out = pathlib.Path(doc["output"]["directory"])
            for file in sorted(out.iterdir()):
                if file.name != "manifest.json":
                    yield f"cli {name} {file.name}", hashlib.sha256(file.read_bytes()).hexdigest()


def main() -> None:
    total = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, digest in itertools.chain(sections(), cli_sections()):
            print(f"{digest}  {name}", flush=True)
            total.update(digest.encode())
    print(f"{total.hexdigest()}  all")


if __name__ == "__main__":
    main()
