"""Fresh-process set-up: import a module of epbs, then call the propagator once per N.

    python3 bench/setup_child.py <module> <N> [<N> ...]

Run with PYTHONPATH pointing at ``src``.  The first call at each N fills
the propagator's per-N tables.  Prints {"import_s", "warmup_s"} as JSON.
"""

import time

_t0 = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    importlib.import_module(sys.argv[1])
    import epbs

    t1 = time.perf_counter()
    for n in sys.argv[2:]:
        epbs.evolution_operator(epbs.BeamsplitterParams(1.0, 1.0, 2.0, int(n)), 0.5)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - _t0, "warmup_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
