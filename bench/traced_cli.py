"""Run the epbs CLI with spans around every layer's public functions.

    python3 bench/traced_cli.py <spans.json> <epbs arguments ...>

Run with PYTHONPATH pointing at ``src``.  Exits with the CLI's exit code;
the spans are written even when the CLI raises.
"""

import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    restore = tracer.install()
    import epbs.cli

    try:
        return epbs.cli.main(argv)
    finally:
        restore()
        tracing.dump(tracer.spans, spans_path)


if __name__ == "__main__":
    sys.exit(main())
