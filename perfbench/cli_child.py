"""Traced ``axisphere`` process: ``cli_child.py STATE_JSON ARGS...``.

Installs the tracer, runs ``axisphere.cli.main(ARGS)``, writes the spans
and totals to STATE_JSON and exits with the CLI's own code.
"""

import sys

from spans import Tracer


def main() -> int:
    state, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import axisphere.cli as cli  # attribute lookup after install: the wrapper

    try:
        with tracer.span("op.cli"):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(state)
    return code


if __name__ == "__main__":
    sys.exit(main())
