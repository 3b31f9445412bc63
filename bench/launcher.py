"""Run one pardual CLI command with the benchmark's span wrappers installed.

    PYTHONPATH=src python3 bench/launcher.py dual -- "x1^2 + x2^2 - 1"

Behaves as ``python -m pardual.cli`` (same stdout and exit code) and then
prints the command's span statistics as one JSON line on stderr.
"""

import json
import sys

from tracer import PAYLOAD_PREFIX, Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    import pardual.cli

    tracer.begin_op("cli")
    code = 1
    try:
        code = pardual.cli.main(sys.argv[1:])
    finally:
        tracer.end_op()
        sys.stdout.flush()
        print(PAYLOAD_PREFIX + json.dumps(tracer.payload()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
