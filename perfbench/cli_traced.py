"""`python -m atomslits` with the benchmark's tracer installed.

    python3 perfbench/cli_traced.py pattern --config B --beta 0.3

Behaves like the CLI (same stdout, same exit code) and appends one line
`PERFBENCH_TRACE <json>` to stderr with the spans of the call.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from atomslits import cli  # noqa: E402

from perfbench.tracing import TRACE_PREFIX, Tracer, install  # noqa: E402


def main() -> int:
    tracer = Tracer()
    install(tracer)
    tracer.enabled = True
    try:
        return tracer.op_call(tracer.wrap(cli.main, "cli.main"), sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write("\n" + TRACE_PREFIX + json.dumps(tracer.export()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
