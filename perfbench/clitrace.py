"""``python -m rkhsivp.cli`` with the benchmark's span wrappers installed.

Used for the traced ops of ``cli_cold``: run as
``python -X importtime perfbench/clitrace.py solve ...``.  The CLI's stdout
is left untouched; the spans and counters go to stderr as one line after
the marker, for the runner to merge into its own trace.
"""

import json
import sys

import rkhsivp.cli

import tracing


def main() -> int:
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        code = rkhsivp.cli.main(sys.argv[1:])
    finally:
        uninstall()
    tracer.counts["collocation.basis_bytes"] += tracer.take_bases()
    payload = {"spans": tracer.spans(), "counts": dict(tracer.counts)}
    sys.stdout.flush()
    sys.stderr.write("\n" + tracing.MARKER + json.dumps(payload) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
