"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_traced.py SPANS.json serve [ARGS...]``

Calls the unchanged CLI entry point; when the server drains on SIGTERM
and the CLI returns, the recorded spans are written to ``SPANS.json``
as ``{"spans": [Span.to_list() rows], "counts": {...}}``.
"""

import json
import sys
from pathlib import Path


def main(argv) -> int:
    spans_out, cli_args = Path(argv[0]), argv[1:]
    from repro.cli import main as repro_main

    from tracer import PROBES, SERVICE_PROBES, Tracer, install

    tracer = Tracer()
    with install(tracer, PROBES + SERVICE_PROBES):
        code = repro_main(cli_args)
    spans_out.write_text(
        json.dumps(
            {
                "spans": [span.to_list() for span in tracer.spans],
                "counts": dict(tracer.counts),
            }
        )
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
