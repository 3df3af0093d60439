"""Run ``repro serve`` with the query-service layers traced.

    python perfbench/serve_boot.py SPANS_JSON -- serve STORE [options]

Installs the wrappers of :func:`tracing.install_service`, then calls the
same CLI entry point as ``python -m repro.cli``.  When the server stops
(SIGINT), the spans are written to ``SPANS_JSON``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv) -> int:
    spans_path = Path(argv[0])
    arguments = argv[argv.index("--") + 1:]
    sys.path.insert(0, str(SRC))
    import tracing

    tracer = tracing.Tracer(run="serve", cpu=True)
    tracing.install_service(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(arguments)
    finally:
        temporary = spans_path.with_name(spans_path.name + ".tmp")
        temporary.write_text(json.dumps(tracer.dump()))
        os.replace(temporary, spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
