"""Run ``prmi.cli.main`` under the span tracer and save the spans as JSON.

Usage: python traced_cli.py SPAN_FILE CLI_ARGS...

The import of ``prmi.cli`` is recorded as its own span; the exit code is the
one ``prmi.cli.main`` returns.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import Tracer  # noqa: E402


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli", "import"):
        import prmi.cli
    tracer.install()
    try:
        code = prmi.cli.main(argv)
    finally:
        tracer.uninstall()
        Path(span_file).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
