"""Start ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 serve_launcher.py SPANS_PATH serve [repro serve args...]``

The wrappers go in before the server binds its socket, so every
request it answers is traced.  When the server exits (SIGINT), the
spans are written to ``SPANS_PATH`` and their per-name summary to
``SPANS_PATH`` with a ``.summary.json`` suffix.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from spans import SpanRecorder


def main(argv: list[str]) -> int:
    spans_path = Path(argv[0])
    from repro.__main__ import main as repro_main

    recorder = SpanRecorder()
    recorder.install()
    try:
        code = repro_main(argv[1:])
    finally:
        recorder.uninstall()
        recorder.dump(spans_path)
        with open(spans_path.with_suffix(".summary.json"), "w", encoding="utf-8") as stream:
            json.dump(recorder.summary(), stream)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
