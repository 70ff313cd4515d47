"""Run ``structfn.cli.main`` with span tracing, for one lattice document.

Usage: python3 perfbench/traced_cli.py SPANS_FILE CLI_ARGS...

Behaves like ``python -m structfn CLI_ARGS...`` and, once the command has
finished, writes the recorded spans and counters to SPANS_FILE as JSON.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.Tracer()
    tracer.install(recorder)
    import structfn.cli

    code = structfn.cli.main(argv)
    sys.stdout.flush()
    Path(spans_file).write_text(
        json.dumps({"spans": recorder.spans, "counts": recorder.counts}), encoding="utf-8"
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
