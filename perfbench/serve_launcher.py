"""Start ``python -m repro serve`` with the span wrappers installed.

Usage: ``python perfbench/serve_launcher.py SPANS_OUT [serve options...]``

The wrappers go in before the service is built, so every cell the server
runs on its worker threads is timed.  The spans and totals are written to
``SPANS_OUT`` when the server exits (SIGTERM drains it and returns).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Recorder, install  # noqa: E402


def main() -> int:
    spans_out, serve_args = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
