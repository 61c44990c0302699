"""``mlpsim serve`` with the layer wrappers installed, for traced runs.

Usage: ``python3 serve_traced.py TRACE_DIR [mlpsim arguments...]``.  The
daemon runs exactly as ``python -m repro ...`` would; its spans are written
to ``TRACE_DIR/spans-<pid>.jsonl`` when it exits.
"""

import sys
from pathlib import Path


def main() -> int:
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    sys.path.insert(0, str(here))
    from repro.cli import main as cli_main
    from tracing import Recorder, install

    recorder = Recorder(Path(sys.argv[1]))
    install(recorder)
    try:
        return cli_main(sys.argv[2:])
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main())
