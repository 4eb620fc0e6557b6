"""Run ``qbss-serve`` through its real entry point, in its own process.

    python3 perfbench/daemon.py --stats FILE [--spans FILE] -- QBSS_SERVE_ARGS...

Calls :func:`repro.serve.cli.main` with the arguments after ``--``.  With
``--spans`` the span shims are installed first and the spans are written
to FILE when the daemon has drained (SIGTERM).  ``--stats`` receives the
daemon's exit code and peak resident memory.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(prog="perfbench-daemon")
    parser.add_argument("--stats", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv[:split])
    serve_args = argv[split + 1 :]

    sys.path.insert(0, str(ROOT / "src"))
    from repro.serve import cli

    recorder = patches = None
    if args.spans:
        from layers import TARGETS
        from shims import Recorder, install, uninstall, write_spans

        recorder = Recorder()
        patches = install(recorder, TARGETS)
    try:
        code = cli.main(serve_args)
    finally:
        if patches is not None:
            uninstall(patches)
            write_spans(recorder.spans, args.spans)
    maxrss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    Path(args.stats).write_text(json.dumps({"exit": code, "maxrss_kb": maxrss_kb}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
