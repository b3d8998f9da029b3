#!/usr/bin/env python3
"""Start ``repro-roa serve`` for the jobs-http workload.

    python3 perfbench/serve_launcher.py [--trace-dump PATH] -- serve ...

Everything after ``--`` goes to ``repro.cli.main`` unchanged.  With
``--trace-dump`` the launcher first wraps every layer's public entry
points (``layers.install``) and, when the server exits after SIGTERM,
writes the span table and the registry counter deltas to ``PATH``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from common import import_repro


def main(argv: list) -> int:
    dump = None
    if argv[:1] == ["--trace-dump"]:
        dump, argv = Path(argv[1]), argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    import_repro()
    recorder = None
    if dump is not None:
        import layers
        from tracer import SpanRecorder

        recorder = SpanRecorder()
        layers.install(recorder)
        recorder.keep_starts.add("scheduler.run_pending")
        recorder.counters_base = layers.registry_counters()

    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if recorder is not None:
            recorder.dump(dump)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
