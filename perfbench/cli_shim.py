"""Run one dswave command with the benchmark's tracer installed.

    python3 -X importtime perfbench/cli_shim.py OUT_PREFIX ARGS...

ARGS are those of the ``dswave`` command.  The import of ``dswave.cli`` is
timed whole, then the command runs as ``dswave.cli.main(ARGS)`` would.
Each process (forked pool workers too) writes its aggregates to
``OUT_PREFIX.<pid>.json`` and its spans to ``OUT_PREFIX.<pid>.npz`` when it
ends.  The exit code is the command's.
"""

from __future__ import annotations

import json
import os
import sys
import time

from tracer import Tracer


def _dump(tracer: Tracer, prefix: str, extra: dict) -> None:
    base = f"{prefix}.{os.getpid()}"
    tracer.write_spans(base + ".npz")
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump({"snapshot": tracer.snapshot(), **extra}, fh)


def _on_fork(tracer: Tracer, prefix: str) -> None:
    # a forked pool worker runs multiprocessing's finalizers as it exits
    from multiprocessing import util

    util.Finalize(None, _dump, args=(tracer, prefix, {}), exitpriority=10)


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import dswave.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.on_fork = lambda tr: _on_fork(tr, prefix)
    tracer.install()
    if argv and argv[0] == "eval":
        # the same grid at --jobs 1 and 2 gives the pool's ratio
        run_grid = dswave.cli._run_grid
        dswave.cli._run_grid = lambda cfg, method, jobs: tracer.span(
            f"cli.run_grid.jobs{jobs}", run_grid)(cfg, method, jobs)
    tracer.begin_op(0, argv[0] if argv else "")
    try:
        return dswave.cli.main(argv)
    finally:
        _dump(tracer, prefix, {"import_s": import_s})


if __name__ == "__main__":
    raise SystemExit(main())
