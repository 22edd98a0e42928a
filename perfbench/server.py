"""Launcher of the program under test, run as the benchmark's child process.

    python3 perfbench/server.py build  [--trace FILE] -- <repro build args>
    python3 perfbench/server.py serve  [--trace FILE] -- <repro serve args>
    python3 perfbench/server.py ingest [--trace FILE] --min-support S
                                       --min-confidence C

``build`` and ``serve`` hand over to the program's own CLI (``repro build``
and ``repro serve``); they exist so that a traced run can wrap the
program's entry points first (:mod:`tracing`).  ``ingest`` serves an
empty :class:`repro.core.incremental.IncrementalTara` through the public
:func:`repro.serve.run_server`, because ``repro serve`` serves only a
static knowledge base and answers 400 to ``/v1/admin/append``.

With ``--trace FILE`` the spans are written to FILE when the program
returns (for the servers: after SIGTERM and the graceful drain).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def _serve_incremental(args: argparse.Namespace) -> int:
    from repro.core.builder import GenerationConfig
    from repro.core.incremental import IncrementalTara
    from repro.serve import ServeConfig, run_server

    publisher = IncrementalTara(
        GenerationConfig(
            min_support=args.min_support,
            min_confidence=args.min_confidence,
            build_item_index=True,
        )
    )

    def on_ready(host: str, port: int) -> None:
        print(f"listening on http://{host}:{port}", flush=True)

    run_server(
        publisher, ServeConfig(port=0), on_ready=on_ready,
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("build", "serve", "ingest"))
    parser.add_argument("--trace", default=None, metavar="FILE")
    parser.add_argument("--min-support", type=float)
    parser.add_argument("--min-confidence", type=float)
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    rest = argv[split + 1 :]
    if args.trace:
        tracing.install()
    try:
        if args.mode == "ingest":
            return _serve_incremental(args)
        from repro.cli import main as repro_main

        return repro_main([args.mode, *rest])
    finally:
        if args.trace:
            tracing.dump(args.trace)


if __name__ == "__main__":
    raise SystemExit(main())
