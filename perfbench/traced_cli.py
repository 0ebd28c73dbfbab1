"""Run one ``repro`` CLI command with or without layer spans.

    python perfbench/traced_cli.py --out FILE [--off] -- <repro args>

With tracing on, the layer entry points are wrapped (see
:mod:`tracing`) and, when the process is done, its spans go to FILE as
JSON.  ``repro serve`` evaluates each request in a forked worker, so
there every evaluation is its own ``server.evaluate`` root span and its
worker writes ``FILE.<pid>.<n>`` before handing the result back.  With
``--off`` nothing is wrapped; FILE then records only the in-process
wall time, the base that tracing overhead is measured against.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, install  # noqa: E402


def _write(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def _trace_server_tasks(tracer: Tracer, out: str) -> None:
    import repro.server.executor as executor
    original = executor.evaluate_request
    sequence = itertools.count()

    @functools.wraps(original)
    def evaluate_request(payload):
        tracer.reset()  # the fork copied the server process's spans
        try:
            with tracer.span("server.evaluate"):
                return original(payload)
        finally:
            _write(f"{out}.{os.getpid()}.{next(sequence)}", tracer.dump())

    executor.evaluate_request = evaluate_request


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--off", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import repro.cli
    tracer = Tracer()
    serving = argv[:1] == ["serve"]
    if not args.off:
        install(tracer)
        if serving:
            _trace_server_tasks(tracer, args.out)
    started = time.perf_counter_ns()
    try:
        if serving or args.off:
            code = repro.cli.main(argv)
        else:
            with tracer.span("cli.main"):
                code = repro.cli.main(argv)
    finally:
        payload = tracer.dump()
        payload["main_ns"] = time.perf_counter_ns() - started
        sys.stdout.flush()
        _write(args.out, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
