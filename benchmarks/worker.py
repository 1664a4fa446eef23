"""Benchmark worker: one fresh interpreter per round of ops.

    python -I benchmarks/worker.py SRC_DIR

Imports ``ratstems.cli`` from SRC_DIR (and refuses any other copy),
prints ``ready``, then reads one JSON job from stdin and prints one JSON
result.  An empty stdin ends the worker at once, which is how the runner
times set-up alone.

Job keys: ``ops`` and ``probes`` (lists of argv lists), ``trace`` (wrap
the entry points first) and ``spans_path`` (where a traced worker writes
its spans).  The ops run one ``cli.run(argv)`` call at a time with stdout
and stderr captured; the probes run after them, outside the timed window
and after peak RSS is read.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def run_ops(ops: list[list[str]], tracer=None) -> tuple[list[list], int]:
    from ratstems import cli

    run = cli.run
    results = []
    begin = time.perf_counter_ns()
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                code = run(argv)
            except Exception as error:  # an escaped exception is a failed op, not a dead worker
                code, exc = None, type(error).__name__
            end = time.perf_counter_ns()
        text = out.getvalue()
        if tracer is not None:
            tracer.count("cli.emit_bytes", len(text.encode("utf-8")))
        results.append([end - start, code, exc, text])
    return results, time.perf_counter_ns() - begin


def main() -> int:
    src = os.path.realpath(sys.argv[1])
    sys.path.insert(0, src)
    from ratstems import cli, stems

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"worker: imported ratstems from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    raw = sys.stdin.read()
    if not raw:
        return 0
    job = json.loads(raw)
    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.realpath(__file__)))
        from tracer import Tracer, install

        tracer = Tracer()
        tracer.count("cli.emit_bytes", 0)
        install(tracer)
    ops, wall_ns = run_ops(job["ops"], tracer)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cache = stems._smash_table.cache_info()
    result = {
        "ops": ops,
        "wall_ns": wall_ns,
        "maxrss_kb": maxrss_kb,
        "cache": {"hits": cache.hits, "misses": cache.misses, "size": cache.currsize},
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["spans"] = tracer.write_spans(job["spans_path"])
    result["probes"], _ = run_ops(job["probes"])
    sys.stdout.write(json.dumps(result))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
