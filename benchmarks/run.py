"""Benchmark runner for the ratstems command line.

    python3 benchmarks/run.py --workload heavy --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The workload's op list is generated from the seed
(``workloads.py``).  The loop is closed with a single client: the runner
runs one round at a time in a fresh worker process (``worker.py``), which
makes one ``ratstems.cli.run(argv)`` call at a time, so the sphere-table
cache starts cold in every round, as it does for a user.  Rounds
repeat the same op list until ``--seconds`` is used up, and every timing
is taken over all rounds, which damps the host's drift in speed.

Every op's answer is checked after the rounds (``checks.py``), and the
rounds must produce byte-identical output.  Ops that hit known defects
(probes) run once, after the first round's timed list; they count in
``failed_op_share`` and in no timing.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` untraced and traced rounds alternate: the traced ones wrap
each module's entry points (``tracer.py``), report per-module counts and
self times, and write their spans to ``.bench_out/``; the ratio of the
two kinds' wall times is the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (timed ops only) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_SPAWNS_PER_ROUND = 3
MIN_ROUNDS = 3
MIN_ROUNDS_TRACED = 4  # alternating, so two of each kind
JOB_TIMEOUT_S = 170
# interpreter start and imports before the first round, and the answer
# checks after the last one (about 0.2 s on light)
RESERVE_S = 1.0

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

SPANS = [
    "cli.run", "cli.handler", "cli.compare_methods",
    "rolattice.parse_degree",
    "stems.closed", "stems.decode_degree", "stems.sector", "stems.oracle",
    "stems.sphere_homology", "stems.point_presentation",
    "mackey.classify", "mackey.MackeyClass.box", "mackey.GradedTable.box",
    "series.mul",
    "classifying.fixed_point_data", "classifying.gm_assemble",
    "classifying.torus_check_u", "classifying.sym_invariants_series",
    "burnside.mul", "burnside.from_marks", "burnside.idempotents",
]
COUNTS = [
    ("cli.emit_bytes", "bytes"),
    ("rolattice.VirtualRep.new", "count"),
    ("mackey.MackeyClass.new", "count"),
    ("mackey.GradedTable.box.pairs", "count"),
    ("classifying.compositions.yielded", "count"),
]
CACHE = [
    ("stems.sphere_cache.hits", "count"),
    ("stems.sphere_cache.misses", "count"),
    ("stems.sphere_cache.size", "count"),
    ("stems.sphere_cache.hit_ratio", "ratio"),
]
PER_LAYER = ([(f"{name}.{field}", unit) for name in SPANS
              for field, unit in (("calls", "count"), ("self_s", "s"))]
             + COUNTS + CACHE + [("trace.overhead_ratio", "ratio")])


class WorkerError(RuntimeError):
    pass


def spawn() -> tuple[subprocess.Popen, float]:
    """Start a worker and wait until ratstems.cli is imported; returns
    the process and the set-up time in seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-I", str(HERE / "worker.py"), str(SRC)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line != "ready\n":
        _, err = finish(proc, "")
        raise WorkerError(f"worker did not start: {err.strip()}")
    return proc, setup


def finish(proc: subprocess.Popen, job: str) -> tuple[str, str]:
    try:
        out, err = proc.communicate(job, timeout=JOB_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return out, err


def run_round(argvs: list[list[str]], probes: list[list[str]], traced: bool,
              spans_path: Path) -> dict:
    proc, setup = spawn()
    job = {"ops": argvs, "probes": probes, "trace": traced, "spans_path": str(spans_path)}
    out, _ = finish(proc, json.dumps(job))
    result = json.loads(out)
    result["setup_s"] = setup
    result["traced"] = traced
    return result


def digest(ops: list, results: list) -> str:
    h = hashlib.sha256()
    for op, (_, code, exc, text) in zip(ops, results):
        h.update(json.dumps([op.argv, code, exc, text]).encode("utf-8"))
    return h.hexdigest()


def find_failures(ops: list, rounds: list[dict]) -> list[str]:
    """One line per failed op and round.  The first round's answers are
    checked; later rounds must repeat its output exactly."""
    import checks

    first = rounds[0]["ops"]
    verdicts = [checks.evaluate(op, code, exc, text)
                for op, (_, code, exc, text) in zip(ops, first)]
    failures = []
    for k, rnd in enumerate(rounds):
        for op, verdict, (_, *got), (_, *want) in zip(ops, verdicts, rnd["ops"], first):
            if got != want:
                verdict = "output differs from round 0"
            if verdict:
                failures.append(f"round {k}: {' '.join(op.argv)}: {verdict}")
    return failures


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list, list, list[float]]:
    """Rounds, each after a few set-up-only spawns, while the slowest
    past round of the next kind, plus a reserve for start-up and the
    answer checks, still fits in the time budget; set-up samples are
    spread over the run like the rounds, so that both see the same drift
    in host speed."""
    ops, probes = WORKLOADS[workload](seed)
    argvs = [list(op.argv) for op in ops]
    spans_path = OUT_DIR / f"spans-{workload}.jsonl"
    begin = time.perf_counter()
    setups: list[float] = []
    rounds: list[dict] = []
    took: dict[bool, list[float]] = {False: [], True: []}
    min_rounds = MIN_ROUNDS_TRACED if trace else MIN_ROUNDS
    while True:
        traced = trace and len(rounds) % 2 == 1
        start = time.perf_counter()
        for _ in range(SETUP_SPAWNS_PER_ROUND):
            proc, setup = spawn()
            finish(proc, "")
            setups.append(setup)
        rounds.append(run_round(argvs, [] if rounds else [list(p.argv) for p in probes],
                                traced, spans_path))
        took[traced].append(time.perf_counter() - start)
        upcoming = trace and len(rounds) % 2 == 1
        estimate = max(took[upcoming] or took[not upcoming]) + RESERVE_S
        if len(rounds) >= min_rounds and time.perf_counter() - begin + estimate > seconds:
            break
    return ops, probes, rounds, setups


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ratstems" / "cli.py").is_file():
        print(f"run.py: no ratstems source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks

    OUT_DIR.mkdir(exist_ok=True)
    ops, probes, rounds, setups = measure(args.workload, args.seed, args.seconds,
                                          bool(args.trace))

    failures = find_failures(ops, rounds)
    probe_verdicts = [checks.evaluate(op, code, exc, text)
                      for op, (_, code, exc, text) in zip(probes, rounds[0]["probes"])]
    digests = {digest(ops, rnd["ops"]) for rnd in rounds}
    attempted = len(ops) * len(rounds)
    failed = len(failures)
    probe_failed = sum(v is not None for v in probe_verdicts)

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(plain)} untraced + {len(traced)} traced, {len(ops)} ops per round, "
          f"closed loop with one client")
    for op, verdict in zip(probes, probe_verdicts):
        print(f"probe {' '.join(op.argv)!r}: {verdict or 'ok'}")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"failed_op_share {(failed + probe_failed) / (attempted + len(probes)):.6f} ratio "
          f"({failed} of {attempted} timed ops and {probe_failed} of {len(probes)} "
          f"known-defect probes failed)")
    print(f"output_sha256 {sorted(digests)[0]} "
          f"({'equal' if len(digests) == 1 else 'DIFFERENT'} in all {len(rounds)} rounds)")
    correct = failed == 0 and len(digests) == 1

    if not args.trace:
        latencies = [o[0] for r in rounds for o in r["ops"]]
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
            "wall_s": statistics.median(r["wall_ns"] for r in rounds) / 1e9,
            "op_p50_ms": statistics.median(latencies) / 1e6,
            "op_p90_ms": statistics.quantiles(latencies, n=10)[8] / 1e6,
            "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in rounds) / 1024,
        }
        units = dict(END_TO_END)
        print(f"# setup_s: median of {len(setups) + len(rounds)} spawns; wall_s and "
              f"peak_rss_mb: median of {len(rounds)} rounds; op latencies: all "
              f"{len(latencies)} ops of all rounds")
    else:
        values, repeat = per_layer(plain, traced)
        correct = correct and repeat
        units = dict(PER_LAYER)
        print(f"# counts repeat exactly across rounds: {'yes' if repeat else 'NO'}; "
              f"self_s: median of {len(traced)} traced rounds; "
              f"spans of the last traced round ({traced[-1]['spans']}) in "
              f"{(OUT_DIR / f'spans-{args.workload}.jsonl').relative_to(ROOT)}")
    for name, value in values.items():
        print(f"{name} {value if isinstance(value, int) else f'{value:.6g}'} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, bool]:
    """Per-module metrics of the traced rounds, and whether every count
    repeats exactly across rounds."""
    summaries = [r["trace"] for r in traced]
    repeat = (all(s["calls"] == summaries[0]["calls"] and s["counts"] == summaries[0]["counts"]
                  for s in summaries)
              and all(r["cache"] == traced[0]["cache"] for r in plain + traced))
    calls, counts, cache = summaries[0]["calls"], summaries[0]["counts"], traced[0]["cache"]
    values: dict[str, float] = {}
    for name in SPANS:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = statistics.median(s["self_ns"][name] for s in summaries) / 1e9
    for name, _ in COUNTS:
        values[name] = counts[name]
    lookups = cache["hits"] + cache["misses"]
    values["stems.sphere_cache.hits"] = cache["hits"]
    values["stems.sphere_cache.misses"] = cache["misses"]
    values["stems.sphere_cache.size"] = cache["size"]
    values["stems.sphere_cache.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    values["trace.overhead_ratio"] = (statistics.median(r["wall_ns"] for r in traced)
                                      / statistics.median(r["wall_ns"] for r in plain))
    return values, repeat


if __name__ == "__main__":
    sys.exit(main())
