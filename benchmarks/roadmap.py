"""Compare the two baseline cases recorded in ROADMAP.md with this
harness: the three-way scan at n=4 over the box [-4,4]^5 (closed 0.95 s,
sector 0.27 s, oracle 0.77 s) and the U(3) diagram at n=4 (2.1 s).

    python3 benchmarks/roadmap.py

Each of three repeats runs both cases in an untraced and then a traced
worker, with a cold sphere cache.  It prints the untraced op latencies
and the traced inclusive time of each method span, as medians over
repeats, next to the recorded figures.  Traced times carry the tracing
overhead.
"""

from __future__ import annotations

import statistics

import run

REPEATS = 3

CASES = [["stems", "--n", "4", "--scan", "4"], ["bgu", "--n", "4", "--m", "3"]]
RECORDED = {
    "stems.closed": 0.95,
    "stems.sector": 0.27,
    "stems.oracle": 0.77,
    "classifying.fixed_point_data": 2.1,
}


def main() -> None:
    run.OUT_DIR.mkdir(exist_ok=True)
    spans = run.OUT_DIR / "spans-roadmap.jsonl"
    latency: list[list[float]] = [[] for _ in CASES]
    inclusive: dict[str, list[float]] = {name: [] for name in RECORDED}
    for _ in range(REPEATS):
        plain = run.run_round(CASES, [], False, spans)
        for k, (ns, *_) in enumerate(plain["ops"]):
            latency[k].append(ns / 1e9)
        traced = run.run_round(CASES, [], True, spans)
        for name in RECORDED:
            inclusive[name].append(traced["trace"]["total_ns"][name] / 1e9)
    print(f"# medians of {REPEATS} repeats")
    for argv, values in zip(CASES, latency):
        print(f"untraced op  {' '.join(argv):28s} {statistics.median(values):.3f} s")
    for name, recorded in RECORDED.items():
        got = statistics.median(inclusive[name])
        print(f"traced span  {name:28s} {got:.3f} s   recorded {recorded:.2f} s   "
              f"gap {100 * (got - recorded) / recorded:+.0f}%")


if __name__ == "__main__":
    main()
