"""Tests of the benchmark itself, kept outside the repository's test
paths so that they never slow the main suite:

    python3 -m pytest -q benchmarks

They check that op lists are seeded, that the answer checks accept the
program's real output in both formats, that a deliberately corrupted
answer is counted as a failed op (the negative control, as in
``selftest``), that traced rounds repeat their counts exactly, and that
the metric names agree with ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

from ratstems import cli  # noqa: E402


def cli_output(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(argv))
    return code, out.getvalue()


def cheap(op: Op) -> bool:
    """Ops that finish in a few milliseconds."""
    p = op.params
    if op.check == "scan":
        return (p["n"] + 1) * p["bound"] <= 8
    if op.check in ("bgu", "torus_um"):
        return p["n"] <= 2
    if op.check == "selftest":
        return "--deep" not in op.argv
    return True


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_lists_are_seeded_and_long_enough(name):
    ops, probes = WORKLOADS[name](7)
    assert (ops, probes) == WORKLOADS[name](7)
    assert [op.argv for op in ops] != [op.argv for op in WORKLOADS[name](8)[0]]
    assert len(ops) >= 100
    records = sum("records" in op.argv for op in ops)
    assert 0 < records < len(ops)


@pytest.mark.parametrize("part", ["scan", "spheres", "diagrams", "algebra"])
def test_checks_accept_real_output(part):
    ops, _ = getattr(workloads, part)(3)
    picked = [op for op in ops if cheap(op)][::3]
    kinds = {(op.check, op.params.get("records")) for op in picked}
    assert len(kinds) >= 2
    for op in picked:
        code, text = cli_output(op.argv)
        assert checks.evaluate(op, code, None, text) is None, op.argv


# One op of every check kind, with an edit that breaks its answer.
CORRUPTIONS = [
    (Op(("stems", "--n", "2", "--scan", "2"), "scan", {"n": 2, "bound": 2, "records": False}),
     "disagreements=0", "disagreements=1"),
    (Op(("stems", "--n", "2", "--scan", "2", "--format", "records"), "scan",
        {"n": 2, "bound": 2, "records": True}), '"scanned": 125', '"scanned": 124'),
    (Op(("sphere", "--n", "2", "--rep", "3*sigma - 2*l0"), "sphere",
        {"n": 2, "d": 0, "s": 3, "c": [-2], "records": False}), "class=M", "class=2*M"),
    (Op(("stems", "--n", "3", "--degree", "-2 - 2*sigma + 1*l0", "--method", "oracle",
         "--format", "records"), "stem",
        {"n": 3, "d": -2, "s": -2, "c": [1, 0], "methods": ["oracle"], "records": True}),
     '"text": "', '"text": "M0 + '),
    (Op(("bgu", "--n", "2", "--m", "2"), "bgu", {"n": 2, "m": 2, "records": False}),
     "components=", "components=1"),
    (Op(("torus-check", "--n", "2", "--lie", "um", "--m", "2"), "torus_um",
        {"n": 2, "m": 2, "records": False}), "verdict=HOLDS", "verdict=FAILS"),
    (Op(("torus-check", "--n", "3", "--lie", "su2"), "torus_su2",
        {"n": 3, "action": "trivial", "records": False}), "rhs=8", "rhs=5"),
    (Op(("bgs1", "--n", "2", "--maxdeg", "6"), "bgs1", {"n": 2, "maxdeg": 6, "records": False}),
     "matches_assembly=yes", "matches_assembly=no"),
    (Op(("bgsigma2", "--n", "3"), "bgsigma2", {"n": 3, "records": False}),
     "level_dims=1,3,5", "level_dims=1,3,7"),
    (Op(("consistency", "bsigma2", "--n", "3"), "consistency", {"n": 3, "records": False}),
     "quotient=7", "quotient=5"),
    (Op(("burnside", "--n", "3", "--level", "2"), "burnside",
        {"n": 3, "level": 2, "records": False}), "expansion=", "expansion=1*1 + "),
    (Op(("point-presentation", "--n", "3"), "point_presentation", {"n": 3, "records": False}),
     "relation=a_sigma*u_2sigma = 0\n", ""),
    (Op(("selftest",), "selftest", {"records": False}), "failed=0", "failed=1"),
]


@pytest.mark.parametrize("op, old, new", CORRUPTIONS, ids=lambda x: getattr(x, "check", ""))
def test_corrupted_answer_is_a_failed_op(op, old, new):
    code, text = cli_output(op.argv)
    good = {"ops": [[1, code, None, text]]}
    assert run.find_failures([op], [good, good]) == []
    assert old in text
    bad = {"ops": [[1, code, None, text.replace(old, new, 1)]]}
    assert len(run.find_failures([op], [bad, bad])) == 2
    assert len(run.find_failures([op], [good, bad])) == 1


def test_crash_or_wrong_exit_is_a_failed_op():
    op = Op(("selftest",), "selftest", {"records": False})
    _, text = cli_output(op.argv)
    assert checks.evaluate(op, None, "RecursionError", "") == "exception RecursionError"
    assert checks.evaluate(op, 1, None, text) == "exit 1, expected 0"


def test_traced_rounds_repeat_counts_and_output(tmp_path):
    ops, _ = workloads.spheres(5)
    argvs = [list(op.argv) for op in ops[:12]]
    plain = run.run_round(argvs, [], False, tmp_path / "spans.jsonl")
    first = run.run_round(argvs, [], True, tmp_path / "spans.jsonl")
    second = run.run_round(argvs, [], True, tmp_path / "spans.jsonl")
    assert first["trace"]["calls"] == second["trace"]["calls"]
    assert first["trace"]["counts"] == second["trace"]["counts"]
    assert first["trace"]["calls"]["cli.run"] == 12
    assert first["cache"] == second["cache"] == plain["cache"]
    assert [o[1:] for o in first["ops"]] == [o[1:] for o in plain["ops"]]
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["spans"] == len(lines) - 1 == second["spans"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
