"""Byte-for-byte goldens of the command line.

Every subcommand runs in both output formats with ``--out``, and its
exit status and stdout are compared with ``tests/data/cli_golden.json``;
the ``--out`` file must hold exactly what stdout got.  The corrupted
cases replace the sector method with one that answers zero everywhere,
so that the disagreement rows and a failing selftest check are pinned
too.

Regenerate the fixture (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ratstems import cli

FIXTURE = Path(__file__).parent / "data" / "cli_golden.json"

CASES = {
    "stems-degree": ["stems", "--n", "2", "--degree", "1 - sigma"],
    "stems-degree-method": ["stems", "--n", "3", "--degree=-1*sigma + l0", "--method", "oracle"],
    "stems-scan": ["stems", "--n", "2", "--scan", "1"],
    "stems-degree-corrupted": ["stems", "--n", "1", "--degree", "1 - sigma"],
    "stems-scan-corrupted": ["stems", "--n", "1", "--scan", "1"],
    "sphere": ["sphere", "--n", "2", "--rep", "2*sigma - l0"],
    "point-presentation": ["point-presentation", "--n", "2"],
    "burnside": ["burnside", "--n", "3", "--level", "2"],
    "bgs1": ["bgs1", "--n", "2", "--maxdeg", "6"],
    "bgsigma2": ["bgsigma2", "--n", "2", "--maxdeg", "4"],
    "bgu": ["bgu", "--n", "2", "--m", "2", "--maxdeg", "6"],
    "torus-check-um": ["torus-check", "--n", "2", "--lie", "um", "--m", "2", "--maxdeg", "6"],
    "torus-check-su2": ["torus-check", "--n", "2", "--lie", "su2"],
    "torus-check-su2-folded": ["torus-check", "--n", "2", "--lie", "su2",
                               "--su2-torus-action", "permutation"],
    "consistency": ["consistency", "bsigma2", "--n", "2"],
    "selftest": ["selftest"],
    "selftest-corrupted": ["selftest"],
}
FORMATS = ["text", "records"]


def capture(name: str, fmt: str, out: Path) -> dict:
    """Run one case with ``--out``; return its status, stdout, stderr
    and the text of the ``--out`` file."""
    argv = CASES[name] + ["--format", fmt, "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if name.endswith("-corrupted"):
            mp.setitem(cli.STEM_METHODS, "sector", lambda n, s, c: {})
        with redirect_stdout(stdout), redirect_stderr(stderr):
            status = cli.run(argv)
    return {"status": status, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "out": out.read_text(encoding="utf-8")}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(f"{name} {fmt}" for name in CASES for fmt in FORMATS)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(golden, tmp_path, name, fmt):
    got = capture(name, fmt, tmp_path / "out.txt")
    want = golden[f"{name} {fmt}"]
    assert got["status"] == want["status"]
    assert got["stdout"] == want["stdout"]
    assert got["stderr"] == ""
    assert got["out"] == got["stdout"]


def test_golden_spans_every_subcommand():
    commands = {argv[0] for argv in CASES.values()}
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    assert commands == set(subparsers)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        fixture = {}
        for name in sorted(CASES):
            for fmt in FORMATS:
                got = capture(name, fmt, Path(tmp) / "out.txt")
                assert got["stderr"] == "" and got["out"] == got["stdout"], name
                fixture[f"{name} {fmt}"] = {"status": got["status"], "stdout": got["stdout"]}
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(fixture)} cases to {FIXTURE}")
