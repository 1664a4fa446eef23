"""End-to-end tests of the command line: frozen output rows, exit
codes, both output formats, the file sink, and the failure paths
(including deliberately corrupted method tables)."""

import argparse
import copy
import json
import pickle
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ratstems import classifying, cli, stems
from ratstems.burnside import BurnsideElement, idempotents
from ratstems.mackey import GradedTable, MackeyClass, NonSignIsotypicError
from ratstems.rolattice import VirtualRep
from ratstems.series import Frozen, Numerators, TruncatedSeries
from ratstems.stems import SectorElement
from test_stems import at, box_degrees


def run_lines(capsys, argv):
    status = cli.run(argv)
    captured = capsys.readouterr()
    return status, captured.out.splitlines(), captured.err


# ---------------------------------------------------------------------------
# stems.

def test_stems_single_degree(capsys):
    status, lines, _ = run_lines(capsys, ["stems", "--n", "2", "--degree", "1 - sigma"])
    assert status == 0
    assert lines == ["n=2 | degree=1 - 1*sigma | closed=M0- + M1- | "
                     "oracle=M0- + M1- | sector=M0- + M1- | agree=yes"]
    # a degree that starts with "-" may follow its option as its own token
    for argv in (["stems", "--n", "2", "--degree", "-1*sigma"],
                 ["stems", "--n", "2", "--degree=-1*sigma"]):
        status, lines, _ = run_lines(capsys, argv)
        assert status == 0
        assert lines == ["n=2 | degree=-1*sigma | closed=M2 | oracle=M2 | sector=M2 | agree=yes"]
    status, lines, _ = run_lines(capsys, ["stems", "--n", "2", "--degree", "-1", "--method",
                                          "closed", "--format", "records"])
    assert status == 0 and json.loads(lines[0])["degree"] == "-1"


def test_stems_zero_class(capsys):
    status, lines, _ = run_lines(capsys, ["stems", "--n", "2", "--degree", "1"])
    assert status == 0
    assert lines == ["n=2 | degree=1 | closed=0 | oracle=0 | sector=0 | agree=yes"]


def test_stems_scan_clean(capsys):
    status, lines, _ = run_lines(capsys, ["stems", "--n", "1", "--scan", "2"])
    assert status == 0
    assert lines == ["n=1 | scanned=25 | disagreements=0"]


def test_stems_single_method(capsys):
    status, lines, _ = run_lines(
        capsys, ["stems", "--n", "2", "--degree", "1 - sigma", "--method", "sector"])
    assert status == 0
    assert lines == ["n=2 | degree=1 - 1*sigma | sector=M0- + M1- | agree=yes"]


def test_stems_scan_flags_corrupted_method(capsys, monkeypatch):
    monkeypatch.setitem(cli.STEM_METHODS, "sector", lambda n, s, c: {})
    status, lines, _ = run_lines(capsys, ["stems", "--n", "1", "--scan", "1"])
    assert status == 1
    assert lines[-1] == "n=1 | scanned=9 | disagreements=5"
    # every degree with a nonzero stem in the box is named
    assert sum("agree=no" in line for line in lines) == 5
    assert any("degree=1 - 1*sigma" in line for line in lines)


def test_classifier_failure_maps_to_exit_1(capsys, monkeypatch):
    def explode(n, s, c):
        raise NonSignIsotypicError("non-sign-isotypic Weyl module encountered at level 1")
    monkeypatch.setitem(cli.STEM_METHODS, "oracle", explode)
    status, _, err = run_lines(capsys, ["stems", "--n", "1", "--degree", "0"])
    assert status == 1
    assert "non-sign-isotypic" in err


# ---------------------------------------------------------------------------
# sphere, point-presentation, burnside.

def test_sphere_table(capsys):
    status, lines, _ = run_lines(capsys, ["sphere", "--n", "2", "--rep", "sigma"])
    assert status == 0
    assert lines == ["degree=0 | class=M2 | level_dims=0,0,1",
                     "degree=1 | class=M0- + M1- | level_dims=1,2,0"]
    for argv in (["sphere", "--n", "2", "--rep", "-1*sigma"],
                 ["sphere", "--rep", "-1*sigma", "--n", "2"]):
        status, lines, _ = run_lines(capsys, argv)
        assert status == 0
        assert lines == ["degree=-1 | class=M0- + M1- | level_dims=1,2,0",
                         "degree=0 | class=M2 | level_dims=0,0,1"]


def test_point_presentation_output(capsys):
    status, lines, _ = run_lines(capsys, ["point-presentation", "--n", "2"])
    assert status == 0
    assert lines[-1] == "generators=12"
    assert lines[-2] == ("normalization=orientation class scalars are "
                        "normalized to 1; only scalar ratios are observable")
    assert sum(line.startswith("family=") for line in lines) == 6
    assert any("relation=a_sigma*u_2sigma = 0" in line for line in lines)


def test_burnside_marks(capsys):
    status, lines, _ = run_lines(capsys, ["burnside", "--n", "2"])
    assert status == 0
    assert lines[0] == "element=1 | marks=1,1,1"
    assert lines[1] == "element=x[2,0] | marks=4,0,0"
    assert lines[2] == "element=x[2,1] | marks=2,2,0"
    assert lines[3] == "idempotent=e0 | expansion=1/4*x[2,0]"
    assert any(line.startswith("idempotent=e2") for line in lines)


def test_burnside_sublevel(capsys):
    status, lines, _ = run_lines(capsys, ["burnside", "--n", "3", "--level", "1"])
    assert status == 0
    assert lines[0] == "element=1 | marks=1,1"
    assert lines[1] == "element=x[1,0] | marks=2,0"


# ---------------------------------------------------------------------------
# classifying subcommands.

def test_bgs1_summary(capsys):
    status, lines, _ = run_lines(capsys, ["bgs1", "--n", "2", "--maxdeg", "8"])
    assert status == 0
    assert lines[-1] == "matches_assembly=yes"
    assert lines[-2] == "top_series=7 + 7*t^2 + 7*t^4 + 7*t^6 + 7*t^8 + O(t^9)"
    assert any(line == "generator=u[2,3] | degree=0" for line in lines)
    assert any(line.startswith("completion | conductor=1 | element=") for line in lines)
    assert any(line == "degree=8 | class=M0 + 2*M1 + 4*M2" for line in lines)


def test_bgsigma2_table(capsys):
    status, lines, _ = run_lines(capsys, ["bgsigma2", "--n", "2", "--maxdeg", "4"])
    assert status == 0
    assert lines == ["level=0 | components=1",
                     "level=1 | components=2",
                     "level=2 | components=2",
                     "degree=0 | class=M0 + 2*M1 + 2*M2 | level_dims=1,3,5"]


def test_bgu_levels(capsys):
    status, lines, _ = run_lines(capsys, ["bgu", "--n", "1", "--m", "2",
                                          "--maxdeg", "4"])
    assert status == 0
    assert lines == ["level=0 | components=1 | series=1 + t^2 + 2*t^4 + O(t^5)",
                     "level=1 | components=3 | series=3 + 4*t^2 + 7*t^4 + O(t^5)"]


def test_torus_check_um(capsys):
    status, lines, _ = run_lines(capsys, ["torus-check", "--n", "2", "--lie", "um",
                                          "--m", "2", "--maxdeg", "8"])
    assert status == 0
    assert lines[-1] == "verdict=HOLDS"
    assert all("match=yes" in line for line in lines[:-1])
    assert len(lines) == 4


def test_torus_check_um_sides_are_independent(capsys, monkeypatch):
    # with every BU(k) replaced by a circle only the left side changes,
    # so the check must notice: the right side does not reuse the left
    def circle(k, bound):
        return TruncatedSeries.geometric(bound, 2) if k else TruncatedSeries.one(bound)

    monkeypatch.setattr(classifying, "bu_series", circle)
    status, lines, _ = run_lines(capsys, ["torus-check", "--n", "2", "--lie", "um",
                                          "--m", "2", "--maxdeg", "8"])
    assert status == 1
    assert lines[-1] == "verdict=FAILS"


def test_torus_check_su2_documented_failure(capsys):
    status, lines, _ = run_lines(capsys, ["torus-check", "--n", "2", "--lie", "su2"])
    assert status == 0  # the FAILS verdict is the documented answer
    assert lines == ["action=trivial | lhs=3 | rhs=4 | verdict=FAILS"]


def test_torus_check_su2_folded(capsys):
    status, lines, _ = run_lines(capsys, ["torus-check", "--n", "2", "--lie", "su2",
                                          "--su2-torus-action", "permutation"])
    assert status == 0
    assert lines == ["action=permutation | lhs=3 | rhs=3 | verdict=HOLDS"]


@pytest.mark.parametrize("argv,last", [
    (["bgu", "--n", "30", "--maxdeg", "2"],
     "level=30 | components=1073741824 | series=1073741824 + 1073741824*t^2 + O(t^3)"),
    (["torus-check", "--lie", "um", "--n", "30", "--m", "1", "--maxdeg", "2"],
     "verdict=HOLDS"),
    (["torus-check", "--lie", "su2", "--n", "30", "--su2-torus-action", "permutation"],
     "action=permutation | lhs=536870913 | rhs=536870913 | verdict=HOLDS"),
    (["consistency", "bsigma2", "--n", "30", "--maxdeg", "2"],
     "differences=29 | agree=no"),
    (["sphere", "--n", "1", "--rep", "3000*sigma"],
     "degree=3000 | class=M0 | level_dims=1,1"),
    (["stems", "--n", "2", "--degree=5000*sigma", "--method", "oracle"],
     "n=2 | degree=5000*sigma | oracle=M2 | agree=yes"),
    (["bgu", "--n", "5", "--m", "20", "--maxdeg", "2"],
     "level=5 | components=77535155627160 | series=77535155627160 + 972990188262400*t^2 + O(t^3)"),
    (["stems", "--n", "10000", "--degree", "1"],
     "n=10000 | degree=1 | closed=0 | oracle=0 | sector=0 | agree=yes"),
])
def test_large_n_is_answered(capsys, argv, last):
    status, lines, _ = run_lines(capsys, argv)
    assert status == 0
    assert lines[-1] == last


def test_sphere_of_a_long_rotation_chain_is_quick(capsys):
    # l0 + ... + l398 at n = 400 boxes 399 power tables of 401 levels in
    # 398 Kunneth boxes; each pairs entries only within a level, so this
    # takes about half a second, and a box over all entry pairs over 15 s
    rep = " + ".join(f"l{k}" for k in range(399))
    start = time.perf_counter()
    status, lines, _ = run_lines(capsys, ["sphere", "--n", "400", "--rep", rep])
    elapsed = time.perf_counter() - start
    assert status == 0
    assert len(lines) == 400
    assert lines[-1] == "degree=798 | class=M0 | level_dims=" + ",".join(["1"] * 401)
    assert elapsed < 10.0



def test_burnside_at_large_n_is_quick(capsys):
    # marks are one suffix sum and from_marks their first differences,
    # so n = 150 takes about 0.3 s; a sum per level takes over 15 s
    start = time.perf_counter()
    status, lines, _ = run_lines(capsys, ["burnside", "--n", "150"])
    elapsed = time.perf_counter() - start
    assert status == 0
    assert len(lines) == 2 * 151
    assert elapsed < 3.0

def test_consistency_report(capsys):
    status, lines, _ = run_lines(capsys, ["consistency", "bsigma2", "--n", "2"])
    assert status == 0
    assert lines == ["degree=0 | level=2 | assembled=5 | quotient=7",
                     "differences=1 | agree=no"]
    status, lines, _ = run_lines(capsys, ["consistency", "bsigma2", "--n", "1"])
    assert status == 0
    assert lines == ["differences=0 | agree=yes"]


def test_consistency_answers_the_trivial_group(capsys):
    # at n = 0 both candidates are M0 in degree 0, as bgsigma2 answers
    status, lines, err = run_lines(capsys, ["consistency", "bsigma2", "--n", "0"])
    assert (status, lines, err) == (0, ["differences=0 | agree=yes"], "")
    status, lines, _ = run_lines(capsys, ["bgsigma2", "--n", "0"])
    assert (status, lines) == (0, ["level=0 | components=1", "degree=0 | class=M0 | level_dims=1"])


def test_bgs1_refuses_the_trivial_group(capsys):
    status, lines, err = run_lines(capsys, ["bgs1", "--n", "0"])
    assert (status, lines) == (2, [])
    assert err == "error: the circle presentation needs n >= 1\n"


# ---------------------------------------------------------------------------
# Output plumbing.

def test_records_format_is_json_lines(capsys):
    status, lines, _ = run_lines(
        capsys, ["stems", "--n", "2", "--degree", "1 - sigma", "--format", "records"])
    assert status == 0
    records = [json.loads(line) for line in lines]
    assert records[0]["agree"] is True
    assert records[0]["degree"] == "1 - 1*sigma"
    assert set(records[0]["results"]) == {"closed", "oracle", "sector"}


def test_output_is_deterministic(capsys):
    argv = ["bgs1", "--n", "2", "--maxdeg", "6", "--format", "records"]
    cli.run(argv)
    first = capsys.readouterr().out
    cli.run(argv)
    second = capsys.readouterr().out
    assert first == second
    for line in first.splitlines():
        record = json.loads(line)
        assert json.dumps(record, sort_keys=True) == line


def test_out_flag_tees_to_file(capsys, tmp_path):
    target = tmp_path / "rows.txt"
    status, lines, _ = run_lines(capsys, ["sphere", "--n", "1", "--rep", "sigma",
                                          "--out", str(target)])
    assert status == 0
    assert target.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


def test_selftest_battery(capsys):
    status, lines, _ = run_lines(capsys, ["selftest"])
    assert status == 0
    assert lines[-1] == "checks=8 | failed=0"
    assert sum("status=ok" in line for line in lines) == 8


def test_version_flag(capsys):
    assert cli.run(["--version"]) == 0
    assert capsys.readouterr().out.startswith("ratstems ")


# ---------------------------------------------------------------------------
# Usage and syntax failures.

def test_degree_syntax_error_location(capsys):
    status, lines, err = run_lines(capsys, ["stems", "--n", "2", "--degree", "1 +"])
    assert status == 2
    assert lines == []
    assert err == "error: line 1, column 4: expected a representation name, found ''\n"


def test_unknown_name_error_location(capsys):
    status, _, err = run_lines(capsys, ["sphere", "--n", "2", "--rep", "sigma + bogus"])
    assert status == 2
    assert err == "error: line 1, column 9: unknown representation name 'bogus'\n"


def test_lam_error_names_the_rotation(capsys):
    status, lines, err = run_lines(capsys, ["stems", "--n", "0", "--degree", "lam(1,1)"])
    assert (status, lines) == (2, [])
    assert err == "error: line 1, column 1: lam(s, m) needs n >= 1\n"
    status, lines, err = run_lines(capsys, ["sphere", "--n", "2", "--rep", "1 + lam(3,2)"])
    assert (status, lines) == (2, [])
    assert err == "error: line 1, column 5: lambda(3,2): need s < 2^2/m\n"


def test_value_errors_are_usage_errors(capsys, tmp_path):
    status, _, err = run_lines(capsys, ["point-presentation", "--n", "0"])
    assert status == 2
    assert "error: the presentation needs n >= 1" in err
    status, lines, err = run_lines(capsys, ["stems", "--n", "-1", "--scan", "1"])
    assert (status, lines) == (2, [])
    assert err == "error: group exponent n must be >= 0\n"
    status, lines, err = run_lines(capsys, ["burnside", "--n", "3", "--level", "-1"])
    assert (status, lines) == (2, [])
    assert err == "error: level -1 outside 0..3\n"
    status, lines, err = run_lines(capsys, ["burnside", "--n", "-1"])
    assert (status, lines) == (2, [])
    assert err == "error: ambient exponent n must be >= 1\n"
    status, lines, err = run_lines(capsys, ["stems", "--n", "1", "--scan", "-1"])
    assert (status, lines) == (2, [])
    assert err == "error: scan bound must be >= 0\n"
    # every literal is legal, but the sphere's degrees pass the 4300-digit
    # str limit when the rows are formatted
    status, lines, err = run_lines(capsys, ["sphere", "--n", "1",
                                            "--rep=" + "9" * 4300 + "*sigma + 5"])
    assert (status, lines) == (2, [])
    assert err.startswith("error: Exceeds the limit (4300 digits)") and err.count("\n") == 1
    missing = tmp_path / "missing" / "x"
    status, lines, err = run_lines(capsys, ["sphere", "--n", "1", "--rep", "sigma",
                                            "--out", str(missing)])
    assert (status, lines) == (2, [])
    assert err.startswith("error: [Errno 2]") and err.count("\n") == 1
    assert not missing.parent.exists()


HUGE = str(10 ** 15)


@pytest.mark.parametrize("argv", [
    ["stems", "--n", HUGE, "--degree", "1"],
    ["burnside", "--n", HUGE],
    ["stems", "--n", "3", "--scan", HUGE],
    ["sphere", "--n", HUGE, "--rep", "sigma"],
    ["point-presentation", "--n", HUGE],
], ids=["stems-degree", "burnside", "stems-scan", "sphere", "point-presentation"])
def test_oversized_inputs_are_usage_errors(capsys, argv):
    # the first table of each asks for petabytes, which fails at once
    # without using memory; a smaller huge size could really allocate
    status, lines, err = run_lines(capsys, argv)
    assert (status, lines) == (2, [])
    assert err == "error: input too large: out of memory\n"


@pytest.mark.parametrize("argv", [
    ["stems", "--degree", "1"], ["sphere", "--rep", "sigma"], ["point-presentation"],
    ["burnside"], ["bgs1"], ["bgsigma2"], ["bgu"], ["torus-check", "--lie", "um"],
    ["consistency", "bsigma2"],
], ids=lambda argv: argv[0])
def test_missing_n_is_a_usage_error(capsys, argv):
    status, lines, err = run_lines(capsys, argv)
    assert (status, lines) == (2, [])
    assert err.endswith("error: the following arguments are required: --n\n")


def test_consistency_names_missing_target_first(capsys):
    status, lines, err = run_lines(capsys, ["consistency"])
    assert (status, lines) == (2, [])
    assert err.endswith("error: the following arguments are required: target, --n\n")


def test_selftest_takes_no_n(capsys):
    status, lines, err = run_lines(capsys, ["selftest", "--n", "1"])
    assert (status, lines) == (2, [])
    assert "unrecognized arguments: --n 1" in err


def test_argparse_failures(capsys):
    assert cli.run(["bogus"]) == 2
    capsys.readouterr()
    assert cli.run(["stems"]) == 2
    capsys.readouterr()
    assert cli.run(["torus-check", "--n", "2", "--lie", "so3"]) == 2
    capsys.readouterr()
    assert cli.run(["stems", "--n", "1", "--degree", "0", "--scan", "1"]) == 2
    capsys.readouterr()
    # an option after --degree or --rep is not taken as its value
    for argv in (["stems", "--n", "1", "--degree", "--scan", "1"],
                 ["stems", "--n", "1", "--degree"],
                 ["sphere", "--n", "1", "--rep"],
                 ["sphere", "--rep", "--n", "1"]):
        status, lines, err = run_lines(capsys, argv)
        assert (status, lines) == (2, []), argv
        assert "expected one argument" in err
    for argv in (["stems", "--n=1", "--degree=--"], ["sphere", "--n=1", "--rep=--"],
                 ["stems", "--n=--", "--scan=1"], ["bgu", "--n=1", "--m=--"],
                 ["sphere", "--n=1", "--rep=sigma", "--out=--"]):
        status, lines, err = run_lines(capsys, argv)
        assert (status, lines) == (2, []), argv
        assert err.endswith("error: '--' is not a value\n")


# ---------------------------------------------------------------------------
# One parser per process.

def outcome(capsys, argv):
    status = cli.run(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.mark.parametrize("sequence,statuses", [
    # a usage error, then a valid command
    ((["stems", "--n", "x", "--degree", "0"], ["stems", "--n", "2", "--degree", "1 - sigma"]),
     [2, 0]),
    # help exits through SystemExit, then a command
    ((["--help"], ["sphere", "--n", "1", "--rep", "sigma"]), [0, 0]),
    ((["stems", "--n", "1", "--scan", "1"], ["sphere", "--n", "2", "--rep", "sigma"],
      ["stems", "--n", "1", "--scan", "1"]), [0, 0, 0]),
    # a split "-1*sigma" value after a run that used "--degree="
    ((["stems", "--n", "2", "--degree=1 - sigma"], ["stems", "--n", "2", "--degree", "-1*sigma"]),
     [0, 0]),
])
def test_reused_parser_answers_as_a_fresh_one(capsys, sequence, statuses):
    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append(outcome(capsys, argv))
    assert [status for status, _, _ in fresh] == statuses
    cli.build_parser.cache_clear()
    assert [outcome(capsys, argv) for argv in sequence] == fresh


def test_handler_is_looked_up_on_every_run(capsys, monkeypatch):
    argv = ["stems", "--n", "1", "--degree", "0", "--format", "records"]
    status, out, _ = outcome(capsys, argv)
    assert status == 0 and '"agree": true' in out
    # rebinding after the parser is cached still reaches the next run
    monkeypatch.setattr(cli, "cmd_stems", lambda args: ([{"n": args.n}], 1))
    assert outcome(capsys, argv) == (1, '{"n": 1}\n', "")


def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    cli.run(["burnside", "--n", "1"])
    per_build = len(built)
    for _ in range(10):
        for argv in (["burnside", "--n", "1"], ["bogus"], ["stems", "--n", "1"]):
            cli.run(argv)
    capsys.readouterr()
    assert per_build > 0 and len(built) == per_build
    assert cli.build_parser.cache_info().misses == 1


# ---------------------------------------------------------------------------
# Library-level helpers behind the CLI.

def test_box_degrees_exponent_zero():
    # the box of C_1 degrees is the one column d = -2..2
    assert list(stems.box_columns(0, 2)) == [(0, ())]
    checked, bad = cli.compare_methods(0, 2)
    assert (checked, bad) == (5, [])


def test_box_degrees_rejects_negative_exponent():
    with pytest.raises(ValueError, match="n must be >= 0"):
        stems.box_columns(-1, 1)
    with pytest.raises(ValueError, match="n must be >= 0"):
        cli.compare_methods(-1, 1)


def test_compare_methods_clean_and_injectable():
    checked, bad = cli.compare_methods(1, 1)
    assert (checked, bad) == (9, [])
    broken = dict(cli.STEM_METHODS)
    broken["sector"] = lambda n, s, c: {}
    checked, bad = cli.compare_methods(1, 1, broken)
    assert checked == 9 and len(bad) == 5
    degrees = {str(v) for v, _ in bad}
    assert degrees == {"0", "1 - 1*sigma", "-1 + 1*sigma", "1*sigma", "-1*sigma"}
    with pytest.raises(ValueError):
        cli.compare_methods(1, 1, {})


# ---------------------------------------------------------------------------
# The column-major scan against a dense per-degree walk.

def dense_compare(n, bound, methods):
    """The reference scan: every method at every degree of the box, one
    degree read off a fresh column at a time, in order of d, then s,
    then c."""
    checked, bad = 0, []
    for v in box_degrees(n, bound):
        results = {name: at(column, v) for name, column in methods.items()}
        checked += 1
        first = next(iter(results.values()))
        if any(cls != first for cls in results.values()):
            bad.append((v, results))
    return checked, bad


def transparent(fn):
    """A forwarding wrapper shaped like a tracer's span."""
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


def method_table(kind):
    base = dict(stems.STEM_METHODS)
    if kind == "zeroed-sector":
        base["sector"] = lambda n, s, c: {}
    elif kind == "shifted-closed":
        base["closed"] = lambda n, s, c: {
            d - 2: cls for d, cls in stems.closed_column(n, s, c).items()}
    elif kind == "wrapped":
        base = {name: transparent(fn) for name, fn in base.items()}
    elif kind == "late-sector":  # wrong only where s > 0, late in box order
        base["sector"] = lambda n, s, c: {} if s > 0 else stems.sector_column(n, s, c)
    return base


@pytest.mark.parametrize("kind", ["clean", "zeroed-sector", "shifted-closed", "wrapped",
                                  "late-sector"])
@pytest.mark.parametrize("n,bound", [(0, 0), (0, 2), (1, 2), (2, 2), (3, 1), (3, 2)])
def test_column_scan_matches_dense_walk(kind, n, bound, monkeypatch):
    if kind == "late-sector":
        # chunks of two columns: the columns of s <= 0 fill the first one
        monkeypatch.setattr(cli, "_CHUNK", 2)
    methods = method_table(kind)
    checked, bad = cli.compare_methods(n, bound, methods)
    want_checked, want_bad = dense_compare(n, bound, methods)
    assert checked == want_checked == (2 * bound + 1) ** (n + 1)
    # same degrees, same classes, same order of degrees and of methods
    assert [(v, list(results.items())) for v, results in bad] == \
        [(v, list(results.items())) for v, results in want_bad]
    late = kind == "late-sector" and n > 0 and bound > 0
    assert bool(bad) == (kind in ("zeroed-sector", "shifted-closed") or late)
    if late:
        first_chunk = list(stems.box_columns(n, bound))[:2]
        assert all((v.s, v.c) not in first_chunk for v, _ in bad)


def test_injected_column_runs_once_per_column():
    seen = []

    def zero(n, s, c):
        seen.append((s, c))
        return {}

    checked, bad = cli.compare_methods(2, 1, {"closed": stems.closed_column, "zero": zero})
    assert seen == list(stems.box_columns(2, 1))
    assert len(seen) == 9 and checked == 27
    assert [v for v, _ in bad] == [v for v in box_degrees(2, 1)
                                   if not stems.stem_at(v).is_zero()]


def test_wrapped_column_costs_one_lookup_per_column():
    # a forwarding wrapper (as a tracer installs) is called once per
    # column and reads one sphere table each time
    calls = []

    def oracle(*args, **kwargs):
        calls.append(args)
        return stems.oracle_column(*args, **kwargs)

    oracle.__wrapped__ = stems.oracle_column
    info = stems._smash_table.cache_info
    cli.compare_methods(3, 2, {"oracle": stems.oracle_column})  # warm
    lookups = []
    for column in (stems.oracle_column, oracle):
        before = info()
        cli.compare_methods(3, 2, {"oracle": column})
        after = info()
        lookups.append(after.hits + after.misses - before.hits - before.misses)
    assert calls == [(3, s, c) for s, c in stems.box_columns(3, 2)]
    assert lookups == [5 ** 3, 5 ** 3]


COLUMN_NAMES = {"closed": "closed_column", "sector": "sector_column",
                "oracle": "oracle_column"}


@pytest.mark.parametrize("name", sorted(COLUMN_NAMES))
def test_each_method_stands_alone(name, monkeypatch, capsys):
    # with the other two methods' columns and the tuple decoder
    # replaced by stubs that raise, the method still answers a box scan
    # and a single degree, with its own values
    column = stems.STEM_METHODS[name]
    frozen = {(s, c): dict(column(2, s, c)) for s, c in stems.box_columns(2, 2)}

    def stub(*args):
        raise AssertionError(f"the {name} method called another method")

    for other, other_column in COLUMN_NAMES.items():
        if other != name:
            monkeypatch.setattr(stems, other_column, stub)
            monkeypatch.setitem(stems.STEM_METHODS, other, stub)
    monkeypatch.setattr(stems, "decode_degree", stub)
    assert column(2, -1, (0,))[1] == MackeyClass(2, ((0, -1, 1), (1, -1, 1)))
    assert cli.compare_methods(2, 2, {name: column,
                                      "frozen": lambda n, s, c: frozen[s, c]}) == (125, [])
    for argv in (["--scan", "2"], ["--degree", "1 - sigma"]):
        assert cli.run(["stems", "--n", "2", "--method", name, *argv]) == 0
    assert "agree=yes" in capsys.readouterr().out


def test_no_command_calls_stem_at(monkeypatch):
    # a tracer may rebind stems.stem_at to the traced closed column,
    # which takes (n, s, c): so the program reads columns only
    def stub(*args):
        raise AssertionError("stem_at called")

    monkeypatch.setattr(stems, "stem_at", stub)
    for argv in (["stems", "--n", "2", "--degree", "1 - sigma"],
                 ["stems", "--n", "2", "--scan", "2"], ["selftest"]):
        assert cli.run(argv) == 0, argv


# ---------------------------------------------------------------------------
# Whole-column acceptance and the shared stem classes.

def padded_closed(pad_d):
    """The closed column with one extra M0 added at d = pad_d."""
    def column(n, s, c):
        found = dict(stems.closed_column(n, s, c))
        found[pad_d] = found.get(pad_d, MackeyClass.zero(n)) + MackeyClass.simple(n, 0)
        return found

    return column


@pytest.mark.parametrize("pad_d", [-3, 3, 10 ** 6])
def test_columns_differing_outside_the_window_agree(pad_d):
    methods = dict(stems.STEM_METHODS, padded=padded_closed(pad_d))
    assert cli.compare_methods(2, 2, methods) == (125, [])


@pytest.mark.parametrize("pad_d", [-2, 0, 2])
def test_columns_differing_inside_the_window_match_dense_walk(pad_d):
    methods = dict(stems.STEM_METHODS, padded=padded_closed(pad_d))
    checked, bad = cli.compare_methods(2, 2, methods)
    want_checked, want_bad = dense_compare(2, 2, methods)
    assert checked == want_checked == 125
    assert bad
    assert [(v, list(results.items())) for v, results in bad] == \
        [(v, list(results.items())) for v, results in want_bad]


def test_closed_and_sector_share_equal_stems():
    seen = {}
    for s, c in stems.box_columns(3, 2):
        closed, sector = stems.closed_column(3, s, c), stems.sector_column(3, s, c)
        assert closed == sector
        assert all(closed[d] is sector[d] for d in closed)
        # equal stems of different columns are one instance too
        assert all(seen.setdefault(cls, cls) is cls for cls in closed.values())
    assert len(seen) > 1


def test_oracle_classes_are_its_own():
    # the oracle's classes equal the closed column's but never come from
    # the closed and sector methods' shared class cache
    for n in (1, 2, 3):
        for s, c in stems.box_columns(n, 2):
            closed, oracle = stems.closed_column(n, s, c), stems.oracle_column(n, s, c)
            assert oracle == closed
            assert all(oracle[d] is not closed[d] for d in closed)


def test_shared_stem_cache_is_bounded_and_validates():
    make = stems._stem_class
    maxsize = make.cache_parameters()["maxsize"]
    assert isinstance(maxsize, int) and maxsize > 0
    before = make.cache_info()
    for _ in range(2):
        with pytest.raises(ValueError):
            make(2, ((3, 1, 1),))
    after = make.cache_info()
    assert (after.hits, after.misses, after.currsize) == \
        (before.hits, before.misses + 2, before.currsize)


@pytest.mark.parametrize("helper", ["_closed_class", "_sector_class"])
def test_keyed_class_caches_are_bounded(helper):
    maxsize = getattr(stems, helper).cache_parameters()["maxsize"]
    assert isinstance(maxsize, int) and maxsize > 0


def test_oracle_column_is_read_only():
    column = stems.oracle_column(2, 1, (-1,))
    want = dict(column)
    assert want
    d = next(iter(want))
    with pytest.raises(TypeError):
        column[d] = MackeyClass.zero(2)
    with pytest.raises(TypeError):
        del column[d]
    with pytest.raises(AttributeError):
        column.clear()
    assert stems.oracle_column(2, 1, (-1,)) == want
    # served from the cached table, not copied
    assert stems.oracle_column(2, 1, (-1,))[d] is want[d]


def test_sphere_table_cache_holds_a_heavy_round():
    # a heavy benchmark round reads 3,324 distinct sphere tables
    maxsize = stems._smash_table.cache_parameters()["maxsize"]
    assert isinstance(maxsize, int) and maxsize >= 3324


def test_negative_control_still_catches_a_zeroed_sector():
    assert cli._check_negative_control() is None


def test_sector_to_burnside_bridge():
    unit = SectorElement.unit(2, 2)
    assert cli.sector_to_burnside(unit) == BurnsideElement.one(2, 2)
    lifted = SectorElement.y_class(2, 1).tr()
    want = BurnsideElement.x(2, 2, 1) - BurnsideElement.x(2, 2, 0).scale(Fraction(1, 2))
    assert cli.sector_to_burnside(lifted) == want
    with pytest.raises(ValueError):
        cli.sector_to_burnside(SectorElement.euler_sigma(2))


def composed_bridge(elem: SectorElement) -> BurnsideElement:
    """The bridge by its definition: the top idempotent of each line's
    level, transferred up to the element's level, scaled and summed."""
    out = BurnsideElement.zero(elem.n, elem.level)
    for i, q in elem.coeffs:
        e = idempotents(elem.n, i)[i]
        for _ in range(elem.level - i):
            e = e.tr()
        out = out + e.scale(q)
    return out


@pytest.mark.parametrize("n", range(1, 7))
@given(qs=st.lists(st.one_of(st.integers(min_value=-5, max_value=5),
                             st.fractions(min_value=-9, max_value=9, max_denominator=64)),
                   min_size=7, max_size=7))
def test_closed_form_bridge_matches_the_composition(n, qs):
    zero = VirtualRep.zero(n)
    for level in range(n + 1):
        for i in range(level + 1):
            line = SectorElement.from_dict(level, zero, {i: 1})
            assert cli.sector_to_burnside(line) == composed_bridge(line)
        elem = SectorElement.from_dict(level, zero, dict(enumerate(qs[: level + 1])))
        bridged = cli.sector_to_burnside(elem)
        assert bridged == composed_bridge(elem)
        assert all(type(q) is Fraction for q in bridged.coeffs)


def skewed_bridge(weight: Fraction):
    """The closed-form bridge with -weight * x[L,i-1] in place of -x[L,i-1]/2."""
    def bridge(elem: SectorElement) -> BurnsideElement:
        level = elem.level
        out = [Fraction(0)] * (level + 1)
        for i, q in elem.coeffs:
            out[0 if i == level else 1 + i] += q
            if i:
                out[i] -= weight * q
        return BurnsideElement(elem.n, level, tuple(out))
    return bridge


def test_skewed_bridge_at_one_half_is_the_bridge(monkeypatch):
    monkeypatch.setattr(cli, "sector_to_burnside", skewed_bridge(Fraction(1, 2)))
    assert cli._check_sector_bridge(3) is None


@pytest.mark.parametrize("weight", [Fraction(0), Fraction(1, 4)])
def test_bridge_check_catches_a_wrong_map(monkeypatch, capsys, weight):
    monkeypatch.setattr(cli, "sector_to_burnside", skewed_bridge(weight))
    detail = cli._check_sector_bridge(2)
    assert detail is not None and "n=1 level 1" in detail
    status, lines, _ = run_lines(capsys, ["selftest"])
    assert status == 1
    assert "check=sector_burnside_bridge | status=FAIL" in "\n".join(lines)


def test_collapse_check_compares_two_computations(monkeypatch):
    assert cli._check_collapse(8) is None
    expand = cli.collapse_expand

    def skewed_expand(f, s):
        c = expand(f, s)
        return (*c[:-1], c[-1] + Fraction(1, 3))

    monkeypatch.setattr(cli, "collapse_expand", skewed_expand)
    assert cli._check_collapse(3) == "collapse expansion breaks at s=1, eigenvalue 1"
    monkeypatch.undo()

    def swapped_idempotents(s):
        pres = classifying.collapse(s)
        return classifying.CollapsePresentation(s, pres.minimal_polynomial,
                                                pres.idempotents[::-1])

    monkeypatch.setattr(cli, "collapse", swapped_idempotents)
    assert cli._check_collapse(3) == "collapse expansion breaks at s=2, eigenvalue 1"


def test_collapse_check_catches_a_wrong_denominator(monkeypatch):
    def doubled_den(s):
        pres = classifying.collapse(s)
        (den, nums), *rest = pres.idempotents
        return classifying.CollapsePresentation(s, pres.minimal_polynomial,
                                                ((2 * den, nums), *rest))

    monkeypatch.setattr(cli, "collapse", doubled_den)
    assert cli._check_collapse(3) == "collapse expansion breaks at s=1, eigenvalue 1"


def test_three_way_check_reads_one_column_per_face(monkeypatch):
    # plain selftest: 5 + 21 face columns for n <= 2, each answered once
    # by each method
    seen = {name: [] for name in stems.STEM_METHODS}
    for name, column in list(stems.STEM_METHODS.items()):
        def logged(n, s, c, name=name, column=column):
            seen[name].append((n, s, c))
            return column(n, s, c)
        monkeypatch.setitem(stems.STEM_METHODS, name, logged)
    assert cli._check_three_way(2, 2) is None
    faces = [(n, s, c) for n in (1, 2) for s, c in stems.face_columns(n)]
    assert len(faces) == 26
    assert all(calls == faces for calls in seen.values())


def test_three_way_check_catches_a_method_broken_outside_the_box(monkeypatch, capsys):
    # sector broken on the face x_1 < x_0 < y with even s only, which
    # the [-2, 2] box misses (its column is s = -4, c = (1,))
    sector = stems.sector_column

    def broken(n, s, c):
        if n == 2 and s % 2 == 0 and 0 < 2 * c[0] < -s:
            return {}
        return sector(n, s, c)

    monkeypatch.setitem(stems.STEM_METHODS, "sector", broken)
    assert cli.compare_methods(2, 2)[1] == []
    assert cli._check_three_way(2, 2) == \
        "n=2: the methods disagree on the face of -4*sigma + 1*l0, which the box misses"
    status, lines, _ = run_lines(capsys, ["selftest"])
    assert status == 1
    assert "check=three_way_agreement | status=FAIL" in "\n".join(lines)


def test_bridge_check_maps_each_element_once_per_level(monkeypatch):
    # (h+2)^2 products and h+2 elements per level h, plus h+2 transfers
    # below the top and h+2 restrictions above the bottom
    calls = []
    bridge = cli.sector_to_burnside

    def counted(elem):
        calls.append(elem)
        return bridge(elem)

    monkeypatch.setattr(cli, "sector_to_burnside", counted)
    assert cli._check_sector_bridge(3) is None
    want = sum((h + 2) ** 2 + (h + 2) * (1 + (h < n) + (h > 0))
               for n in range(1, 4) for h in range(n + 1))
    assert len(calls) == want


def test_lattice_check_catches_a_shifted_column(monkeypatch, capsys):
    closed = stems.closed_column
    monkeypatch.setattr(stems, "closed_column", lambda n, s, c: {
        d + 1: cls for d, cls in closed(n, s, c).items()})
    status, lines, _ = run_lines(capsys, ["selftest"])
    assert status == 1
    assert "check=fixed_point_lattices | status=FAIL" in "\n".join(lines)


@pytest.mark.parametrize("value, elsewhere", [
    pytest.param(TruncatedSeries(4, (1, Fraction(-2, 3), 0, 5)), TruncatedSeries.one(5),
                 id="TruncatedSeries"),
    pytest.param(BurnsideElement(3, 2, (Fraction(1, 2), -3, 0)), BurnsideElement.one(3, 1),
                 id="BurnsideElement"),
    pytest.param(SectorElement.orient_lambda(3, 1).scale(Fraction(-2, 7)),
                 SectorElement.unit(3, 3), id="SectorElement"),
])
def test_integer_backed_values_are_immutable_and_copy(value, elsewhere):
    # immutability and copies: test_value_classes_compare_hash_and_copy_by_fields
    # the reduced-numerator contract the three types share
    assert value + value == value.scale(2)
    assert value.scale(0).den == 1 and value.scale(0).is_zero()
    with pytest.raises(TypeError):
        value + 1
    with pytest.raises(ValueError):
        value + elsewhere


# One sample per value class, built on first use.
VALUE_SAMPLES = {
    "TruncatedSeries": lambda: TruncatedSeries(4, (1, Fraction(-2, 3), 0, 5)),
    "BurnsideElement": lambda: BurnsideElement(3, 2, (Fraction(1, 2), -3, 0)),
    "SectorElement": lambda: SectorElement.orient_lambda(3, 1).scale(Fraction(-2, 7)),
    "VirtualRep": lambda: VirtualRep(3, 1, -1, (2, 0)),
    "MackeyClass": lambda: MackeyClass(2, ((0, -1, 1), (2, 1, 2))),
    "GradedTable": lambda: GradedTable(2, ((0, MackeyClass.simple(2, 1)),)),
    "LevelComponents": lambda: classifying.fixed_point_data("bs1", 2, 4).level(1),
    "FixedPointDiagram": lambda: classifying.fixed_point_data("bs1", 1, 2),
    "CirclePresentation": lambda: classifying.bgs1_presentation(1, 2),
    "TorusCheckU": lambda: classifying.torus_check_u(1, 2, 2),
    "TorusCheckSU2": lambda: classifying.torus_check_su2(2),
    "SigmaTwoComparison": lambda: classifying.bsigma2_consistency(2, 2),
    "CollapsePresentation": lambda: classifying.collapse(2),
    "StemTuple": lambda: stems.StemTuple(2, (0, 1), (0, 0)),
    "SectorMonomial": lambda: stems.SectorMonomial(2, 0, ()),
    "PresentationGenerator": lambda: stems.point_presentation(2).generators[0],
    "PointPresentation": lambda: stems.point_presentation(1),
}


@pytest.mark.parametrize("name", VALUE_SAMPLES)
def test_value_classes_compare_hash_and_copy_by_fields(name):
    value = VALUE_SAMPLES[name]()
    cls = type(value)
    assert cls.__name__ == name and issubclass(cls, Frozen)
    fields = cls.__annotations__
    values = tuple(getattr(value, f) for f in fields)
    assert hash(value) == hash(values)
    if cls.__repr__ is Frozen.__repr__:
        assert repr(value) == f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
    for attr in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, attr, 0)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and hash(twin) == hash(value)
        assert tuple(getattr(twin, f) for f in fields) == values
    assert value != values
    if not issubclass(cls, Numerators):  # those are built from their coefficients
        assert cls(*values) == value == cls(**dict(zip(fields, values)))
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*values, unknown=0)


def test_value_class_defaults_and_restated_hash():
    assert MackeyClass(2) == MackeyClass.zero(2) == MackeyClass(n=2, entries=())
    assert GradedTable(n=2) == GradedTable(2, ())
    assert {MackeyClass(2), MackeyClass.zero(2)} == {MackeyClass(2)}
    with pytest.raises(TypeError):
        VirtualRep(1, 0, 0)
    with pytest.raises(TypeError):
        VirtualRep(1, 0, 0, (), d=1)

    class Pair(Frozen):  # the generic __init__, with a default
        a: int
        b: int = 7

    assert Pair(1) == Pair(a=1) == Pair(1, 7) != Pair(1, 8)
    assert repr(Pair(b=2, a=1)).endswith(".<locals>.Pair(a=1, b=2)")
    for args, kwargs in (((), {}), ((1, 2, 3), {}), ((1,), {"a": 1}), ((1,), {"c": 1})):
        with pytest.raises(TypeError):
            Pair(*args, **kwargs)


def test_post_init_hooks_count_every_construction(monkeypatch):
    # benchmarks/tracer.py counts VirtualRep and MackeyClass constructions
    # by rebinding __post_init__ on the class, so each __init__ must call it
    counts = {VirtualRep: 0, MackeyClass: 0}
    for cls in counts:
        def counted(obj, cls=cls, original=cls.__post_init__):
            counts[cls] += 1
            original(obj)
        monkeypatch.setattr(cls, "__post_init__", counted)
    for d in range(5):
        VirtualRep(2, d, 1, (0,))
    for i in range(3):
        MackeyClass.simple(2, i)
    assert counts == {VirtualRep: 5, MackeyClass: 3}


def test_cli_imports_neither_dataclasses_nor_inspect():
    src = str(PACKAGE_DIR.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from ratstems import cli, stems; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# The package: submodules are the API.

PACKAGE_DIR = Path(cli.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


def test_package_defines_only_the_version():
    # besides __version__, only the submodules imported so far
    import ratstems
    assert {name for name in vars(ratstems) if not name.startswith("_")} <= set(MODULES)
    assert ratstems.__version__ == cli.__version__


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    # a fresh isolated interpreter: nothing imported before, no PYTHONPATH
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE_DIR.parent)!r}); "
            f"import ratstems.{module}")
    subprocess.run([sys.executable, "-I", "-c", code], check=True, timeout=60)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_project_version_is_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    config = pyprojecttoml.read_configuration(PACKAGE_DIR.parents[1] / "pyproject.toml")
    assert config["project"]["version"] == cli.__version__
