"""End-to-end tests of the command line: frozen output rows, exit
codes, both output formats, the file sink, and the failure paths
(including deliberately corrupted method tables)."""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ratstems import cli, stems
from ratstems.burnside import BurnsideElement
from ratstems.mackey import MackeyClass, NonSignIsotypicError
from ratstems.rolattice import VirtualRep
from ratstems.stems import SectorElement, TupleAmbiguityError
from test_stems import box_degrees


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
    monkeypatch.setitem(cli.STEM_METHODS, "sector",
                        lambda v: MackeyClass.zero(v.n))
    status, lines, _ = run_lines(capsys, ["stems", "--n", "1", "--scan", "1"])
    assert status == 1
    assert lines[-1] == "n=1 | scanned=9 | disagreements=5"
    # every degree with a nonzero stem in the box is named
    assert sum("agree=no" in line for line in lines) == 5
    assert any("degree=1 - 1*sigma" in line for line in lines)


def test_stems_ambiguity_maps_to_exit_1(capsys, monkeypatch):
    def explode(v):
        raise TupleAmbiguityError("overlapping runs")
    monkeypatch.setitem(cli.STEM_METHODS, "closed", explode)
    status, lines, err = run_lines(capsys, ["stems", "--n", "1", "--degree", "0"])
    assert status == 1
    assert lines == []
    assert "overlapping runs" in err


def test_classifier_failure_maps_to_exit_1(capsys, monkeypatch):
    def explode(v):
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
    # l0 + ... + l398 at n = 400 folds 399 tables of 401 levels; each
    # Kunneth box pairs entries only within a level, so this takes about
    # a second, and a box over all entry pairs takes over 15 s
    rep = " + ".join(f"l{k}" for k in range(399))
    start = time.perf_counter()
    status, lines, _ = run_lines(capsys, ["sphere", "--n", "400", "--rep", rep])
    elapsed = time.perf_counter() - start
    assert status == 0
    assert len(lines) == 400
    assert lines[-1] == "degree=798 | class=M0 | level_dims=" + ",".join(["1"] * 401)
    assert elapsed < 10.0


def test_consistency_report(capsys):
    status, lines, _ = run_lines(capsys, ["consistency", "bsigma2", "--n", "2"])
    assert status == 0
    assert lines == ["degree=0 | level=2 | assembled=5 | quotient=7",
                     "differences=1 | agree=no"]
    status, lines, _ = run_lines(capsys, ["consistency", "bsigma2", "--n", "1"])
    assert status == 0
    assert lines == ["differences=0 | agree=yes"]


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
    broken["sector"] = lambda v: MackeyClass.zero(v.n)
    checked, bad = cli.compare_methods(1, 1, broken)
    assert checked == 9 and len(bad) == 5
    degrees = {str(v) for v, _ in bad}
    assert degrees == {"0", "1 - 1*sigma", "-1 + 1*sigma", "1*sigma", "-1*sigma"}
    with pytest.raises(ValueError):
        cli.compare_methods(1, 1, {})


# ---------------------------------------------------------------------------
# The column-major scan against a dense per-degree walk.

def dense_compare(n, bound, methods):
    """The reference scan: every method at every degree of the box, in
    order of d, then s, then c."""
    checked, bad = 0, []
    for v in box_degrees(n, bound):
        results = {name: fn(v) for name, fn in methods.items()}
        checked += 1
        first = next(iter(results.values()))
        if any(cls != first for cls in results.values()):
            bad.append((v, results))
    return checked, bad


def transparent(fn):
    def wrapper(v):
        return fn(v)
    wrapper.__wrapped__ = fn
    return wrapper


def method_table(kind):
    base = dict(stems.STEM_METHODS)
    if kind == "zeroed-sector":
        base["sector"] = lambda v: MackeyClass.zero(v.n)
    elif kind == "shifted-closed":
        closed = base["closed"]
        base["closed"] = lambda v: closed(v + VirtualRep.one(v.n, 2))
    elif kind == "wrapped":
        base = {name: transparent(fn) for name, fn in base.items()}
    return base


@pytest.mark.parametrize("kind", ["clean", "zeroed-sector", "shifted-closed", "wrapped"])
@pytest.mark.parametrize("n,bound", [(0, 0), (0, 2), (1, 2), (2, 2), (3, 1), (3, 2)])
def test_column_scan_matches_dense_walk(kind, n, bound):
    methods = method_table(kind)
    checked, bad = cli.compare_methods(n, bound, methods)
    want_checked, want_bad = dense_compare(n, bound, methods)
    assert checked == want_checked == (2 * bound + 1) ** (n + 1)
    # same degrees, same classes, same order of degrees and of methods
    assert [(v, list(results.items())) for v, results in bad] == \
        [(v, list(results.items())) for v, results in want_bad]
    assert bool(bad) == (kind in ("zeroed-sector", "shifted-closed"))


def test_injected_method_runs_once_per_degree():
    seen = []

    def zero(v):
        seen.append(v)
        return MackeyClass.zero(v.n)

    checked, bad = cli.compare_methods(2, 1, {"closed": stems.stem_at, "zero": zero})
    assert sorted(map(str, seen)) == sorted(map(str, box_degrees(2, 1)))
    assert len(seen) == checked == 27
    assert [v for v, _ in bad] == [v for v in box_degrees(2, 1)
                                   if not stems.stem_at(v).is_zero()]


def test_wrapped_method_takes_the_column_path():
    # a wrapper that leaves __wrapped__ (as a tracer does) is read
    # through the built-in's column: one sphere-table lookup per column
    calls = []

    def oracle(v):
        calls.append(v)
        return stems.stem_at_oracle(v)

    oracle.__wrapped__ = stems.stem_at_oracle
    info = stems._smash_table.cache_info
    cli.compare_methods(3, 2, {"oracle": stems.stem_at_oracle})  # warm
    lookups = []
    for fn in (stems.stem_at_oracle, oracle):
        before = info()
        cli.compare_methods(3, 2, {"oracle": fn})
        after = info()
        lookups.append(after.hits + after.misses - before.hits - before.misses)
    assert calls == []
    assert lookups == [5 ** 3, 5 ** 3]


COLUMN_NAMES = {"closed": "closed_column", "sector": "sector_column",
                "oracle": "oracle_column"}


@pytest.mark.parametrize("name", sorted(COLUMN_NAMES))
def test_each_method_stands_alone(name, monkeypatch, capsys):
    # with the other two methods' columns and the tuple decoder
    # replaced by stubs that raise, the method still answers a box scan
    # and a single degree, with its own values
    fn = stems.STEM_METHODS[name]
    frozen = {v: fn(v) for v in box_degrees(2, 2)}

    def stub(*args):
        raise AssertionError(f"the {name} method called another method")

    for other, column in COLUMN_NAMES.items():
        if other != name:
            monkeypatch.setattr(stems, column, stub)
            monkeypatch.setattr(stems.STEM_METHODS[other], "column", stub)
    monkeypatch.setattr(stems, "decode_degree", stub)
    v = VirtualRep(2, 1, -1, (0,))
    assert fn(v) == MackeyClass(2, ((0, -1, 1), (1, -1, 1)))
    assert cli.compare_methods(2, 2, {name: fn, "frozen": frozen.__getitem__}) == (125, [])
    for argv in (["--scan", "2"], ["--degree", "1 - sigma"]):
        assert cli.run(["stems", "--n", "2", "--method", name, *argv]) == 0
    assert "agree=yes" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Whole-column acceptance and the shared stem classes.

def padded_closed(pad_d):
    """The closed method with one extra M0 added at d = pad_d in every
    column, as a column method of its own."""
    def column(n, s, c):
        found = dict(stems.closed_column(n, s, c))
        found[pad_d] = found.get(pad_d, MackeyClass.zero(n)) + MackeyClass.simple(n, 0)
        return found

    def method(v):
        return column(v.n, v.s, v.c).get(v.d, MackeyClass.zero(v.n))

    method.column = column
    return method


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
    assert stems.stem_at_oracle(VirtualRep(2, d, 1, (-1,))) is want[d]


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
    from fractions import Fraction
    want = BurnsideElement.x(2, 2, 1) - BurnsideElement.x(2, 2, 0).scale(Fraction(1, 2))
    assert cli.sector_to_burnside(lifted) == want
    with pytest.raises(ValueError):
        cli.sector_to_burnside(SectorElement.euler_sigma(2))


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
