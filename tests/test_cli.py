"""End-to-end tests of the command line: frozen output rows, exit
codes, both output formats, the file sink, and the failure paths
(including deliberately corrupted method tables)."""

import json

import pytest

from ratstems import cli
from ratstems.burnside import BurnsideElement
from ratstems.mackey import MackeyClass, NonSignIsotypicError
from ratstems.rolattice import VirtualRep
from ratstems.stems import SectorElement, TupleAmbiguityError


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
])
def test_large_n_is_answered(capsys, argv, last):
    status, lines, _ = run_lines(capsys, argv)
    assert status == 0
    assert lines[-1] == last


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


def test_value_errors_are_usage_errors(capsys):
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


def test_argparse_failures(capsys):
    assert cli.run(["bogus"]) == 2
    capsys.readouterr()
    assert cli.run(["stems"]) == 2
    capsys.readouterr()
    assert cli.run(["torus-check", "--n", "2", "--lie", "so3"]) == 2
    capsys.readouterr()
    assert cli.run(["stems", "--n", "1", "--degree", "0", "--scan", "1"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Library-level helpers behind the CLI.

def test_box_degrees_exponent_zero():
    assert list(cli.box_degrees(0, 2)) == [
        VirtualRep(0, d, 0, ()) for d in range(-2, 3)]


def test_box_degrees_rejects_negative_exponent():
    with pytest.raises(ValueError, match="n must be >= 0"):
        cli.box_degrees(-1, 1)


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


def test_sector_to_burnside_bridge():
    unit = SectorElement.unit(2, 2)
    assert cli.sector_to_burnside(unit) == BurnsideElement.one(2, 2)
    lifted = SectorElement.y_class(2, 1).tr()
    from fractions import Fraction
    want = BurnsideElement.x(2, 2, 1) - BurnsideElement.x(2, 2, 0).scale(Fraction(1, 2))
    assert cli.sector_to_burnside(lifted) == want
    with pytest.raises(ValueError):
        cli.sector_to_burnside(SectorElement.euler_sigma(2))
