"""Fuzzed command lines against the exit-code contract of ``cli.run``.

Every subcommand gets small integers, negative ones included, for its
integer options and random degree text over the grammar's characters,
plus two legal degrees whose integers pass the interpreter's 4300-digit
str limit.  Whatever the input, ``cli.run`` returns 0 or 2 and raises
nothing: exit 1 is kept for a failed mathematical check, which the real
methods never give (the corrupted-method goldens pin that path).

A second property draws legal degrees at large n, up to 2000, and
requires ``stems --degree`` to answer with all three methods agreeing
and ``sphere --rep`` to answer, each within a few seconds.
"""

import contextlib
import io
from datetime import timedelta

from hypothesis import given, settings, strategies as st

from ratstems import cli

SMALL = st.integers(min_value=-3, max_value=4)
NINES = "9" * 4300
DEGREES = st.one_of(
    st.text(alphabet="0123456789 \n+-*(),lamsigtx_", max_size=30),
    st.sampled_from([NINES + "*sigma + 5", NINES + " + " + NINES]))


def flag(name, values):
    # the "=" form, so that a value starting with "-" is not read as an option
    return values.map(lambda v: [f"{name}={v}"])


def degree_flag(name):
    # a degree may also follow its option as a token of its own
    return st.one_of(flag(name, DEGREES), DEGREES.map(lambda v: [name, v]))


def optional(name, values):
    return st.one_of(st.just([]), flag(name, values))


def command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + [arg for part in ps for arg in part])


N = flag("--n", SMALL)
MAXDEG = optional("--maxdeg", SMALL)
FORMAT = optional("--format", st.sampled_from(["text", "records"]))

ARGVS = st.one_of(
    command("stems", N,
            st.one_of(degree_flag("--degree"),
                      flag("--scan", st.integers(min_value=-3, max_value=1))),
            optional("--method", st.sampled_from(["closed", "oracle", "sector"])), FORMAT),
    command("sphere", N, degree_flag("--rep"), FORMAT),
    command("point-presentation", N, FORMAT),
    command("burnside", N, optional("--level", SMALL), FORMAT),
    command("bgs1", N, MAXDEG, FORMAT),
    command("bgsigma2", N, MAXDEG, FORMAT),
    command("bgu", N, optional("--m", SMALL), MAXDEG, FORMAT),
    command("torus-check", N, flag("--lie", st.sampled_from(["um", "su2"])),
            optional("--m", SMALL), MAXDEG,
            optional("--su2-torus-action", st.sampled_from(["trivial", "permutation"])),
            FORMAT),
    command("consistency", st.just(["bsigma2"]), N, MAXDEG, FORMAT),
    command("selftest", FORMAT),
)


@settings(max_examples=200, deadline=None)
@given(ARGVS)
def test_exit_code_is_0_or_2(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = cli.run(argv)
    assert status in (0, 2), argv


def large_degree(n):
    """(n, degree text): up to four terms k*sigma or k*l{j}, j < n-1, and a
    constant, either drawn or the one that puts the degree on the bottom
    sector's lattice d = -s - 2*sum(c), where the stem is nonzero."""
    names = st.just("sigma")
    if n > 1:
        names = st.one_of(names, st.integers(0, n - 2).map(lambda j: f"l{j}"))
    terms = st.lists(st.tuples(st.integers(-9, 9), names), max_size=4)
    return st.tuples(st.just(n), terms, st.one_of(st.none(), st.integers(-20, 20)))


def degree_text(terms):
    # the grammar takes a sign between terms, not a signed coefficient
    text = " + ".join(f"{k}*{name}" if name else str(k) for k, name in terms)
    return text.replace("+ -", "- ")


def run_quietly(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli.run(argv)
    return status, out.getvalue()


@settings(max_examples=50, deadline=timedelta(seconds=3))
@given(st.integers(min_value=1, max_value=2000).flatmap(large_degree))
def test_methods_agree_at_large_n(case):
    n, terms, constant = case
    if constant is None:
        constant = -sum(k * (1 if name == "sigma" else 2) for k, name in terms)
    text = degree_text([(constant, "")] + terms)
    status, out = run_quietly(["stems", "--n", str(n), "--degree=" + text])
    assert status == 0 and out.rstrip("\n").endswith(" | agree=yes"), (n, text)
    status, _ = run_quietly(["sphere", "--n", str(n), "--rep=" + text])
    assert status == 0, (n, text)
