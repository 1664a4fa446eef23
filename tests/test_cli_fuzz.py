"""Fuzzed command lines against the exit-code contract of ``cli.run``.

Every subcommand gets small integers, negative ones included, for its
integer options and random degree text over the grammar's characters,
plus two legal degrees whose integers pass the interpreter's 4300-digit
str limit.  Whatever the input, ``cli.run`` returns 0 or 2 and raises
nothing: exit 1 is kept for a failed mathematical check, which the real
methods never give (the corrupted-method goldens pin that path).
"""

import contextlib
import io

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
