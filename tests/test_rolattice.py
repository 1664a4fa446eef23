"""Tests for the reduced representation lattice and the degree grammar.

Oracle: fixed-point dimensions of honest (non-virtual) representations
are computed here by averaging characters over the subgroup, using exact
root-of-unity sums (the sum of e^(2*pi*i*a*t/2^n) over the subgroup of
order 2^h is 2^h when 2^n divides a*2^(n-h) and 0 otherwise).  That
pins down fixed_dim on effective representations before any library
code runs; virtual values must then be the linear extension.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ratstems.rolattice import DegreeSyntaxError, VirtualRep, parse_degree


# ---------------------------------------------------------------------------
# Character-average oracle.

def exp_sum(n: int, h: int, a: int) -> int:
    """Sum of the character t -> e^(2 pi i a t / 2^n) over the subgroup
    of order 2^h, exactly."""
    return 2 ** h if (a * 2 ** (n - h)) % 2 ** n == 0 else 0


def oracle_fixed_dim(n: int, h: int, terms) -> int:
    total = 0
    for irrep, mult in terms:
        if irrep == ("triv",):
            total += mult * 2 ** h
        elif irrep == ("sigma",):
            total += mult * exp_sum(n, h, 2 ** (n - 1))
        else:
            _, s, m = irrep
            total += mult * (exp_sum(n, h, s * m) + exp_sum(n, h, -s * m))
    assert total % 2 ** h == 0
    return total // 2 ** h


def degree_text(terms) -> str:
    """A raw representation, a sum of named irreducibles with
    multiplicities, written as degree text: ``k``, ``k*sigma`` and
    ``k*lam(s,m)`` terms."""
    parts = []
    for irrep, mult in terms:
        if irrep == ("triv",):
            parts.append(str(mult))
        elif irrep == ("sigma",):
            parts.append(f"{mult}*sigma")
        else:
            parts.append(f"{mult}*lam({irrep[1]},{irrep[2]})")
    return " + ".join(parts) or "0"


def raw_reps(n: int):
    irreps = [("triv",), ("sigma",)]
    for k in range(n + 1):
        m = 2 ** k
        for s in range(1, 2 ** n // m + 1, 2):
            if s * m < 2 ** n or (s == 1 and m == 2 ** n):
                irreps.append(("lam", s, m))
    term = st.tuples(st.sampled_from(irreps), st.integers(min_value=0, max_value=3))
    return st.lists(term, max_size=5).map(lambda ts: (n, tuple(ts)))


@given(st.integers(min_value=1, max_value=4).flatmap(raw_reps))
def test_reduce_preserves_fixed_dimensions(raw):
    n, terms = raw
    v = parse_degree(degree_text(terms), n)
    for h in range(n + 1):
        assert v.fixed_dim(h) == oracle_fixed_dim(n, h, terms)


@given(st.integers(min_value=1, max_value=4).flatmap(raw_reps))
def test_restrict_commutes_with_fixed_dimensions(raw):
    n, terms = raw
    v = parse_degree(degree_text(terms), n)
    for h in range(n + 1):
        w = v.restrict(h)
        for hp in range(h + 1):
            assert w.fixed_dim(hp) == v.fixed_dim(hp)


@given(st.integers(min_value=1, max_value=4).flatmap(raw_reps))
def test_fixed_sign_is_sigma_parity(raw):
    # the generator acts by -1 on each fixed sign line and preserves
    # orientation on everything else, so the degree below the top is
    # (-1)^(number of sigma summands)
    n, terms = raw
    v = parse_degree(degree_text(terms), n)
    sigma_count = sum(mult for irrep, mult in terms if irrep == ("sigma",))
    for h in range(n):
        assert v.fixed_sign(h) == (-1) ** sigma_count
    assert v.fixed_sign(n) == 1


def test_fixed_dim_golden():
    v = parse_degree("2 - 1*sigma + 1*l0", 3)
    # d=2, s=-1, c=(1, 0): dims 2 + s*[h<3] + 2*[h<=0]
    assert [v.fixed_dim(h) for h in range(4)] == [3, 1, 1, 2]
    assert [v.fixed_sign(h) for h in range(4)] == [-1, -1, -1, 1]


def test_restrict_golden():
    v = VirtualRep(3, 0, 1, (2, -1))
    # sigma dies below the top, l1 becomes 2*sigma at level 2, l0 survives
    assert v.restrict(3) == v
    assert v.restrict(2) == VirtualRep(2, 1, -2, (2,))
    assert v.restrict(1) == VirtualRep(1, -1, 4, ())
    assert v.restrict(0) == VirtualRep(0, 3, 0, ())


def test_virtualrep_algebra():
    a = VirtualRep(2, 1, 2, (3,))
    b = VirtualRep(2, 0, -1, (1,))
    assert a + b == VirtualRep(2, 1, 1, (4,))
    assert a - b == VirtualRep(2, 1, 3, (2,))
    assert -a == VirtualRep(2, -1, -2, (-3,))
    assert 2 * a == VirtualRep(2, 2, 4, (6,))
    assert VirtualRep.zero(2) == VirtualRep(2, 0, 0, (0,))
    assert VirtualRep.one(2, 5) == VirtualRep(2, 5, 0, (0,))
    assert VirtualRep.sigma(2) == VirtualRep(2, 0, 1, (0,))
    assert VirtualRep.lam(3, 1) == VirtualRep(3, 0, 0, (0, 1))


def test_virtualrep_validation():
    with pytest.raises(ValueError):
        VirtualRep(-1, 0, 0, ())
    with pytest.raises(ValueError):
        VirtualRep(0, 1, 1, ())
    with pytest.raises(ValueError):
        VirtualRep(2, 0, 0, ())  # wrong number of rotation slots
    with pytest.raises(ValueError):
        VirtualRep.sigma(0)
    with pytest.raises(ValueError):
        VirtualRep.lam(2, 1)
    with pytest.raises(ValueError):
        VirtualRep(2, 0, 0, (0,)).fixed_dim(3)
    with pytest.raises(ValueError):
        VirtualRep(2, 0, 0, (0,)).restrict(-1)
    with pytest.raises(ValueError):
        VirtualRep(2, 0, 0, (0,)) + VirtualRep(3, 0, 0, (0, 0))


@pytest.mark.parametrize("bad", [1.5, Fraction(5, 2), Fraction(2)])
@pytest.mark.parametrize("slot", ["d", "s", "c0", "c1"])
def test_virtualrep_rejects_inexact_coordinates(bad, slot):
    coords = {"d": 3, "s": 1, "c0": 2, "c1": 0}
    coords[slot] = bad
    with pytest.raises(ValueError, match="integers"):
        VirtualRep(3, coords["d"], coords["s"], (coords["c0"], coords["c1"]))


def test_virtualrep_coordinate_container():
    # the example that int() used to truncate to d=1, s=0, c=(2, 0)
    with pytest.raises(ValueError):
        VirtualRep(3, 1.5, 0.5, (2.9, -0.2))
    assert VirtualRep(3, 1, 0, [2, 0]).c == (2, 0)
    c = (2, 0)
    assert VirtualRep(3, 1, 0, c).c is c


# ---------------------------------------------------------------------------
# Raw terms in degree text: integer multiplicities and lam(s, m).

def literal(q) -> str:
    """How a non-integer number would be written in degree text."""
    return f"{q.numerator}/{q.denominator}" if isinstance(q, Fraction) else str(q)


def assert_refused_at(text: str, n: int, col: int, width: int = 1) -> DegreeSyntaxError:
    """parse_degree refuses text on line 1, in columns col..col+width-1."""
    with pytest.raises(DegreeSyntaxError) as exc:
        parse_degree(text, n)
    assert exc.value.line == 1 and col <= exc.value.col < col + width, (text, exc.value)
    return exc.value


@pytest.mark.parametrize("bad", [True, 1.0, 1.5, Fraction(2), Fraction(3, 2)])
@pytest.mark.parametrize("irrep", [("triv",), ("sigma",), ("lam", 1, 2)])
def test_rawrep_rejects_inexact_multiplicities(bad, irrep):
    # a multiplicity that is not an integer literal is refused, never
    # truncated to one
    text = degree_text([(irrep, literal(bad))])
    assert_refused_at("1 + " + text, 2, 5, len(literal(bad)))


@pytest.mark.parametrize("bad", [True, 1.0, Fraction(1), 1.5])
@pytest.mark.parametrize("slot", ["s", "m"])
def test_rawrep_rejects_inexact_rotation_parameters(bad, slot):
    s, m = (literal(bad), 1) if slot == "s" else (1, literal(bad))
    text = f"sigma + lam({s},{m})"
    assert_refused_at(text, 2, text.index(literal(bad)) + 1, len(literal(bad)))


def test_rawrep_keeps_integer_terms():
    # the example that int() used to truncate to 1 + 1*l0
    assert_refused_at("1.5 + lam(1.0,1)", 2, 2)
    assert parse_degree("2 + 0*lam(1,1)", 2) == VirtualRep(2, 2, 0, (0,))


def test_rawrep_reduction_edges():
    n = 3
    # a full turn is two trivial summands, a half turn is two signs
    assert parse_degree("lam(1,8)", n) == VirtualRep(n, 2, 0, (0, 0))
    assert parse_degree("lam(1,4)", n) == VirtualRep(n, 0, 2, (0, 0))
    assert parse_degree("lam(3,2)", n) == VirtualRep(n, 0, 0, (0, 1))
    assert parse_degree("lam(7,1)", n) == VirtualRep(n, 0, 0, (1, 0))
    assert parse_degree("3*lam(1,8) - 2*lam(1,4)", n) == VirtualRep(n, 6, -4, (0, 0))
    # at n = 1 the half turn lambda(1, 1) is already 2*sigma
    assert parse_degree("lam(1,1)", 1) == VirtualRep(1, 0, 2, ())
    assert parse_degree("lam(1,2)", 1) == VirtualRep(1, 2, 0, ())


def test_rawrep_validation():
    # each lam(s, m) rule fails at the lam token, with the rule in the message
    for text, n, message in [
            ("1 + lam(1,1)", 0, "lam(s, m) needs n >= 1"),
            ("sigma - 2*lam(2,2)", 2, "s must be odd"),
            ("sigma - 2*lam(0,1)", 2, "s must be odd"),
            ("1 + lam(1,3)", 2, "m must be a power of two"),
            ("1 + lam(1,0)", 2, "m must be a power of two"),
            ("1 + lam(1,8)", 2, "m must be a power of two dividing 2^2"),
            ("1 + lam(3,2)", 2, "need s < 2^2/m"),
            ("1 + lam(3,4)", 2, "need s < 2^2/m"),
            ("1 + lam(5,1)", 2, "need s < 2^2/m")]:
        exc = assert_refused_at(text, n, text.index("lam") + 1)
        assert message in str(exc), text
    with pytest.raises(DegreeSyntaxError) as exc:
        parse_degree("1 +\n  lam(1,3)", 2)
    assert (exc.value.line, exc.value.col) == (2, 3)


# ---------------------------------------------------------------------------
# Degree grammar.

def test_parse_goldens():
    assert parse_degree("1 - 1*sigma", 2) == VirtualRep(2, 1, -1, (0,))
    assert parse_degree("2*l0 - 3", 2) == VirtualRep(2, -3, 0, (2,))
    assert parse_degree("-sigma", 1) == VirtualRep(1, 0, -1, ())
    assert parse_degree("0", 3) == VirtualRep.zero(3)
    assert parse_degree("sigma + sigma", 1) == VirtualRep(1, 0, 2, ())
    assert parse_degree("  1-1 * sigma\n+ 2*l1 ", 3) == VirtualRep(3, 1, -1, (0, 2))


def test_parse_lam_reduces():
    assert parse_degree("lam(1,1)", 3) == parse_degree("l0", 3)
    assert parse_degree("lam(3,2)", 3) == parse_degree("l1", 3)
    assert parse_degree("lam(1,4)", 3) == parse_degree("2*sigma", 3)
    assert parse_degree("lam(1,8)", 3) == parse_degree("2", 3)


def test_parse_error_positions():
    with pytest.raises(DegreeSyntaxError) as exc:
        parse_degree("1 - sigma +", 2)
    assert exc.value.line == 1 and exc.value.col == 12
    assert "line 1, column 12" in str(exc.value)

    with pytest.raises(DegreeSyntaxError) as exc:
        parse_degree("1 +\n2 * bogus", 2)
    assert exc.value.line == 2 and exc.value.col == 5

    with pytest.raises(DegreeSyntaxError) as exc:
        parse_degree("1 ? 2", 2)
    assert exc.value.col == 3

    with pytest.raises(DegreeSyntaxError) as exc:
        parse_degree("2²", 2)  # a digit character that int() rejects
    assert exc.value.col == 2


def test_parse_name_errors():
    with pytest.raises(DegreeSyntaxError):
        parse_degree("l1", 2)  # l1 needs n >= 3
    with pytest.raises(DegreeSyntaxError):
        parse_degree("sigma", 0)
    with pytest.raises(DegreeSyntaxError):
        parse_degree("lam(2,2)", 3)  # grammar accepts it, validation rejects
    with pytest.raises(DegreeSyntaxError):
        parse_degree("tau", 2)
    with pytest.raises(DegreeSyntaxError):
        parse_degree("lam(1 2)", 3)
    with pytest.raises(DegreeSyntaxError):
        parse_degree("", 2)


def test_parse_overlong_literals():
    # 5000 digits is past the interpreter's int-conversion limit
    big = "9" * 5000
    for text, col in [(big, 1), ("1 + " + big + "*sigma", 5), ("lam(" + big + ",1)", 5),
                      ("lam(1," + big + ")", 7), ("l" + big, 1)]:
        with pytest.raises(DegreeSyntaxError) as exc:
            parse_degree(text, 3)
        assert (exc.value.line, exc.value.col) == (1, col)
        assert "5000 digits" in str(exc.value)


@given(st.text(alphabet="0123456789 \n+-*(),lamsigtx_", max_size=30),
       st.integers(min_value=0, max_value=4))
def test_parse_is_total(text, n):
    try:
        assert isinstance(parse_degree(text, n), VirtualRep)
    except DegreeSyntaxError:
        pass


def virtual_reps(n: int):
    coord = st.integers(min_value=-5, max_value=5)
    return st.tuples(coord, coord, st.tuples(*[coord] * (n - 1))).map(
        lambda t: VirtualRep(n, t[0], t[1], t[2]))


@given(st.integers(min_value=1, max_value=4).flatmap(virtual_reps))
def test_str_round_trips_through_parser(v):
    assert parse_degree(str(v), v.n) == v
