"""Tests for the reduced representation lattice and the degree grammar.

Oracle: fixed-point dimensions of honest (non-virtual) representations
are computed here by averaging characters over the subgroup, using exact
root-of-unity sums (the sum of e^(2*pi*i*a*t/2^n) over the subgroup of
order 2^h is 2^h when 2^n divides a*2^(n-h) and 0 otherwise).  That
pins down fixed_dim on effective representations before any library
code runs; virtual values must then be the linear extension.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ratstems import cli
from ratstems.rolattice import DegreeSyntaxError, VirtualRep, _rotation, parse_degree


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

    # integers are ASCII digits: other scripts' decimal digits, which
    # int() would read, are syntax errors like any other character
    for text, col in [("１", 1), ("٣", 1), ("lam(١, 2)", 5), ("l١", 2), ("²*sigma", 1)]:
        with pytest.raises(DegreeSyntaxError) as exc:
            parse_degree(text, 2)
        assert exc.value.col == col, text
        assert cli.run(["stems", "--n", "2", "--degree", text]) == 2


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


# ---------------------------------------------------------------------------
# The parser against a term-by-term reference: a VirtualRep for every term
# and every partial sum, line and column counted token by token.

_REFERENCE_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[-+*(),]|\s+|.")


def _reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, col = 1, 1
    for match in _REFERENCE_TOKEN.finditer(text):
        lexeme = match.group(0)
        if lexeme.strip() == "":
            for ch in lexeme:
                if ch == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            continue
        if lexeme.isascii() and lexeme.isdecimal():
            kind = "int"
        elif lexeme[0].isalpha() or lexeme[0] == "_":
            kind = "name"
        elif lexeme in "+-*(),":
            kind = lexeme
        else:
            raise DegreeSyntaxError(f"unexpected character {lexeme!r}", line, col)
        tokens.append((kind, lexeme, line, col))
        col += len(lexeme)
    tokens.append(("end", "", line, col))
    return tokens


class _ReferenceParser:
    def __init__(self, text: str, n: int):
        self.tokens = _reference_tokenize(text)
        self.pos = 0
        self.n = n

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> DegreeSyntaxError:
        _, _, line, col = self.peek()
        return DegreeSyntaxError(message, line, col)

    def number(self, digits: str, line: int, col: int) -> int:
        try:
            return int(digits)
        except ValueError as exc:
            raise DegreeSyntaxError(f"integer literal of {len(digits)} digits is too long",
                                    line, col) from exc

    def expect(self, kind: str):
        if self.peek()[0] != kind:
            raise self.fail(f"expected {kind!r}, found {self.peek()[1]!r}")
        return self.take()

    def parse(self) -> VirtualRep:
        total = VirtualRep.zero(self.n)
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        total = total + sign * self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            total = total + (1 if op == "+" else -1) * self.term()
        if self.peek()[0] != "end":
            raise self.fail(f"unexpected trailing {self.peek()[1]!r}")
        return total

    def term(self) -> VirtualRep:
        kind, lexeme, line, col = self.peek()
        if kind == "int":
            self.take()
            coeff = self.number(lexeme, line, col)
            if self.peek()[0] == "*":
                self.take()
                return coeff * self.atom()
            return VirtualRep.one(self.n, coeff)
        return self.atom()

    def atom(self) -> VirtualRep:
        kind, lexeme, line, col = self.peek()
        if kind != "name":
            raise self.fail(f"expected a representation name, found {lexeme!r}")
        self.take()
        if lexeme == "sigma":
            if self.n < 1:
                raise DegreeSyntaxError("sigma needs n >= 1", line, col)
            return VirtualRep.sigma(self.n)
        if lexeme == "lam":
            self.expect("(")
            s = self.number(*self.expect("int")[1:])
            self.expect(",")
            m = self.number(*self.expect("int")[1:])
            self.expect(")")
            try:
                return _rotation(self.n, s, m)
            except ValueError as exc:
                raise DegreeSyntaxError(str(exc), line, col) from exc
        if re.fullmatch(r"l[0-9]+", lexeme):
            k = self.number(lexeme[1:], line, col)
            if k > self.n - 2:
                raise DegreeSyntaxError(f"l{k} needs n >= {k + 2}", line, col)
            return VirtualRep.lam(self.n, k)
        raise DegreeSyntaxError(f"unknown representation name {lexeme!r}", line, col)


OVERLONG = "9" * 4400  # past the interpreter's 4300-digit int limit
SPACES = st.sampled_from(["", "", " ", "  ", "\n", "\t", " \n ", "\r\n"])


def _literal():
    return st.sampled_from([*map(str, range(18)), OVERLONG])


def _atom(n: int):
    rotation = st.integers(min_value=0, max_value=6).map(lambda k: f"l{k}")  # k past n - 2 too
    lam = st.builds(lambda s, m, ws: f"lam{ws}({s},{ws}{m}){ws}", _literal(), _literal(), SPACES)
    top = max(n, 0)  # lam(1, 2^n) is the full turn, lam(1, 2^(n-1)) the half turn
    turn = st.builds(lambda s, k: f"lam({s},{2 ** k})", st.sampled_from([1, 1, 3]),
                     st.sampled_from([top, max(top - 1, 0)]) | st.integers(0, top))
    wrong = st.sampled_from(["tau", "l", "lam", "lam(1)", "lam(1,2", "_x", "\u00e9", "l0x",
                             "l" + OVERLONG, "l007", "L1", "l\u0661", "2\u00b2", "?"])
    return st.one_of(st.just("sigma"), st.just("sigma"), rotation, rotation, turn, lam, wrong)


def _term(n: int):
    return st.one_of(_atom(n), _literal(),
                     st.builds(lambda c, ws, a: f"{c}{ws}*{ws}{a}", _literal(), SPACES, _atom(n)))


@st.composite
def degree_cases(draw) -> tuple[str, int]:
    """A group exponent n >= -1 and a text for it: an expression of the
    grammar with a leading "-" or not and whitespace between terms, some
    terms wrong, or a soup of the grammar's pieces."""
    n = draw(st.integers(min_value=-1, max_value=5))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        pieces = ["sigma", "lam", "(", ")", ",", "*", "+", "-", "l0", "l1", "l5", "l",
                  "tau", "0", "1", "2", "8", OVERLONG, " ", "\n", "\u00e9", "?", "\u0661"]
        return "".join(draw(st.lists(st.sampled_from(pieces), max_size=12))), n
    text = draw(SPACES) + ("-" + draw(SPACES) if draw(st.booleans()) else "")
    text += draw(_term(n))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        text += draw(SPACES) + draw(st.sampled_from("+-")) + draw(SPACES) + draw(_term(n))
    return text + draw(SPACES), n


def _outcome(parse, text: str, n: int):
    try:
        return parse(text, n)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


@settings(max_examples=200)
@given(degree_cases())
@example(("-lam(1,8) + 3*lam(3,2)\n - 2*lam(1,4)", 3))  # full, rotation and half turns
@example(("2*lam(1,2) - lam(1,1)", 1))
def test_parser_matches_the_term_by_term_reference(case):
    text, n = case
    assert (_outcome(parse_degree, text, n)
            == _outcome(lambda t, m: _ReferenceParser(t, m).parse(), text, n))


def test_a_long_chain_builds_one_virtual_rep(monkeypatch):
    # the terms add into one coordinate list: no VirtualRep per term or
    # partial sum, so the chain costs O(terms + n), not O(terms * n)
    built = []
    post_init = VirtualRep.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(VirtualRep, "__post_init__", counted)
    v = parse_degree(" + ".join(f"l{k}" for k in range(3999)), 4000)
    assert built == [v] and v.c == (1,) * 3999
