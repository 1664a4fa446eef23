"""The reduced lattice of virtual real representations of C_{2^n}.

The irreducible real representations of the cyclic group C_{2^n} are the
trivial character, the sign character sigma, and the two-dimensional
rotations lambda(s, m) in which a chosen generator acts by rotation
through the angle 2*pi*s*m/2^n (s odd).  For the purposes of grading
rational equivariant theories only the stable class of the associated
sphere matters, and every rotation reduces to one of

    l_k := lambda(1, 2^k)   for 0 <= k <= n - 2,
    lambda(1, 2^(n-1)) = 2*sigma,      lambda(1, 2^n) = 2 (trivial).

A ``VirtualRep`` is an integer vector (d; s; c_0..c_{n-2}) in this
reduced basis.  The module provides restriction to subgroups, and the
dimension and orientation character of fixed-point subspaces; these two
functions drive every fixed-point computation downstream.
"""

from __future__ import annotations

import re

from .series import Frozen


class VirtualRep(Frozen):
    """A virtual representation of C_{2^n} in the reduced basis.

    Fields: ambient exponent n >= 0, trivial part d, sign part s, and
    rotation parts c (one slot per l_k, 0 <= k <= n-2).  For n = 0 the
    group is trivial, so s must be 0 and c empty.
    """

    n: int
    d: int
    s: int
    c: tuple[int, ...]

    def __init__(self, n: int, d: int, s: int, c: tuple[int, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "c", c)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("group exponent n must be >= 0")
        if type(self.c) is not tuple:
            object.__setattr__(self, "c", tuple(self.c))
        if {type(self.d), type(self.s), *map(type, self.c)} != {int}:
            raise ValueError("coordinates d, s and c must be integers")
        if len(self.c) != max(self.n - 1, 0):
            raise ValueError(f"expected {max(self.n - 1, 0)} rotation slots for n={self.n}")
        if self.n == 0 and self.s != 0:
            raise ValueError("the trivial group has no sign character")

    @classmethod
    def zero(cls, n: int) -> "VirtualRep":
        return cls(n, 0, 0, (0,) * max(n - 1, 0))

    @classmethod
    def one(cls, n: int, d: int = 1) -> "VirtualRep":
        return cls(n, d, 0, (0,) * max(n - 1, 0))

    @classmethod
    def sigma(cls, n: int) -> "VirtualRep":
        if n < 1:
            raise ValueError("sigma needs n >= 1")
        return cls(n, 0, 1, (0,) * (n - 1))

    @classmethod
    def lam(cls, n: int, k: int) -> "VirtualRep":
        if not 0 <= k <= n - 2:
            raise ValueError(f"l_{k} is not a reduced generator for n={n}")
        c = [0] * (n - 1)
        c[k] = 1
        return cls(n, 0, 0, tuple(c))

    def _assert_same(self, other: "VirtualRep") -> None:
        if not isinstance(other, VirtualRep):
            raise TypeError("expected a VirtualRep")
        if other.n != self.n:
            raise ValueError("ambient group exponents differ")

    def __add__(self, other: "VirtualRep") -> "VirtualRep":
        self._assert_same(other)
        return VirtualRep(self.n, self.d + other.d, self.s + other.s,
                          tuple(a + b for a, b in zip(self.c, other.c)))

    def __sub__(self, other: "VirtualRep") -> "VirtualRep":
        self._assert_same(other)
        return VirtualRep(self.n, self.d - other.d, self.s - other.s,
                          tuple(a - b for a, b in zip(self.c, other.c)))

    def __neg__(self) -> "VirtualRep":
        return VirtualRep(self.n, -self.d, -self.s, tuple(-a for a in self.c))

    def __rmul__(self, k: int) -> "VirtualRep":
        if not isinstance(k, int):
            return NotImplemented
        return VirtualRep(self.n, k * self.d, k * self.s, tuple(k * a for a in self.c))

    def restrict(self, h: int) -> "VirtualRep":
        """Restrict to the subgroup C_{2^h}, re-reducing over its basis.

        sigma restricts trivially below the top level; l_k survives as
        l_k of the subgroup for k <= h-2, becomes 2*sigma at k = h-1 and
        2 trivial summands for k >= h.
        """
        if not 0 <= h <= self.n:
            raise ValueError(f"level {h} outside 0..{self.n}")
        if h == self.n:
            return self
        d = self.d + self.s + 2 * sum(self.c[k] for k in range(max(h, 0), self.n - 1))
        s = 2 * self.c[h - 1] if h >= 1 else 0
        return VirtualRep(h, d, s, self.c[: max(h - 1, 0)])

    def fixed_dim(self, h: int) -> int:
        """Dimension of the C_{2^h}-fixed subspace."""
        if not 0 <= h <= self.n:
            raise ValueError(f"level {h} outside 0..{self.n}")
        dim = self.d
        if h <= self.n - 1:
            dim += self.s
        dim += 2 * sum(ck for k, ck in enumerate(self.c) if h <= k)
        return dim

    def fixed_sign(self, h: int) -> int:
        """Degree (+1 or -1) of the Weyl generator on the C_{2^h}-fixed sphere."""
        if not 0 <= h <= self.n:
            raise ValueError(f"level {h} outside 0..{self.n}")
        if h <= self.n - 1 and self.s % 2 != 0:
            return -1
        return 1

    def __str__(self) -> str:
        terms: list[tuple[int, str]] = []
        if self.d != 0:
            terms.append((self.d, ""))
        if self.s != 0:
            terms.append((self.s, "sigma"))
        for k, ck in enumerate(self.c):
            if ck != 0:
                terms.append((ck, f"l{k}"))
        if not terms:
            return "0"
        parts: list[str] = []
        for pos, (coeff, name) in enumerate(terms):
            mag = abs(coeff)
            body = str(mag) if not name else f"{mag}*{name}"
            if pos == 0:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)


def _rotation(n: int, s: int, m: int) -> VirtualRep:
    """The rotation lambda(s, m) in the reduced basis.

    m must be a power of two dividing 2^n and s odd with s*m < 2^n; the
    full turn lambda(1, 2^n) is accepted too.  lambda(s, 2^k) reduces to
    l_k for k <= n-2, to 2*sigma at k = n-1 and to 2 trivial at k = n.
    """
    if n < 1:
        raise ValueError("lam(s, m) needs n >= 1")
    if m < 1 or m & (m - 1) or m > 2 ** n:
        raise ValueError(f"lambda({s},{m}): m must be a power of two dividing 2^{n}")
    if s < 1 or s % 2 == 0:
        raise ValueError(f"lambda({s},{m}): s must be odd and >= 1")
    if s * m >= 2 ** n and not (s == 1 and m == 2 ** n):
        raise ValueError(f"lambda({s},{m}): need s < 2^{n}/m")
    k = m.bit_length() - 1
    if k <= n - 2:
        return VirtualRep.lam(n, k)
    return 2 * (VirtualRep.sigma(n) if k == n - 1 else VirtualRep.one(n))


class DegreeSyntaxError(ValueError):
    """A degree expression failed to parse; carries line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# One token per match, after any whitespace: an ASCII integer (\d and
# str.isdecimal also take other scripts' digits), a name, a punctuation
# mark, any other character, or the end of the text.  The skipped
# whitespace is followed by a character one alternative takes or by the
# end, so no match backtracks into it.
_TOKEN = re.compile(r"\s*(?:([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*(),])|(\S)|(\Z))")
_KINDS = (None, "int", "name", None, "name", "end")


def _position(text: str, offset: int) -> tuple[int, int]:
    """The line and column, both from 1, of a character offset."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, lexeme, offset) tokens of text, ending with an "end"
    token.  A punctuation mark is its own kind; a character outside the
    grammar is a one-letter name when it is a letter, else an error."""
    tokens = []
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        lexeme = match[group]
        if group == 4 and not lexeme.isalpha():
            raise DegreeSyntaxError(f"unexpected character {lexeme!r}",
                                    *_position(text, match.start(group)))
        tokens.append((_KINDS[group] or lexeme, lexeme, match.start(group)))
    return tokens


class _DegreeParser:
    """Recursive-descent parser for the degree grammar.

    expr := ['-'] term (('+'|'-') term)*
    term := INT ['*' atom] | atom
    atom := 'sigma' | 'l'<k> | 'lam' '(' INT ',' INT ')'

    Terms add into one list of coordinates (d, s, c_0..c_{n-2}), and the
    ``VirtualRep`` is built once, from that list, at the end.
    """

    def __init__(self, text: str, n: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n = n

    def error(self, message: str, offset: int) -> DegreeSyntaxError:
        return DegreeSyntaxError(message, *_position(self.text, offset))

    def fail(self, message: str) -> DegreeSyntaxError:
        return self.error(message, self.tokens[self.pos][2])

    def number(self, digits: str, offset: int) -> int:
        try:
            return int(digits)
        except ValueError as exc:  # beyond the interpreter's digit limit
            raise self.error(f"integer literal of {len(digits)} digits is too long",
                             offset) from exc

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise self.fail(f"expected {kind!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def parse(self) -> VirtualRep:
        n = self.n
        if n < 0:  # after any character error, before any grammar error
            raise ValueError("group exponent n must be >= 0")
        coords = [0] * max(n + 1, 2)
        sign = 1
        if self.tokens[0][0] == "-":
            self.pos = 1
            sign = -1
        self.term(sign, coords)
        kind, lexeme, _ = self.tokens[self.pos]
        while kind in ("+", "-"):
            self.pos += 1
            self.term(1 if kind == "+" else -1, coords)
            kind, lexeme, _ = self.tokens[self.pos]
        if kind != "end":
            raise self.fail(f"unexpected trailing {lexeme!r}")
        return VirtualRep(n, coords[0], coords[1], tuple(coords[2:]))

    def term(self, coeff: int, coords: list[int]) -> None:
        """Add coeff times the next term into coords."""
        kind, lexeme, offset = self.tokens[self.pos]
        if kind == "int":
            self.pos += 1
            coeff *= self.number(lexeme, offset)
            if self.tokens[self.pos][0] != "*":
                coords[0] += coeff
                return
            self.pos += 1
            kind, lexeme, offset = self.tokens[self.pos]
        if kind != "name":
            raise self.fail(f"expected a representation name, found {lexeme!r}")
        self.pos += 1
        n = self.n
        if lexeme == "sigma":
            if n < 1:
                raise self.error("sigma needs n >= 1", offset)
            coords[1] += coeff
        elif lexeme == "lam":
            self.expect("(")
            s = self.number(*self.expect("int")[1:])
            self.expect(",")
            m = self.number(*self.expect("int")[1:])
            self.expect(")")
            try:
                rotation = _rotation(n, s, m)
            except ValueError as exc:
                raise self.error(str(exc), offset) from exc
            coords[0] += coeff * rotation.d
            coords[1] += coeff * rotation.s
            for k, ck in enumerate(rotation.c):
                if ck:
                    coords[k + 2] += coeff * ck
        elif lexeme[0] == "l" and lexeme[1:].isdigit():  # names are ASCII past one letter
            k = self.number(lexeme[1:], offset)
            if k > n - 2:
                raise self.error(f"l{k} needs n >= {k + 2}", offset)
            coords[k + 2] += coeff
        else:
            raise self.error(f"unknown representation name {lexeme!r}", offset)


def parse_degree(text: str, n: int) -> VirtualRep:
    """Parse a degree expression such as ``1 - 1*sigma + 2*l0`` for C_{2^n}."""
    return _DegreeParser(text, n).parse()
