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


# ASCII digits only: \d and str.isdecimal also take other scripts' digits
_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[-+*(),]|\s+|.")


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, col = 1, 1
    for match in _TOKEN.finditer(text):
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


class _DegreeParser:
    """Recursive-descent parser for the degree grammar.

    expr := ['-'] term (('+'|'-') term)*
    term := INT ['*' atom] | atom
    atom := 'sigma' | 'l'<k> | 'lam' '(' INT ',' INT ')'
    """

    def __init__(self, text: str, n: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n = n

    def peek(self) -> tuple[str, str, int, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> DegreeSyntaxError:
        _, _, line, col = self.peek()
        return DegreeSyntaxError(message, line, col)

    def number(self, digits: str, line: int, col: int) -> int:
        try:
            return int(digits)
        except ValueError as exc:  # beyond the interpreter's digit limit
            raise DegreeSyntaxError(f"integer literal of {len(digits)} digits is too long",
                                    line, col) from exc

    def expect(self, kind: str) -> tuple[str, str, int, int]:
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


def parse_degree(text: str, n: int) -> VirtualRep:
    """Parse a degree expression such as ``1 - 1*sigma + 2*l0`` for C_{2^n}."""
    return _DegreeParser(text, n).parse()
