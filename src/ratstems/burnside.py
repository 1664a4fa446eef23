"""Exact arithmetic in the rational Burnside rings of cyclic 2-groups.

For a subgroup level i inside an ambient group C_{2^n}, the ring
A_Q(C_{2^i}) has Q-basis the unit 1 = [C_{2^i}/C_{2^i}] together with
the orbit classes x[i,j] = [C_{2^i}/C_{2^j}] for 0 <= j < i, and the
single family of relations

    x[i,j] * x[i,k] = 2^(i - max(j,k)) * x[i, min(j,k)].

The marks homomorphism sends a virtual set to its fixed-point counts
over the levels h = 0..i; it is an injective ring map, which makes it
the natural definition for everything not determined by the relations:
restriction is truncation of marks, and the primitive idempotents e_h
are the pullbacks of the indicator vectors.  Transfers act on the basis
by tr(x[i,j]) = x[i+1,j] and tr(1) = x[i+1,i].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Sequence


@dataclass(frozen=True)
class BurnsideElement:
    """An element of A_Q(C_{2^i}) at the subgroup C_{2^i} of the ambient
    group C_{2^n}; coeffs[0] multiplies 1, coeffs[1+j] multiplies x[i,j]."""

    n: int
    i: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("ambient exponent n must be >= 1")
        if not 0 <= self.i <= self.n:
            raise ValueError(f"level {self.i} outside 0..{self.n}")
        cs = tuple(Fraction(q) for q in self.coeffs)
        if len(cs) != self.i + 1:
            raise ValueError(f"expected {self.i + 1} coefficients at level {self.i}")
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def zero(cls, n: int, i: int) -> "BurnsideElement":
        return cls(n, i, (Fraction(0),) * (i + 1))

    @classmethod
    def one(cls, n: int, i: int) -> "BurnsideElement":
        return cls(n, i, (Fraction(1),) + (Fraction(0),) * i)

    @classmethod
    def x(cls, n: int, i: int, j: int) -> "BurnsideElement":
        if not 0 <= j < i:
            raise ValueError(f"x[{i},{j}] needs 0 <= j < i")
        cs = [Fraction(0)] * (i + 1)
        cs[1 + j] = Fraction(1)
        return cls(n, i, tuple(cs))

    @classmethod
    def y(cls, n: int, i: int) -> "BurnsideElement":
        """The idempotent y_i = 1 - x[i,i-1]/2 (y_0 = 1), the projector
        onto the part not induced from the index-two subgroup."""
        if i == 0:
            return cls.one(n, 0)
        return cls.one(n, i) - cls.x(n, i, i - 1).scale(Fraction(1, 2))

    def _assert_same(self, other: "BurnsideElement") -> None:
        if not isinstance(other, BurnsideElement):
            raise TypeError("expected a BurnsideElement")
        if (other.n, other.i) != (self.n, self.i):
            raise ValueError("elements live at different levels")

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        self._assert_same(other)
        return BurnsideElement(self.n, self.i, tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        self._assert_same(other)
        return BurnsideElement(self.n, self.i, tuple(map(sub, self.coeffs, other.coeffs)))

    def scale(self, q: Fraction | int) -> "BurnsideElement":
        q = Fraction(q)
        return BurnsideElement(self.n, self.i, tuple(q * a for a in self.coeffs))

    def __mul__(self, other: "BurnsideElement") -> "BurnsideElement":
        self._assert_same(other)
        i = self.i
        out = [Fraction(0)] * (i + 1)
        for a_idx, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for b_idx, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                q = a * b
                if a_idx == 0:
                    out[b_idx] += q
                elif b_idx == 0:
                    out[a_idx] += q
                else:
                    j, k = a_idx - 1, b_idx - 1
                    out[1 + min(j, k)] += q * 2 ** (i - max(j, k))
        return BurnsideElement(self.n, self.i, tuple(out))

    def marks(self) -> tuple[Fraction, ...]:
        """Fixed-point counts over the levels h = 0..i.

        The unit has one fixed point everywhere; x[i,j] has 2^(i-j)
        fixed points at levels h <= j and none above.
        """
        i = self.i
        out = []
        for h in range(i + 1):
            m = self.coeffs[0]
            for j in range(h, i):
                m += self.coeffs[1 + j] * 2 ** (i - j)
            out.append(m)
        return tuple(out)

    def res(self, i2: int) -> "BurnsideElement":
        """Restriction to level i2 <= i, defined by truncating marks."""
        if not 0 <= i2 <= self.i:
            raise ValueError(f"cannot restrict level {self.i} to {i2}")
        return from_marks(self.n, i2, self.marks()[: i2 + 1])

    def tr(self) -> "BurnsideElement":
        """Transfer one level up: tr(1) = x[i+1,i], tr(x[i,j]) = x[i+1,j]."""
        i = self.i
        if i >= self.n:
            raise ValueError("cannot transfer above the ambient group")
        out = [Fraction(0)] * (i + 2)
        out[1 + i] = self.coeffs[0]
        for j in range(i):
            out[1 + j] += self.coeffs[1 + j]
        return BurnsideElement(self.n, i + 1, tuple(out))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def __str__(self) -> str:
        i = self.i
        parts = []
        if self.coeffs[0] != 0:
            parts.append(f"{self.coeffs[0]}*1")
        for j in range(i):
            q = self.coeffs[1 + j]
            if q != 0:
                parts.append(f"{q}*x[{i},{j}]")
        return " + ".join(parts) if parts else "0"

    def to_record(self) -> dict:
        return {
            "level": {"n": self.n, "i": self.i},
            "coeffs": [str(q) for q in self.coeffs],
        }


def from_marks(n: int, i: int, marks: Sequence[Fraction | int]) -> BurnsideElement:
    """Invert the marks homomorphism at level i.

    The system is triangular: only the unit has a fixed point at level
    i, and only {1, x[i,j] : j >= h} contribute at level h, so the
    coefficients come out by back-substitution.
    """
    if len(marks) != i + 1:
        raise ValueError(f"expected {i + 1} marks at level {i}")
    marks = [Fraction(q) for q in marks]
    coeffs = [Fraction(0)] * (i + 1)
    coeffs[0] = marks[i]
    for h in range(i - 1, -1, -1):
        acc = marks[h] - coeffs[0]
        for j in range(h + 1, i):
            acc -= coeffs[1 + j] * 2 ** (i - j)
        coeffs[1 + h] = acc / 2 ** (i - h)
    return BurnsideElement(n, i, tuple(coeffs))


def idempotents(n: int, i: int) -> list[BurnsideElement]:
    """The primitive idempotents e_0..e_i of A_Q(C_{2^i}), with
    marks(e_h) the indicator vector of level h."""
    out = []
    for h in range(i + 1):
        indicator = [Fraction(1) if m == h else Fraction(0) for m in range(i + 1)]
        out.append(from_marks(n, i, indicator))
    return out
