"""Exact arithmetic in the rational Burnside rings of cyclic 2-groups.

For a subgroup level i inside an ambient group C_{2^n}, the ring
A_Q(C_{2^i}) has Q-basis the orbit classes x[i,j] = [C_{2^i}/C_{2^j}]
for 0 <= j <= i, where the unit 1 = x[i,i], and the single family of
relations

    x[i,j] * x[i,k] = 2^(i - max(j,k)) * x[i, min(j,k)].

The marks homomorphism sends a virtual set to its fixed-point counts
over the levels h = 0..i; it is an injective ring map, which makes it
the natural definition for everything not determined by the relations:
restriction is truncation of marks, and the primitive idempotents e_h
are the pullbacks of the indicator vectors.  Transfers act on the basis
by tr(x[i,j]) = x[i+1,j], so tr(1) = x[i+1,i].

Products, marks and their inverse run on integer numerators over one
common denominator, with one Fraction per output coefficient: a product
applies the relations to the numerators, marks are their suffix sum,
and from_marks takes first differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Sequence

from .series import _ZERO, _exact, _numerators


@dataclass(frozen=True)
class BurnsideElement:
    """An element of A_Q(C_{2^i}) at the subgroup C_{2^i} of the ambient
    group C_{2^n}; coeffs[0] multiplies 1, coeffs[1+j] multiplies x[i,j]."""

    n: int
    i: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if type(self.n) is not int or type(self.i) is not int:
            raise ValueError("ambient exponent n and level i must be integers")
        if self.n < 1:
            raise ValueError("ambient exponent n must be >= 1")
        if not 0 <= self.i <= self.n:
            raise ValueError(f"level {self.i} outside 0..{self.n}")
        cs = tuple(_exact(q, "coefficients") for q in self.coeffs)
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
        q = _exact(q, "scale factor")
        return BurnsideElement(self.n, self.i, tuple(q * a for a in self.coeffs))

    def __mul__(self, other: "BurnsideElement") -> "BurnsideElement":
        """The product by the relations, on the integer numerators of both
        factors over the product of their denominators."""
        self._assert_same(other)
        i = self.i
        orbit = [i, *range(i)]  # coefficient slot -> j of its x[i,j]; the unit is x[i,i]
        da, a = _numerators(self.coeffs)
        db, b = _numerators(other.coeffs)
        out = [0] * (i + 1)
        for a_idx, p in enumerate(a):
            if not p:
                continue
            j = orbit[a_idx]
            for b_idx, q in enumerate(b):
                if not q:
                    continue
                k = orbit[b_idx]
                out[a_idx if j <= k else b_idx] += p * q << (i - max(j, k))
        den = da * db
        return BurnsideElement(self.n, i, tuple(Fraction(c, den) if c else _ZERO for c in out))

    def marks(self) -> tuple[Fraction, ...]:
        """Fixed-point counts over the levels h = 0..i.

        The unit has one fixed point everywhere; x[i,j] has 2^(i-j)
        fixed points at levels h <= j and none above.  So the marks are
        one suffix sum: marks[i] = coeffs[0] and
        marks[h] = marks[h+1] + coeffs[1+h] * 2^(i-h).
        """
        i = self.i
        den, cs = _numerators(self.coeffs)
        out = [cs[0]] * (i + 1)
        for h in range(i - 1, -1, -1):
            out[h] = out[h + 1] + (cs[1 + h] << (i - h))
        return tuple(Fraction(m, den) if m else _ZERO for m in out)

    def res(self, i2: int) -> "BurnsideElement":
        """Restriction to level i2 <= i, defined by truncating marks."""
        if not 0 <= i2 <= self.i:
            raise ValueError(f"cannot restrict level {self.i} to {i2}")
        return from_marks(self.n, i2, self.marks()[: i2 + 1])

    def tr(self) -> "BurnsideElement":
        """Transfer one level up: tr(1) = x[i+1,i], tr(x[i,j]) = x[i+1,j]."""
        if self.i >= self.n:
            raise ValueError("cannot transfer above the ambient group")
        cs = self.coeffs
        return BurnsideElement(self.n, self.i + 1, (0, *cs[1:], cs[0]))

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

    Telescoping the suffix sum of ``marks``: only the unit has a fixed
    point at level i, and x[i,h] alone makes the marks step between
    levels h+1 and h, by 2^(i-h) per copy.  So the coefficients are the
    first differences coeffs[0] = marks[i] and
    coeffs[1+h] = (marks[h] - marks[h+1]) / 2^(i-h).
    """
    if len(marks) != i + 1:
        raise ValueError(f"expected {i + 1} marks at level {i}")
    den, ms = _numerators([q if type(q) is int else _exact(q, "marks") for q in marks])
    out = [Fraction(ms[i], den) if ms[i] else _ZERO]
    for h in range(i):
        step = ms[h] - ms[h + 1]
        out.append(Fraction(step, den << (i - h)) if step else _ZERO)
    return BurnsideElement(n, i, tuple(out))


def transferred_tops(n: int, level: int,
                     lines: Sequence[tuple[int, Fraction | int]]) -> BurnsideElement:
    """The sum of q * tr^(level-i)(e_i) over the pairs (i, q) in lines,
    where e_i is the top idempotent of level i <= level.

    In closed form tr^(L-i)(e_i) = x[L,i] - x[L,i-1]/2 for i < L (just
    x[L,0] for i = 0), and e_L = y_L = 1 - x[L,L-1]/2 (just 1 for L = 0).
    The sum is taken on integer numerators over twice a common
    denominator of the q."""
    den, nums = _numerators([_exact(q, "line coefficients") for _, q in lines])
    out = [0] * (level + 1)
    for (i, _), q in zip(lines, nums):
        if not 0 <= i <= level:
            raise ValueError(f"line {i} outside 0..{level}")
        out[0 if i == level else 1 + i] += 2 * q  # slot of x[L,i]; x[L,L] is the unit
        if i:
            out[i] -= q  # slot of x[L,i-1]
    return BurnsideElement(n, level, tuple(Fraction(c, 2 * den) for c in out))


def idempotents(n: int, i: int) -> list[BurnsideElement]:
    """The primitive idempotents e_0..e_i of A_Q(C_{2^i}), with
    marks(e_h) the indicator vector of level h."""
    return [from_marks(n, i, [int(m == h) for m in range(i + 1)]) for h in range(i + 1)]
