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

An element is stored in the reduced-numerator form that
``series.Numerators`` owns: integer numerators ``nums`` over one
positive denominator ``den``, so equality and hashing compare integers.
Sums, scalings, products, marks, restrictions, transfers and their
inverse all run on those integers: a product applies the relations to
the numerators, marks are their suffix sum, and from_marks takes first
differences.  ``fractions.Fraction`` appears only at the boundary: in
validating inputs and in the ``coeffs`` and ``marks`` views.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .series import _ZERO, Numerators, _exact_nums, _fraction_str


def _check_level(n: object, i: object) -> None:
    if type(n) is not int or type(i) is not int:
        raise ValueError("ambient exponent n and level i must be integers")
    if n < 1:
        raise ValueError("ambient exponent n must be >= 1")
    if not 0 <= i <= n:
        raise ValueError(f"level {i} outside 0..{n}")


class BurnsideElement(Numerators):
    """An element of A_Q(C_{2^i}) at the subgroup C_{2^i} of the ambient
    group C_{2^n}; coefficient 0 multiplies 1 and coefficient 1+j
    multiplies x[i,j].  Coefficient k is ``nums[k] / den``."""

    n: int
    i: int
    den: int
    nums: tuple[int, ...]

    def __init__(self, n: int, i: int, coeffs: Iterable[Fraction | int]):
        _check_level(n, i)
        den, nums = _exact_nums(coeffs, "coefficients")
        if len(nums) != i + 1:
            raise ValueError(f"expected {i + 1} coefficients at level {i}")
        self._fill((n, i), den, tuple(nums))

    def _place(self) -> tuple:
        return (self.n, self.i)

    @classmethod
    def zero(cls, n: int, i: int) -> "BurnsideElement":
        return cls(n, i, (0,) * (i + 1))

    @classmethod
    def one(cls, n: int, i: int) -> "BurnsideElement":
        return cls(n, i, (1,) + (0,) * i)

    @classmethod
    def x(cls, n: int, i: int, j: int) -> "BurnsideElement":
        if not 0 <= j < i:
            raise ValueError(f"x[{i},{j}] needs 0 <= j < i")
        cs = [0] * (i + 1)
        cs[1 + j] = 1
        return cls(n, i, cs)

    @classmethod
    def y(cls, n: int, i: int) -> "BurnsideElement":
        """The idempotent y_i = 1 - x[i,i-1]/2 (y_0 = 1), the projector
        onto the part not induced from the index-two subgroup."""
        if i == 0:
            return cls.one(n, 0)
        return cls.one(n, i) - cls.x(n, i, i - 1).scale(Fraction(1, 2))

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        self._same(other)
        return self + other.scale(-1)

    def __mul__(self, other: "BurnsideElement") -> "BurnsideElement":
        """The product by the relations, on the integer numerators of both
        factors over the product of their denominators."""
        place = self._same(other)
        i = self.i
        orbit = [i, *range(i)]  # coefficient slot -> j of its x[i,j]; the unit is x[i,i]
        b = other.nums
        out = [0] * (i + 1)
        for a_idx, p in enumerate(self.nums):
            if not p:
                continue
            j = orbit[a_idx]
            for b_idx, q in enumerate(b):
                if not q:
                    continue
                k = orbit[b_idx]
                out[a_idx if j <= k else b_idx] += p * q << (i - max(j, k))
        return BurnsideElement._reduced(place, self.den * other.den, out)

    def _mark_nums(self) -> list[int]:
        """The numerators of the marks over ``den``.

        The unit has one fixed point everywhere; x[i,j] has 2^(i-j)
        fixed points at levels h <= j and none above.  So the marks are
        one suffix sum: marks[i] = coeffs[0] and
        marks[h] = marks[h+1] + coeffs[1+h] * 2^(i-h).
        """
        i, cs = self.i, self.nums
        out = [cs[0]] * (i + 1)
        for h in range(i - 1, -1, -1):
            out[h] = out[h + 1] + (cs[1 + h] << (i - h))
        return out

    def marks(self) -> tuple[Fraction, ...]:
        """Fixed-point counts over the levels h = 0..i."""
        den = self.den
        return tuple(Fraction(m, den) if m else _ZERO for m in self._mark_nums())

    def res(self, i2: int) -> "BurnsideElement":
        """Restriction to level i2 <= i, defined by truncating marks."""
        if not 0 <= i2 <= self.i:
            raise ValueError(f"cannot restrict level {self.i} to {i2}")
        return _from_mark_nums(self.n, i2, self.den, self._mark_nums()[: i2 + 1])

    def tr(self) -> "BurnsideElement":
        """Transfer one level up: tr(1) = x[i+1,i], tr(x[i,j]) = x[i+1,j]."""
        if self.i >= self.n:
            raise ValueError("cannot transfer above the ambient group")
        cs = self.nums
        return BurnsideElement._reduced((self.n, self.i + 1), self.den, (0, *cs[1:], cs[0]))

    def __str__(self) -> str:
        i, den, cs = self.i, self.den, self.nums
        parts = []
        if cs[0]:
            parts.append(f"{_fraction_str(cs[0], den)}*1")
        for j in range(i):
            if cs[1 + j]:
                parts.append(f"{_fraction_str(cs[1 + j], den)}*x[{i},{j}]")
        return " + ".join(parts) if parts else "0"

    def to_record(self) -> dict:
        den = self.den
        return {
            "level": {"n": self.n, "i": self.i},
            "coeffs": [_fraction_str(a, den) for a in self.nums],
        }


def from_marks(n: int, i: int, marks: Sequence[Fraction | int]) -> BurnsideElement:
    """Invert the marks homomorphism at level i.

    Telescoping the suffix sum of ``marks``: only the unit has a fixed
    point at level i, and x[i,h] alone makes the marks step between
    levels h+1 and h, by 2^(i-h) per copy.  So the coefficients are the
    first differences coeffs[0] = marks[i] and
    coeffs[1+h] = (marks[h] - marks[h+1]) / 2^(i-h).
    """
    _check_level(n, i)
    if len(marks) != i + 1:
        raise ValueError(f"expected {i + 1} marks at level {i}")
    den, ms = _exact_nums(marks, "marks")
    return _from_mark_nums(n, i, den, ms)


def _from_mark_nums(n: int, i: int, den: int, ms: Sequence[int]) -> BurnsideElement:
    """from_marks on the numerators ms of the marks over den: the first
    differences over den * 2^i, where step h carries 2^h."""
    out = [ms[i] << i]
    out += [(ms[h] - ms[h + 1]) << h for h in range(i)]
    return BurnsideElement._reduced((n, i), den << i, out)


def transferred_tops(n: int, level: int,
                     lines: Sequence[tuple[int, Fraction | int]]) -> BurnsideElement:
    """The sum of q * tr^(level-i)(e_i) over the pairs (i, q) in lines,
    where e_i is the top idempotent of level i <= level.

    In closed form tr^(L-i)(e_i) = x[L,i] - x[L,i-1]/2 for i < L (just
    x[L,0] for i = 0), and e_L = y_L = 1 - x[L,L-1]/2 (just 1 for L = 0)."""
    den, nums = _exact_nums((q for _, q in lines), "line coefficients")
    _check_level(n, level)
    return _transferred_tops(n, level, den, [(i, q) for (i, _), q in zip(lines, nums)])


def _transferred_tops(n: int, level: int, den: int,
                      lines: Iterable[tuple[int, int]]) -> BurnsideElement:
    """transferred_tops on the numerators of the q over den, summed over
    twice that denominator."""
    out = [0] * (level + 1)
    for i, q in lines:
        if not 0 <= i <= level:
            raise ValueError(f"line {i} outside 0..{level}")
        out[0 if i == level else 1 + i] += 2 * q  # slot of x[L,i]; x[L,L] is the unit
        if i:
            out[i] -= q  # slot of x[L,i-1]
    return BurnsideElement._reduced((n, level), 2 * den, out)


def idempotents(n: int, i: int) -> list[BurnsideElement]:
    """The primitive idempotents e_0..e_i of A_Q(C_{2^i}), with
    marks(e_h) the indicator vector of level h."""
    return [from_marks(n, i, [int(m == h) for m in range(i + 1)]) for h in range(i + 1)]
