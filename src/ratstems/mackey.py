"""Semisimple bookkeeping for rational Mackey functors over C_{2^n}.

Rationally, every Mackey functor for C_{2^n} splits as a direct sum of
simples M_i^+ (0 <= i <= n) and M_i^- (0 <= i < n), one for each pair
(subgroup level i, trivial-or-sign character of the Weyl group at that
level).  A ``MackeyClass`` records the multiset of simple summands of
such a splitting.  The box product is levelwise with multiplied signs,

    M_i^a box M_j^b = 0 for i != j,      M_i^a box M_i^b = M_i^(ab),

every simple is self-dual, and the class of the Burnside functor
(the unit) is the sum of all M_i^+.

``classify`` rebuilds a class from per-level eigenvalue data: at each
level h, the dimensions of the (+1)-eigenspace, the (-1)-eigenspace and
everything else under the Weyl generator.  Rational semisimplicity says
the third slot is always zero; a nonzero value is a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

PLUS = 1
MINUS = -1


class NonSignIsotypicError(ValueError):
    """Eigenvalue data contained a component on which the Weyl generator
    acts by neither +1 nor -1."""


def _sign_str(sign: int) -> str:
    return "-" if sign == MINUS else "+"


@dataclass(frozen=True)
class MackeyClass:
    """A finite multiset of simple summands M_i^(sign) over C_{2^n}.

    entries is a sorted tuple of (i, sign, mult) with mult > 0.
    """

    n: int
    entries: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("group exponent n must be >= 0")
        # entries strictly increasing in (i, sign) with mult > 0 are
        # already the normal form; the stem methods build them that way
        in_order = True
        prev = None
        for i, sign, mult in self.entries:
            if type(i) is not int or type(sign) is not int or type(mult) is not int:
                raise ValueError("levels, signs and multiplicities must be integers")
            if not 0 <= i <= self.n:
                raise ValueError(f"level {i} outside 0..{self.n}")
            if sign not in (PLUS, MINUS):
                raise ValueError("sign must be +1 or -1")
            if sign == MINUS and i == self.n:
                raise ValueError("the top level has trivial Weyl group: no sign summand")
            if mult < 0:
                raise ValueError("multiplicities must be >= 0")
            if in_order and (mult == 0 or (prev is not None and prev >= (i, sign))):
                in_order = False
            prev = (i, sign)
        if in_order:
            return
        merged: dict[tuple[int, int], int] = {}
        for i, sign, mult in self.entries:
            if mult:
                merged[(i, sign)] = merged.get((i, sign), 0) + mult
        normal = tuple(sorted((i, sign, mult) for (i, sign), mult in merged.items()
                              if mult > 0))
        object.__setattr__(self, "entries", normal)

    @classmethod
    def zero(cls, n: int) -> "MackeyClass":
        return cls(n)

    @classmethod
    def simple(cls, n: int, i: int, sign: int = PLUS, mult: int = 1) -> "MackeyClass":
        return cls(n, ((i, sign, mult),))

    @classmethod
    def burnside_class(cls, n: int) -> "MackeyClass":
        """The class of the Burnside functor: one M_i^+ for each level."""
        return cls(n, tuple((i, PLUS, 1) for i in range(n + 1)))

    def mult(self, i: int, sign: int) -> int:
        for j, sgn, m in self.entries:
            if (j, sgn) == (i, sign):
                return m
        return 0

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "MackeyClass") -> "MackeyClass":
        if other.n != self.n:
            raise ValueError("ambient group exponents differ")
        return MackeyClass(self.n, self.entries + other.entries)

    def box(self, other: "MackeyClass") -> "MackeyClass":
        """Box product: levelwise, signs multiply, cross terms vanish."""
        if other.n != self.n:
            raise ValueError("ambient group exponents differ")
        out: list[tuple[int, int, int]] = []
        for i, s1, m1 in self.entries:
            for j, s2, m2 in other.entries:
                if i == j:
                    out.append((i, s1 * s2, m1 * m2))
        return MackeyClass(self.n, tuple(out))

    def level_dim(self, h: int) -> int:
        """Dimension of the value at the orbit G/C_{2^h}.

        M_i^+ contributes 1 at levels h >= i; M_i^- contributes 1 at
        levels i <= h <= n-1 and vanishes at the top.
        """
        if not 0 <= h <= self.n:
            raise ValueError(f"level {h} outside 0..{self.n}")
        dim = 0
        for i, sign, mult in self.entries:
            if h < i:
                continue
            if sign == MINUS and h == self.n:
                continue
            dim += mult
        return dim

    def level_dims(self) -> tuple[int, ...]:
        return tuple(self.level_dim(h) for h in range(self.n + 1))

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        parts = []
        for i, sign, mult in self.entries:
            name = f"M{i}" + ("-" if sign == MINUS else "")
            parts.append(name if mult == 1 else f"{mult}*{name}")
        return " + ".join(parts)

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "entries": [{"i": i, "sign": _sign_str(sign), "mult": mult}
                        for i, sign, mult in self.entries],
        }


def classify(n: int, eigendata: Sequence[tuple[int, int, int]]) -> MackeyClass:
    """Assemble a MackeyClass from per-level Weyl eigenvalue dimensions.

    eigendata[h] = (plus, minus, other) describes the level-h Weyl
    module.  Any nonzero ``other`` slot is a hard error (rationally no
    such module exists); a nonzero minus slot at the top level is a
    usage error since the Weyl group there is trivial.
    """
    if len(eigendata) != n + 1:
        raise ValueError(f"expected eigendata for levels 0..{n}")
    entries: list[tuple[int, int, int]] = []
    for h, (plus, minus, other) in enumerate(eigendata):
        if plus < 0 or minus < 0 or other < 0:
            raise ValueError("eigenvalue dimensions must be >= 0")
        if other != 0:
            raise NonSignIsotypicError(
                f"non-sign-isotypic Weyl module encountered at level {h}")
        if minus != 0 and h == n:
            raise ValueError("the top level has trivial Weyl group: minus slot must be 0")
        if plus:
            entries.append((h, PLUS, plus))
        if minus:
            entries.append((h, MINUS, minus))
    return MackeyClass(n, tuple(entries))


@dataclass(frozen=True)
class GradedTable:
    """A finitely supported table of MackeyClasses over integer degrees."""

    n: int
    entries: tuple[tuple[int, MackeyClass], ...] = ()

    def __post_init__(self) -> None:
        merged: dict[int, MackeyClass] = {}
        for degree, cls in self.entries:
            if cls.n != self.n:
                raise ValueError("class and table ambient exponents differ")
            merged[degree] = merged.get(degree, MackeyClass.zero(self.n)) + cls
        normal = tuple(sorted((d, c) for d, c in merged.items() if not c.is_zero()))
        object.__setattr__(self, "entries", normal)

    @classmethod
    def from_dict(cls, n: int, classes: Mapping[int, MackeyClass]) -> "GradedTable":
        return cls(n, tuple(classes.items()))

    @cached_property
    def _by_degree(self) -> dict[int, MackeyClass]:
        return dict(self.entries)

    def get(self, degree: int) -> MackeyClass:
        cls = self._by_degree.get(degree)
        return cls if cls is not None else MackeyClass.zero(self.n)

    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.entries)

    def box(self, other: "GradedTable") -> "GradedTable":
        """Degreewise box product (Kunneth rule for smash products)."""
        if other.n != self.n:
            raise ValueError("ambient group exponents differ")
        out: list[tuple[int, MackeyClass]] = []
        for d1, c1 in self.entries:
            for d2, c2 in other.entries:
                prod = c1.box(c2)
                if not prod.is_zero():
                    out.append((d1 + d2, prod))
        return GradedTable(self.n, tuple(out))

    def shift(self, d: int) -> "GradedTable":
        return GradedTable(self.n, tuple((deg + d, c) for deg, c in self.entries))

    def dual(self) -> "GradedTable":
        """Degrees negate; classes are self-dual."""
        return GradedTable(self.n, tuple((-deg, c) for deg, c in self.entries))

    def poincare(self, h: int, bound: int):
        """Poincare series of the level-h values; needs degrees >= 0."""
        from .series import TruncatedSeries

        if self.entries and self.entries[0][0] < 0:
            raise ValueError("table has negative degrees; no Poincare series")
        cs = [0] * (bound + 1)
        for d, c in self.entries:
            if d <= bound:
                cs[d] = c.level_dim(h)
        return TruncatedSeries(bound, cs)
