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

from functools import lru_cache
from itertools import accumulate

from .series import Frozen, TruncatedSeries

PLUS = 1
MINUS = -1


class NonSignIsotypicError(ValueError):
    """Eigenvalue data contained a component on which the Weyl generator
    acts by neither +1 nor -1."""


def _sign_str(sign: int) -> str:
    return "-" if sign == MINUS else "+"


def _same_group(self, other) -> None:
    """Refuse an operand of another type or over another group."""
    if not isinstance(other, type(self)):
        raise TypeError(f"expected a {type(self).__name__}")
    if other.n != self.n:
        raise ValueError("ambient group exponents differ")


class MackeyClass(Frozen):
    """A finite multiset of simple summands M_i^(sign) over C_{2^n}.

    entries is a sorted tuple of (i, sign, mult) with mult > 0.
    """

    n: int
    entries: tuple[tuple[int, int, int], ...]

    def __init__(self, n: int, entries: tuple[tuple[int, int, int], ...] = ()) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)
        self.__post_init__()

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

    def __eq__(self, other: object) -> bool:
        # the stem methods and the box hand out shared instances, so
        # identity answers most comparisons; no key tuples are built
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries and self.n == other.n

    # defining __eq__ sets __hash__ to None in this class body
    __hash__ = Frozen.__hash__

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
        _same_group(self, other)
        return MackeyClass(self.n, self.entries + other.entries)

    def box(self, other: "MackeyClass") -> "MackeyClass":
        """Box product: levelwise, signs multiply, cross terms vanish."""
        _same_group(self, other)
        out: list[tuple[int, int, int]] = []
        for i, s1, m1 in self.entries:
            for j, s2, m2 in other.entries:
                if i == j:
                    out.append((i, s1 * s2, m1 * m2))
        return MackeyClass(self.n, tuple(out))

    def level_dim(self, h: int) -> int:
        """Dimension of the value at the orbit G/C_{2^h}."""
        if not 0 <= h <= self.n:
            raise ValueError(f"level {h} outside 0..{self.n}")
        return self.level_dims()[h]

    def level_dims(self) -> tuple[int, ...]:
        """All n+1 level dimensions in one cumulative pass: M_i^+ adds 1
        from level i upward, M_i^- from level i up to n-1."""
        steps = [0] * (self.n + 1)
        for i, sign, mult in self.entries:
            steps[i] += mult
            if sign == MINUS:
                steps[self.n] -= mult
        return tuple(accumulate(steps))

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


# The MackeyClass constructor behind a bounded cache, for the classes that
# GradedTable.box and the one-factor sphere tables build: they repeat a few
# dozen distinct classes.  An invalid entry tuple raises and is not cached.
_box_class = lru_cache(maxsize=1024)(MackeyClass)


class GradedTable(Frozen):
    """A finitely supported table of MackeyClasses over integer degrees."""

    n: int
    entries: tuple[tuple[int, MackeyClass], ...]

    def __init__(self, n: int, entries: tuple[tuple[int, MackeyClass], ...] = ()) -> None:
        # degrees strictly increasing with nonzero classes are already the
        # normal form; box, shift and the sphere tables skip this check
        # through _from_normal
        in_order = True
        prev = None
        for degree, cls in entries:
            if cls.n != n:
                raise ValueError("class and table ambient exponents differ")
            if in_order and (not cls.entries or (prev is not None and prev >= degree)):
                in_order = False
            prev = degree
        if not in_order:
            # a degree with one class keeps it; several become one class
            # built from their concatenated entries
            grouped: dict[int, list[MackeyClass]] = {}
            for degree, cls in entries:
                grouped.setdefault(degree, []).append(cls)
            normal = []
            for degree in sorted(grouped):
                classes = grouped[degree]
                cls = classes[0] if len(classes) == 1 else MackeyClass(
                    n, tuple(e for c in classes for e in c.entries))
                if cls.entries:
                    normal.append((degree, cls))
            entries = tuple(normal)
        self._fill(n, entries)

    def _fill(self, n: int, entries: tuple[tuple[int, MackeyClass], ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)
        # not fields: a table's identity is its entries
        object.__setattr__(self, "_by_degree", dict(entries))
        object.__setattr__(self, "_by_level", None)

    @classmethod
    def _from_normal(cls, n: int, entries: tuple[tuple[int, MackeyClass], ...]) -> "GradedTable":
        """The table of entries already in normal form, unchecked: degrees
        strictly increasing, each with a nonzero class over C_{2^n}."""
        table = cls.__new__(cls)
        table._fill(n, entries)
        return table

    @classmethod
    def from_dict(cls, n: int, classes: Mapping[int, MackeyClass]) -> "GradedTable":
        return cls(n, tuple(classes.items()))

    def get(self, degree: int) -> MackeyClass:
        cls = self._by_degree.get(degree)
        return cls if cls is not None else MackeyClass.zero(self.n)

    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.entries)

    def _level_index(self) -> dict[int, list[tuple[int, int, int]]]:
        """The entries grouped by level: level -> [(degree, sign, mult)],
        built on first use and kept on the table."""
        if self._by_level is None:
            by_level: dict[int, list[tuple[int, int, int]]] = {}
            for d, cls in self.entries:
                for j, sign, mult in cls.entries:
                    by_level.setdefault(j, []).append((d, sign, mult))
            object.__setattr__(self, "_by_level", by_level)
        return self._by_level

    def box(self, other: "GradedTable") -> "GradedTable":
        """Degreewise box product (Kunneth rule for smash products)."""
        _same_group(self, other)
        # M_i^a box M_j^b vanishes unless i == j, so each entry pairs only
        # with the other side's entries of its own level
        by_level = other._level_index()
        out: dict[int, list[tuple[int, int, int]]] = {}
        for d1, c1 in self.entries:
            for i, s1, m1 in c1.entries:
                for d2, s2, m2 in by_level.get(i, ()):
                    out.setdefault(d1 + d2, []).append((i, s1 * s2, m1 * m2))
        # degrees in order and each degree's entries sorted: the table is
        # built in normal form, and so is each class unless a summand repeats
        n = self.n
        return GradedTable._from_normal(n, tuple([(d, _box_class(n, tuple(sorted(summands))))
                                                  for d, summands in sorted(out.items())]))

    def shift(self, d: int) -> "GradedTable":
        return GradedTable._from_normal(self.n, tuple((deg + d, c) for deg, c in self.entries))

    def poincare(self, h: int, bound: int) -> TruncatedSeries:
        """Poincare series of the level-h values; needs degrees >= 0."""
        if self.entries and self.entries[0][0] < 0:
            raise ValueError("table has negative degrees; no Poincare series")
        cs = [0] * (bound + 1)
        for d, c in self.entries:
            if d <= bound:
                cs[d] = c.level_dim(h)
        return TruncatedSeries(bound, cs)
