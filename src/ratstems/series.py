"""Truncated power series with exact rational coefficients.

Every series carries a fixed truncation bound; coefficients above the
bound are discarded by all operations.  A series is stored as integer
numerators ``nums`` over one positive denominator ``den``, reduced so
that ``gcd(den, *nums) == 1`` (the zero series has ``den == 1``); that
form is unique, so two series are equal exactly when they have the same
bound, denominator and numerators.  Sums, scalings, products,
truncations and substitutions all run on those integers, and
``fractions.Fraction`` appears only when ``coeffs`` or ``coeff`` reads a
coefficient, so identities such as ``(1 - t^2) * 1/(1 - t^2) == 1`` hold
exactly inside the window.

``Numerators`` is the one owner of that reduced-numerator form:
reduction, the type-and-place check, sums, scalings and the ``Fraction``
view.  Series, Burnside elements (``burnside``) and sector elements
(``stems``) are built on it.

``Frozen`` is the one base of the package's value classes: fields from
the class's own annotations, compared, hashed and printed by value, and
never reassigned.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd, lcm
from operator import attrgetter


_ZERO = Fraction(0)


def _exact(q: object, what: str) -> Fraction:
    """q as a Fraction; int (bool excluded) and Fraction are the only exact inputs."""
    if type(q) is Fraction:
        return q
    if type(q) is int:
        return Fraction(q)
    raise ValueError(f"{what} must be int or Fraction, not {type(q).__name__}")


def _numerators(coeffs: Sequence[Fraction | int]) -> tuple[int, list[int]]:
    """A common denominator of the coefficients and their numerators over it.

    For reduced Fractions and ints this is the reduced form: the lcm of
    reduced denominators leaves no factor common to all numerators."""
    den = lcm(*(q.denominator for q in coeffs))
    return den, [q.numerator * (den // q.denominator) for q in coeffs]


def _exact_nums(qs: Iterable[Fraction | int], what: str) -> tuple[int, list[int]]:
    """The reduced (den, nums) of exact inputs; floats and bools are refused."""
    qs = list(qs)
    if set(map(type, qs)) - {int}:
        for q in qs:
            if type(q) is not Fraction and type(q) is not int:
                _exact(q, what)
        return _numerators(qs)
    return 1, qs


def _fraction_str(a: int, den: int) -> str:
    """a/den as str(Fraction(a, den)) prints it, without building the Fraction."""
    g = gcd(a, den)
    return str(a // g) if g == den else f"{a // g}/{den // g}"


class Frozen:
    """An immutable value whose fields are its class's own annotations, in
    order (two or more, so ``_values``, an attrgetter, reads a tuple): equal
    to a value of its class with an equal field tuple, hashed and shown as
    ``Name(field=value, ...)`` by it.  The generic ``__init__`` takes fields
    by position or keyword, with class-attribute defaults, then calls
    ``__post_init__``; assigning or deleting any attribute raises AttributeError."""

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        cls._values = attrgetter(*fields)

    def __init__(self, *args, **kwargs) -> None:
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)}")
        values = {**self._defaults, **dict(zip(fields, args))}
        for key, value in kwargs.items():
            if key not in fields or key in fields[:len(args)]:
                raise TypeError(f"{name} got an unknown or repeated field {key!r}")
            values[key] = value
        for key in fields:
            if key not in values:
                raise TypeError(f"{name} is missing field {key!r}")
            object.__setattr__(self, key, values[key])
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate or normalize the fields; nothing by default."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete {type(self).__name__}.{name}")

    __delattr__ = __setattr__


class Numerators(Frozen):
    """The reduced-numerator form of an exact rational vector at a place.

    A value is integer numerators ``nums`` over one positive denominator
    ``den``, reduced so that ``gcd(den, *nums) == 1`` (the zero vector has
    ``den == 1``).  That form is unique, so equal values have equal
    fields.  Subclasses' fields are their place (what must match for two
    values to add), then ``den``, then ``nums``; each defines ``_place``
    to read the place back as one tuple."""

    den: int
    nums: tuple[int, ...]

    def _fill(self, place: tuple, den: int, nums: tuple[int, ...]) -> None:
        # the place is every field before den and nums
        vars(self).update(zip(self._fields, (*place, den, nums)))

    @classmethod
    def _reduced(cls, place: tuple, den: int, nums: Sequence[int]):
        """The value nums/den at place, with den > 0, divided through by
        gcd(den, *nums)."""
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                den //= g
                nums = [a // g for a in nums]
        out = object.__new__(cls)
        out._fill(place, den, tuple(nums))
        return out

    def _same(self, other) -> tuple:
        """The common place of self and other; refuses another type or place."""
        if type(other) is not type(self):
            raise TypeError(f"expected a {type(self).__name__}")
        place = self._place()
        if other._place() != place:
            raise ValueError(f"{type(self).__name__} operands live at different places")
        return place

    def __add__(self, other):
        place = self._same(other)
        da, db = self.den, other.den
        if da == db:
            nums = [x + y for x, y in zip(self.nums, other.nums)]
        else:
            den = lcm(da, db)
            fa, fb = den // da, den // db
            nums = [x * fa + y * fb for x, y in zip(self.nums, other.nums)]
            da = den
        return self._reduced(place, da, nums)

    def scale(self, q: Fraction | int):
        if type(q) is not int:
            q = _exact(q, "scale factor")
        p = q.numerator
        return self._reduced(self._place(), self.den * q.denominator, [p * a for a in self.nums])

    def is_zero(self) -> bool:
        return not any(self.nums)

    @cached_property
    def coeffs(self) -> tuple:
        """The entries as Fractions, built on first read."""
        den = self.den
        return tuple(Fraction(a, den) if a else _ZERO for a in self.nums)


class TruncatedSeries(Numerators):
    """A power series in one variable t, truncated above degree ``bound``:
    coefficient k is ``nums[k] / den``."""

    bound: int
    den: int
    nums: tuple[int, ...]

    def __init__(self, bound: int, coeffs: Iterable[Fraction | int] = ()):
        if bound < 0:
            raise ValueError("series bound must be >= 0")
        den, nums = _exact_nums(islice(coeffs, bound + 1), "series coefficients")
        nums.extend([0] * (bound + 1 - len(nums)))
        self._fill((bound,), den, tuple(nums))

    def _place(self) -> tuple:
        return (self.bound,)

    @classmethod
    def zero(cls, bound: int) -> "TruncatedSeries":
        return cls(bound)

    @classmethod
    def one(cls, bound: int) -> "TruncatedSeries":
        return cls(bound, (1,))

    @classmethod
    def geometric(cls, bound: int, step: int) -> "TruncatedSeries":
        """The series 1/(1 - t^step) = 1 + t^step + t^(2 step) + ..."""
        if step <= 0:
            raise ValueError("geometric step must be >= 1")
        nums = [0] * (bound + 1)
        nums[::step] = [1] * (bound // step + 1)
        return cls(bound, nums)

    def coeff(self, k: int) -> Fraction:
        if not 0 <= k <= self.bound:
            raise ValueError(f"degree {k} outside series window [0, {self.bound}]")
        return Fraction(self.nums[k], self.den)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        place = self._same(other)
        bound = self.bound
        terms = [(j, y) for j, y in enumerate(other.nums) if y]
        acc = [0] * (bound + 1)
        for i, x in enumerate(self.nums):
            if x:
                for j, y in terms:
                    if i + j > bound:
                        break
                    acc[i + j] += x * y
        return TruncatedSeries._reduced(place, self.den * other.den, acc)

    def truncate(self, bound: int) -> "TruncatedSeries":
        """Shrink the window.  The bound may only decrease; growing it
        would invent zero coefficients the series never promised."""
        if bound > self.bound:
            raise ValueError("cannot extend a truncated series")
        if bound < 0:
            raise ValueError("series bound must be >= 0")
        return TruncatedSeries._reduced((bound,), self.den, self.nums[: bound + 1])

    def substitute_power(self, r: int) -> "TruncatedSeries":
        """Return the series P(t^r), truncated at the same bound."""
        if r <= 0:
            raise ValueError("substitution power must be >= 1")
        nums = [0] * (self.bound + 1)
        nums[::r] = self.nums[: self.bound // r + 1]
        return TruncatedSeries._reduced((self.bound,), self.den, nums)

    def __str__(self) -> str:
        den = self.den
        terms = []
        for k, a in enumerate(self.nums):
            if not a:
                continue
            if k and a == den:
                terms.append(f"t^{k}")
                continue
            q = _fraction_str(a, den)
            terms.append(q if k == 0 else f"{q}*t^{k}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(t^{self.bound + 1})"

    def __repr__(self) -> str:
        return f"TruncatedSeries(bound={self.bound}, {self})"
