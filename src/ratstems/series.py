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
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import Iterable, Sequence


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


def _reduce(den: int, nums: Sequence[int]) -> tuple[int, Sequence[int]]:
    """nums/den with den > 0, divided through by gcd(den, *nums): the
    unique form of a rational vector over one denominator (den == 1 when
    every entry is an integer, the zero vector included)."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return den // g, [a // g for a in nums]
    return den, nums


def _fraction_str(a: int, den: int) -> str:
    """a/den as str(Fraction(a, den)) prints it, without building the Fraction."""
    g = gcd(a, den)
    return str(a // g) if g == den else f"{a // g}/{den // g}"


class TruncatedSeries:
    """A power series in one variable t, truncated above degree ``bound``:
    coefficient k is ``nums[k] / den``."""

    __slots__ = ("bound", "den", "nums", "_coeffs")

    def __init__(self, bound: int, coeffs: Iterable[Fraction | int] = ()):
        if bound < 0:
            raise ValueError("series bound must be >= 0")
        den, nums = _exact_nums(islice(coeffs, bound + 1), "series coefficients")
        nums.extend([0] * (bound + 1 - len(nums)))
        self._init(bound, den, tuple(nums))

    def _init(self, bound: int, den: int, nums: tuple[int, ...]) -> None:
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    @classmethod
    def _reduced(cls, bound: int, den: int, nums: Sequence[int]) -> "TruncatedSeries":
        """The series nums/den with den > 0, divided through by gcd(den, *nums)."""
        den, nums = _reduce(den, nums)
        out = object.__new__(cls)
        out._init(bound, den, tuple(nums))
        return out

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("TruncatedSeries is immutable")

    def __reduce__(self):
        return TruncatedSeries, (self.bound, self.coeffs)

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

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients 0..bound as Fractions, built on first read."""
        try:
            return self._coeffs
        except AttributeError:
            den = self.den
            coeffs = tuple(Fraction(a, den) for a in self.nums)
            object.__setattr__(self, "_coeffs", coeffs)
            return coeffs

    def coeff(self, k: int) -> Fraction:
        if not 0 <= k <= self.bound:
            raise ValueError(f"degree {k} outside series window [0, {self.bound}]")
        return Fraction(self.nums[k], self.den)

    def _check(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if other.bound != self.bound:
            raise ValueError("series bounds differ")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        da, db = self.den, other.den
        if da == db:
            nums = [x + y for x, y in zip(self.nums, other.nums)]
        else:
            den = lcm(da, db)
            fa, fb = den // da, den // db
            nums = [x * fa + y * fb for x, y in zip(self.nums, other.nums)]
            da = den
        return TruncatedSeries._reduced(self.bound, da, nums)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        terms = [(j, y) for j, y in enumerate(other.nums) if y]
        acc = [0] * (self.bound + 1)
        for i, x in enumerate(self.nums):
            if x:
                for j, y in terms:
                    if i + j > self.bound:
                        break
                    acc[i + j] += x * y
        return TruncatedSeries._reduced(self.bound, self.den * other.den, acc)

    def scale(self, q: Fraction | int) -> "TruncatedSeries":
        if type(q) is not int:
            q = _exact(q, "scale factor")
        p, r = q.numerator, q.denominator
        return TruncatedSeries._reduced(self.bound, self.den * r, [p * a for a in self.nums])

    def truncate(self, bound: int) -> "TruncatedSeries":
        """Shrink the window.  The bound may only decrease; growing it
        would invent zero coefficients the series never promised."""
        if bound > self.bound:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries._reduced(bound, self.den, self.nums[: bound + 1])

    def substitute_power(self, r: int) -> "TruncatedSeries":
        """Return the series P(t^r), truncated at the same bound."""
        if r <= 0:
            raise ValueError("substitution power must be >= 1")
        nums = [0] * (self.bound + 1)
        nums[::r] = self.nums[: self.bound // r + 1]
        return TruncatedSeries._reduced(self.bound, self.den, nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.bound == other.bound and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.bound, self.den, self.nums))

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
