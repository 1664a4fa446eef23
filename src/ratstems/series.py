"""Truncated power series with exact rational coefficients.

Every series carries a fixed truncation bound; coefficients above the
bound are discarded by all operations.  Two series are equal when they
have the same bound and agree coefficientwise.  Arithmetic never leaves
``fractions.Fraction``, so identities such as ``(1 - t^2) * 1/(1 - t^2)
== 1`` hold exactly inside the window.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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
    """A common denominator of the coefficients and their numerators over it."""
    den = lcm(*(q.denominator for q in coeffs))
    return den, [q.numerator * (den // q.denominator) for q in coeffs]


class TruncatedSeries:
    """A power series in one variable t, truncated above degree ``bound``."""

    __slots__ = ("bound", "coeffs")

    def __init__(self, bound: int, coeffs: Iterable[Fraction | int] = ()):
        if bound < 0:
            raise ValueError("series bound must be >= 0")
        cs = [_ZERO] * (bound + 1)
        for k, q in enumerate(coeffs):
            if k > bound:
                break
            cs[k] = q if type(q) is Fraction else _exact(q, "series coefficients")
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("TruncatedSeries is immutable")

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
        cs = [Fraction(1) if k % step == 0 else Fraction(0) for k in range(bound + 1)]
        return cls(bound, cs)

    def coeff(self, k: int) -> Fraction:
        if not 0 <= k <= self.bound:
            raise ValueError(f"degree {k} outside series window [0, {self.bound}]")
        return self.coeffs[k]

    def _check(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if other.bound != self.bound:
            raise ValueError("series bounds differ")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(self.bound, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        # over common denominators the convolution runs on integers, and
        # each output coefficient becomes one Fraction at the end
        da, a = _numerators(self.coeffs)
        db, b = _numerators(other.coeffs)
        terms = [(j, y) for j, y in enumerate(b) if y]
        acc = [0] * (self.bound + 1)
        for i, x in enumerate(a):
            if x:
                for j, y in terms:
                    if i + j > self.bound:
                        break
                    acc[i + j] += x * y
        den = da * db
        return TruncatedSeries(self.bound, [Fraction(v, den) if v else _ZERO for v in acc])

    def scale(self, q: Fraction | int) -> "TruncatedSeries":
        q = _exact(q, "scale factor")
        return TruncatedSeries(self.bound, (q * a for a in self.coeffs))

    def truncate(self, bound: int) -> "TruncatedSeries":
        """Shrink the window.  The bound may only decrease; growing it
        would invent zero coefficients the series never promised."""
        if bound > self.bound:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(bound, self.coeffs[: bound + 1])

    def substitute_power(self, r: int) -> "TruncatedSeries":
        """Return the series P(t^r), truncated at the same bound."""
        if r <= 0:
            raise ValueError("substitution power must be >= 1")
        cs = [Fraction(0)] * (self.bound + 1)
        for k, a in enumerate(self.coeffs):
            if a != 0 and k * r <= self.bound:
                cs[k * r] = a
        return TruncatedSeries(self.bound, cs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.bound == other.bound and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.bound, self.coeffs))

    def __str__(self) -> str:
        terms = []
        for k, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if k == 0:
                terms.append(str(a))
            elif a == 1:
                terms.append(f"t^{k}")
            else:
                terms.append(f"{a}*t^{k}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(t^{self.bound + 1})"

    def __repr__(self) -> str:
        return f"TruncatedSeries(bound={self.bound}, {self})"
