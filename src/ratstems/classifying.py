"""Rational Bredon cohomology of C_{2^n}-equivariant classifying spaces.

The engine here is geometric: for a compact Lie group L, the fixed
points of the equivariant classifying space B_G L at subgroup level h
decompose into components indexed by conjugacy classes of homomorphisms
C_{2^h} -> L, each contributing the rational cohomology of a classical
classifying space (of the centralizer).  ``fixed_point_data`` records
these diagrams for the built-in families, and ``gm_assemble`` turns a
diagram into a table of Mackey classes: per cohomological degree, each
level's components go to ``weyl_eigendata`` as orbits of the residual
Weyl action, and the resulting eigendata feed ``mackey.classify``.

On top of the diagrams sit the comparison checks:

* ``bgs1_presentation`` gives the generators-and-relations model of the
  circle case (an Euler class w plus degree-0 idempotent-like classes
  u[m,j] with a Burnside-element completion relation) together with the
  table it predicts; tests pin it against the assembled answer.
* ``torus_check_u`` verifies the maximal-torus method for U(m): the
  assembled U(m) answer must equal symmetric-group invariants of the
  torus answer, level by level, as Poincare series.
* ``torus_check_su2`` runs the same comparison for SU(2), where the
  method is expected to fail beyond the smallest group: the component
  counts disagree unless the Weyl action on torus components is taken
  into account.
* ``bsigma2_consistency`` compares two candidate answers for B_G Sigma_2
  (direct assembly vs. the Euler-ideal quotient of the circle answer)
  and reports their level-dimension differences without adjudicating.

``collapse`` handles the multiplicative layer: a degree-0 class with
integral spectrum 0..s splits into orthogonal idempotents, and
``collapse_expand`` rewrites polynomials in such a class against that
idempotent basis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, perm, prod
from typing import Iterable, Iterator, Sequence

from .burnside import BurnsideElement
from .mackey import PLUS, GradedTable, MackeyClass, classify
from .series import TruncatedSeries


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All weak compositions of ``total`` into ``parts`` ordered
    nonnegative parts (stars and bars)."""
    if total < 0 or parts < 0:
        raise ValueError("compositions need nonnegative arguments")
    if parts == 0:
        if total == 0:
            yield ()
        return
    slots = total + parts - 1
    for bars in combinations(range(slots), parts - 1):
        prev = -1
        out = []
        for b in (*bars, slots):
            out.append(b - prev - 1)
            prev = b
        yield tuple(out)


def _partitions(total: int, most: int, largest: int) -> Iterator[tuple[int, ...]]:
    """The partitions of ``total`` into at most ``most`` positive parts,
    none above ``largest``, as nonincreasing tuples."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        if first * most < total:
            break
        for rest in _partitions(total - first, most - 1, first):
            yield (first, *rest)


def bu_series(k: int, bound: int) -> TruncatedSeries:
    """Rational cohomology series of BU(k): one polynomial generator in
    each even degree 2, 4, ..., 2k (those above the bound are 1)."""
    out = TruncatedSeries.one(bound)
    for r in range(1, min(k, bound // 2) + 1):
        out = out * TruncatedSeries.geometric(bound, 2 * r)
    return out


@dataclass(frozen=True)
class LevelComponents:
    """The fixed-point components at one subgroup level: distinct
    cohomology series with multiplicities."""

    level: int
    components: tuple[tuple[TruncatedSeries, int], ...]

    def count(self) -> int:
        return sum(c for _, c in self.components)

    def total_series(self) -> TruncatedSeries:
        out = None
        for series, c in self.components:
            part = series.scale(c)
            out = part if out is None else out + part
        if out is None:
            raise ValueError("a level needs at least one component")
        return out


@dataclass(frozen=True)
class FixedPointDiagram:
    """Fixed-point components of an equivariant classifying space, one
    LevelComponents per subgroup level 0..n."""

    name: str
    n: int
    bound: int
    levels: tuple[LevelComponents, ...]

    def level(self, h: int) -> LevelComponents:
        if not 0 <= h <= self.n:
            raise ValueError(f"level {h} outside 0..{self.n}")
        return self.levels[h]


def fixed_point_data(family: str, n: int, bound: int, m: int = 1) -> FixedPointDiagram:
    """Fixed-point diagrams of the built-in classifying-space families.

    bs1      homs C_{2^h} -> S^1 are the 2^h characters; every component
             is a copy of BS^1.
    bsigma2  homs to Sigma_2: trivial only at level 0, trivial and sign
             above; components are rationally trivial.
    bu       conjugacy classes of homs to U(m) are eigenvalue
             multiplicity tuples (weak compositions of m into 2^h
             parts), walked as the partitions of m into at most 2^h
             parts with their arrangement count; the centralizer is
             the matching product of unitary groups.
    bsu2     level 0 sees SU(2) itself; above, the two central values
             give BSU(2)-components and the 2^(h-1)-1 noncentral
             character pairs give torus components.
    torus    the m-torus: (2^h)^m character tuples, each component a
             product of m circles.
    """
    if n < 0 or bound < 0:
        raise ValueError("need n >= 0 and bound >= 0")
    circle = TruncatedSeries.geometric(bound, 2)
    point = TruncatedSeries.one(bound)
    levels = []
    if family == "bs1":
        for h in range(n + 1):
            levels.append(LevelComponents(h, ((circle, 2 ** h),)))
    elif family == "bsigma2":
        for h in range(n + 1):
            levels.append(LevelComponents(h, ((point, 1 if h == 0 else 2),)))
    elif family == "bu":
        if m < 1:
            raise ValueError("bu needs m >= 1")
        for h in range(n + 1):
            counts: dict[TruncatedSeries, int] = {}
            for parts in _partitions(m, 2 ** h, m):
                series = TruncatedSeries.one(bound)
                for k in parts:
                    series = series * bu_series(k, bound)
                ways = perm(2 ** h, len(parts)) // prod(
                    factorial(c) for c in Counter(parts).values())
                # below degree 4 distinct partitions can share a series
                counts[series] = counts.get(series, 0) + ways
            levels.append(LevelComponents(
                h, tuple(sorted(counts.items(), key=lambda it: it[0].coeffs))))
    elif family == "bsu2":
        sphere4 = TruncatedSeries.geometric(bound, 4)
        for h in range(n + 1):
            if h == 0:
                comps: tuple = ((sphere4, 1),)
            elif 2 ** (h - 1) - 1 > 0:
                comps = ((circle, 2 ** (h - 1) - 1), (sphere4, 2))
            else:
                comps = ((sphere4, 2),)
            levels.append(LevelComponents(h, comps))
    elif family == "torus":
        if m < 1:
            raise ValueError("torus needs m >= 1")
        block = circle
        for _ in range(m - 1):
            block = block * circle
        for h in range(n + 1):
            levels.append(LevelComponents(h, ((block, (2 ** h) ** m),)))
    else:
        raise ValueError(f"unknown classifying-space family {family!r}")
    return FixedPointDiagram(family, n, bound, tuple(levels))


def weyl_eigendata(orbits: Iterable[tuple[TruncatedSeries, int, int, int]],
                   degree: int) -> tuple[int, int, int]:
    """Eigenvalue bookkeeping for a residual generator acting on fixed
    components by signed orbits.

    Each orbit is (series of one component, orbit size r, sign of the
    return map on cohomology, number of such orbits).  The induced
    operator on the orbit's cohomology has as eigenvalues the r-th
    roots of the sign; +1 occurs exactly for sign +1, -1 exactly when
    (-1)^r equals the sign, and everything else lands in the third
    slot (which the classifier rejects).
    """
    plus = minus = other = 0
    for series, size, sign, count in orbits:
        if sign not in (1, -1) or size < 1:
            raise ValueError("orbit needs size >= 1 and sign +-1")
        q = series.coeff(degree)
        dim, rest = divmod(q.numerator * count, q.denominator)
        if rest:
            raise ValueError("component dimensions must be integral")
        p = dim if sign == 1 else 0
        mi = dim if (-1) ** size == sign else 0
        plus += p
        minus += mi
        other += dim * size - p - mi
    return plus, minus, other


def gm_assemble(diagram: FixedPointDiagram) -> GradedTable:
    """Assemble a fixed-point diagram into a table of Mackey classes.

    In each degree the component dimension at level h is the geometric
    fixed-point dimension there, i.e. the multiplicity of the simple
    born at level h; the residual action is trivial for all built-in
    families, so every component is an orbit of size 1 with sign +1.
    """
    classes = {}
    for d in range(diagram.bound + 1):
        eigen = [weyl_eigendata([(series, 1, 1, count) for series, count in level.components], d)
                 for level in diagram.levels]
        classes[d] = classify(diagram.n, eigen)
    return GradedTable.from_dict(diagram.n, classes)


# ---------------------------------------------------------------------------
# The circle case as generators and relations.

@dataclass(frozen=True)
class CirclePresentation:
    """Presentation of the B_G S^1 cohomology: a polynomial Euler class
    w in degree 2 over the degree-0 ring, which is the Burnside algebra
    extended by orthogonal classes u[m,j] (m the conductor level,
    j one of the 2^m - 1 nontrivial character labels).  ``degrees``
    names each generator with its degree, w first.  ``completion``
    pins the sum of each conductor's classes to a Burnside element;
    ``table`` is the Mackey-class answer the presentation predicts."""

    n: int
    bound: int
    degrees: tuple[tuple[str, int], ...]
    relations: tuple[str, ...]
    completion: tuple[tuple[int, BurnsideElement], ...]
    table: GradedTable

    def top_series(self) -> TruncatedSeries:
        return self.table.poincare(self.n, self.bound)


def bgs1_presentation(n: int, bound: int) -> CirclePresentation:
    table = _circle_table(n, bound)
    degrees = [("w", 2)]
    degrees += [(f"u[{m},{j}]", 0) for m in range(1, n + 1) for j in range(1, 2 ** m)]
    relations = (
        "u[m,j]*u[m',j'] = u[m,j] if (m,j) = (m',j') else 0",
        "res to level m-1 of u[m,j] = 0",
        "sum over j = 1..2^m of u[m,j] = the completion element of "
        "conductor m (the sum includes the one omitted class)",
    )
    completion = []
    for m in range(1, n + 1):
        elem = BurnsideElement.y(n, m)
        for _ in range(n - m):
            elem = elem.tr()
        completion.append((m, elem.scale(Fraction(1, 2 ** m))))
    return CirclePresentation(n, bound, tuple(degrees), relations,
                              tuple(completion), table)


def _circle_table(n: int, bound: int) -> GradedTable:
    """The circle table: 2^h copies of the level-h simple in each even degree."""
    if n < 1:
        raise ValueError("the circle presentation needs n >= 1")
    cls = MackeyClass(n, tuple((h, PLUS, 2 ** h) for h in range(n + 1)))
    return GradedTable.from_dict(n, {d: cls for d in range(0, bound + 1, 2)})


# ---------------------------------------------------------------------------
# Torus comparisons.

def sym_invariants_series(component_series: Sequence[TruncatedSeries],
                          m: int, bound: int) -> TruncatedSeries:
    """Poincare series of the symmetric-group invariants of the m-th
    tensor power of the evenly graded space whose series is the sum of
    the component series, truncated at ``bound``.

    Computed by the power-sum recurrence m*h_m = sum_r P(t^r) * h_{m-r}
    where P is the summed series; h_m is the symmetric-power answer.
    """
    if m < 0:
        raise ValueError("symmetric power needs m >= 0")
    if bound < 0:
        raise ValueError("series bound must be >= 0")
    total = TruncatedSeries.zero(bound)
    for s in component_series:
        total = total + s.truncate(bound)
    hs = [TruncatedSeries.one(bound)]
    for j in range(1, m + 1):
        acc = TruncatedSeries.zero(bound)
        for r in range(1, j + 1):
            acc = acc + total.substitute_power(r) * hs[j - r]
        hs.append(acc.scale(Fraction(1, j)))
    return hs[m]


@dataclass(frozen=True)
class TorusCheckU:
    """Level-by-level comparison of the assembled U(m) answer with
    symmetric invariants of the torus answer."""

    n: int
    m: int
    bound: int
    levels: tuple[tuple[int, TruncatedSeries, TruncatedSeries], ...]

    def holds(self) -> bool:
        return all(lhs == rhs for _, lhs, rhs in self.levels)

    def verdict(self) -> str:
        return "HOLDS" if self.holds() else "FAILS"


def torus_check_u(n: int, m: int, bound: int) -> TorusCheckU:
    """The maximal-torus method for U(m): at every level the total
    series of the U(m) fixed components must equal the Sigma_m-invariant
    part of the m-torus fixed components."""
    bu = fixed_point_data("bu", n, bound, m=m)
    torus = fixed_point_data("torus", n, bound, m=1)
    rows = []
    for h in range(n + 1):
        lhs = bu.level(h).total_series()
        rhs = sym_invariants_series([torus.level(h).total_series()], m, bound)
        rows.append((h, lhs, rhs))
    return TorusCheckU(n, m, bound, tuple(rows))


@dataclass(frozen=True)
class TorusCheckSU2:
    """Top-level component-count comparison for SU(2): the assembled
    count against the torus-side prediction under the chosen Weyl
    treatment."""

    n: int
    action: str
    lhs: int
    rhs: int

    def holds(self) -> bool:
        return self.lhs == self.rhs

    def verdict(self) -> str:
        return "HOLDS" if self.holds() else "FAILS"


def torus_check_su2(n: int, action: str = "trivial") -> TorusCheckSU2:
    """The maximal-torus method for SU(2), at the level of component
    counts of the top fixed points.

    action = "trivial" takes the torus components at face value (2^n of
    them); this is the naive transcription of the U(m) method and fails
    for n >= 2.  action = "permutation" first merges the components
    into orbits of the Weyl involution j -> -j, which restores the
    count 2^(n-1) + 1.
    """
    if n < 1:
        raise ValueError("the SU(2) comparison needs n >= 1")
    if action not in ("trivial", "permutation"):
        raise ValueError(f"unknown torus action treatment {action!r}")
    lhs = fixed_point_data("bsu2", n, 0).level(n).count()
    labels = fixed_point_data("torus", n, 0, m=1).level(n).count()
    if action == "trivial":
        rhs = labels
    else:
        # Burnside's lemma: average the N labels fixed by 1 and gcd(2, N) by j -> -j
        rhs = (labels + gcd(2, labels)) // 2
    return TorusCheckSU2(n, action, lhs, rhs)


# ---------------------------------------------------------------------------
# Two candidate answers for B_G Sigma_2.

@dataclass(frozen=True)
class SigmaTwoComparison:
    """The directly assembled answer against the Euler-ideal quotient of
    the circle answer, with their level-dimension differences listed as
    (degree, level, assembled dim, quotient dim)."""

    n: int
    assembled: GradedTable
    quotient: GradedTable
    differences: tuple[tuple[int, int, int, int], ...]

    def agree(self) -> bool:
        return not self.differences


def bsigma2_consistency(n: int, bound: int = 6) -> SigmaTwoComparison:
    """Compare the two candidates for B_G Sigma_2.

    The first is gm-assembled from the two-point fixed diagram.  The
    second quotients the circle answer by the ideal of the degree-2
    Euler class w: multiplication by w shifts the presentation basis
    bijectively, so the ideal is everything above degree 0 and the
    quotient is the degree-0 class alone.  The two disagree at levels
    h >= 2 (dimension 1+2h against 2^(h+1)-1); both are reported.
    """
    assembled = gm_assemble(fixed_point_data("bsigma2", n, bound))
    circle = _circle_table(n, bound)
    for d in range(0, bound - 1, 2):
        if circle.get(d + 2) != circle.get(d):
            raise ValueError("circle table is not w-periodic; quotient model invalid")
    quotient = GradedTable.from_dict(n, {0: circle.get(0)})
    diffs = []
    for d in sorted(set(assembled.degrees()) | set(quotient.degrees())):
        for h in range(n + 1):
            da = assembled.get(d).level_dim(h)
            dq = quotient.get(d).level_dim(h)
            if da != dq:
                diffs.append((d, h, da, dq))
    return SigmaTwoComparison(n, assembled, quotient, tuple(diffs))


# ---------------------------------------------------------------------------
# Idempotent collapse of a class with integral spectrum.

def _poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _poly_from_roots(roots: Sequence[int]) -> tuple[Fraction, ...]:
    coeffs = [Fraction(1)]
    for r in roots:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] -= c * r
            nxt[i + 1] += c
        coeffs = nxt
    return tuple(coeffs)


@dataclass(frozen=True)
class CollapsePresentation:
    """Idempotent splitting of a degree-0 class e with spectrum 0..s:
    the minimal polynomial x(x-1)...(x-s) and, for each nonzero
    eigenvalue i, the polynomial in e projecting onto it."""

    s: int
    minimal_polynomial: tuple[Fraction, ...]
    idempotents: tuple[tuple[Fraction, ...], ...]

    def idempotent(self, i: int) -> tuple[Fraction, ...]:
        if not 1 <= i <= self.s:
            raise ValueError(f"eigenvalue index {i} outside 1..{self.s}")
        return self.idempotents[i - 1]


def collapse(s: int) -> CollapsePresentation:
    """Split a class e with e(e-1)...(e-s) = 0 into the idempotents
    e_1..e_s via Lagrange interpolation at the spectrum; e_i = f_i(e)
    with f_i vanishing at every other eigenvalue and f_i(i) = 1."""
    if s < 1:
        raise ValueError("collapse needs s >= 1")
    minimal = _poly_from_roots(list(range(s + 1)))
    idems = []
    for i in range(1, s + 1):
        f = _poly_from_roots([j for j in range(s + 1) if j != i])
        value = _poly_eval(f, Fraction(i))
        idems.append(tuple(c / value for c in f))
    return CollapsePresentation(s, minimal, tuple(idems))


def collapse_expand(f: Sequence[Fraction | int], s: int) -> tuple[Fraction, ...]:
    """Rewrite a polynomial f(e) against the collapse basis: the result
    (c_0, c_1, ..., c_s) means f(e) = c_0 * 1 + sum_i c_i * e_i, read
    off by evaluating on the spectrum (c_0 = f(0), c_i = f(i) - f(0))."""
    if s < 1:
        raise ValueError("collapse needs s >= 1")
    coeffs = [Fraction(c) for c in f]
    base = _poly_eval(coeffs, Fraction(0))
    out = [base]
    for i in range(1, s + 1):
        out.append(_poly_eval(coeffs, Fraction(i)) - base)
    return tuple(out)
