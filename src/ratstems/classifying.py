"""Rational Bredon cohomology of C_{2^n}-equivariant classifying spaces.

The engine here is geometric: for a compact Lie group L, the fixed
points of the equivariant classifying space B_G L at subgroup level h
decompose into components indexed by conjugacy classes of homomorphisms
C_{2^h} -> L, each contributing the rational cohomology of a classical
classifying space (of the centralizer).  G = C_{2^n} is abelian, so
the residual Weyl action of G on the level-h components is trivial, and
a level adds only its total Poincare series, read as the multiplicity
of the simple M_h in each degree.  ``fixed_point_data`` records one
integral series per level for the built-in families (a U(m) level comes
from a generating function; each family builds a level from h alone,
so a check that needs only the top level builds only that one), and
``gm_assemble`` turns a diagram into a table of Mackey classes: per
cohomological degree, the levels' coefficients are the plus slots of
``mackey.classify``.  Degrees whose levels present the same
coefficients share one column, and one memo works out each distinct
column once.

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
idempotent basis.  The polynomials are integer numerators, evaluated by
one integer Horner (``_eval_at``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Callable, Iterator, Sequence

from .burnside import BurnsideElement, transferred_tops
from .mackey import PLUS, GradedTable, MackeyClass, classify
from .series import Frozen, TruncatedSeries, _exact_nums


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


def bu_series(k: int, bound: int) -> TruncatedSeries:
    """Rational cohomology series of BU(k): one polynomial generator in
    each even degree 2, 4, ..., 2k (those above the bound are 1)."""
    out = TruncatedSeries.one(bound)
    for r in range(1, min(k, bound // 2) + 1):
        out = out * TruncatedSeries.geometric(bound, 2 * r)
    return out


class LevelComponents(Frozen):
    """The fixed-point components at one subgroup level, as the sum of
    their cohomology series.  Every component is connected, so degree 0
    of the series counts the components."""

    level: int
    series: TruncatedSeries

    def __post_init__(self) -> None:
        if self.series.den != 1:
            raise ValueError("component dimensions must be integral")

    def count(self) -> int:
        return self.series.nums[0]


class FixedPointDiagram(Frozen):
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

    Each level is the sum of its components' cohomology series, with
    integer coefficients.  That sum is all a level needs: G = C_{2^n}
    is abelian, so conjugation by G fixes C_{2^h} pointwise, fixes
    every homomorphism C_{2^h} -> L, and the residual action of G on
    the level-h components is trivial.

    bs1      homs C_{2^h} -> S^1 are the 2^h characters; every component
             is a copy of BS^1.
    bsigma2  homs to Sigma_2: trivial only at level 0, trivial and sign
             above; components are rationally trivial.
    bu       conjugacy classes of homs to U(m) are eigenvalue
             multiplicity tuples (weak compositions of m into N = 2^h
             parts), the centralizer the matching product of unitary
             groups.  The level series is the coefficient G_m of x^m
             in F(x)^N with F(x) = sum_k BU(k) x^k, by the power recurrence
             k G_k = sum_{j=1..k} ((N+1) j - k) F_j G_{k-j}.  Its
             degree 0 counts the C(N+m-1, m) components.
    bsu2     level 0 sees SU(2) itself; above, the two central values
             give BSU(2)-components and the 2^(h-1)-1 noncentral
             character pairs give torus components.
    torus    the m-torus: (2^h)^m character tuples, each component a
             product of m circles.
    """
    if n < 0 or bound < 0:
        raise ValueError("need n >= 0 and bound >= 0")
    level = _family_level(family, bound, m)
    return FixedPointDiagram(family, n, bound, tuple(map(level, range(n + 1))))


def _family_level(family: str, bound: int, m: int) -> Callable[[int], LevelComponents]:
    """The function h -> LevelComponents of one built-in family, with the
    series its levels share built once."""
    circle = TruncatedSeries.geometric(bound, 2)
    point = TruncatedSeries.one(bound)
    if family == "bs1":
        return lambda h: LevelComponents(h, circle.scale(2 ** h))
    if family == "bsigma2":
        two = point.scale(2)
        return lambda h: LevelComponents(h, two if h else point)
    if family == "bu":
        if m < 1:
            raise ValueError("bu needs m >= 1")
        fs = [bu_series(k, bound) for k in range(m + 1)]

        def bu_level(h: int) -> LevelComponents:
            # G_k = [x^k] F(x)^N with F_0 = 1, by the power-series power recurrence
            gs = [point]
            for k in range(1, m + 1):
                acc = fs[k].scale(2 ** h * k)  # the j = k term, as G_0 = 1
                for j in range(1, k):
                    acc = acc + (fs[j] * gs[k - j]).scale((2 ** h + 1) * j - k)
                gs.append(acc.scale(Fraction(1, k)))
            return LevelComponents(h, gs[m])
        return bu_level
    if family == "bsu2":
        sphere4 = TruncatedSeries.geometric(bound, 4)
        central = sphere4.scale(2)
        return lambda h: LevelComponents(
            h, central + circle.scale(2 ** (h - 1) - 1) if h else sphere4)
    if family == "torus":
        if m < 1:
            raise ValueError("torus needs m >= 1")
        block = circle
        for _ in range(m - 1):
            block = block * circle
        return lambda h: LevelComponents(h, block.scale((2 ** h) ** m))
    raise ValueError(f"unknown classifying-space family {family!r}")


def gm_assemble(diagram: FixedPointDiagram) -> GradedTable:
    """Assemble a fixed-point diagram into a table of Mackey classes.

    In each degree the level-h series coefficient is the geometric
    fixed-point dimension there, i.e. the multiplicity of the simple
    M_h born at level h: the plus slot of ``classify``, since the
    residual action is trivial (see ``fixed_point_data``).

    Degrees whose levels present the same dimensions share a column,
    and one memo keyed by that column runs ``classify`` once per
    distinct column (twice for a circle diagram, whatever the bound).
    """
    for level in diagram.levels:
        if level.series.bound != diagram.bound:
            raise ValueError(f"level {level.level} has series bound {level.series.bound}, "
                             f"the diagram {diagram.bound}")
    memo: dict = {}
    classes = {}
    for d, column in enumerate(zip(*(level.series.nums for level in diagram.levels))):
        cls = memo.get(column)
        if cls is None:
            cls = memo[column] = classify(diagram.n, [(dim, 0, 0) for dim in column])
        classes[d] = cls
    return GradedTable.from_dict(diagram.n, classes)


# ---------------------------------------------------------------------------
# The circle case as generators and relations.

class CirclePresentation(Frozen):
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
    if n < 1:
        raise ValueError("the circle presentation needs n >= 1")
    table = _circle_table(n, bound)
    degrees = [("w", 2)]
    degrees += [(f"u[{m},{j}]", 0) for m in range(1, n + 1) for j in range(1, 2 ** m)]
    relations = (
        "u[m,j]*u[m',j'] = u[m,j] if (m,j) = (m',j') else 0",
        "res to level m-1 of u[m,j] = 0",
        "sum over j = 1..2^m of u[m,j] = the completion element of "
        "conductor m (the sum includes the one omitted class)",
    )
    completion = tuple((m, transferred_tops(n, n, [(m, Fraction(1, 2 ** m))]))
                       for m in range(1, n + 1))
    return CirclePresentation(n, bound, tuple(degrees), relations, completion, table)


def _circle_table(n: int, bound: int) -> GradedTable:
    """The circle table: 2^h copies of the level-h simple in each even degree."""
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


class TorusCheckU(Frozen):
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
        lhs = bu.level(h).series
        rhs = sym_invariants_series([torus.level(h).series], m, bound)
        rows.append((h, lhs, rhs))
    return TorusCheckU(n, m, bound, tuple(rows))


class TorusCheckSU2(Frozen):
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
    lhs = _family_level("bsu2", 0, 1)(n).count()
    labels = _family_level("torus", 0, 1)(n).count()
    if action == "trivial":
        rhs = labels
    else:
        # Burnside's lemma: average the N labels fixed by 1 and gcd(2, N) by j -> -j
        rhs = (labels + gcd(2, labels)) // 2
    return TorusCheckSU2(n, action, lhs, rhs)


# ---------------------------------------------------------------------------
# Two candidate answers for B_G Sigma_2.

class SigmaTwoComparison(Frozen):
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
    quotient is the circle table's degree-0 class alone (``_circle_table``
    puts that class in every even degree).  The two disagree at levels
    h >= 2 (dimension 1+2h against 2^(h+1)-1); both are reported.
    """
    assembled = gm_assemble(fixed_point_data("bsigma2", n, bound))
    quotient = _circle_table(n, 0)
    diffs = []
    for d in sorted(set(assembled.degrees()) | set(quotient.degrees())):
        dims = zip(assembled.get(d).level_dims(), quotient.get(d).level_dims())
        for h, (da, dq) in enumerate(dims):
            if da != dq:
                diffs.append((d, h, da, dq))
    return SigmaTwoComparison(n, assembled, quotient, tuple(diffs))


# ---------------------------------------------------------------------------
# Idempotent collapse of a class with integral spectrum.

def _eval_at(nums: Sequence[int], x: int) -> int:
    """The integer polynomial nums[0] + nums[1]*x + ... at an integer x, by Horner."""
    acc = 0
    for c in reversed(nums):
        acc = acc * x + c
    return acc


def _poly_from_roots(roots: Sequence[int]) -> tuple[int, ...]:
    coeffs = [1]
    for r in roots:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] -= c * r
            nxt[i + 1] += c
        coeffs = nxt
    return tuple(coeffs)


class CollapsePresentation(Frozen):
    """Idempotent splitting of a degree-0 class e with spectrum 0..s:
    the minimal polynomial x(x-1)...(x-s) and, for each nonzero
    eigenvalue i, the polynomial in e projecting onto it.  Both are
    integer numerators: the minimal polynomial's coefficients, and each
    idempotent as a reduced pair (den, nums) of coefficients nums[k] / den
    with den > 0 and gcd(den, *nums) == 1."""

    s: int
    minimal_polynomial: tuple[int, ...]
    idempotents: tuple[tuple[int, tuple[int, ...]], ...]

    def idempotent(self, i: int) -> tuple[Fraction, ...]:
        if not 1 <= i <= self.s:
            raise ValueError(f"eigenvalue index {i} outside 1..{self.s}")
        den, nums = self.idempotents[i - 1]
        return tuple(Fraction(a, den) for a in nums)


def collapse(s: int) -> CollapsePresentation:
    """Split a class e with e(e-1)...(e-s) = 0 into the idempotents
    e_1..e_s via Lagrange interpolation at the spectrum; e_i = f_i(e)
    with f_i vanishing at every other eigenvalue and f_i(i) = 1."""
    if s < 1:
        raise ValueError("collapse needs s >= 1")
    minimal = _poly_from_roots(range(s + 1))
    idems = []
    for i in range(1, s + 1):
        f = _poly_from_roots([j for j in range(s + 1) if j != i])
        value = _eval_at(f, i)
        # f is monic, so (|value|, +-f) is already reduced
        idems.append((abs(value), tuple(a if value > 0 else -a for a in f)))
    return CollapsePresentation(s, minimal, tuple(idems))


def collapse_expand(f: Sequence[Fraction | int], s: int) -> tuple[Fraction, ...]:
    """Rewrite a polynomial f(e) against the collapse basis: the result
    (c_0, c_1, ..., c_s) means f(e) = c_0 * 1 + sum_i c_i * e_i, read
    off by evaluating on the spectrum (c_0 = f(0), c_i = f(i) - f(0))."""
    if s < 1:
        raise ValueError("collapse needs s >= 1")
    den, nums = _exact_nums(f, "polynomial coefficients")
    base = _eval_at(nums, 0)
    return (Fraction(base, den),
            *(Fraction(_eval_at(nums, i) - base, den) for i in range(1, s + 1)))
