"""RO(G)-graded rational stable stems of C_{2^n}, computed three ways.

For G = C_{2^n} the rational G-equivariant stable stem in a virtual
degree V is a finite direct sum of simple Mackey functors M_i^(+-).
This module computes that sum by three independent routes:

* ``stem_at`` decodes the degree into an integer tuple t =
  (j_0..j_{n-1}, j'_0..j'_{n-1}) whose entries split at a cut position
  (restrictions before the cut, order-vanishing after it) and reads the
  answer off the tuple: the summands are M_i for k'(t) < i <= k(t),
  signed by the parity of j_{n-1}.
* ``stem_at_sector`` tests, sector by sector, the lattice membership
  equations of the monomial model of the point: sector i < n occupies
  the degrees with d = -s - 2*(c_i + ... + c_{n-2}), sector n the
  degrees with d = 0; the sign is the parity of the u_sigma exponent.
* ``stem_at_oracle`` computes the Bredon homology of an actual (virtual)
  representation sphere from geometry: each power e*w of one
  irreducible w contributes one simple M_h per subgroup level h, placed
  in the dimension of its fixed sphere and signed by the Weyl action on
  that sphere's orientation, and the powers of distinct generators
  combine by the degreewise box product.

Each route is one function of a d-column (n, s, c), the degrees that
differ only in d, listing the column's nonzero stems: ``closed_column``
and ``sector_column`` in one O(n) pass, ``oracle_column`` as one sphere
table.  The per-degree functions read one d off their column.

The module also carries the monomial model itself (``SectorElement``,
``SectorMonomial``), a structured generators-and-relations presentation
of the point (``point_presentation``) and the degree lattices of the
geometric and homotopy fixed-point rings (``fixed_point_rings``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import neg
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .mackey import MINUS, PLUS, GradedTable, MackeyClass
from .rolattice import VirtualRep


class TupleAmbiguityError(RuntimeError):
    """The tuple decoder produced two decompositions that overlap.

    Distinct valid tuples for one degree must occupy pairwise disjoint
    sector runs (they then simply add up); an overlap would make the
    decomposition ill-defined and is reported rather than silently
    resolved.
    """


@dataclass(frozen=True)
class StemTuple:
    """A decoded degree: j collects orientation-class exponents, j_prime
    Euler-class exponents, one slot per generator position (position
    n-1 is the sigma slot, positions k <= n-2 the l_k slots).  The
    tuple contributes one simple per sector in the run
    k_prime < i <= k, signed by the parity of the sigma-slot entry."""

    n: int
    j: tuple[int, ...]
    j_prime: tuple[int, ...]

    def k(self) -> int:
        nonzero = [p for p, v in enumerate(self.j) if v != 0]
        return min(nonzero) if nonzero else self.n

    def k_prime(self) -> int:
        nonzero = [p for p, v in enumerate(self.j_prime) if v != 0]
        return max(nonzero) if nonzero else -1

    def sign(self) -> int:
        if self.n >= 1 and self.j[self.n - 1] % 2 != 0:
            return MINUS
        return PLUS

    def run(self) -> range:
        return range(self.k_prime() + 1, self.k() + 1)


def _cut_runs(n: int, s: int, c: tuple[int, ...]) -> dict[int, list[range]]:
    """The cut walk of one d-column: for each d, the sector runs of the
    tuples that decompose the degree (d, s, c), last run first.

    Positions below a cut take the j'-assignment, positions at or above
    it the j-assignment, with per-position totals forced by s and c.
    The cut lands at the trivial part d of its j-assignment; its run is
    range(cut, k + 1), k the first nonzero total at or past the cut (n
    if none), and a cut past a zero total repeats the cut before it.
    One suffix scan gives both in O(n), without building j or j'.  The
    runs at one d are provably disjoint, which is asserted here.
    """
    totals = [-ck for ck in c] + ([-s] if n >= 1 else [])
    found: dict[int, list[range]] = {}
    d, k = 0, n
    for cut in range(n, -1, -1):
        if cut < n:
            d += totals[cut] if cut == n - 1 else 2 * totals[cut]
            k = cut if totals[cut] != 0 else k
        if cut == 0 or totals[cut - 1] != 0:
            runs = found.setdefault(d, [])
            if runs and runs[-1].start <= k:
                raise TupleAmbiguityError(
                    f"degree {VirtualRep(n, d, s, c)}: tuples with overlapping sector "
                    f"runs {list(range(cut, k + 1))} and {list(runs[-1])}")
            runs.append(range(cut, k + 1))
    return found


def decode_degree(v: VirtualRep) -> tuple[StemTuple, ...]:
    """All valid tuples decomposing the degree v, sorted by sector run:
    one per cut that ``_cut_runs`` lands at v.d.

    A degree can decode to more than one tuple (the occupied sectors
    then form several runs separated by gaps, e.g. l0 - 2*sigma at
    n = 2 decodes to u_l0^-1 u_sigma^2 and to a_l0^-1 a_sigma^2, with
    runs {0} and {2}).
    """
    n = v.n
    totals = tuple(-ck for ck in v.c) + ((-v.s,) if n >= 1 else ())
    return tuple(StemTuple(n, (0,) * run.start + totals[run.start:],
                           totals[:run.start] + (0,) * (n - run.start))
                 for run in reversed(_cut_runs(n, v.s, v.c).get(v.d, [])))


# The MackeyClass constructor behind a bounded cache, for the classes
# that closed_column and sector_column build: an equal stem is one
# validated, frozen instance, so equal columns compare by identity.
# Only values pass through it; an invalid entry tuple raises and is not
# cached.
_stem_class = lru_cache(maxsize=1024)(MackeyClass)


@lru_cache(maxsize=1024)
def _closed_class(n: int, odd: bool, runs: tuple[range, ...]) -> MackeyClass:
    """The closed-form stem of one d: one simple per sector of the runs
    (given last run first), signed by the parity of s except at the top."""
    sign = MINUS if odd else PLUS
    return _stem_class(n, tuple((i, sign if i < n else PLUS, 1)
                                for run in reversed(runs) for i in run))


def closed_column(n: int, s: int, c: tuple[int, ...]) -> dict[int, MackeyClass]:
    """The stems of the d-column (n, s, c) at its nonzero d, in closed
    form: the sum of the decoded tuples' runs, one simple per sector,
    signed by the parity of the sigma-slot entry -s (a run reaches the
    top sector only when that entry is 0).  A class is looked up by its
    runs, so its entries are built only the first time they occur."""
    odd = s % 2 != 0
    return {d: _closed_class(n, odd, tuple(runs)) for d, runs in _cut_runs(n, s, c).items()}


@lru_cache(maxsize=1024)
def _sector_class(n: int, odd: bool, sectors: tuple[int, ...]) -> MackeyClass:
    """The stem of the occupied sectors (increasing): M_i signed by the
    parity of s for i < n, and M_n^+ for the top sector."""
    sign = MINUS if odd else PLUS
    return _stem_class(n, tuple((i, sign if i < n else PLUS, 1) for i in sectors))


def sector_column(n: int, s: int, c: tuple[int, ...]) -> dict[int, MackeyClass]:
    """The stems of the d-column (n, s, c) at its nonzero d, by sector
    membership of the monomial model.

    Sector i < n is the Laurent lattice on u_sigma, the u_l_k with
    k >= i and the a_l_k with k < i; it occupies the degree
    d = -s - 2*(c_i + ... + c_{n-2}), signed by the parity of the
    u_sigma exponent -s.  Sector n is the Laurent lattice on a_sigma
    and all a_l_k, at d = 0.  A class is looked up by its sectors.
    """
    found: dict[int, list[int]] = {}
    tail = sum(c)  # c_i + ... + c_{n-2}, updated as i grows
    for i in range(n):
        found.setdefault(-s - 2 * tail, []).append(i)
        if i < n - 1:
            tail -= c[i]
    found.setdefault(0, []).append(n)
    odd = s % 2 != 0
    return {d: _sector_class(n, odd, tuple(sectors)) for d, sectors in found.items()}


@lru_cache(maxsize=None)
def _power_sphere_table(n: int, kind: str, k: int, e: int) -> GradedTable:
    """Homology table of S^(e*w) for one irreducible w (sigma or l_k),
    read off fixed-point geometry: level h gives one M_h in the degree
    of its fixed sphere, signed by the Weyl action there, and the levels
    that share a degree make one class.  A negative power is the
    dual of the positive one."""
    if e < 0:
        return _power_sphere_table(n, kind, k, -e).dual()
    w = e * (VirtualRep.sigma(n) if kind == "sigma" else VirtualRep.lam(n, k))
    levels: dict[int, list[tuple[int, int, int]]] = {}
    tail = 2 * sum(w.c)  # 2*(c_h + ... + c_{n-2}): w.fixed_dim(h) without its O(n) sum
    for h in range(n + 1):
        degree = w.d + (w.s if h < n else 0) + tail
        levels.setdefault(degree, []).append((h, w.fixed_sign(h), 1))
        if h < n - 1:
            tail -= 2 * w.c[h]
    return GradedTable(n, tuple((d, MackeyClass(n, tuple(es))) for d, es in levels.items()))


class _Prefix(tuple):
    """Rotation coefficients that carry the sphere table of the prefix
    below them (the same coefficients with the last nonzero one zeroed).
    It hashes and compares as the plain tuple, so it keys the same
    ``_smash_table`` entry."""

    below: GradedTable


# Bounded so that a large box scan does not keep every column's table:
# the scan reads each column's table once, and the prefixes it reuses
# were built a few columns before.  4096 holds all 3,324 distinct tables
# of a heavy benchmark round, so no workload there evicts.
@lru_cache(maxsize=4096)
def _smash_table(n: int, s: int, c: tuple[int, ...]) -> GradedTable:
    """Homology table of the virtual sphere S^(s*sigma + sum c_k*l_k):
    the last nonzero rotation power is boxed onto the table of the rest,
    so powers of one generator come from geometry, not from repeated
    boxing.  Every prefix of c (c with its last nonzero powers zeroed)
    is cached.  A miss folds the powers in a loop, lowest first, handing
    each prefix the table below it, so no chain recurses."""
    nonzero = [j for j, cj in enumerate(c) if cj]
    if not nonzero:
        if s != 0:
            return _power_sphere_table(n, "sigma", -1, s)
        return GradedTable.from_dict(n, {0: MackeyClass.burnside_class(n)})
    *lower, k = nonzero
    below = getattr(c, "below", None)
    if below is None:
        prefix = [0] * len(c)
        below = _smash_table(n, s, tuple(prefix))
        for j in lower:
            prefix[j] = c[j]
            key = _Prefix(prefix)
            key.below = below
            below = _smash_table(n, s, key)
            del key.below  # the cache may keep the key, not the table below
    return below.box(_power_sphere_table(n, "lam", k, c[k]))


def sphere_homology(v: VirtualRep) -> GradedTable:
    """Reduced Bredon homology of the (virtual) representation sphere S^v,
    as a table of MackeyClasses over integer degrees."""
    return _smash_table(v.n, v.s, v.c).shift(v.d)


def oracle_column(n: int, s: int, c: tuple[int, ...]) -> Mapping[int, MackeyClass]:
    """The stems of the d-column (n, s, c) at its nonzero d, read off
    sphere homology: the stem at d + W equals the degree-d homology of
    the sphere on -W, so the column is one table, served as a read-only
    view of its cached degree map."""
    return MappingProxyType(_smash_table(n, -s, tuple(map(neg, c)))._by_degree)


def stem_at(v: VirtualRep) -> MackeyClass:
    """The stem at degree v, in closed form (``closed_column``)."""
    return closed_column(v.n, v.s, v.c).get(v.d, MackeyClass.zero(v.n))


def stem_at_sector(v: VirtualRep) -> MackeyClass:
    """The stem at degree v, by sector membership (``sector_column``)."""
    return sector_column(v.n, v.s, v.c).get(v.d, MackeyClass.zero(v.n))


def stem_at_oracle(v: VirtualRep) -> MackeyClass:
    """The stem at degree v, read off sphere homology (``oracle_column``)."""
    return oracle_column(v.n, v.s, v.c).get(v.d, MackeyClass.zero(v.n))


# each method's one implementation; compare_methods reads it from here
stem_at.column = closed_column
stem_at_sector.column = sector_column
stem_at_oracle.column = oracle_column

STEM_METHODS = {
    "closed": stem_at,
    "sector": stem_at_sector,
    "oracle": stem_at_oracle,
}


# ---------------------------------------------------------------------------
# The monomial model of the point ring.

_US = ("us",)
_AS = ("as",)


def _ul(k: int) -> tuple:
    return ("ul", k)


def _al(k: int) -> tuple:
    return ("al", k)


_KEY_NAMES = {"us": "u_sigma", "as": "a_sigma", "ul": "u_l", "al": "a_l"}


def _key_name(key: tuple) -> str:
    base = _KEY_NAMES[key[0]]
    return base + (str(key[1]) if len(key) > 1 else "")


def sector_alphabet(m: int, sector: int) -> tuple[tuple, ...]:
    """Generator alphabet of the given sector at a level with group
    exponent m: sectors below the top mix orientation classes (u) with
    Euler classes (a), the top sector is purely Euler."""
    if not 0 <= sector <= m:
        raise ValueError(f"sector {sector} outside 0..{m}")
    if sector < m:
        keys = [_US]
        keys += [_ul(k) for k in range(sector, m - 1)]
        keys += [_al(k) for k in range(sector)]
    else:
        keys = [_AS]
        keys += [_al(k) for k in range(max(m - 1, 0))]
    return tuple(keys)


@dataclass(frozen=True)
class SectorMonomial:
    """A Laurent monomial in one sector's generator alphabet, at a level
    with group exponent m.  Each sector holds at most one monomial per
    degree, so the exponents are determined by the degree and vice
    versa."""

    m: int
    sector: int
    exponents: tuple[tuple[tuple, int], ...]

    def __post_init__(self) -> None:
        allowed = set(sector_alphabet(self.m, self.sector))
        normal: dict[tuple, int] = {}
        for key, e in self.exponents:
            key = tuple(key)
            if key not in allowed:
                raise ValueError(f"generator {_key_name(key)} not in sector {self.sector} "
                                 f"at exponent-{self.m} level")
            if e:
                normal[key] = normal.get(key, 0) + int(e)
        object.__setattr__(self, "exponents",
                           tuple(sorted((k, e) for k, e in normal.items() if e != 0)))

    @classmethod
    def for_degree(cls, m: int, sector: int, v: VirtualRep) -> "SectorMonomial":
        """The unique sector monomial of the given degree; raises if the
        sector does not occupy that degree."""
        if v.n != m:
            raise ValueError("degree has the wrong ambient exponent")
        if v.fixed_dim(sector) != 0:
            raise ValueError(f"sector {sector} does not occupy degree {v}")
        exps: list[tuple[tuple, int]] = []
        if sector < m:
            exps.append((_US, -v.s))
            for k in range(sector, m - 1):
                exps.append((_ul(k), -v.c[k]))
            for k in range(sector):
                exps.append((_al(k), -v.c[k]))
        else:
            exps.append((_AS, -v.s))
            for k in range(max(m - 1, 0)):
                exps.append((_al(k), -v.c[k]))
        return cls(m, sector, tuple(exps))

    def __str__(self) -> str:
        parts = []
        for key, e in self.exponents:
            parts.append(_key_name(key) + (f"^{e}" if e != 1 else ""))
        return "*".join(parts) if parts else "1"


def _sector_sign(v: VirtualRep, i: int) -> int:
    return MINUS if (i < v.n and v.s % 2 != 0) else PLUS


def _sector_alive(v: VirtualRep, i: int, level: int) -> bool:
    """Whether the sector-i line of degree v has a nonzero value at the
    given level: the degree must lie in the sector's lattice, the level
    must be at or above the sector, and a sign line vanishes at the top."""
    if not 0 <= i <= level:
        return False
    if v.fixed_dim(i) != 0:
        return False
    if _sector_sign(v, i) == MINUS and level == v.n:
        return False
    return True


@dataclass(frozen=True)
class SectorElement:
    """A homogeneous element of the point ring's value at one level.

    The element is a rational combination of per-sector basis lines in a
    single global degree.  Coefficients are taken against the canonical
    transferred generators: the bottom-level generator of each sector
    lattice, pushed up by transfers (transfer is basis-preserving,
    restriction multiplies by 2 per level).  Degree bookkeeping stays
    global; the exponents over the level's own alphabet are recovered
    on demand via restriction.
    """

    level: int
    degree: VirtualRep
    coeffs: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        n = self.degree.n
        if not 0 <= self.level <= n:
            raise ValueError(f"level {self.level} outside 0..{n}")
        merged: dict[int, Fraction] = {}
        for i, q in self.coeffs:
            q = Fraction(q)
            if q == 0:
                continue
            if not _sector_alive(self.degree, i, self.level):
                raise ValueError(f"sector {i} has no line in degree {self.degree} "
                                 f"at level {self.level}")
            merged[i] = merged.get(i, Fraction(0)) + q
        object.__setattr__(self, "coeffs",
                           tuple(sorted((i, q) for i, q in merged.items() if q != 0)))

    @property
    def n(self) -> int:
        return self.degree.n

    @classmethod
    def from_dict(cls, level: int, degree: VirtualRep,
                  coeffs: Mapping[int, Fraction | int]) -> "SectorElement":
        return cls(level, degree, tuple((i, Fraction(q)) for i, q in coeffs.items()))

    # -- canonical classes ---------------------------------------------------

    @classmethod
    def unit(cls, n: int, level: int) -> "SectorElement":
        """The multiplicative unit: the sum of the level's idempotents,
        whose sector-i coordinate is 1/2^(level-i) in the transferred
        basis."""
        return cls.from_dict(level, VirtualRep.zero(n),
                             {i: Fraction(1, 2 ** (level - i)) for i in range(level + 1)})

    @classmethod
    def y_class(cls, n: int, i: int) -> "SectorElement":
        """The idempotent y_i at its own level: the sector-i unit."""
        return cls.from_dict(i, VirtualRep.zero(n), {i: 1})

    @classmethod
    def euler_sigma(cls, n: int) -> "SectorElement":
        """a_sigma, the Euler class of sigma: top level, degree -sigma."""
        return cls.from_dict(n, -VirtualRep.sigma(n), {n: 1})

    @classmethod
    def euler_lambda(cls, n: int, k: int) -> "SectorElement":
        """a_l_k, the Euler class of l_k: top level, degree -l_k."""
        v = -VirtualRep.lam(n, k)
        return cls.from_dict(n, v, {i: Fraction(1, 2 ** (n - i)) for i in range(k + 1, n + 1)})

    @classmethod
    def orient_lambda(cls, n: int, k: int) -> "SectorElement":
        """u_l_k, the orientation class of l_k: top level, degree 2 - l_k."""
        v = VirtualRep.one(n, 2) - VirtualRep.lam(n, k)
        return cls.from_dict(n, v, {i: Fraction(1, 2 ** (n - i)) for i in range(k + 1)})

    @classmethod
    def orient_2sigma(cls, n: int) -> "SectorElement":
        """u_2sigma, the orientation class of sigma + sigma: top level,
        degree 2 - 2*sigma."""
        v = VirtualRep.one(n, 2) - 2 * VirtualRep.sigma(n)
        return cls.from_dict(n, v, {i: Fraction(1, 2 ** (n - i)) for i in range(n)})

    @classmethod
    def orient_sigma(cls, n: int) -> "SectorElement":
        """u_sigma, the orientation class of sigma, living one level
        below the top in degree 1 - sigma."""
        v = VirtualRep.one(n, 1) - VirtualRep.sigma(n)
        return cls.from_dict(n - 1, v,
                             {i: Fraction(1, 2 ** (n - 1 - i)) for i in range(n)})

    # -- algebra --------------------------------------------------------------

    def _coeff_map(self) -> dict[int, Fraction]:
        return dict(self.coeffs)

    def __add__(self, other: "SectorElement") -> "SectorElement":
        if not isinstance(other, SectorElement):
            return NotImplemented
        if other.level != self.level or other.degree != self.degree:
            raise ValueError("operands are degree-inhomogeneous or live at different levels")
        out = self._coeff_map()
        for i, q in other.coeffs:
            out[i] = out.get(i, Fraction(0)) + q
        return SectorElement.from_dict(self.level, self.degree, out)

    def scale(self, q: Fraction | int) -> "SectorElement":
        q = Fraction(q)
        return SectorElement(self.level, self.degree,
                             tuple((i, q * a) for i, a in self.coeffs))

    def __mul__(self, other: "SectorElement") -> "SectorElement":
        """Sectorwise product: exponents add within a sector, cross-sector
        products vanish.  In the transferred basis two sector-i lines at
        level h multiply with structure constant 2^(h-i)."""
        if not isinstance(other, SectorElement):
            return NotImplemented
        if other.level != self.level:
            raise ValueError("operands live at different levels")
        if other.n != self.n:
            raise ValueError("ambient group exponents differ")
        theirs = other._coeff_map()
        out = {}
        for i, q in self.coeffs:
            if i in theirs:
                out[i] = q * theirs[i] * 2 ** (self.level - i)
        return SectorElement.from_dict(self.level, self.degree + other.degree, out)

    def res(self, level: int) -> "SectorElement":
        """Restrict to a lower level: sectors above it are cut away and
        each surviving coordinate gains a factor 2 per level dropped."""
        if not 0 <= level <= self.level:
            raise ValueError(f"cannot restrict level {self.level} to {level}")
        factor = Fraction(2 ** (self.level - level))
        out = {i: q * factor for i, q in self.coeffs if i <= level}
        return SectorElement.from_dict(level, self.degree, out)

    def tr(self) -> "SectorElement":
        """Transfer one level up.  The transferred basis makes this
        coordinate-preserving, except that sign lines die at the top."""
        if self.level >= self.n:
            raise ValueError("cannot transfer above the ambient group")
        target = self.level + 1
        out = {i: q for i, q in self.coeffs if _sector_alive(self.degree, i, target)}
        return SectorElement.from_dict(target, self.degree, out)

    def inverse(self) -> "SectorElement":
        """The sectorwise inverse: the product with it is the sum of the
        idempotents of the support (for a single-sector generator y_i*g
        this is exactly y_i)."""
        if not self.coeffs:
            raise ValueError("the zero element has no inverse")
        out = {i: Fraction(1, 1) / (q * 4 ** (self.level - i)) for i, q in self.coeffs}
        return SectorElement.from_dict(self.level, -self.degree, out)

    def project(self, sectors: Iterable[int]) -> "SectorElement":
        """Keep only the chosen sectors (multiplication by their
        idempotents)."""
        keep = set(sectors)
        return SectorElement(self.level, self.degree,
                             tuple((i, q) for i, q in self.coeffs if i in keep))

    def is_zero(self) -> bool:
        return not self.coeffs

    def monomials(self) -> tuple[tuple[int, SectorMonomial, Fraction], ...]:
        """The explicit local view: for each sector, the unique monomial
        over the level's own alphabet in the restricted degree."""
        local = self.degree.restrict(self.level)
        return tuple((i, SectorMonomial.for_degree(self.level, i, local), q)
                     for i, q in self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, mono, q in self.monomials():
            body = f"y{i}"
            if mono.exponents:
                body += f"*{mono}"
            parts.append(f"{q}*{body}" if q != 1 else body)
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Presentation of the point and fixed-point degree lattices.

@dataclass(frozen=True)
class PresentationGenerator:
    """One invertible generator pair of the point presentation: the
    direct class and its sectorwise inverse partner span the unit group
    of one sector lattice in one degree."""

    family: int
    sector: int
    lam_index: int | None
    sign: int
    degree: VirtualRep
    name: str
    partner: str

    def spans(self) -> str:
        return f"M{self.sector}" + ("-" if self.sign == MINUS else "")


@dataclass(frozen=True)
class PointPresentation:
    n: int
    generators: tuple[PresentationGenerator, ...]
    relations: tuple[str, ...]
    normalization: str

    def generator_count(self) -> int:
        """Direct generators and their inverse partners, counted together."""
        return 2 * len(self.generators)


def point_presentation(n: int) -> PointPresentation:
    """Generators and relations of the RO(G)-graded rational point ring.

    Four families of invertible pairs: the restricted orientation class
    of sigma (one per sector i < n, spanning a sign line), restricted
    orientation classes of the rotations (sectors i <= k), restricted
    Euler classes of the rotations (sectors i > k), and the Euler class
    of sigma in the top sector.  All listed products inside a sector
    multiply with structure constant 1; cross-sector products vanish.
    """
    if n < 1:
        raise ValueError("the presentation needs n >= 1")
    gens: list[PresentationGenerator] = []
    one, sig = VirtualRep.one(n, 1), VirtualRep.sigma(n)
    for i in range(n):
        gens.append(PresentationGenerator(
            1, i, None, MINUS, one - sig,
            f"y{i}*res(u_sigma)", f"y{i}/res(u_sigma)"))
    for k in range(n - 1):
        deg = VirtualRep.one(n, 2) - VirtualRep.lam(n, k)
        for i in range(k + 1):
            gens.append(PresentationGenerator(
                2, i, k, PLUS, deg,
                f"y{i}*res(u_l{k})", f"y{i}/res(u_l{k})"))
    for k in range(n - 1):
        deg = -VirtualRep.lam(n, k)
        for i in range(k + 1, n + 1):
            gens.append(PresentationGenerator(
                3, i, k, PLUS, deg,
                f"y{i}*res(a_l{k})", f"y{i}/res(a_l{k})"))
    gens.append(PresentationGenerator(4, n, None, PLUS, -sig,
                                      "a_sigma", f"y{n}/a_sigma"))
    relations = [f"({g.name})*({g.partner}) = y{g.sector}" for g in gens]
    relations.append("a_sigma*u_2sigma = 0")
    for k in range(n - 1):
        relations.append(f"a_sigma*u_l{k} = 0")
    for k in range(n - 1):
        for kp in range(k + 1):
            relations.append(f"a_l{k}*u_l{kp} = 0")
    note = ("orientation class scalars are normalized to 1; "
            "only scalar ratios are observable")
    return PointPresentation(n, tuple(gens), tuple(relations), note)


@dataclass(frozen=True)
class FixedPointRings:
    """Degree lattices of the geometric and homotopy fixed-point rings.

    Both rings are Laurent: the geometric one on the Euler classes
    (dimension 1 exactly where d = 0, the top sector's lattice), the
    homotopy one on the invertible even orientation classes u_2sigma
    and u_l_k (the even-u sublattice of sector 0).  Inverting the Euler
    classes kills every orientation lattice and conversely, so the Tate
    construction vanishes.
    """

    n: int

    def geometric_dim(self, v: VirtualRep) -> int:
        self._check(v)
        return 1 if v.d == 0 else 0

    def homotopy_dim(self, v: VirtualRep) -> int:
        self._check(v)
        return 1 if v.s % 2 == 0 and v.d == -v.s - 2 * sum(v.c) else 0

    def _check(self, v: VirtualRep) -> None:
        if v.n != self.n:
            raise ValueError("degree has the wrong ambient exponent")


def fixed_point_rings(n: int) -> FixedPointRings:
    if n < 1:
        raise ValueError("fixed-point rings need n >= 1")
    return FixedPointRings(n)


def box_columns(n: int, bound: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The d-columns of the box [-bound, bound]^(n+1): the (s, c) parts
    of its degrees in lexicographic order (for n = 0 only (0, ()))."""
    if n < 0:
        raise ValueError("group exponent n must be >= 0")
    if bound < 0:
        raise ValueError("scan bound must be >= 0")
    return ((coords[0] if n else 0, coords[1:])
            for coords in product(range(-bound, bound + 1), repeat=n))


def lattice_mismatches(n: int, bound: int) -> list[str]:
    """Compare the two fixed-point lattices against stem multiplicities
    over the coordinate box [-bound, bound]^(n+1), one d-column at a
    time: the geometric lattice must match the M_n multiplicity, the
    homotopy lattice the M_0^+ multiplicity.  In a column the three are
    nonzero only at the d of ``closed_column``, at d = 0 and at
    d = -s - 2*sum(c).  Returns human-readable mismatch reports
    (expected empty), ordered by d, then s, then c."""
    rings = fixed_point_rings(n)
    window = range(-bound, bound + 1)
    bad = []
    for s, c in box_columns(n, bound):
        column = closed_column(n, s, c)
        for d in {*column, 0, -s - 2 * sum(c)}.intersection(window):
            v = VirtualRep(n, d, s, c)
            cls = column.get(d, MackeyClass.zero(n))
            if rings.geometric_dim(v) != cls.mult(n, PLUS):
                bad.append((v, f"geometric lattice disagrees with M{n} multiplicity at {v}"))
            if rings.homotopy_dim(v) != cls.mult(0, PLUS):
                bad.append((v, f"homotopy lattice disagrees with M0 multiplicity at {v}"))
    bad.sort(key=lambda item: (item[0].d, item[0].s, item[0].c))
    return [report for _, report in bad]
