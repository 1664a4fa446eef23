"""RO(G)-graded rational stable stems of C_{2^n}, computed three ways.

For G = C_{2^n} the rational G-equivariant stable stem in a virtual
degree V is a finite direct sum of simple Mackey functors M_i^(+-).
This module computes that sum by three independent routes.  Each route
is one function of a d-column (n, s, c), the degrees that differ only
in d, listing the column's nonzero stems by d:

* ``closed_column`` reads the answer off the integer tuples t =
  (j_0..j_{n-1}, j'_0..j'_{n-1}) that decompose a degree, whose entries
  split at a cut position (restrictions before the cut, order-vanishing
  after it): the summands are M_i for k'(t) < i <= k(t), signed by the
  parity of j_{n-1}.  One O(n) cut walk gives each d of the column
  the bitmask of the sectors its runs cover, without building the
  tuples (``decode_degree`` reads them back from the mask's runs).
* ``sector_column`` tests, sector by sector, the lattice membership
  equations of the monomial model of the point: sector i < n occupies
  the degrees with d = -s - 2*(c_i + ... + c_{n-2}), sector n the
  degrees with d = 0; the sign is the parity of the u_sigma exponent.
* ``oracle_column`` computes the Bredon homology of an actual (virtual)
  representation sphere from geometry: each power e*w of one
  irreducible w contributes one simple M_h per subgroup level h, placed
  in the dimension of its fixed sphere and signed by the Weyl action on
  that sphere's orientation, and the powers of distinct generators
  combine by the degreewise box product.  The column is one table.

``STEM_METHODS`` names the three columns; ``stem_at`` reads one degree
off the closed column.

The module also carries the monomial model itself (``SectorElement``,
``SectorMonomial``), a structured generators-and-relations presentation
of the point (``point_presentation``) and the check of the geometric and
homotopy fixed-point lattices against the stems (``lattice_mismatches``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, product, repeat
from math import lcm
from operator import neg
from types import MappingProxyType

from .mackey import MINUS, PLUS, GradedTable, MackeyClass, _box_class
from .rolattice import VirtualRep
from .series import Frozen, Numerators, _exact, _numerators

# The bound of the sphere-table cache.  A box scan reads each column's table
# once, and a miss boxes the tables of its key's two halves; neither workload
# evicts (a heavy round reads 3,324 tables, a light 1,185).
_SPHERE_TABLES = 4096

# The bound of the closed and sector column-shape caches: a heavy round
# reads 97 shapes per method, and the n = 6 box of bound 3 reads 1,080.
_SHAPES = 4096


class StemTuple(Frozen):
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


def _cut_masks(n: int, s: int, c: tuple[int, ...]) -> dict[int, int]:
    """The cut walk of one d-column: for each d, the sectors covered by
    the runs of the tuples that decompose the degree (d, s, c), as a
    bitmask (bit i for sector i).

    Positions under a cut take the j'-assignment, positions at or above
    it the j-assignment, with per-position totals forced by s and c
    (-s at the sigma slot n-1, -c_p at slot p).  The cut lands at the
    trivial part d of its j-assignment; its run is the sectors cut..k,
    k the first nonzero total at or past the cut (n if none), and a cut
    past a zero total repeats the cut before it.  So the walk goes down
    the slots once, the sigma slot first, and emits a run only at a cut
    whose total under it is nonzero (and at cut 0), without building j or
    j'.

    The runs at one d are disjoint and never adjacent, so each is a
    maximal run of its mask's bits.  A run is emitted at a cut > 0 only
    when totals[cut-1] != 0, so a run emitted at a lower cut' ends at
    k' <= cut-1 (its k is the first nonzero total at or past cut'): runs
    are disjoint.  If k' = cut-1, the totals at cut'..cut-2 are zero, so
    the d of the two cuts differ by totals[cut-1] alone (doubled under
    the sigma slot), which is nonzero: adjacent runs lie at different d.
    """
    found: dict[int, int] = {}
    d, k = 0, n  # the cut's d and the end of its run, from cut n down
    if s and n:
        found[0] = 1 << n
        d, k = -s, n - 1
    p = n - 1
    for ck in reversed(c):
        p -= 1  # slot p, just under cut p + 1, has the total -ck
        if ck:
            found[d] = found.get(d, 0) | (2 << k) - (2 << p)
            d -= 2 * ck
            k = p
    found[d] = found.get(d, 0) | (2 << k) - 1
    return found


def _mask_runs(mask: int) -> list[range]:
    """The maximal runs of set bits of mask, lowest first."""
    runs = []
    while mask:
        low = (mask & -mask).bit_length() - 1
        above = mask >> low
        length = (~above & (above + 1)).bit_length() - 1
        runs.append(range(low, low + length))
        mask ^= ((1 << length) - 1) << low
    return runs


def decode_degree(v: VirtualRep) -> tuple[StemTuple, ...]:
    """All valid tuples decomposing the degree v, sorted by sector run:
    one per maximal run of the mask that ``_cut_masks`` gives v.d.

    A degree can decode to more than one tuple (the occupied sectors
    then form several runs separated by gaps, e.g. l0 - 2*sigma at
    n = 2 decodes to u_l0^-1 u_sigma^2 and to a_l0^-1 a_sigma^2, with
    runs {0} and {2}).
    """
    n = v.n
    totals = tuple(-ck for ck in v.c) + ((-v.s,) if n >= 1 else ())
    return tuple(StemTuple(n, (0,) * run.start + totals[run.start:],
                           totals[:run.start] + (0,) * (n - run.start))
                 for run in _mask_runs(_cut_masks(n, v.s, v.c).get(v.d, 0)))


# The MackeyClass constructor behind a bounded cache, for the classes
# that closed_column and sector_column build: an equal stem is one
# validated, frozen instance, so equal columns compare by identity.
# Only values pass through it; an invalid entry tuple raises and is not
# cached.
_stem_class = lru_cache(maxsize=1024)(MackeyClass)


@lru_cache(maxsize=_SHAPES)
def _closed_class(n: int, odd: int, masks: tuple[int, ...]) -> tuple[MackeyClass, ...]:
    """The closed-form stems of one column shape, one per mask of the
    runs at a d: one simple per sector set in the mask, signed by the
    parity of s except at the top."""
    sign = MINUS if odd else PLUS
    classes = []
    for mask in masks:
        bits = bin(mask)[:1:-1]  # bit i at index i
        classes.append(_stem_class(n, tuple((i, sign if i < n else PLUS, 1)
                                            for i, bit in enumerate(bits) if bit == "1")))
    return tuple(classes)


def closed_column(n: int, s: int, c: tuple[int, ...]) -> dict[int, MackeyClass]:
    """The stems of the d-column (n, s, c) at its nonzero d, in closed
    form: the sum of the decoded tuples' runs, one simple per sector,
    signed by the parity of the sigma-slot entry -s (a run reaches the
    top sector only when that entry is 0).  The classes are looked up
    once per column by its shape, the parity of s and the masks in walk
    order, so their entries are built only the first time it occurs."""
    masks = _cut_masks(n, s, c)
    return dict(zip(masks, _closed_class(n, s & 1, tuple(masks.values()))))


@lru_cache(maxsize=_SHAPES)
def _sector_class(n: int, odd: int, occupied: tuple[int, ...]) -> tuple[MackeyClass, ...]:
    """The stems of one column shape, one per bitmask of the sectors
    occupying a d (bit i for sector i): M_i signed by the parity of s
    for i < n, and M_n^+ for the top sector."""
    sign = MINUS if odd else PLUS
    classes = []
    for bits in occupied:
        entries = []
        while bits:
            lowest = bits & -bits
            i = lowest.bit_length() - 1
            entries.append((i, sign if i < n else PLUS, 1))
            bits ^= lowest
        classes.append(_stem_class(n, tuple(entries)))
    return tuple(classes)


def sector_column(n: int, s: int, c: tuple[int, ...]) -> dict[int, MackeyClass]:
    """The stems of the d-column (n, s, c) at its nonzero d, by sector
    membership of the monomial model.

    Sector i < n is the Laurent lattice on u_sigma, the u_l_k with
    k >= i and the a_l_k with k < i; it occupies the degree
    d = -s - 2*(c_i + ... + c_{n-2}), signed by the parity of the
    u_sigma exponent -s.  Sector n is the Laurent lattice on a_sigma
    and all a_l_k, at d = 0.  The classes are looked up once per column
    by its shape, the parity of s and the bitmasks of the sectors
    occupying each d.
    """
    found: dict[int, int] = {}  # d -> bitmask of the sectors occupying it
    d = -s - 2 * sum(c)  # sector 0; each c_i moves the next sector's d
    bit = 1
    for ci in c:
        found[d] = found.get(d, 0) | bit
        d += 2 * ci
        bit <<= 1
    if n:  # sector n - 1, at d = -s
        found[d] = found.get(d, 0) | bit
        bit <<= 1
    found[0] = found.get(0, 0) | bit
    return dict(zip(found, _sector_class(n, s & 1, tuple(found.values()))))


@lru_cache(maxsize=_SPHERE_TABLES)
def _smash_table(n: int, s: int, c: tuple[int, ...]) -> GradedTable:
    """Homology table of the virtual sphere S^(s*sigma + sum c_k*l_k).

    Its f factors are the sigma power (when s != 0), then the nonzero
    rotation powers in slot order.  With f < 2, one power of one
    irreducible (of either sign) or none, it is read off fixed-point
    geometry: level h gives one M_h in the degree of its fixed sphere,
    signed by the Weyl action there, and levels sharing a degree make
    one class.  Otherwise it boxes this table, cached, of the first
    ceil(f/2) factors (keeping s) with that of the last floor(f/2)
    (s = 0), so f factors recurse only ceil(log2 f) deep."""
    slots = [k for k, ck in enumerate(c) if ck]
    f = len(slots) + (s != 0)
    if f >= 2:
        cut = slots[len(slots) - f // 2]  # the slot of the tail's first factor
        return (_smash_table(n, s, c[:cut] + (0,) * (len(c) - cut))
                .box(_smash_table(n, 0, (0,) * cut + c[cut:])))
    w = VirtualRep(n, 0, s, c)
    levels: dict[int, list[tuple[int, int, int]]] = {}
    tail = 2 * sum(c)  # 2*(c_h + ... + c_{n-2}): w.fixed_dim(h) without its O(n) sum
    for h in range(n + 1):
        degree = (s if h < n else 0) + tail
        levels.setdefault(degree, []).append((h, w.fixed_sign(h), 1))
        if h < n - 1:
            tail -= 2 * c[h]
    # levels ascend within a degree: sorted by degree, the table is in normal form
    return GradedTable._from_normal(n, tuple([(d, _box_class(n, tuple(es)))
                                              for d, es in sorted(levels.items())]))


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


STEM_METHODS = {
    "closed": closed_column,
    "sector": sector_column,
    "oracle": oracle_column,
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
    exponent m: sectors under the top mix orientation classes (u) with
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


class SectorMonomial(Frozen):
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
        return cls(m, sector, tuple((key, -(v.s if key in (_US, _AS) else v.c[key[1]]))
                                    for key in sector_alphabet(m, sector)))

    def __str__(self) -> str:
        parts = []
        for key, e in self.exponents:
            parts.append(_key_name(key) + (f"^{e}" if e != 1 else ""))
        return "*".join(parts) if parts else "1"


def _sector_alive(v: VirtualRep, i: int, level: int) -> bool:
    """Whether the sector-i line of degree v has a nonzero value at the
    given level: the degree must lie in the sector's lattice, the level
    must be at or above the sector, and a sign line vanishes at the top."""
    if not 0 <= i <= level:
        return False
    if v.fixed_dim(i) != 0:
        return False
    if v.fixed_sign(i) == MINUS and level == v.n:
        return False
    return True


class SectorElement(Numerators):
    """A homogeneous element of the point ring's value at one level.

    The element is a rational combination of per-sector basis lines in a
    single global degree.  Coefficients are taken against the canonical
    transferred generators: the bottom-level generator of each sector
    lattice, pushed up by transfers (transfer is basis-preserving,
    restriction multiplies by 2 per level).  Degree bookkeeping stays
    global; the exponents over the level's own alphabet are recovered
    on demand via restriction.

    The coefficients are stored densely in the reduced-numerator form of
    ``series.Numerators``: ``nums`` holds one numerator per sector
    0..level, 0 where the sector has no line, over one positive
    denominator ``den``.  So equality and hashing compare integers, and
    the algebra runs on them; the ``coeffs`` view lists the nonzero lines
    as (sector, Fraction) pairs.
    """

    level: int
    degree: VirtualRep
    den: int
    nums: tuple[int, ...]

    def __init__(self, level: int, degree: VirtualRep,
                 coeffs: Iterable[tuple[int, Fraction | int]]):
        n = degree.n
        if not 0 <= level <= n:
            raise ValueError(f"level {level} outside 0..{n}")
        merged: list[Fraction | int] = [0] * (level + 1)
        for i, q in coeffs:
            if type(q) is not int:
                q = _exact(q, "sector coefficients")
            if q == 0:
                continue
            if not _sector_alive(degree, i, level):
                raise ValueError(f"sector {i} has no line in degree {degree} "
                                 f"at level {level}")
            merged[i] += q
        den, nums = _numerators(merged)
        self._fill((level, degree), den, tuple(nums))

    def _place(self) -> tuple:
        return (self.level, self.degree)

    @cached_property
    def coeffs(self) -> tuple[tuple[int, Fraction], ...]:
        """The pairs (sector, coefficient) of the nonzero lines as
        Fractions, built on first read."""
        den = self.den
        return tuple((i, Fraction(a, den)) for i, a in enumerate(self.nums) if a)

    @property
    def n(self) -> int:
        return self.degree.n

    @classmethod
    def from_dict(cls, level: int, degree: VirtualRep,
                  coeffs: Mapping[int, Fraction | int]) -> "SectorElement":
        return cls(level, degree, tuple(coeffs.items()))

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
        under the top in degree 1 - sigma."""
        v = VirtualRep.one(n, 1) - VirtualRep.sigma(n)
        return cls.from_dict(n - 1, v,
                             {i: Fraction(1, 2 ** (n - 1 - i)) for i in range(n)})

    # -- algebra --------------------------------------------------------------

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
        level = self.level
        out = [a * b << (level - i) for i, (a, b) in enumerate(zip(self.nums, other.nums))]
        return SectorElement._reduced((level, self.degree + other.degree),
                                      self.den * other.den, out)

    def res(self, level: int) -> "SectorElement":
        """Restrict to a lower level: sectors above it are cut away and
        each surviving coordinate gains a factor 2 per level dropped."""
        if not 0 <= level <= self.level:
            raise ValueError(f"cannot restrict level {self.level} to {level}")
        shift = self.level - level
        return SectorElement._reduced((level, self.degree), self.den,
                                      [a << shift for a in self.nums[: level + 1]])

    def tr(self) -> "SectorElement":
        """Transfer one level up.  The transferred basis makes this
        coordinate-preserving, except that sign lines die at the top."""
        if self.level >= self.n:
            raise ValueError("cannot transfer above the ambient group")
        target, degree = self.level + 1, self.degree
        return SectorElement._reduced((target, degree), self.den,
                                      [a if a and _sector_alive(degree, i, target) else 0
                                       for i, a in enumerate((*self.nums, 0))])

    def inverse(self) -> "SectorElement":
        """The sectorwise inverse: the product with it is the sum of the
        idempotents of the support (for a single-sector generator y_i*g
        this is exactly y_i).  Coordinate a/den at sector i inverts to
        den / (a * 4^(level-i)), put over the lcm of those denominators."""
        if self.is_zero():
            raise ValueError("the zero element has no inverse")
        level, den = self.level, self.den
        dens = [abs(a) << 2 * (level - i) for i, a in enumerate(self.nums)]
        common = lcm(*(d for d in dens if d))
        out = [(den if a > 0 else -den) * (common // d) if a else 0
               for a, d in zip(self.nums, dens)]
        return SectorElement._reduced((level, -self.degree), common, out)

    def project(self, sectors: Iterable[int]) -> "SectorElement":
        """Keep only the chosen sectors (multiplication by their
        idempotents)."""
        keep = set(sectors)
        return SectorElement._reduced(self._place(), self.den,
                                      [a if i in keep else 0 for i, a in enumerate(self.nums)])

    def monomials(self) -> tuple[tuple[int, SectorMonomial, Fraction], ...]:
        """The explicit local view: for each sector, the unique monomial
        over the level's own alphabet in the restricted degree."""
        local = self.degree.restrict(self.level)
        return tuple((i, SectorMonomial.for_degree(self.level, i, local), q)
                     for i, q in self.coeffs)

    def __str__(self) -> str:
        if self.is_zero():
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

class PresentationGenerator(Frozen):
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

    def __init__(self, family: int, sector: int, lam_index: int | None, sign: int,
                 degree: VirtualRep, name: str, partner: str) -> None:
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "sector", sector)
        object.__setattr__(self, "lam_index", lam_index)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "partner", partner)

    def spans(self) -> str:
        return f"M{self.sector}" + ("-" if self.sign == MINUS else "")


class PointPresentation(Frozen):
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
    # each degree built once from its coordinates: 1 - sigma, 2 - l_k and
    # -l_k (-1 in rotation slot k), and -sigma
    zeros = (0,) * (n - 1)
    minus_lam = [zeros[:k] + (-1,) + zeros[k + 1:] for k in range(n - 1)]
    deg = VirtualRep(n, 1, -1, zeros)
    for i in range(n):
        gens.append(PresentationGenerator(
            1, i, None, MINUS, deg,
            f"y{i}*res(u_sigma)", f"y{i}/res(u_sigma)"))
    for k, c in enumerate(minus_lam):
        deg = VirtualRep(n, 2, 0, c)
        for i in range(k + 1):
            gens.append(PresentationGenerator(
                2, i, k, PLUS, deg,
                f"y{i}*res(u_l{k})", f"y{i}/res(u_l{k})"))
    for k, c in enumerate(minus_lam):
        deg = VirtualRep(n, 0, 0, c)
        for i in range(k + 1, n + 1):
            gens.append(PresentationGenerator(
                3, i, k, PLUS, deg,
                f"y{i}*res(a_l{k})", f"y{i}/res(a_l{k})"))
    gens.append(PresentationGenerator(4, n, None, PLUS, VirtualRep(n, 0, -1, zeros),
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


def box_columns(n: int, bound: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The d-columns of the box [-bound, bound]^(n+1): the (s, c) parts
    of its degrees in lexicographic order (for n = 0 only (0, ()))."""
    if n < 0:
        raise ValueError("group exponent n must be >= 0")
    if bound < 0:
        raise ValueError("scan bound must be >= 0")
    if not n:
        return iter([(0, ())])
    window = range(-bound, bound + 1)
    return chain.from_iterable(zip(repeat(s), product(window, repeat=n - 1)) for s in window)


def weak_orderings(m: int) -> Iterator[tuple[int, ...]]:
    """Every weak ordering of m items, as the items' block ranks 0..B-1
    (B the number of blocks, every rank used)."""
    if m == 0:
        yield ()
        return
    for ranks in weak_orderings(m - 1):
        blocks = max(ranks, default=-1) + 1
        for r in range(blocks):  # the last item joins block r
            yield ranks + (r,)
        for r in range(blocks + 1):  # or makes a block of its own at rank r
            yield tuple(q + (q >= r) for q in ranks) + (r,)


def face_columns(n: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """One column (s, c) per face of (x_0, ..., x_{n-1}, y) in the braid
    arrangement and parity of s, for n >= 1, where x_h = c_h + ... +
    c_{n-2} (so x_{n-1} = 0) and y = -s/2.  The values sit at their
    ranks, shifted to x_{n-1} = 0.  For even s every weak ordering of
    the n + 1 values is a face; for odd s, y is a half-integer in a gap
    between the ranks of a weak ordering of the x_h, or past either end.

    Each stem method puts level h < n at d = 2(y - x_h) and level n at
    d = 0, signed by the parity of s, so a column's stems are those of
    its face's column with the degrees moved: agreement on these
    columns is agreement in every degree of exponent n."""
    def column(x, two_y):
        return 2 * x[-1] - two_y, tuple(a - b for a, b in zip(x, x[1:]))

    for ranks in weak_orderings(n + 1):
        yield column(ranks[:n], 2 * ranks[n])
    for ranks in weak_orderings(n):
        for gap in range(max(ranks) + 2):
            yield column(ranks, 2 * gap - 1)


def lattice_mismatches(n: int, bound: int) -> list[str]:
    """Compare the degree lattices of the two fixed-point rings with stem
    multiplicities over the box [-bound, bound]^(n+1), one d-column at a
    time.  Both rings are Laurent.  The geometric one, on the Euler
    classes, has dimension 1 exactly at d = 0 (the top sector's lattice),
    matched with the M_n multiplicity; the homotopy one, on u_2sigma and
    the u_l_k, exactly at even s and d = -s - 2*sum(c) (the even-u
    sublattice of sector 0), matched with the M_0^+ multiplicity.  A
    column's stems are nonzero only at the d of ``closed_column``.
    Returns mismatch reports (expected empty), ordered by d, then s, then c."""
    if n < 1:
        raise ValueError("fixed-point rings need n >= 1")
    window = range(-bound, bound + 1)
    bad = []
    for s, c in box_columns(n, bound):
        column = closed_column(n, s, c)
        sector0 = -s - 2 * sum(c)
        for d in {*column, 0, sector0}.intersection(window):
            cls = column.get(d)
            top, bottom = (0, 0) if cls is None else (cls.mult(n, PLUS), cls.mult(0, PLUS))
            if (1 if d == 0 else 0) != top:
                bad.append(((d, s, c), f"geometric lattice disagrees with M{n} multiplicity"))
            if (1 if s % 2 == 0 and d == sector0 else 0) != bottom:
                bad.append(((d, s, c), "homotopy lattice disagrees with M0 multiplicity"))
    bad.sort(key=lambda item: item[0])
    return [f"{what} at {VirtualRep(n, *key)}" for key, what in bad]
