"""Tests for the three stem computations and the sector model.

The frozen goldens come first: the homology tables of the one-summand
spheres and the stems of the landmark degrees, written out as explicit
classes.  After that the three methods are played against each other
exhaustively and the structural properties (symmetry, multiplicativity,
restriction recursion) are checked over random degrees.
"""

import random
import sys
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from ratstems import stems
from ratstems.mackey import MINUS, PLUS, MackeyClass
from ratstems.rolattice import VirtualRep, parse_degree
from ratstems.stems import (SectorElement, SectorMonomial, StemTuple,
                            TupleAmbiguityError, decode_degree,
                            fixed_point_rings, lattice_mismatches,
                            point_presentation, sector_alphabet,
                            sphere_homology, stem_at, stem_at_oracle,
                            stem_at_sector)


def M(n, *pairs):
    """Shorthand: M(n, (i, +1), (j, -1), ...) builds the direct sum."""
    return MackeyClass(n, tuple((i, s, 1) for i, s in pairs))


def box_degrees(n, bound):
    """Every degree of the box [-bound, bound]^(n+1), ordered by d, then
    s, then c (for n = 0 only d exists)."""
    for coords in product(range(-bound, bound + 1), repeat=n + 1):
        yield VirtualRep(n, coords[0], coords[1] if n else 0, coords[2:])


# ---------------------------------------------------------------------------
# Frozen sphere tables.

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sphere_sigma_table(n):
    table = sphere_homology(VirtualRep.sigma(n))
    assert table.degrees() == (0, 1)
    assert table.get(0) == M(n, (n, PLUS))
    assert table.get(1) == M(n, *((i, MINUS) for i in range(n)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sphere_two_sigma_table(n):
    table = sphere_homology(2 * VirtualRep.sigma(n))
    assert table.degrees() == (0, 2)
    assert table.get(0) == M(n, (n, PLUS))
    assert table.get(1).is_zero()
    assert table.get(2) == M(n, *((i, PLUS) for i in range(n)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sphere_rotation_tables(n):
    for k in range(n - 1):
        table = sphere_homology(VirtualRep.lam(n, k))
        assert table.degrees() == (0, 2)
        assert table.get(0) == M(n, *((i, PLUS) for i in range(k + 1, n + 1)))
        assert table.get(2) == M(n, *((i, PLUS) for i in range(k + 1)))


def test_sphere_trivial_shift():
    n = 2
    table = sphere_homology(VirtualRep.one(n, 3))
    assert table.degrees() == (3,)
    assert table.get(3) == MackeyClass.burnside_class(n)


# ---------------------------------------------------------------------------
# Landmark stems, all three methods.

ALL_METHODS = (stem_at, stem_at_sector, stem_at_oracle)


def stems_everywhere(v):
    results = {fn(v) for fn in ALL_METHODS}
    assert len(results) == 1, f"methods disagree at {v}"
    return results.pop()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stem_landmarks(n):
    assert stems_everywhere(VirtualRep.zero(n)) == MackeyClass.burnside_class(n)
    one, sig = VirtualRep.one(n, 1), VirtualRep.sigma(n)
    assert stems_everywhere(one - sig) == M(n, *((i, MINUS) for i in range(n)))
    assert stems_everywhere(sig - one) == M(n, *((i, MINUS) for i in range(n)))
    assert stems_everywhere(-sig) == M(n, (n, PLUS))
    assert stems_everywhere(2 * sig - VirtualRep.one(n, 2)) == \
        M(n, *((i, PLUS) for i in range(n)))
    for k in range(n - 1):
        lam = VirtualRep.lam(n, k)
        assert stems_everywhere(VirtualRep.one(n, 2) - lam) == \
            M(n, *((i, PLUS) for i in range(k + 1)))
        assert stems_everywhere(-lam) == M(n, *((i, PLUS) for i in range(k + 1, n + 1)))
        assert stems_everywhere(VirtualRep.one(n, 4) - 2 * lam) == \
            M(n, *((i, PLUS) for i in range(k + 1)))
    if n >= 2:
        assert stems_everywhere(VirtualRep.lam(n, 0)) == \
            M(n, *((i, PLUS) for i in range(1, n + 1)))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_integer_degrees_vanish(n):
    for d in range(-6, 7):
        want = MackeyClass.burnside_class(n) if d == 0 else MackeyClass.zero(n)
        assert stems_everywhere(VirtualRep.one(n, d)) == want


@pytest.mark.parametrize("n,bound", [(1, 3), (2, 2), (3, 2)])
def test_three_way_agreement_over_box(n, bound):
    for v in box_degrees(n, bound):
        stems_everywhere(v)


# ---------------------------------------------------------------------------
# Tuple decoding.

def test_decode_zero_degree():
    tuples = decode_degree(VirtualRep.zero(3))
    assert len(tuples) == 1
    t = tuples[0]
    assert t.j == (0, 0, 0) and t.j_prime == (0, 0, 0)
    assert t.k() == 3 and t.k_prime() == -1
    assert list(t.run()) == [0, 1, 2, 3]
    assert t.sign() == PLUS


def test_decode_sign_degree():
    (t,) = decode_degree(parse_degree("1 - sigma", 2))
    assert t.sign() == MINUS
    assert list(t.run()) == [0, 1]


def test_decode_no_tuple():
    assert decode_degree(VirtualRep.one(2, 1)) == ()
    assert stem_at(VirtualRep.one(2, 1)).is_zero()


def test_two_tuples_with_disjoint_runs():
    # l0 - 2*sigma at n=2 is hit by two distinct decompositions, one
    # covering sector 0 and one covering sector 2; the stem is the sum
    v = parse_degree("l0 - 2*sigma", 2)
    tuples = decode_degree(v)
    assert len(tuples) == 2
    runs = [list(t.run()) for t in tuples]
    assert runs == [[0], [2]]
    assert stems_everywhere(v) == M(2, (0, PLUS), (2, PLUS))


@pytest.mark.parametrize("n,bound", [(1, 3), (2, 2), (3, 2)])
def test_decode_runs_are_disjoint_and_multiplicity_free(n, bound):
    for v in box_degrees(n, bound):
        tuples = decode_degree(v)  # raises TupleAmbiguityError on overlap
        covered = set()
        for t in tuples:
            run = set(t.run())
            assert t.k_prime() < t.k()
            assert not (run & covered)
            covered |= run
        assert all(mult == 1 for _, _, mult in stem_at(v).entries)


def test_ambiguity_error_is_detectable():
    assert issubclass(TupleAmbiguityError, RuntimeError)


def ref_decode_degree(v):
    """The reference cut walk: rebuild j, j' and the d-sum at every cut,
    O(n^2), and merge equal tuples in a dict."""
    n = v.n
    totals = [-ck for ck in v.c] + ([-v.s] if n >= 1 else [])
    found = {}
    for cut in range(n + 1):
        j = [0] * n
        jp = [0] * n
        for p in range(n):
            if p < cut:
                jp[p] = totals[p]
            else:
                j[p] = totals[p]
        d = 2 * sum(j[k] for k in range(n - 1)) + (j[n - 1] if n >= 1 else 0)
        if d == v.d:
            found.setdefault((tuple(j), tuple(jp)))
    tuples = sorted((StemTuple(n, j, jp) for j, jp in found),
                    key=lambda t: (t.k_prime(), t.k()))
    for prev, cur in zip(tuples, tuples[1:]):
        if prev.k() > cur.k_prime():
            raise TupleAmbiguityError(f"degree {v}: overlapping sector runs")
    return tuple(tuples)


@pytest.mark.parametrize("n,bound", [(0, 3), (1, 4), (2, 3), (3, 2), (4, 2), (5, 1)])
def test_decode_matches_reference_over_box(n, bound):
    for v in box_degrees(n, bound):
        assert decode_degree(v) == ref_decode_degree(v), v


def test_decode_matches_reference_on_seeded_degrees():
    rng = random.Random(20211)
    merged = several = 0
    for _ in range(600):
        n = rng.randint(1, 40)
        coords = [rng.choice((0, 0, 0, 1, -1, 2, -2, 5)) for _ in range(n)]
        s, c = coords[-1], tuple(coords[:-1])
        # d of a random cut's j-assignment, so that most degrees decode
        cut_ds = [-2 * sum(c[cut:]) - (s if cut < n else 0) for cut in range(n + 1)]
        v = VirtualRep(n, rng.choice(cut_ds) + rng.choice((0, 0, 0, 1)), s, c)
        want = ref_decode_degree(v)
        assert decode_degree(v) == want, v
        several += len(want) >= 2
        merged += cut_ds.count(v.d) > len(want)
    # the draw covers merged zero-total cuts and multi-tuple degrees
    assert merged > 100 and several > 50
    for text, n in [("l0 - 2*sigma", 2), ("l1 - 2*sigma", 3), ("l0 - l1", 3),
                    ("2*l0 - l2 - 2*sigma", 4), ("0", 40)]:
        v = parse_degree(text, n)
        assert decode_degree(v) == ref_decode_degree(v), text
    assert len(decode_degree(parse_degree("l0 - 2*sigma", 2))) == 2


def alternating_degree(n):
    """d = s = 0 with rotation coefficients 1, -1, 1, ...: about n/2
    cuts land at d = 0, each with a run of its own."""
    return VirtualRep(n, 0, 0, tuple((-1) ** k for k in range(n - 1)))


def test_stem_at_is_linear_in_n_on_many_tuples():
    for n in range(41):
        v = alternating_degree(n)
        runs = tuple((i, t.sign(), 1) for t in decode_degree(v) for i in t.run())
        assert stem_at(v) == MackeyClass(n, runs) == stem_at_sector(v), n
    assert len(decode_degree(alternating_degree(40))) == 20
    # 10001 tuples of length 20001 each: the tuple view is quadratic
    # here, the closed column linear
    n = 20001
    v = alternating_degree(n)
    start = time.perf_counter()
    cls = stem_at(v)
    assert time.perf_counter() - start < 1.0
    assert cls == M(n, *((i, PLUS) for i in [*range(0, n, 2), n])) == stem_at_sector(v)


# ---------------------------------------------------------------------------
# Columns: each method answers a whole d-column (n, s, c) at once.

COLUMNS = [(stem_at, stems.closed_column), (stem_at_sector, stems.sector_column),
           (stem_at_oracle, stems.oracle_column)]


@pytest.mark.parametrize("fn,column", COLUMNS, ids=["closed", "sector", "oracle"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_column_matches_per_degree(fn, column, n):
    assert fn.column is column
    for bound in (0, 1, 2):
        window = range(-bound, bound + 1)
        for s, c in stems.box_columns(n, bound):
            found = column(n, s, c)
            assert len(found) <= n + 1
            assert not any(cls.is_zero() for cls in found.values())
            per_degree = {d: fn(VirtualRep(n, d, s, c)) for d in window}
            assert {d: cls for d, cls in found.items() if d in window} == \
                {d: cls for d, cls in per_degree.items() if not cls.is_zero()}, (s, c)


@pytest.mark.parametrize("n,bound", [(0, 0), (0, 2), (1, 3), (2, 2), (3, 1)])
def test_box_columns_are_the_columns_of_box_degrees(n, bound):
    want = [(v.s, v.c) for v in box_degrees(n, bound) if v.d == -bound]
    assert list(stems.box_columns(n, bound)) == want
    assert len(list(box_degrees(n, bound))) == (2 * bound + 1) ** (n + 1)
    with pytest.raises(ValueError):
        stems.box_columns(n, -1)


@pytest.mark.parametrize("corrupt", ["none", "empty", "shifted"])
def test_lattice_mismatches_match_dense_walk(corrupt, monkeypatch):
    closed = stems.closed_column
    if corrupt == "empty":
        monkeypatch.setattr(stems, "closed_column", lambda n, s, c: {})
    elif corrupt == "shifted":
        monkeypatch.setattr(stems, "closed_column", lambda n, s, c: {
            d + 1: cls for d, cls in closed(n, s, c).items()})
    for n, bound in [(1, 2), (2, 2), (3, 1)]:
        rings = fixed_point_rings(n)
        want = []
        for v in box_degrees(n, bound):
            cls = stems.closed_column(n, v.s, v.c).get(v.d, MackeyClass.zero(n))
            if rings.geometric_dim(v) != cls.mult(n, PLUS):
                want.append(f"geometric lattice disagrees with M{n} multiplicity at {v}")
            if rings.homotopy_dim(v) != cls.mult(0, PLUS):
                want.append(f"homotopy lattice disagrees with M0 multiplicity at {v}")
        assert lattice_mismatches(n, bound) == want
        assert bool(want) == (corrupt != "none")


def test_closed_column_matches_reference_decoder():
    # the closed column against the sum of the quadratic reference
    # walk's runs, on the seeded degrees' columns
    rng = random.Random(4711)
    for _ in range(300):
        n = rng.randint(0, 12)
        coords = [rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(n)]
        s, c = (coords[-1], tuple(coords[:-1])) if n else (0, ())
        for d, cls in stems.closed_column(n, s, c).items():
            tuples = ref_decode_degree(VirtualRep(n, d, s, c))
            assert cls == MackeyClass(n, tuple((i, t.sign(), 1)
                                               for t in tuples for i in t.run()))
        for d in range(-8, 9):
            v = VirtualRep(n, d, s, c)
            assert bool(ref_decode_degree(v)) == (d in stems.closed_column(n, s, c))


# ---------------------------------------------------------------------------
# Structural properties over random degrees.

def degree_strategy(max_n=4, span=4):
    coord = st.integers(min_value=-span, max_value=span)
    def build(n):
        return st.tuples(coord, coord, st.tuples(*[coord] * (n - 1))).map(
            lambda t: VirtualRep(n, t[0], t[1], t[2]))
    return st.integers(min_value=1, max_value=max_n).flatmap(build)


@given(degree_strategy())
def test_symmetry(v):
    assert stem_at(v) == stem_at(-v)


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(st.just(n), st.tuples(*[st.integers(-3, 3)] * (n + 1)),
                        st.tuples(*[st.integers(-3, 3)] * (n + 1)))))
def test_multiplicativity(args):
    # a summand present on both sides survives into the sum of degrees,
    # with multiplied sign
    n, a, b = args
    v = VirtualRep(n, a[0], a[1], a[2:])
    w = VirtualRep(n, b[0], b[1], b[2:])
    sv, sw, svw = stem_at(v), stem_at(w), stem_at(v + w)
    for i in range(n + 1):
        for s1 in (PLUS, MINUS):
            for s2 in (PLUS, MINUS):
                if sv.mult(i, s1) and sw.mult(i, s2):
                    assert svw.mult(i, s1 * s2) >= 1


@given(degree_strategy(max_n=4, span=3))
def test_level_recursion(v):
    cls = stem_at(v)
    for h in range(v.n + 1):
        assert cls.level_dim(h) == stem_at(v.restrict(h)).level_dim(h)


@given(degree_strategy())
def test_oracle_equals_closed_form(v):
    assert stem_at(v) == stem_at_oracle(v) == stem_at_sector(v)


def test_mixed_degree_kunneth():
    # the table of a sum of spheres is the box of the tables
    for n in (2, 3):
        sig, one = VirtualRep.sigma(n), VirtualRep.one(n, 1)
        l0 = VirtualRep.lam(n, 0)
        cases = [(sig, sig), (sig, -sig), (l0, sig), (l0, -2 * sig + one),
                 (sig, 2 * sig), (2 * sig, -3 * sig), (l0, 2 * l0), (-l0, 3 * l0)]
        for v, w in cases:
            assert sphere_homology(v + w) == sphere_homology(v).box(sphere_homology(w))


def test_oracle_answers_large_powers():
    # one geometric table per generator power: a cold degree adds at most
    # n sphere tables, however large its coefficients.  Emptied first,
    # since a full bounded cache does not grow
    stems._smash_table.cache_clear()
    for n in (1, 2, 3, 4):
        v = VirtualRep(n, 3, 7919, tuple(range(-4001, -4001 + 2 * (n - 1), 2)))
        before = stems._smash_table.cache_info().currsize
        assert stem_at_oracle(v) == stem_at(v)
        assert stems._smash_table.cache_info().currsize - before <= n


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_long_rotation_chain_needs_no_recursion():
    # 120 nonzero rotation powers, with about 60 frames of headroom: the
    # table folds them in a loop and caches every prefix on the way.
    # Emptied first, since a full bounded cache does not grow
    stems._smash_table.cache_clear()
    n = 121
    c = tuple(k % 3 - 1 or 2 for k in range(n - 1))
    v = VirtualRep(n, 0, 1, c)
    want = stems._power_sphere_table(n, "sigma", -1, 1)
    for k, ck in enumerate(c):
        want = want.box(stems._power_sphere_table(n, "lam", k, ck))
    before = stems._smash_table.cache_info()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 60)
    try:
        table = sphere_homology(v)
    finally:
        sys.setrecursionlimit(limit)
    after = stems._smash_table.cache_info()
    assert table == want
    assert after.misses - before.misses == after.currsize - before.currsize == n
    assert stem_at_oracle(-v) == stem_at(-v)


def test_three_methods_agree_at_large_n():
    # whole columns as dicts: seeded sparse columns (5 nonzero rotation
    # coefficients) up to n = 1000, and dense ones at n = 100
    rng = random.Random(7)
    cases = []
    for n in (40, 200, 600, 1000):
        for _ in range(3):
            c = [0] * (n - 1)
            for k in rng.sample(range(n - 1), 5):
                c[k] = rng.choice([-3, -2, -1, 1, 2, 3])
            cases.append((n, rng.randint(-4, 4), tuple(c)))
    for _ in range(3):
        cases.append((100, rng.randint(-4, 4),
                      tuple(rng.choice([-2, -1, 1, 2]) for _ in range(99))))
    for n, s, c in cases:
        closed = stems.closed_column(n, s, c)
        assert closed
        assert stems.sector_column(n, s, c) == closed
        assert stems.oracle_column(n, s, c) == closed


# ---------------------------------------------------------------------------
# The sector model.

def test_sector_alphabets():
    assert sector_alphabet(3, 0) == (("us",), ("ul", 0), ("ul", 1))
    assert sector_alphabet(3, 2) == (("us",), ("al", 0), ("al", 1))
    assert sector_alphabet(3, 3) == (("as",), ("al", 0), ("al", 1))
    with pytest.raises(ValueError):
        sector_alphabet(3, 4)


def monomial_degree(mono):
    """|u_sigma| = 1 - sigma, |u_l_k| = 2 - l_k, |a_l_k| = -l_k,
    |a_sigma| = -sigma."""
    d = s = 0
    c = [0] * max(mono.m - 1, 0)
    for key, e in mono.exponents:
        if key[0] in ("us", "ul"):
            d += e if key[0] == "us" else 2 * e
        if key[0] in ("us", "as"):
            s -= e
        else:
            c[key[1]] -= e
    return VirtualRep(mono.m, d, s, tuple(c))


def test_monomial_degrees():
    for mono, v in [(SectorMonomial(3, 0, ((("us",), 1),)), VirtualRep(3, 1, -1, (0, 0))),
                    (SectorMonomial(3, 3, ((("as",), 2), (("al", 1), -1))),
                     VirtualRep(3, 0, -2, (0, 1))),
                    (SectorMonomial(3, 0, ((("ul", 1), 3),)), VirtualRep(3, 6, 0, (0, -3)))]:
        assert monomial_degree(mono) == v
        assert SectorMonomial.for_degree(3, mono.sector, v) == mono


def test_monomial_for_degree_round_trip():
    n = 3
    for sector in range(n + 1):
        for coords in product(range(-2, 3), repeat=n):
            s, c = coords[0], coords[1:]
            d = -s - 2 * sum(c[sector:]) if sector < n else 0
            v = VirtualRep(n, d, s, c)
            mono = SectorMonomial.for_degree(n, sector, v)
            assert monomial_degree(mono) == v
    with pytest.raises(ValueError):
        SectorMonomial.for_degree(2, 1, VirtualRep.one(2, 1))


def test_monomial_validation():
    with pytest.raises(ValueError):
        SectorMonomial(3, 0, ((("al", 0), 1),))  # Euler class below its sector
    with pytest.raises(ValueError):
        SectorMonomial(3, 3, ((("us",), 1),))  # orientation class in the top sector


def unit(n, level):
    return SectorElement.unit(n, level)


def test_unit_and_idempotents():
    n = 3
    for level in range(n + 1):
        one = unit(n, level)
        assert one * one == one
        ys = [one.project([i]) for i in range(level + 1)]
        total = ys[0]
        for y in ys[1:]:
            total = total + y
        assert total == one
        for i, yi in enumerate(ys):
            for j, yj in enumerate(ys):
                if i == j:
                    assert yi * yj == yi
                else:
                    assert (yi * yj).is_zero()


def test_y_class_matches_unit_projection():
    n = 3
    for i in range(n + 1):
        y = SectorElement.y_class(n, i)
        assert y == unit(n, i).project([i])
        lifted = y
        for _ in range(n - i):
            lifted = lifted.tr()
        # in the transferred basis the lift keeps coordinate 1 in sector i
        assert lifted.coeffs == ((i, Fraction(1)),)


def test_invertible_pair_products():
    n = 3
    for k in range(n - 1):
        g = SectorElement.orient_lambda(n, k)
        assert g * g.inverse() == unit(n, n).project(range(k + 1))
        h = SectorElement.euler_lambda(n, k)
        assert h * h.inverse() == unit(n, n).project(range(k + 1, n + 1))
    a = SectorElement.euler_sigma(n)
    assert a * a.inverse() == unit(n, n).project([n])
    u = SectorElement.orient_2sigma(n)
    assert u * u.inverse() == unit(n, n).project(range(n))


def test_euler_orientation_vanishing():
    n = 3
    a_sigma = SectorElement.euler_sigma(n)
    assert (a_sigma * SectorElement.orient_2sigma(n)).is_zero()
    for k in range(n - 1):
        assert (a_sigma * SectorElement.orient_lambda(n, k)).is_zero()
        for kp in range(k + 1):
            prod = SectorElement.euler_lambda(n, k) * SectorElement.orient_lambda(n, kp)
            assert prod.is_zero()


def test_cross_sector_orthogonality():
    n = 2
    g = SectorElement.orient_lambda(n, 0)
    assert g.project([1]).is_zero()  # no sector-1 line in degree 2 - l0
    assert (g.project([0]) * unit(n, n).project([1])).is_zero()
    assert (unit(n, n).project([0]) * unit(n, n).project([1])).is_zero()


def test_u_sigma_squares_to_restricted_u_2sigma():
    for n in (2, 3):
        us = SectorElement.orient_sigma(n)
        assert us * us == SectorElement.orient_2sigma(n).res(n - 1)


def test_res_tr_interplay():
    n = 3
    for level in range(1, n + 1):
        one = unit(n, level)
        # res after tr doubles
        below = unit(n, level - 1)
        assert below.tr().res(level - 1) == below.scale(2)
        # Frobenius reciprocity
        for a_sector in range(level + 1):
            a = one.project([a_sector])
            for b_sector in range(level):
                b = below.project([b_sector])
                assert (a.res(level - 1) * b).tr() == a * b.tr()


def test_sign_line_dies_at_the_top():
    n = 2
    us = SectorElement.orient_sigma(n)  # lives at level n-1, sign lines
    assert us.tr().is_zero()


def test_res_is_a_ring_map():
    n = 3
    g = SectorElement.orient_lambda(n, 1)  # sectors 0..1
    g2 = SectorElement.orient_lambda(n, 0)  # sector 0 only
    h = SectorElement.euler_lambda(n, 1)  # sectors 2..3
    for level in range(n):
        assert (g * g2).res(level) == g.res(level) * g2.res(level)
        assert (g * h).res(level) == g.res(level) * h.res(level)
    assert (g * h).is_zero()
    assert not (g * g2).is_zero()


def test_sector_element_errors():
    n = 2
    with pytest.raises(ValueError):
        SectorElement.from_dict(n, VirtualRep.one(n, 1), {0: 1})  # dead sector
    with pytest.raises(ValueError):
        unit(n, 2) + unit(n, 1)
    with pytest.raises(ValueError):
        unit(n, 2) + SectorElement.euler_sigma(n)  # inhomogeneous
    with pytest.raises(ValueError):
        unit(n, 1) * unit(n, 2)
    with pytest.raises(ValueError):
        unit(n, 2).tr()
    with pytest.raises(ValueError):
        unit(n, 1).res(2)
    with pytest.raises(ValueError):
        unit(n, 1).scale(0).inverse()


def test_monomials_view_and_str():
    n = 2
    g = SectorElement.orient_lambda(n, 0)
    view = g.monomials()
    assert [entry[0] for entry in view] == [0]
    assert view[0][1].exponents == ((("ul", 0), 1),)
    assert view[0][2] == Fraction(1, 4)
    assert str(g) == "1/4*y0*u_l0"
    assert str(SectorElement.euler_sigma(n)) == "y2*a_sigma"
    # the local view restricts the degree to the element's own level,
    # where sigma becomes trivial: u_sigma reads as a unit combination
    us = SectorElement.orient_sigma(n)
    assert all(mono.exponents == () for _, mono, _ in us.monomials())
    assert str(us) == "1/2*y0 + y1"
    assert str(us + us.scale(-1)) == "0"


# ---------------------------------------------------------------------------
# Point presentation and fixed-point lattices.

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_presentation_count(n):
    pres = point_presentation(n)
    assert pres.generator_count() == 2 * n * (n + 1)
    # each generator pair spans one simple; the families partition them
    by_family = {}
    for g in pres.generators:
        by_family.setdefault(g.family, []).append(g)
    assert len(by_family[1]) == n
    assert len(by_family.get(2, [])) == sum(k + 1 for k in range(n - 1))
    assert len(by_family.get(3, [])) == sum(n - k for k in range(n - 1))
    assert len(by_family[4]) == 1


def test_presentation_n1():
    pres = point_presentation(1)
    names = [g.name for g in pres.generators]
    assert names == ["y0*res(u_sigma)", "a_sigma"]
    assert [g.spans() for g in pres.generators] == ["M0-", "M1"]
    assert pres.generators[0].degree == VirtualRep(1, 1, -1, ())
    assert pres.generators[1].degree == VirtualRep(1, 0, -1, ())


def test_presentation_n2_ranges():
    pres = point_presentation(2)
    fam2 = [(g.sector, g.lam_index) for g in pres.generators if g.family == 2]
    fam3 = [(g.sector, g.lam_index) for g in pres.generators if g.family == 3]
    assert fam2 == [(0, 0)]
    assert fam3 == [(1, 0), (2, 0)]


def test_presentation_relations():
    pres = point_presentation(3)
    assert "a_sigma*u_2sigma = 0" in pres.relations
    assert "a_sigma*u_l1 = 0" in pres.relations
    assert "a_l1*u_l0 = 0" in pres.relations
    assert "a_l0*u_l1 = 0" not in pres.relations  # only s <= k vanishes
    assert any(rel.endswith("= y0") for rel in pres.relations)
    assert "scalar" in pres.normalization
    with pytest.raises(ValueError):
        point_presentation(0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fixed_point_lattices_match_stems(n):
    rings = fixed_point_rings(n)
    assert lattice_mismatches(n, 2) == []
    for k in range(n - 1):
        v = VirtualRep.one(n, 2) - VirtualRep.lam(n, k)
        assert rings.homotopy_dim(v) == 1
    assert rings.homotopy_dim(VirtualRep.one(n, 3)) == 0  # odd degree
    assert rings.geometric_dim(VirtualRep(n, 0, 2, (0,) * (n - 1))) == 1
    assert rings.geometric_dim(VirtualRep.one(n, 1)) == 0
    with pytest.raises(ValueError):
        rings.geometric_dim(VirtualRep.zero(n + 1))
