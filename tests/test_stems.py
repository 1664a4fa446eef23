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
from math import gcd

import pytest
from hypothesis import given, strategies as st

from ratstems import cli, stems
from ratstems.mackey import MINUS, PLUS, GradedTable, MackeyClass
from ratstems.rolattice import VirtualRep, parse_degree
from ratstems.stems import (STEM_METHODS, SectorElement, SectorMonomial,
                            StemTuple, decode_degree, face_columns,
                            lattice_mismatches, point_presentation,
                            sector_alphabet, sphere_homology, stem_at)


def M(n, *pairs):
    """Shorthand: M(n, (i, +1), (j, -1), ...) builds the direct sum."""
    return MackeyClass(n, tuple((i, s, 1) for i, s in pairs))


def at(column, v):
    """The stem at degree v, read off its column."""
    return column(v.n, v.s, v.c).get(v.d, MackeyClass.zero(v.n))


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

COLUMNS = {"closed": stems.closed_column, "sector": stems.sector_column,
           "oracle": stems.oracle_column}


def stems_everywhere(v):
    results = {at(column, v) for column in COLUMNS.values()}
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
        tuples = decode_degree(v)
        covered = set()
        for t in tuples:
            run = set(t.run())
            assert t.k_prime() < t.k()
            assert not (run & covered)
            covered |= run
        assert all(mult == 1 for _, _, mult in stem_at(v).entries)


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
        assert prev.k() <= cur.k_prime(), f"degree {v}: overlapping sector runs"
    return tuple(tuples)


@pytest.mark.parametrize("n,bound", [(0, 3), (1, 4), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3),
                                     (5, 1)])
def test_decode_matches_reference_over_box(n, bound):
    # the tuples are read back from the walk's masks as maximal runs of
    # bits, so two runs at one d merging into one would show here
    for v in box_degrees(n, bound):
        assert decode_degree(v) == ref_decode_degree(v), v


def ref_cut_runs(n, s, c, guard=True):
    """The per-cut reference walk of the column (n, s, c), n >= 1: for
    each d, the runs cut..k of the cuts landing there, each cut's d and k
    rebuilt from the totals, O(n^2).  The guard skips a cut past a zero
    total, which repeats the tuple of the cut before it."""
    totals = [-ck for ck in c] + [-s]
    runs = {}
    for cut in range(n + 1):
        if guard and cut > 0 and totals[cut - 1] == 0:
            continue
        d = 2 * sum(totals[cut:n - 1]) + (totals[n - 1] if cut < n else 0)
        k = next((p for p in range(cut, n) if totals[p]), n)
        runs.setdefault(d, []).append(range(cut, k + 1))
    return runs


def runs_meet(runs):
    """Whether two of the runs overlap or are adjacent."""
    spans = sorted(runs, key=lambda run: run.start)
    return any(a.stop >= b.start for a, b in zip(spans, spans[1:]))


def test_runs_overlap_only_without_the_guard():
    # without the guard, the cuts 0, 1 and 2 of the column (2, 0, (0,))
    # all land at d = 0, with the overlapping runs [0, 1, 2], [1, 2], [2]
    assert ref_cut_runs(2, 0, (0,)) == {0: [range(0, 3)]}
    unguarded = ref_cut_runs(2, 0, (0,), guard=False)
    assert unguarded == {0: [range(0, 3), range(1, 3), range(2, 3)]}
    assert runs_meet(unguarded[0]) and not runs_meet([range(0, 1), range(2, 3)])
    assert stems._cut_masks(2, 0, (0,)) == {0: 0b111}


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
        assert stem_at(v) == MackeyClass(n, runs) == at(stems.sector_column, v), n
    assert len(decode_degree(alternating_degree(40))) == 20
    # 10001 tuples of length 20001 each: the tuple view is quadratic
    # here, the closed column linear
    n = 20001
    v = alternating_degree(n)
    start = time.perf_counter()
    cls = stem_at(v)
    assert time.perf_counter() - start < 1.0
    assert cls == M(n, *((i, PLUS) for i in [*range(0, n, 2), n])) == at(stems.sector_column, v)


# ---------------------------------------------------------------------------
# Columns: each method answers a whole d-column (n, s, c) at once.

def ref_stem(v):
    """The stem at v as the sum of the reference decoder's runs."""
    return MackeyClass(v.n, tuple((i, t.sign(), 1)
                                  for t in ref_decode_degree(v) for i in t.run()))


@pytest.mark.parametrize("name", sorted(COLUMNS))
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_column_matches_per_degree(name, n):
    column = COLUMNS[name]
    assert STEM_METHODS[name] is column
    for bound in (0, 1, 2):
        window = range(-bound, bound + 1)
        for s, c in stems.box_columns(n, bound):
            found = column(n, s, c)
            assert len(found) <= n + 1
            assert not any(cls.is_zero() for cls in found.values())
            per_degree = {d: ref_stem(VirtualRep(n, d, s, c)) for d in window}
            assert {d: cls for d, cls in found.items() if d in window} == \
                {d: cls for d, cls in per_degree.items() if not cls.is_zero()}, (s, c)


@pytest.mark.parametrize("n,bound", [(0, 0), (0, 2), (1, 3), (2, 2), (3, 1)])
def test_box_columns_are_the_columns_of_box_degrees(n, bound):
    want = [(v.s, v.c) for v in box_degrees(n, bound) if v.d == -bound]
    assert list(stems.box_columns(n, bound)) == want
    assert len(list(box_degrees(n, bound))) == (2 * bound + 1) ** (n + 1)
    with pytest.raises(ValueError):
        stems.box_columns(n, -1)


def geometric_dim(v):
    """The geometric fixed-point ring, Laurent on the Euler classes: one
    dimension exactly at d = 0."""
    return 1 if v.d == 0 else 0


def homotopy_dim(v):
    """The homotopy fixed-point ring, Laurent on u_2sigma and the u_l_k:
    one dimension exactly at even s and d = -s - 2*sum(c)."""
    return 1 if v.s % 2 == 0 and v.d == -v.s - 2 * sum(v.c) else 0


@pytest.mark.parametrize("corrupt", ["none", "empty", "shifted"])
def test_lattice_mismatches_match_dense_walk(corrupt, monkeypatch):
    closed = stems.closed_column
    if corrupt == "empty":
        monkeypatch.setattr(stems, "closed_column", lambda n, s, c: {})
    elif corrupt == "shifted":
        monkeypatch.setattr(stems, "closed_column", lambda n, s, c: {
            d + 1: cls for d, cls in closed(n, s, c).items()})
    for n, bound in [(1, 2), (2, 2), (3, 1)]:
        want = []
        for v in box_degrees(n, bound):
            cls = stems.closed_column(n, v.s, v.c).get(v.d, MackeyClass.zero(n))
            if geometric_dim(v) != cls.mult(n, PLUS):
                want.append(f"geometric lattice disagrees with M{n} multiplicity at {v}")
            if homotopy_dim(v) != cls.mult(0, PLUS):
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
            assert cls == ref_stem(VirtualRep(n, d, s, c))
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
    assert stem_at(v) == at(stems.oracle_column, v) == at(stems.sector_column, v)


def test_mixed_degree_kunneth():
    # the table of a sum of spheres is the box of the tables
    for n in (2, 3):
        sig, one = VirtualRep.sigma(n), VirtualRep.one(n, 1)
        l0 = VirtualRep.lam(n, 0)
        cases = [(sig, sig), (sig, -sig), (l0, sig), (l0, -2 * sig + one),
                 (sig, 2 * sig), (2 * sig, -3 * sig), (l0, 2 * l0), (-l0, 3 * l0)]
        for v, w in cases:
            u = v + w
            assert sphere_homology(u) == sphere_homology(v).box(sphere_homology(w))
            # the sphere on -u is the dual: degrees negate, classes are self-dual
            assert sphere_homology(-u).entries == tuple(
                (-d, cls) for d, cls in reversed(sphere_homology(u).entries))


def test_oracle_answers_large_powers():
    # one geometric table per generator power and one per Kunneth box: a
    # cold degree of n factors adds at most 2n - 1 sphere tables, however
    # large its coefficients.  Emptied first, since a full bounded cache
    # does not grow
    stems._smash_table.cache_clear()
    for n in (1, 2, 3, 4):
        v = VirtualRep(n, 3, 7919, tuple(range(-4001, -4001 + 2 * (n - 1), 2)))
        before = stems._smash_table.cache_info().currsize
        assert at(stems.oracle_column, v) == stem_at(v)
        assert stems._smash_table.cache_info().currsize - before <= 2 * n - 1


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def power_table(w, sign):
    """The geometric table of S^(sign*w) for a positive power w of one
    irreducible: one M_h per level h at sign times w's fixed dimension."""
    levels = {}
    for h in range(w.n + 1):
        levels.setdefault(sign * w.fixed_dim(h), []).append((h, w.fixed_sign(h), 1))
    return GradedTable(w.n, tuple((d, MackeyClass(w.n, tuple(es))) for d, es in levels.items()))


def test_long_rotation_chain_needs_no_recursion():
    # 121 factors (the sigma power and 120 rotation powers), with about 60
    # frames of headroom: the table boxes the tables of the two halves of
    # its factors, so it recurses about log2 of their number deep (about
    # 25 frames here, where a linear recursion needs hundreds), and caches
    # one table per factor and one per Kunneth box.  The same chain at
    # s = 0 and degrees of 2..5 factors too, two of them of negative powers
    # only, each from a cold cache against the left-to-right fold of the
    # power tables
    chain = tuple(k % 3 - 1 or 2 for k in range(120))
    cases = [(121, 1, chain), (121, 0, chain), (3, -2, (0, 1)), (3, 0, (1, -1)),
             (4, 0, (2, -1, 3)), (4, 3, (-1, 1, 2)), (6, -1, (0, 2, -1, 1, -3)),
             (3, -5, (0, -2)), (5, 0, (-3, 0, -1, -4))]
    for n, s, c in cases:
        stems._smash_table.cache_clear()
        v = VirtualRep(n, 0, s, c)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 60)
        try:
            table = sphere_homology(v)
        finally:
            sys.setrecursionlimit(limit)
        info = stems._smash_table.cache_info()
        gens = [(VirtualRep.sigma(n), s)] if s else []
        gens += [(VirtualRep.lam(n, k), ck) for k, ck in enumerate(c) if ck]
        powers = [power_table(abs(e) * w, 1 if e > 0 else -1) for w, e in gens]
        want = powers[0]
        for power in powers[1:]:
            want = want.box(power)
        assert table == want
        assert info.misses == info.currsize == 2 * len(powers) - 1
        assert at(stems.oracle_column, -v) == stem_at(-v)


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


def test_oracle_answers_without_the_other_methods(monkeypatch):
    # the methods' independence, at run time: with closed and sector and
    # their class caches rebound to raise and the sphere cache emptied,
    # the oracle still answers every column, equal to the closed form
    want = {(n, s, c): stems.closed_column(n, s, c)
            for n in range(4) for s, c in stems.box_columns(n, 2)}

    def refuse(*args):
        raise AssertionError("the oracle reached closed or sector code")

    for name in ("closed_column", "sector_column", "_cut_masks", "_stem_class",
                 "_closed_class", "_sector_class"):
        monkeypatch.setattr(stems, name, refuse)
    stems._smash_table.cache_clear()
    for (n, s, c), column in want.items():
        assert stems.oracle_column(n, s, c) == column, (n, s, c)


# ---------------------------------------------------------------------------
# Every degree: one column per face of the braid arrangement.

FACE_COUNTS = {1: 5, 2: 21, 3: 119, 4: 849, 5: 7295, 6: 73281}


def test_weak_orderings_are_counted_by_the_fubini_numbers():
    for m, count in enumerate([1, 1, 3, 13, 75, 541]):
        orderings = list(stems.weak_orderings(m))
        assert len(set(orderings)) == len(orderings) == count
        assert all(set(ranks) == set(range(max(ranks, default=-1) + 1))
                   for ranks in orderings)


def face_disagreements(n, methods):
    """The (name, s, c) of each face column where a method's answer is
    not that of a majority of the methods."""
    bad = []
    for s, c in face_columns(n):
        answers = {name: dict(column(n, s, c)) for name, column in methods.items()}
        values = list(answers.values())
        bad += [(name, s, c) for name, answer in answers.items()
                if 2 * values.count(answer) <= len(values)]
    return bad


@pytest.mark.parametrize("n", sorted(FACE_COUNTS))
def test_face_runs_are_disjoint_and_apart(n):
    """The runs of a column at one d are disjoint and never adjacent,
    and the mask of ``_cut_masks`` is their union.  Both depend only on
    which totals are zero and which cuts share a d, that is, on the face:
    total h is x_{h+1} - x_h below the sigma slot and 2(y - x_{n-1}) at
    it, and a cut lands at d = 2(y - x_cut) (0 at cut n)."""
    columns = list(face_columns(n))
    assert len(set(columns)) == len(columns) == FACE_COUNTS[n]
    for s, c in columns:
        runs = ref_cut_runs(n, s, c)
        assert not any(runs_meet(at_d) for at_d in runs.values()), (s, c)
        assert {d: sum(1 << i for run in at_d for i in run) for d, at_d in runs.items()} \
            == stems._cut_masks(n, s, c), (s, c)


@pytest.mark.parametrize("n", sorted(FACE_COUNTS))
def test_three_way_agreement_on_every_face(n):
    """The three methods agree in every degree of exponent n.  Each puts
    level h < n at d = 2(y - x_h) and level n at d = 0, signed by the
    parity of s, and which levels are present is fixed by the face of
    (x, y) and that parity; so a column is its face's representative
    with the degrees moved.  Per method:

    * ``closed``: the cut walk reads only which totals are zero, and
      the sectors cut..k of a run share x_cut = ... = x_k;
    * ``sector``: its degrees are those linear forms;
    * ``oracle``: ``GradedTable.box`` is levelwise, and each power table
      puts level h at a linear form of (s, c), so the smash table does.
    """
    assert face_disagreements(n, STEM_METHODS) == []


def test_face_certificate_flags_a_method_broken_outside_the_box():
    # sector broken on the face x_1 < x_0 < y with even s only, which
    # the [-3, 3] box misses (its representative is s = -4, c = (1,))
    def broken(n, s, c):
        if n == 2 and s % 2 == 0 and 0 < 2 * c[0] < -s:
            return {}
        return stems.sector_column(n, s, c)

    methods = {**STEM_METHODS, "sector": broken}
    assert face_disagreements(2, methods) == [("sector", -4, (1,))]
    assert cli.compare_methods(2, 3, methods)[1] == []


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


@pytest.mark.parametrize("bad", [0.5, 2.0, True, False])
def test_sector_inexact_inputs_are_rejected(bad):
    zero = VirtualRep.zero(1)
    with pytest.raises(ValueError, match="sector coefficients must be int or Fraction"):
        SectorElement.from_dict(1, zero, {1: bad})
    with pytest.raises(ValueError, match="sector coefficients must be int or Fraction"):
        SectorElement(1, zero, ((0, Fraction(1, 2)), (1, bad)))
    with pytest.raises(ValueError, match="scale factor must be int or Fraction"):
        SectorElement.unit(1, 1).scale(bad)


def test_sector_exact_inputs_are_kept():
    zero, half = VirtualRep.zero(1), Fraction(1, 2)
    a = SectorElement.from_dict(1, zero, {0: half, 1: 1})
    assert a == SectorElement(1, zero, ((1, Fraction(1)), (0, half)))
    assert a.coeffs == ((0, half), (1, 1))
    assert all(type(q) is Fraction for _, q in a.coeffs)
    assert a.scale(half).coeffs == ((0, Fraction(1, 4)), (1, half))
    assert a.scale(2) == a + a


# The stored form: one numerator per sector 0..level over one reduced denominator.

def assert_sector_canonical(e: SectorElement):
    nums = e.nums
    assert type(nums) is tuple and len(nums) == e.level + 1
    assert type(e.den) is int and all(type(a) is int for a in nums)
    assert e.den > 0 and gcd(e.den, *nums) == 1
    assert all(stems._sector_alive(e.degree, i, e.level) for i, a in enumerate(nums) if a)
    if e.is_zero():
        assert e.den == 1


def as_coeffs(lines) -> tuple:
    """The coeffs view a Fraction-valued {sector: coefficient} map should read as."""
    return tuple(sorted((i, Fraction(q)) for i, q in lines.items() if q))


sector_coeffs = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9),
                          st.fractions(min_value=-20, max_value=20, max_denominator=48))


def sector_lines(level: int):
    return st.lists(sector_coeffs.map(Fraction), min_size=level + 1, max_size=level + 1)


@given(st.integers(min_value=0, max_value=4).flatmap(sector_lines),
       st.integers(min_value=1, max_value=12))
def test_equal_sector_values_give_one_canonical_element(qs, k):
    n, level, zero = 4, len(qs) - 1, VirtualRep.zero(4)
    plain = [(i, int(q) if q.denominator == 1 else q) for i, q in enumerate(qs)]
    unreduced = [(i, Fraction(k * q.numerator, k * q.denominator)) for i, q in enumerate(qs)]
    # every line split into two halves, listed in reverse sector order, plus zero lines
    split = [(i, q / 2) for i, q in reversed(list(enumerate(qs)))] * 2
    split += [(i, 0) for i in range(level + 1)]
    forms = [SectorElement(level, zero, tuple(enumerate(qs))),
             SectorElement(level, zero, plain), SectorElement(level, zero, unreduced),
             SectorElement(level, zero, split)]
    for e in forms:
        assert e == forms[0] and hash(e) == hash(forms[0])
        assert (e.den, e.nums) == (forms[0].den, forms[0].nums)
        assert_sector_canonical(e)
        assert e.coeffs == as_coeffs(dict(enumerate(qs)))
    assert SectorElement(level, zero, [(0, 0), (0, Fraction(0, 5))]).den == 1


@given(st.integers(min_value=0, max_value=4).flatmap(
    lambda level: st.tuples(sector_lines(level), sector_lines(level))),
       st.fractions(min_value=-9, max_value=9, max_denominator=12),
       st.sets(st.integers(min_value=0, max_value=4)))
def test_sector_operations_match_the_fraction_references(pair, q, keep):
    """Each operation on numerators against its definition on Fractions."""
    n, zero = 4, VirtualRep.zero(4)
    qs, rs = pair
    level = len(qs) - 1
    a = SectorElement.from_dict(level, zero, dict(enumerate(qs)))
    b = SectorElement.from_dict(level, zero, dict(enumerate(rs)))
    cases = [
        (a + b, {i: x + y for i, (x, y) in enumerate(zip(qs, rs))}),
        (a.scale(q), {i: q * x for i, x in enumerate(qs)}),
        (a * b, {i: x * y * 2 ** (level - i) for i, (x, y) in enumerate(zip(qs, rs))}),
        (a.project(keep), {i: x for i, x in enumerate(qs) if i in keep}),
    ]
    cases += [(a.res(h), {i: x * 2 ** (level - h) for i, x in enumerate(qs) if i <= h})
              for h in range(level + 1)]
    if level < n:
        cases.append((a.tr(), dict(enumerate(qs))))
    if not a.is_zero():
        cases.append((a.inverse(), {i: 1 / (x * 4 ** (level - i))
                                    for i, x in enumerate(qs) if x}))
    for got, want in cases:
        assert_sector_canonical(got)
        assert got.coeffs == as_coeffs(want)


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


def test_presentation_degrees_carry_the_stems():
    # the generators of one degree span the stem there, and their inverse
    # partners the stem at the negated degree, by each of the three methods
    for n in range(1, 51):
        spans = {}
        for g in point_presentation(n).generators:
            spans.setdefault(g.degree, []).append((g.sector, g.sign, 1))
        for v, entries in spans.items():
            want = MackeyClass(n, tuple(entries))
            for name, column in STEM_METHODS.items():
                assert at(column, v) == want, (n, str(v), name)
                assert at(column, -v) == want, (n, str(-v), name)


def presentation_element(n: int, g) -> SectorElement:
    """The SectorElement behind one printed generator of point_presentation."""
    if g.family == 1:
        return SectorElement.orient_sigma(n).project([g.sector])
    if g.family == 2:
        return SectorElement.orient_lambda(n, g.lam_index).project([g.sector])
    if g.family == 3:
        return SectorElement.euler_lambda(n, g.lam_index).project([g.sector])
    return SectorElement.euler_sigma(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_presentation_generators_are_invertible_sector_lines(n):
    # each printed generator is one nonzero sector line in its printed
    # degree and sign, and its inverse partner multiplies it to y_sector
    pres = point_presentation(n)
    for g in pres.generators:
        e = presentation_element(n, g)
        assert not e.is_zero(), g.name
        assert [i for i, _ in e.coeffs] == [g.sector], g.name
        assert e.degree == g.degree, g.name
        assert e.level == (n - 1 if g.family == 1 else n), g.name
        assert g.degree.fixed_sign(g.sector) == g.sign, g.name
        assert e * e.inverse() == SectorElement.unit(n, e.level).project([g.sector]), g.name
    classes = {"a_sigma": SectorElement.euler_sigma(n), "u_2sigma": SectorElement.orient_2sigma(n)}
    for k in range(n - 1):
        classes[f"u_l{k}"] = SectorElement.orient_lambda(n, k)
        classes[f"a_l{k}"] = SectorElement.euler_lambda(n, k)
    vanishing = [rel.removesuffix(" = 0") for rel in pres.relations if rel.endswith(" = 0")]
    assert len(vanishing) + len(pres.generators) == len(pres.relations)
    for rel in vanishing:
        left, right = rel.split("*")
        assert (classes[left] * classes[right]).is_zero(), rel


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fixed_point_lattices_match_stems(n):
    assert lattice_mismatches(n, 2) == []


def test_fixed_point_lattices_match_stems_at_n5():
    # 7^5 = 16,807 columns
    assert lattice_mismatches(5, 3) == []


def test_fixed_point_lattices_need_n_at_least_1():
    with pytest.raises(ValueError, match="n >= 1"):
        lattice_mismatches(0, 2)
