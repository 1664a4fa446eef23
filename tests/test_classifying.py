"""Tests for the classifying-space diagrams and comparison checks.

Independent oracles come first: a recursive composition enumerator, a
partition-counting reference for the BU(k) series, a walk over every
composition for the BU(m) diagram, and a brute-force multiset
enumeration for symmetric invariants.  The assembled tables
and the comparison verdicts are then pinned against frozen values.
"""

import math
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from ratstems.burnside import BurnsideElement
from ratstems.classifying import (FixedPointDiagram, LevelComponents,
                                  TorusCheckU, bgs1_presentation,
                                  bsigma2_consistency, bu_series, collapse,
                                  collapse_expand, compositions,
                                  fixed_point_data, gm_assemble,
                                  sym_invariants_series, torus_check_su2,
                                  torus_check_u, weyl_eigendata, _partitions)
from ratstems.mackey import (MINUS, PLUS, MackeyClass, NonSignIsotypicError,
                             classify)
from ratstems.rolattice import VirtualRep, parse_degree
from ratstems.series import TruncatedSeries
from ratstems.stems import stem_at

BOUND = 12


# ---------------------------------------------------------------------------
# Reference implementations.

def ref_compositions(total, parts):
    if parts == 0:
        return [()] if total == 0 else []
    return [(a,) + rest
            for a in range(total + 1)
            for rest in ref_compositions(total - a, parts - 1)]


def ref_bu_coeff(k, degree):
    """dim H^degree(BU(k)): partitions of degree/2 into parts <= k."""
    if degree % 2:
        return 0
    target = degree // 2
    ways = [1] + [0] * target
    for part in range(1, k + 1):
        for value in range(part, target + 1):
            ways[value] += ways[value - part]
    return ways[target]


def ref_bu_components(m, slots, bound):
    """One series product per weak composition of m into the slots,
    equal products merged and counted."""
    counts = {}
    for comp in ref_compositions(m, slots):
        series = TruncatedSeries.one(bound)
        for k in comp:
            series = series * bu_series(k, bound)
        counts[series] = counts.get(series, 0) + 1
    return tuple(sorted(counts.items(), key=lambda it: it[0].coeffs))


def ref_sym_series(component_series, m, bound):
    """Symmetric m-th power by brute force: multisets of basis elements."""
    degrees = []
    for s in component_series:
        for d in range(bound + 1):
            q = s.coeff(d)
            assert q.denominator == 1
            degrees.extend([d] * int(q))
    counts = [0] * (bound + 1)
    for combo in combinations_with_replacement(range(len(degrees)), m):
        total = sum(degrees[i] for i in combo)
        if total <= bound:
            counts[total] += 1
    return TruncatedSeries(bound, counts)


def poly_eval(coeffs, x):
    total = Fraction(0)
    for c in reversed(list(coeffs)):
        total = total * x + c
    return total


# ---------------------------------------------------------------------------
# Compositions and the BU(k) series.

def test_compositions_match_reference():
    for total in range(5):
        for parts in range(4):
            got = list(compositions(total, parts))
            assert got == ref_compositions(total, parts)
            assert len(got) == len(set(got))
            assert all(sum(c) == total and len(c) == parts for c in got)
            if parts >= 1:
                assert len(got) == math.comb(total + parts - 1, parts - 1)


def test_compositions_count_and_edges():
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(2, 0)) == []
    assert list(compositions(3, 1)) == [(3,)]
    assert len(list(compositions(3, 8))) == math.comb(10, 7)
    with pytest.raises(ValueError):
        list(compositions(-1, 2))
    with pytest.raises(ValueError):
        list(compositions(2, -1))


def test_bu_series_counts_partitions():
    for k in range(5):
        series = bu_series(k, 16)
        for d in range(17):
            assert series.coeff(d) == ref_bu_coeff(k, d)
    assert bu_series(0, 8) == TruncatedSeries.one(8)
    assert bu_series(2, 8) == TruncatedSeries.geometric(8, 2) * \
        TruncatedSeries.geometric(8, 4)


# ---------------------------------------------------------------------------
# Symmetric invariants.

def test_sym_invariants_match_brute_force():
    circle = TruncatedSeries.geometric(8, 2)
    cases = [
        ([circle], 1), ([circle], 2), ([circle], 3),
        ([circle, circle], 2), ([circle, circle], 3),
        ([TruncatedSeries.one(8), TruncatedSeries.geometric(8, 4)], 2),
        ([circle, TruncatedSeries.one(8)], 3),
    ]
    for component_series, m in cases:
        got = sym_invariants_series(component_series, m, 8)
        assert got == ref_sym_series(component_series, m, 8)


def test_sym_invariants_worked_examples():
    circle = TruncatedSeries.geometric(BOUND, 2)
    # one circle, second power: a generator in degree 2 and one in degree 4
    assert sym_invariants_series([circle], 2, BOUND) == \
        circle * TruncatedSeries.geometric(BOUND, 4)
    assert sym_invariants_series([circle], 2, BOUND) == bu_series(2, BOUND)
    # two points, second power: the three-dimensional symmetric square
    one = TruncatedSeries.one(BOUND)
    assert sym_invariants_series([one, one], 2, BOUND) == one.scale(3)
    # first power is the plain sum, zeroth power the unit
    assert sym_invariants_series([circle, one], 1, BOUND) == circle + one
    assert sym_invariants_series([circle], 0, BOUND) == one
    with pytest.raises(ValueError):
        sym_invariants_series([circle], -1, BOUND)
    with pytest.raises(ValueError):
        sym_invariants_series([circle], 2, -1)


# ---------------------------------------------------------------------------
# Fixed-point diagrams.

def test_circle_diagram_counts():
    data = fixed_point_data("bs1", 3, BOUND)
    circle = TruncatedSeries.geometric(BOUND, 2)
    for h in range(4):
        level = data.level(h)
        assert level.count() == 2 ** h
        assert level.components == ((circle, 2 ** h),)
        series = level.total_series()
        assert series.coeff(4) == 2 ** h and series.coeff(5) == 0
        assert series == circle.scale(2 ** h)


def test_two_point_diagram_counts():
    data = fixed_point_data("bsigma2", 2, BOUND)
    assert [data.level(h).count() for h in range(3)] == [1, 2, 2]
    assert data.level(2).total_series().coeff(0) == 2
    assert data.level(2).total_series().coeff(2) == 0


def test_unitary_diagram_counts():
    for n, m in [(1, 1), (1, 2), (2, 2), (2, 3), (6, 5), (30, 1)]:
        data = fixed_point_data("bu", n, 8, m=m)
        for h in range(n + 1):
            parts = 2 ** h
            assert data.level(h).count() == math.comb(m + parts - 1, parts - 1)
    # one eigenvalue block per character: level 0 is plain BU(m)
    assert fixed_point_data("bu", 2, 8, m=3).level(0).total_series() == \
        bu_series(3, 8)


def test_unitary_diagram_at_large_m():
    # every weak composition of m into 2^h slots is one component, and
    # each nonzero slot adds one degree-2 class
    data = fixed_point_data("bu", 5, 2, m=20)
    for h in range(6):
        slots = 2 ** h
        series = data.level(h).total_series()
        assert series.coeff(0) == math.comb(20 + slots - 1, 20)
        assert series.coeff(2) == slots * math.comb(19 + slots - 1, 19)


def test_partitions_are_the_sorted_compositions():
    for total in range(8):
        for most in range(6):
            want = {tuple(sorted((k for k in comp if k), reverse=True))
                    for comp in compositions(total, most)}
            got = list(_partitions(total, most, total))
            assert len(got) == len(set(got)) and set(got) == want


def test_unitary_diagram_matches_composition_walk():
    for n in range(1, 4):
        for m in range(1, 5):
            for bound in (0, 1, 2, 3, 8):
                data = fixed_point_data("bu", n, bound, m=m)
                for h in range(n + 1):
                    assert data.level(h).components == \
                        ref_bu_components(m, 2 ** h, bound)


def test_su2_diagram_counts():
    data = fixed_point_data("bsu2", 3, BOUND)
    assert [data.level(h).count() for h in range(4)] == [1, 2, 3, 5]
    sphere4 = TruncatedSeries.geometric(BOUND, 4)
    assert data.level(0).components == ((sphere4, 1),)
    assert data.level(1).components == ((sphere4, 2),)
    # noncentral character pairs contribute circle components
    circle = TruncatedSeries.geometric(BOUND, 2)
    assert data.level(2).components == ((circle, 1), (sphere4, 2))


def test_torus_diagram_counts():
    for m in (1, 2):
        data = fixed_point_data("torus", 2, 8, m=m)
        for h in range(3):
            assert data.level(h).count() == (2 ** h) ** m
    block = TruncatedSeries.geometric(8, 2)
    assert fixed_point_data("torus", 1, 8, m=2).level(0).components == \
        ((block * block, 1),)


def test_diagram_errors():
    with pytest.raises(ValueError):
        fixed_point_data("klein", 2, 8)
    with pytest.raises(ValueError):
        fixed_point_data("bu", 2, 8, m=0)
    with pytest.raises(ValueError):
        fixed_point_data("torus", 2, 8, m=0)
    with pytest.raises(ValueError):
        fixed_point_data("bs1", -1, 8)
    with pytest.raises(ValueError):
        fixed_point_data("bs1", 2, 8).level(3)
    with pytest.raises(ValueError):
        LevelComponents(0, ()).total_series()
    half = TruncatedSeries.one(4).scale(Fraction(1, 2))
    with pytest.raises(ValueError, match="integral"):
        gm_assemble(FixedPointDiagram("half", 0, 4, (LevelComponents(0, ((half, 1),)),)))


# ---------------------------------------------------------------------------
# Assembly through the classifier.

def test_assemble_circle_table():
    n = 2
    table = gm_assemble(fixed_point_data("bs1", n, BOUND))
    assert table.degrees() == tuple(range(0, BOUND + 1, 2))
    expected = MackeyClass(n, tuple((h, PLUS, 2 ** h) for h in range(n + 1)))
    for d in table.degrees():
        assert table.get(d) == expected
    assert table.poincare(n, BOUND) == \
        TruncatedSeries.geometric(BOUND, 2).scale(2 ** (n + 1) - 1)


def test_assemble_two_point_table():
    table = gm_assemble(fixed_point_data("bsigma2", 1, BOUND))
    assert table.degrees() == (0,)
    assert table.get(0) == MackeyClass(1, ((0, PLUS, 1), (1, PLUS, 2)))
    assert table.get(0).level_dim(1) == 3


def test_assemble_level_dims_accumulate():
    # the level-h value collects the geometric contributions of levels <= h
    diagram = fixed_point_data("bu", 2, 8, m=2)
    table = gm_assemble(diagram)
    for d in range(9):
        cls = table.get(d)
        for h in range(3):
            want = sum(diagram.level(i).total_series().coeff(d) for i in range(h + 1))
            assert cls.level_dim(h) == want


def test_weyl_eigendata():
    one = TruncatedSeries.one(4)
    # a fixed component with orientation-reversing return map
    assert weyl_eigendata([(one, 1, -1, 3)], 0) == (0, 3, 0)
    # a swapped pair: invariant and anti-invariant line
    assert weyl_eigendata([(one, 2, 1, 2)], 0) == (2, 2, 0)
    # a three-cycle leaves a plus line and two rotation eigenlines
    assert weyl_eigendata([(one, 3, 1, 1)], 0) == (1, 0, 2)
    # a swapped pair with a sign: both square roots of -1
    assert weyl_eigendata([(one, 2, -1, 1)], 0) == (0, 0, 2)
    assert weyl_eigendata([(one, 1, 1, 5)], 1) == (0, 0, 0)
    with pytest.raises(ValueError):
        weyl_eigendata([(one, 0, 1, 1)], 0)
    with pytest.raises(ValueError):
        weyl_eigendata([(one, 1, 2, 1)], 0)
    with pytest.raises(NonSignIsotypicError):
        classify(1, [weyl_eigendata([(one, 3, 1, 1)], 0), (0, 0, 0)])


def test_weyl_eigendata_needs_integral_dimensions():
    # a half-dimensional component counts only when its count makes it whole
    half = TruncatedSeries(0, [Fraction(1, 2)])
    assert weyl_eigendata([(half, 1, 1, 2)], 0) == (1, 0, 0)
    assert weyl_eigendata([(half, 2, 1, 4)], 0) == (2, 2, 0)
    with pytest.raises(ValueError):
        weyl_eigendata([(half, 1, 1, 1)], 0)
    with pytest.raises(ValueError):
        weyl_eigendata([(half, 1, 1, 3)], 0)


# ---------------------------------------------------------------------------
# The circle presentation.

@pytest.mark.parametrize("n", [1, 2, 3])
def test_circle_presentation_matches_assembly(n):
    pres = bgs1_presentation(n, BOUND)
    assert pres.table == gm_assemble(fixed_point_data("bs1", n, BOUND))
    assert pres.top_series() == \
        TruncatedSeries.geometric(BOUND, 2).scale(2 ** (n + 1) - 1)


def test_circle_presentation_generators():
    pres = bgs1_presentation(3, 8)
    names = [name for name, _ in pres.degrees]
    assert names[0] == "w"
    u_names = names[1:]
    assert len(u_names) == 2 ** 4 - 3 - 2
    assert u_names[0] == "u[1,1]"
    assert u_names[-1] == "u[3,7]"
    assert dict(pres.degrees)["w"] == 2
    assert all(dict(pres.degrees)[u] == 0 for u in u_names)
    assert bgs1_presentation(1, 8).degrees == (("w", 2), ("u[1,1]", 0))
    with pytest.raises(ValueError):
        bgs1_presentation(0, 8)


def test_circle_presentation_relations():
    rels = bgs1_presentation(2, 8).relations
    assert "u[m,j]*u[m',j'] = u[m,j] if (m,j) = (m',j') else 0" in rels
    assert any("res to level m-1" in r for r in rels)
    assert any("completion element" in r for r in rels)


def test_circle_completion_elements():
    n = 2
    completion = dict(bgs1_presentation(n, 8).completion)
    assert sorted(completion) == [1, 2]
    for m in (1, 2):
        elem = BurnsideElement.y(n, m)
        for _ in range(n - m):
            elem = elem.tr()
        assert completion[m] == elem.scale(Fraction(1, 2 ** m))
        # the conductor-m sum carries marks only at level m
        marks = completion[m].marks()
        want = Fraction(2 ** (n - m), 2 ** m)
        assert marks == tuple(want if h == m else 0 for h in range(n + 1))
        # and dies under restriction below its conductor
        assert all(q == 0 for q in completion[m].res(m - 1).coeffs)


# ---------------------------------------------------------------------------
# Torus comparisons.

@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (4, 4), (5, 3)])
def test_torus_method_holds_for_unitary_groups(n, m):
    check = torus_check_u(n, m, BOUND)
    assert check.holds()
    assert check.verdict() == "HOLDS"
    assert [h for h, _, _ in check.levels] == list(range(n + 1))
    for _, lhs, rhs in check.levels:
        assert lhs == rhs


def test_torus_check_reports_mismatch():
    one = TruncatedSeries.one(4)
    broken = TorusCheckU(1, 1, 4, ((0, one, one.scale(2)),))
    assert not broken.holds()
    assert broken.verdict() == "FAILS"


def test_su2_counts():
    results = {n: torus_check_su2(n) for n in range(1, 7)}
    assert (results[1].lhs, results[1].rhs) == (2, 2)
    assert results[1].holds()
    assert (results[2].lhs, results[2].rhs) == (3, 4)
    assert (results[3].lhs, results[3].rhs) == (5, 8)
    assert (results[6].lhs, results[6].rhs) == (33, 64)
    assert all(not results[n].holds() for n in range(2, 7))
    assert results[2].verdict() == "FAILS"


def test_su2_with_folded_components():
    for n in [*range(1, 7), 30]:
        check = torus_check_su2(n, action="permutation")
        assert check.lhs == check.rhs == 2 ** (n - 1) + 1
        assert check.holds()
    with pytest.raises(ValueError):
        torus_check_su2(2, action="galois")
    with pytest.raises(ValueError):
        torus_check_su2(0)


# ---------------------------------------------------------------------------
# The two-point comparison report.

def test_sigma2_report_n1():
    report = bsigma2_consistency(1)
    assert report.agree()
    assert report.differences == ()


def test_sigma2_report_n2():
    report = bsigma2_consistency(2)
    assert not report.agree()
    assert report.differences == ((0, 2, 5, 7),)
    assert report.assembled.get(0).level_dim(2) == 5
    assert report.quotient.get(0).level_dim(2) == 7
    assert report.quotient.degrees() == (0,)


def test_sigma2_report_is_degree_zero_only():
    for n in (1, 2, 3):
        report = bsigma2_consistency(n, bound=8)
        assert all(d == 0 for d, _, _, _ in report.differences)


# ---------------------------------------------------------------------------
# Idempotent collapse.

def test_collapse_minimal_polynomials():
    assert collapse(1).minimal_polynomial == (0, -1, 1)
    assert collapse(2).minimal_polynomial == (0, 2, -3, 1)
    for s in range(1, 9):
        minimal = collapse(s).minimal_polynomial
        assert len(minimal) == s + 2 and minimal[-1] == 1
        assert all(poly_eval(minimal, Fraction(j)) == 0 for j in range(s + 1))


def test_collapse_worked_case():
    pres = collapse(2)
    assert pres.idempotent(1) == (0, 2, -1)  # 2e - e^2
    assert pres.idempotent(2) == (0, Fraction(-1, 2), Fraction(1, 2))
    assert collapse(1).idempotent(1) == (0, 1)
    assert collapse_expand([0, 0, 1], 2) == (0, 1, 4)  # e^2 against the basis
    assert collapse_expand([5], 3) == (5, 0, 0, 0)


@pytest.mark.parametrize("s", range(1, 9))
def test_collapse_round_trip(s):
    pres = collapse(s)
    for i in range(1, s + 1):
        f = pres.idempotent(i)
        # Lagrange property, checked with a local evaluator
        assert all(poly_eval(f, Fraction(j)) == (1 if j == i else 0)
                   for j in range(s + 1))
        # expanding the idempotent returns the basis vector
        expanded = collapse_expand(f, s)
        assert expanded == tuple(1 if j == i else 0 for j in range(s + 1))
    # expansion is evaluation on the spectrum, so it inverts on polynomials
    # of the worked kind: reassemble f(e) = c_0 + sum c_i e_i pointwise
    f = tuple(Fraction(k + 1, 2) for k in range(s + 1))
    expanded = collapse_expand(f, s)
    for j in range(s + 1):
        lhs = poly_eval(f, Fraction(j))
        rhs = expanded[0] + sum(expanded[i] * (1 if j == i else 0)
                                for i in range(1, s + 1))
        assert lhs == rhs


def test_collapse_errors():
    with pytest.raises(ValueError):
        collapse(0)
    with pytest.raises(ValueError):
        collapse(3).idempotent(0)
    with pytest.raises(ValueError):
        collapse(3).idempotent(4)
    with pytest.raises(ValueError):
        collapse_expand([1, 2], 0)


# ---------------------------------------------------------------------------
# Mixing classifying classes with stems.

def test_classifying_class_boxes_with_stems():
    n = 2
    table = gm_assemble(fixed_point_data("bs1", n, 4))
    cls = table.get(2)
    stem = stem_at(parse_degree("1 - sigma", n))
    assert cls.box(stem) == MackeyClass(n, ((0, MINUS, 1), (1, MINUS, 2)))
    assert cls.box(stem).level_dim(n) == 0
    assert cls.box(stem_at(VirtualRep.zero(n))) == cls
