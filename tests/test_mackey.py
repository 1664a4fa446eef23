"""Tests for semisimple Mackey classes and graded tables.

The level-dimension oracle is spelled out inline: a summand born at
level i is visible at levels h >= i, except that a sign summand
vanishes at the very top where there is no group left to act.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ratstems import mackey
from ratstems.burnside import BurnsideElement
from ratstems.mackey import (MINUS, PLUS, GradedTable, MackeyClass,
                             NonSignIsotypicError, classify)


def oracle_level_dim(cls: MackeyClass, h: int) -> int:
    dim = 0
    for i, sign, mult in cls.entries:
        visible = h >= i and not (sign == MINUS and h == cls.n)
        dim += mult if visible else 0
    return dim


def mackey_classes(n: int):
    entry = st.tuples(st.integers(min_value=0, max_value=n),
                      st.sampled_from([PLUS, MINUS]),
                      st.integers(min_value=0, max_value=3))
    def fix(entries):
        ok = tuple((i, s, m) for i, s, m in entries if not (s == MINUS and i == n))
        return MackeyClass(n, ok)
    return st.lists(entry, max_size=5).map(fix)


@given(st.integers(min_value=1, max_value=4).flatmap(mackey_classes))
def test_level_dims(cls):
    assert cls.level_dims() == tuple(oracle_level_dim(cls, h) for h in range(cls.n + 1))
    for h in range(cls.n + 1):
        assert cls.level_dim(h) == oracle_level_dim(cls, h)
    for h in (-1, cls.n + 1):
        with pytest.raises(ValueError):
            cls.level_dim(h)


def test_level_dim_goldens():
    n = 2
    assert MackeyClass.simple(n, 0, MINUS).level_dims() == (1, 1, 0)
    assert MackeyClass.simple(n, 1, PLUS, 2).level_dims() == (0, 2, 2)
    assert MackeyClass.burnside_class(n).level_dims() == (1, 2, 3)
    assert MackeyClass.zero(n).level_dims() == (0, 0, 0)


def test_normalization_merges_and_drops():
    cls = MackeyClass(2, ((1, PLUS, 1), (1, PLUS, 2), (0, MINUS, 0)))
    assert cls.entries == ((1, PLUS, 3),)
    assert cls.mult(1, PLUS) == 3
    assert cls.mult(0, MINUS) == 0
    # entries already in normal form are kept as given; unsorted, duplicate
    # and zero-multiplicity ones give the same class, hashing alike
    normal = ((0, MINUS, 1), (0, PLUS, 2), (2, PLUS, 1))
    assert MackeyClass(2, normal).entries == normal
    for messy in [((2, PLUS, 1), (0, PLUS, 2), (0, MINUS, 1)),
                  ((0, MINUS, 1), (0, PLUS, 1), (0, PLUS, 1), (2, PLUS, 1)),
                  ((0, MINUS, 1), (0, PLUS, 1), (2, PLUS, 1), (0, PLUS, 1)),
                  ((0, MINUS, 1), (0, PLUS, 2), (1, MINUS, 0), (2, PLUS, 1)),
                  ((0, MINUS, 1), (0, PLUS, 2), (2, PLUS, 1), (2, PLUS, 0))]:
        cls = MackeyClass(2, messy)
        assert cls == MackeyClass(2, normal)
        assert cls.entries == normal
        assert hash(cls) == hash(MackeyClass(2, normal))


def test_equality_is_by_value_and_safe_with_other_types():
    # equal classes built from unsorted entries compare and hash equal;
    # a value of another type is unequal, and comparing raises nothing
    a = MackeyClass(2, ((1, MINUS, 1), (0, PLUS, 2), (2, PLUS, 1)))
    b = MackeyClass(2, ((2, PLUS, 1), (0, PLUS, 1), (1, MINUS, 1), (0, PLUS, 1)))
    assert a is not b and a == b and not a != b and a == a
    assert hash(a) == hash(b) == hash((2, a.entries)) and len({a, b}) == 1
    assert a != MackeyClass(2, ((0, PLUS, 2), (1, PLUS, 1), (2, PLUS, 1)))
    assert MackeyClass.zero(1) != MackeyClass.zero(2)
    for other in (None, 3, "M0", a.entries, (2, a.entries), GradedTable(2)):
        assert (a == other) is False and (other == a) is False
        assert (a != other) is True and (other != a) is True


def test_validation():
    with pytest.raises(ValueError):
        MackeyClass(2, ((3, PLUS, 1),))
    with pytest.raises(ValueError):
        MackeyClass(2, ((1, 2, 1),))
    with pytest.raises(ValueError):
        MackeyClass(2, ((2, MINUS, 1),))  # no sign summand at the top
    with pytest.raises(ValueError):
        MackeyClass(2, ((1, PLUS, -1),))
    # single or sorted entries, which skip the merge, are still checked
    with pytest.raises(ValueError):
        MackeyClass(2, ((-1, PLUS, 1),))
    with pytest.raises(ValueError):
        MackeyClass(2, ((1, 0, 1),))
    with pytest.raises(ValueError):
        MackeyClass(2, ((0, PLUS, 1), (1, PLUS, 1), (3, PLUS, 1)))
    with pytest.raises(ValueError):
        MackeyClass(2, ((0, MINUS, 1), (1, PLUS, 1), (2, MINUS, 1)))
    with pytest.raises(ValueError):
        MackeyClass(2, ((0, PLUS, 1), (1, MINUS, 1), (1, PLUS, -2)))
    with pytest.raises(ValueError):
        MackeyClass(2) + MackeyClass(3)
    with pytest.raises(ValueError):  # a negative multiple of a class
        MackeyClass(2, tuple((i, s, -m) for i, s, m in MackeyClass.burnside_class(2).entries))


@pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), True])
@pytest.mark.parametrize("slot", ["level", "sign", "mult"])
def test_validation_rejects_inexact_entries(bad, slot):
    # bool is refused too, though True == 1 would pass every range check
    entry = {"level": 0, "sign": PLUS, "mult": 2}
    entry[slot] = bad
    with pytest.raises(ValueError, match="integers"):
        MackeyClass(2, ((entry["level"], entry["sign"], entry["mult"]),))
    with pytest.raises(ValueError, match="integers"):  # on the merge path too
        MackeyClass(2, ((1, PLUS, 1), (entry["level"], entry["sign"], entry["mult"])))


def test_classify_rejects_inexact_eigendata():
    with pytest.raises(ValueError, match="integers"):
        classify(1, [(1.5, 0, 0), (0, 0, 0)])
    with pytest.raises(ValueError, match="integers"):
        classify(1, [(0, Fraction(1), 0), (1, 0, 0)])


@given(st.integers(min_value=1, max_value=3).flatmap(mackey_classes))
def test_box_unit_is_the_burnside_class(cls):
    assert cls.box(MackeyClass.burnside_class(cls.n)) == cls


def test_box_sign_rules():
    n = 3
    mi_minus = MackeyClass.simple(n, 1, MINUS)
    assert mi_minus.box(mi_minus) == MackeyClass.simple(n, 1, PLUS)
    assert mi_minus.box(MackeyClass.simple(n, 1, PLUS)) == mi_minus
    # summands born at different levels annihilate
    assert mi_minus.box(MackeyClass.simple(n, 2, PLUS)).is_zero()
    assert MackeyClass.simple(n, 0, PLUS).box(MackeyClass.simple(n, 3, PLUS)).is_zero()


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(mackey_classes(n), mackey_classes(n), mackey_classes(n))))
def test_box_is_commutative_and_distributive(triple):
    a, b, c = triple
    assert a.box(b) == b.box(a)
    assert a.box(b + c) == a.box(b) + a.box(c)
    assert a.box(b).box(c) == a.box(b.box(c))


@given(st.integers(min_value=1, max_value=4).flatmap(mackey_classes))
def test_classify_round_trips(cls):
    # per level, the (plus, minus, other) dimensions of the Weyl modules
    eigendata = [(cls.mult(h, PLUS), cls.mult(h, MINUS), 0) for h in range(cls.n + 1)]
    assert classify(cls.n, eigendata) == cls


def test_classify_errors():
    with pytest.raises(NonSignIsotypicError) as exc:
        classify(2, [(1, 0, 0), (0, 0, 2), (1, 0, 0)])
    assert "level 1" in str(exc.value)
    with pytest.raises(ValueError):
        classify(2, [(1, 0, 0), (0, 0, 0), (0, 1, 0)])  # minus slot at the top
    with pytest.raises(ValueError):
        classify(2, [(1, 0, 0)])
    with pytest.raises(ValueError):
        classify(1, [(-1, 0, 0), (0, 0, 0)])


def test_str_and_records():
    n = 2
    cls = MackeyClass(n, ((0, MINUS, 1), (1, MINUS, 1)))
    assert str(cls) == "M0- + M1-"
    assert str(MackeyClass.simple(n, 1, PLUS, 2)) == "2*M1"
    assert str(MackeyClass.zero(n)) == "0"


def graded_tables(n: int):
    degree = st.integers(min_value=-4, max_value=4)
    return st.lists(st.tuples(degree, mackey_classes(n)), max_size=4).map(
        lambda entries: GradedTable(n, tuple(entries)))


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(graded_tables(n), graded_tables(n))))
def test_table_box_is_degreewise(pair):
    a, b = pair
    prod = a.box(b)
    degrees = set(da + db for da in a.degrees() for db in b.degrees())
    for d in degrees | set(prod.degrees()):
        want = MackeyClass.zero(a.n)
        for da in a.degrees():
            want = want + a.get(da).box(b.get(d - da))
        assert prod.get(d) == want


def table_entries(n: int):
    # a narrow degree range, so degrees repeat; the list may be empty
    degree = st.integers(min_value=-2, max_value=2)
    return st.lists(st.tuples(degree, mackey_classes(n)), max_size=5)


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(st.just(n), table_entries(n), table_entries(n))))
def test_table_box_matches_pairwise_class_box(args):
    # the levelwise Kunneth box against every pair of the raw entries,
    # repeated degrees included, boxed one class pair at a time
    n, ea, eb = args
    want = GradedTable(n, tuple((d1 + d2, c1.box(c2)) for d1, c1 in ea for d2, c2 in eb))
    assert GradedTable(n, tuple(ea)).box(GradedTable(n, tuple(eb))) == want
    empty = GradedTable(n)
    assert GradedTable(n, tuple(ea)).box(empty) == empty == empty.box(GradedTable(n, tuple(eb)))


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(st.just(n), table_entries(n), st.randoms(use_true_random=False))))
def test_table_in_order_path_matches_regrouping(args):
    # shuffled entries, repeated degrees and zero classes take the
    # regrouping path; its normal form, given again, takes the in-order
    # path, kept as given, and a zero class appended forces the regrouping
    # path onto the same data
    n, entries, rng = args
    rng.shuffle(entries)
    regrouped = GradedTable(n, tuple(entries))
    want: dict[int, MackeyClass] = {}
    for d, cls in entries:
        want[d] = want.get(d, MackeyClass.zero(n)) + cls
    assert regrouped.entries == tuple(sorted((d, c) for d, c in want.items() if not c.is_zero()))
    kept = GradedTable(n, regrouped.entries)
    assert kept.entries is regrouped.entries
    forced = GradedTable(n, regrouped.entries + ((0, MackeyClass.zero(n)),))
    for table in (kept, forced):
        assert table.entries == regrouped.entries
        assert table._by_degree == regrouped._by_degree
        assert list(table._by_degree) == list(regrouped._by_degree)


def test_table_keeps_a_lone_class():
    cls = MackeyClass(2, ((0, MINUS, 2), (2, PLUS, 1)))
    assert GradedTable(2, ((3, cls),)).get(3) is cls
    assert GradedTable.from_dict(2, {-1: cls, 0: MackeyClass.simple(2, 1)}).get(-1) is cls


def test_table_operations():
    n = 2
    burn = MackeyClass.burnside_class(n)
    t = GradedTable.from_dict(n, {0: burn, 3: MackeyClass.simple(n, 1)})
    assert t.degrees() == (0, 3)
    assert t.get(1).is_zero()
    assert t.get(3) == MackeyClass.simple(n, 1)
    assert t.get(-3) == MackeyClass.zero(n) == GradedTable(n).get(0)
    assert t.shift(2).degrees() == (2, 5)
    unit = GradedTable.from_dict(n, {0: burn})
    assert t.box(unit) == t
    # duplicate degrees merge on construction
    merged = GradedTable(n, ((0, burn), (0, burn)))
    assert merged.get(0) == burn + burn


def test_table_poincare():
    n = 1
    t = GradedTable.from_dict(n, {0: MackeyClass.burnside_class(n),
                                  2: MackeyClass.simple(n, 1)})
    series = t.poincare(1, 4)
    assert [series.coeff(k) for k in range(5)] == [2, 0, 1, 0, 0]
    with pytest.raises(ValueError):
        t.shift(-1).poincare(1, 4)


def test_table_validation():
    burn = MackeyClass.burnside_class
    # a class of another exponent raises, in order or not
    for entries in [((0, burn(3)),), ((0, burn(2)), (1, burn(3))),
                    ((1, burn(2)), (0, burn(2)), (2, burn(3))),
                    ((0, MackeyClass.zero(2)), (1, burn(3)))]:
        with pytest.raises(ValueError):
            GradedTable(2, entries)
    with pytest.raises(ValueError):
        GradedTable.from_dict(2, {}).box(GradedTable.from_dict(3, {}))


@pytest.mark.parametrize("op, value", [
    pytest.param(operator.add, MackeyClass.burnside_class(2), id="MackeyClass.__add__"),
    pytest.param(MackeyClass.box, MackeyClass.burnside_class(2), id="MackeyClass.box"),
    pytest.param(GradedTable.box, GradedTable.from_dict(2, {0: MackeyClass.burnside_class(2)}),
                 id="GradedTable.box"),
    pytest.param(operator.sub, BurnsideElement.one(2, 1), id="BurnsideElement.__sub__"),
])
@pytest.mark.parametrize("other", [1, None, "M0"])
def test_wrong_operands_raise_type_error(op, value, other):
    with pytest.raises(TypeError, match=f"^expected a {type(value).__name__}$"):
        op(value, other)


def test_box_class_cache_is_bounded_and_validates():
    make = mackey._box_class
    maxsize = make.cache_parameters()["maxsize"]
    assert isinstance(maxsize, int) and maxsize > 0
    before = make.cache_info()
    for _ in range(2):
        with pytest.raises(ValueError):
            make(2, ((3, 1, 1),))
    after = make.cache_info()
    assert (after.hits, after.misses, after.currsize) == \
        (before.hits, before.misses + 2, before.currsize)


def test_box_interns_its_classes():
    # the box emits each degree's entries sorted, so equal products are
    # one cached instance, and the level index is kept on the other side
    n = 2
    a = GradedTable.from_dict(n, {0: MackeyClass.burnside_class(n),
                                  1: MackeyClass(n, ((0, MINUS, 1), (1, MINUS, 2)))})
    b = GradedTable.from_dict(n, {-1: MackeyClass(n, ((1, MINUS, 1), (2, PLUS, 1))),
                                  2: MackeyClass(n, ((0, MINUS, 3), (1, PLUS, 1)))})
    first, second = a.box(b), a.box(b)
    assert first == second and first.degrees() == tuple(sorted(first.degrees()))
    assert all(first.get(d) is second.get(d) for d in first.degrees())
    assert b._by_level == {0: [(2, MINUS, 3)], 1: [(-1, MINUS, 1), (2, PLUS, 1)],
                           2: [(-1, PLUS, 1)]}
    assert first.degrees() == (-1, 0, 2, 3)
    assert first.get(3) == MackeyClass(n, ((0, PLUS, 3), (1, MINUS, 2)))
