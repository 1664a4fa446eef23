"""Tests for semisimple Mackey classes and graded tables.

The level-dimension oracle is spelled out inline: a summand born at
level i is visible at levels h >= i, except that a sign summand
vanishes at the very top where there is no group left to act.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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


def test_table_operations():
    n = 2
    burn = MackeyClass.burnside_class(n)
    t = GradedTable.from_dict(n, {0: burn, 3: MackeyClass.simple(n, 1)})
    assert t.degrees() == (0, 3)
    assert t.get(1).is_zero()
    assert t.get(3) == MackeyClass.simple(n, 1)
    assert t.get(-3) == MackeyClass.zero(n) == GradedTable(n).get(0)
    assert t.shift(2).degrees() == (2, 5)
    assert t.dual().degrees() == (-3, 0)
    assert t.dual().get(-3) == MackeyClass.simple(n, 1)
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
    with pytest.raises(ValueError):
        GradedTable(2, ((0, MackeyClass.burnside_class(3)),))
    with pytest.raises(ValueError):
        GradedTable.from_dict(2, {}).box(GradedTable.from_dict(3, {}))
