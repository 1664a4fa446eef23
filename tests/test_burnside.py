"""Tests for the rational Burnside rings.

Oracle: honest finite G-sets.  An orbit of C_{2^i} is realized as the
integers mod its size with the generator acting by +1; unions, cartesian
products, restrictions and inductions are computed by actually walking
the points and counting cycles.  The ring operations must reproduce
those counts on the basis, and linearity plus marks-injectivity extends
the comparison to everything else.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ratstems.burnside import BurnsideElement, from_marks, idempotents, transferred_tops


# ---------------------------------------------------------------------------
# Permutation-set oracle.  A G-set for C_{2^i} is a list of points, each
# a hashable label, together with the generator's permutation.

def orbit_points(i: int, j: int):
    """The orbit [C_{2^i}/C_{2^j}] as points 0..2^(i-j)-1, generator +1."""
    size = 2 ** (i - j)
    return [("o", p) for p in range(size)], {("o", p): ("o", (p + 1) % size)
                                             for p in range(size)}


def cycle_profile(points, step):
    """Multiset of cycle lengths of the permutation ``step`` on points."""
    seen = set()
    lengths = []
    for p in points:
        if p in seen:
            continue
        q, length = p, 0
        while True:
            seen.add(q)
            q = step[q]
            length += 1
            if q == p:
                break
        lengths.append(length)
    return sorted(lengths)


def profile_to_element(n: int, i: int, lengths) -> BurnsideElement:
    """Decode a cycle profile of a C_{2^i}-set into the basis: a cycle of
    length 2^(i-j) is one copy of [C_{2^i}/C_{2^j}]."""
    out = BurnsideElement.zero(n, i)
    for length in lengths:
        j = i - length.bit_length() + 1
        assert 2 ** (i - j) == length
        term = BurnsideElement.one(n, i) if j == i else BurnsideElement.x(n, i, j)
        out = out + term
    return out


def oracle_marks(i: int, j: int):
    """Fixed points of [C_{2^i}/C_{2^j}] at each level h: count the
    points fixed by the subgroup generator g^(2^(i-h))."""
    points, step = orbit_points(i, j)
    out = []
    for h in range(i + 1):
        power = {}
        for p in points:
            q = p
            for _ in range(2 ** (i - h)):
                q = step[q]
            power[p] = q
        out.append(sum(1 for p in points if power[p] == p))
    return out


def ref_marks(a: BurnsideElement):
    """Marks by their definition, one sum per level: the unit counts
    once at every level and x[i,j] counts 2^(i-j) at the levels h <= j."""
    i = a.i
    return tuple(a.coeffs[0] + sum(a.coeffs[1 + j] * 2 ** (i - j) for j in range(h, i))
                 for h in range(i + 1))


def ref_from_marks(n: int, i: int, marks) -> BurnsideElement:
    """Invert ref_marks by back-substitution, top level first."""
    marks = [Fraction(q) for q in marks]
    coeffs = [Fraction(0)] * (i + 1)
    coeffs[0] = marks[i]
    for h in range(i - 1, -1, -1):
        acc = marks[h] - coeffs[0]
        for j in range(h + 1, i):
            acc -= coeffs[1 + j] * 2 ** (i - j)
        coeffs[1 + h] = acc / 2 ** (i - h)
    return BurnsideElement(n, i, tuple(coeffs))


def ref_mul(a: BurnsideElement, b: BurnsideElement) -> BurnsideElement:
    """The product by the relations x[i,j] * x[i,k] = 2^(i - max(j,k)) *
    x[i, min(j,k)], one Fraction term per pair of nonzero coefficients."""
    i = a.i
    orbit = [i, *range(i)]  # coefficient slot -> j of its x[i,j]; the unit is x[i,i]
    out = [Fraction(0)] * (i + 1)
    for a_idx, x in enumerate(a.coeffs):
        if x == 0:
            continue
        j = orbit[a_idx]
        for b_idx, y in enumerate(b.coeffs):
            if y == 0:
                continue
            k = orbit[b_idx]
            out[a_idx if j <= k else b_idx] += x * y * 2 ** (i - max(j, k))
    return BurnsideElement(a.n, i, tuple(out))


def basis(n: int, i: int):
    return [BurnsideElement.one(n, i)] + [BurnsideElement.x(n, i, j) for j in range(i)]


def basis_names(i: int):
    return [("one", i)] + [("x", j) for j in range(i)]


# ---------------------------------------------------------------------------
# Basis-level agreement with the oracle.

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_marks_match_fixed_point_counts(n):
    for i in range(n + 1):
        assert BurnsideElement.one(n, i).marks() == tuple([1] * (i + 1))
        for j in range(i):
            assert list(BurnsideElement.x(n, i, j).marks()) == oracle_marks(i, j)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_products_match_orbit_decompositions(n):
    for i in range(n + 1):
        for (ka, ja) in basis_names(i):
            for (kb, jb) in basis_names(i):
                pa, sa = orbit_points(i, i if ka == "one" else ja)
                pb, sb = orbit_points(i, i if kb == "one" else jb)
                points = [(x, y) for x in pa for y in pb]
                step = {(x, y): (sa[x], sb[y]) for x, y in points}
                want = profile_to_element(n, i, cycle_profile(points, step))
                a = BurnsideElement.one(n, i) if ka == "one" else BurnsideElement.x(n, i, ja)
                b = BurnsideElement.one(n, i) if kb == "one" else BurnsideElement.x(n, i, jb)
                assert a * b == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_restriction_matches_cycle_counting(n):
    for i in range(n + 1):
        for h in range(i + 1):
            for (kind, j) in basis_names(i):
                points, step = orbit_points(i, i if kind == "one" else j)
                substep = {}
                for p in points:
                    q = p
                    for _ in range(2 ** (i - h)):
                        q = step[q]
                    substep[p] = q
                want = profile_to_element(n, h, cycle_profile(points, substep))
                a = BurnsideElement.one(n, i) if kind == "one" else BurnsideElement.x(n, i, j)
                assert a.res(h) == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_transfer_matches_induction(n):
    # induction doubles the point set: new generator swaps the halves
    # and applies the old generator once per full loop
    for i in range(n):
        for (kind, j) in basis_names(i):
            points, step = orbit_points(i, i if kind == "one" else j)
            ind_points = [(half, p) for half in (0, 1) for p in points]
            ind_step = {}
            for p in points:
                ind_step[(0, p)] = (1, p)
                ind_step[(1, p)] = (0, step[p])
            want = profile_to_element(n, i + 1, cycle_profile(ind_points, ind_step))
            a = BurnsideElement.one(n, i) if kind == "one" else BurnsideElement.x(n, i, j)
            assert a.tr() == want


def test_transfer_identities_on_the_nose():
    n = 5
    for i in range(n):
        assert BurnsideElement.one(n, i).tr() == BurnsideElement.x(n, i + 1, i)
        for j in range(i):
            assert BurnsideElement.x(n, i, j).tr() == BurnsideElement.x(n, i + 1, j)


# ---------------------------------------------------------------------------
# Structural identities.

def elements(n: int, i: int):
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=8)
    return st.lists(coeff, min_size=i + 1, max_size=i + 1).map(
        lambda cs: BurnsideElement(n, i, tuple(cs)))


@given(st.integers(min_value=0, max_value=4).flatmap(lambda i: elements(4, i)))
def test_marks_round_trip(a):
    assert from_marks(a.n, a.i, a.marks()) == a


@given(st.integers(min_value=0, max_value=40).flatmap(lambda i: elements(41, i)))
@settings(deadline=None)  # level 40 is slow to check; the speed pin is in test_cli
def test_formulas_match_the_per_level_sums(a):
    n, i, marks = a.n, a.i, a.marks()
    assert marks == ref_marks(a)
    # the coefficients double as an arbitrary marks vector
    assert from_marks(n, i, a.coeffs) == ref_from_marks(n, i, a.coeffs)
    assert from_marks(n, i, marks) == a
    for h in range(i + 1):
        assert a.res(h).marks() == marks[: h + 1]
    assert BurnsideElement.one(n, i).tr() == BurnsideElement.x(n, i + 1, i)
    for j in range(i):
        assert BurnsideElement.x(n, i, j).tr() == BurnsideElement.x(n, i + 1, j)


# zero, integer and fractional coefficients of both signs, so that the
# common denominators of the integer kernels mix
mixed_coeffs = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9),
                         st.fractions(min_value=-50, max_value=50, max_denominator=360))


def mixed_elements(n: int, i: int):
    return st.lists(mixed_coeffs, min_size=i + 1, max_size=i + 1).map(
        lambda cs: BurnsideElement(n, i, tuple(cs)))


@given(st.integers(min_value=0, max_value=40).flatmap(
    lambda i: st.tuples(mixed_elements(41, i), mixed_elements(41, i))))
@settings(deadline=None)
def test_integer_kernels_match_the_fraction_references(pair):
    a, b = pair
    n, i = a.n, a.i
    prod = a * b
    assert prod == ref_mul(a, b)
    assert all(type(q) is Fraction for q in prod.coeffs)
    marks = a.marks()
    assert marks == ref_marks(a)
    assert all(type(q) is Fraction for q in marks)
    assert from_marks(n, i, b.coeffs) == ref_from_marks(n, i, b.coeffs)
    assert from_marks(n, i, [int(q) for q in b.coeffs]) == ref_from_marks(
        n, i, [int(q) for q in b.coeffs])


# ---------------------------------------------------------------------------
# The stored form: integer numerators over one reduced denominator.

def assert_canonical(a: BurnsideElement):
    assert type(a.den) is int and all(type(x) is int for x in a.nums)
    assert a.den > 0 and gcd(a.den, *a.nums) == 1
    if a.is_zero():
        assert a.den == 1


def spellings(q: Fraction, k: int):
    """The value q as an int when it is integral, and as a Fraction built
    from the unreduced pair k*numerator / k*denominator (like Fraction(2, 4))."""
    return (int(q) if q.denominator == 1 else q,
            Fraction(k * q.numerator, k * q.denominator))


@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda i: st.lists(mixed_coeffs.map(Fraction), min_size=i + 1, max_size=i + 1)),
       st.integers(min_value=1, max_value=12))
def test_equal_values_give_one_canonical_element(qs, k):
    n, i = 6, len(qs) - 1
    plain, scaled = zip(*(spellings(q, k) for q in qs))
    forms = [BurnsideElement(n, i, qs), BurnsideElement(n, i, plain),
             BurnsideElement(n, i, scaled), from_marks(n, i, BurnsideElement(n, i, qs).marks())]
    for a in forms:
        assert a == forms[0] and hash(a) == hash(forms[0])
        assert (a.den, a.nums) == (forms[0].den, forms[0].nums)
        assert_canonical(a)
        assert a.coeffs == tuple(qs)
        assert all(type(q) is Fraction for q in a.coeffs)
    assert (forms[0].den == 1) == all(q.denominator == 1 for q in qs)


def test_zero_has_denominator_one():
    for coeffs in [(0, 0), (Fraction(0, 7), 0), (Fraction(0), Fraction(0))]:
        a = BurnsideElement(2, 1, coeffs)
        assert (a.den, a.nums) == (1, (0, 0))
        assert a == BurnsideElement.zero(2, 1) and hash(a) == hash(BurnsideElement.zero(2, 1))
    half = BurnsideElement.one(2, 1).scale(Fraction(1, 2))
    assert (half - half).den == 1
    assert half.scale(0).den == 1
    assert (half * BurnsideElement.zero(2, 1)).den == 1


@given(st.integers(min_value=0, max_value=8).flatmap(
    lambda i: st.tuples(mixed_elements(9, i), mixed_elements(9, i))),
       st.fractions(min_value=-9, max_value=9, max_denominator=12))
def test_every_operation_returns_the_canonical_form(pair, q):
    a, b = pair
    n, i = a.n, a.i
    results = [a + b, a - b, a.scale(q), a * b, from_marks(n, i, b.coeffs),
               transferred_tops(n, i, list(enumerate(b.coeffs)))]
    results += [a.res(h) for h in range(i + 1)]
    if i < n:
        results.append(a.tr())
    for r in results:
        assert_canonical(r)
    assert (a * b).coeffs == ref_mul(a, b).coeffs
    assert from_marks(n, i, b.coeffs).coeffs == ref_from_marks(n, i, b.coeffs).coeffs
    assert a.scale(q).coeffs == tuple(q * x for x in a.coeffs)


@given(st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3),
       st.sampled_from([0.5, 2.0, True, False]))
def test_float_and_bool_coefficients_are_refused(i, slot, bad):
    cs = [Fraction(1, 3)] * (i + 1)
    cs[min(slot, i)] = bad
    with pytest.raises(ValueError, match="coefficients must be int or Fraction"):
        BurnsideElement(3, i, cs)
    with pytest.raises(ValueError, match="marks must be int or Fraction"):
        from_marks(3, i, cs)
    with pytest.raises(ValueError, match="scale factor must be int or Fraction"):
        BurnsideElement.one(3, i).scale(bad)


@given(st.integers(min_value=0, max_value=3).flatmap(
    lambda i: st.tuples(elements(3, i), elements(3, i))))
def test_marks_is_a_ring_map(pair):
    a, b = pair
    prod = a * b
    assert prod.marks() == tuple(x * y for x, y in zip(a.marks(), b.marks()))
    assert (a + b).marks() == tuple(x + y for x, y in zip(a.marks(), b.marks()))


@given(st.integers(min_value=0, max_value=3).flatmap(
    lambda i: st.tuples(elements(3, i), elements(3, i), elements(3, i))))
def test_ring_axioms(triple):
    a, b, c = triple
    one = BurnsideElement.one(a.n, a.i)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * one == a


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_idempotents_complete_and_orthogonal(n):
    for i in range(n + 1):
        es = idempotents(n, i)
        total = BurnsideElement.zero(n, i)
        for h, e in enumerate(es):
            total = total + e
            for k, f in enumerate(es):
                want = e if h == k else BurnsideElement.zero(n, i)
                assert e * f == want
        assert total == BurnsideElement.one(n, i)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_top_idempotent_is_y(n):
    for i in range(n + 1):
        assert BurnsideElement.y(n, i) == idempotents(n, i)[i]
        if i >= 1:
            assert BurnsideElement.y(n, i).res(i - 1).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_frobenius_and_projection(n):
    for i in range(n):
        for a in basis(n, i):
            assert a.tr().res(i) == a.scale(2)
            for b in basis(n, i + 1):
                assert (a * b.res(i)).tr() == a.tr() * b


def test_transferred_tops_validation():
    for line in (3, -1):
        with pytest.raises(ValueError, match=rf"line {line} outside 0\.\.2"):
            transferred_tops(3, 2, [(0, 1), (line, 1)])
    for bad in (0.5, True):
        with pytest.raises(ValueError, match="line coefficients must be int or Fraction"):
            transferred_tops(3, 2, [(0, bad)])


def test_record_round_trip():
    a = BurnsideElement(3, 2, (Fraction(1, 2), Fraction(-3), Fraction(0)))
    assert a.to_record() == {"level": {"n": 3, "i": 2}, "coeffs": ["1/2", "-3", "0"]}


def test_str():
    n = 3
    assert str(BurnsideElement.zero(n, 2)) == "0"
    e = BurnsideElement.one(n, 2) - BurnsideElement.x(n, 2, 1).scale(Fraction(1, 2))
    assert str(e) == "1*1 + -1/2*x[2,1]"


def test_validation():
    with pytest.raises(ValueError, match="ambient exponent n must be >= 1"):
        BurnsideElement(0, 0, (Fraction(1),))
    with pytest.raises(ValueError, match=r"level 3 outside 0\.\.2"):
        BurnsideElement(2, 3, (Fraction(1),) * 4)
    with pytest.raises(ValueError):
        BurnsideElement.x(3, 2, 2)
    with pytest.raises(ValueError):
        BurnsideElement(2, 1, (Fraction(1),))
    with pytest.raises(ValueError):
        BurnsideElement.one(2, 2).tr()
    with pytest.raises(ValueError):
        BurnsideElement.one(2, 1).res(2)
    with pytest.raises(ValueError):
        BurnsideElement.one(2, 1) + BurnsideElement.one(2, 2)
    with pytest.raises(ValueError):
        from_marks(2, 1, [1, 2, 3])
    for n, i in [(3, -1), (-1, -1)]:
        with pytest.raises(ValueError):
            BurnsideElement.one(n, i)


@pytest.mark.parametrize("level,marks", [("1", [1, 1]), (None, [1])])
def test_from_marks_checks_the_level_first(level, marks):
    # the level is validated before its length is compared with the marks
    with pytest.raises(ValueError, match="ambient exponent n and level i must be integers"):
        BurnsideElement(2, level, marks)
    with pytest.raises(ValueError, match="ambient exponent n and level i must be integers"):
        from_marks(2, level, marks)


@pytest.mark.parametrize("bad", [1.5, True, "1/2"])
def test_inexact_inputs_are_rejected(bad):
    with pytest.raises(ValueError, match="must be integers"):
        BurnsideElement(bad, 1, (1, 0))
    with pytest.raises(ValueError, match="must be integers"):
        BurnsideElement(2, bad, (1, 0))
    with pytest.raises(ValueError, match="coefficients must be int or Fraction"):
        BurnsideElement(2, 1, (bad, 0))
    with pytest.raises(ValueError, match="marks must be int or Fraction"):
        from_marks(2, 1, [bad, 1])
    with pytest.raises(ValueError, match="scale factor must be int or Fraction"):
        BurnsideElement.one(2, 1).scale(bad)
