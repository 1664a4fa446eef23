"""Tests for exact truncated power series.

The oracle here is direct polynomial arithmetic on coefficient lists,
written out inline; the series class must agree with it coefficient by
coefficient inside the truncation window.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from ratstems.series import TruncatedSeries

BOUND = 12

fractions = st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                      st.integers(min_value=1, max_value=12))
# ints and Fractions mixed, as the constructor accepts both
coeff_lists = st.lists(st.one_of(st.integers(min_value=-9, max_value=9), fractions),
                       max_size=BOUND + 1)


def pad(a: list, bound: int) -> list:
    return [Fraction(x) for x in a[: bound + 1]] + [Fraction(0)] * (bound + 1 - len(a))


def poly_add(a: list, b: list, bound: int) -> list:
    return [x + y for x, y in zip(pad(a, bound), pad(b, bound))]


def poly_mul(a: list, b: list, bound: int) -> list:
    out = [Fraction(0)] * (bound + 1)
    for i, x in enumerate(a[: bound + 1]):
        for j, y in enumerate(b[: bound + 1]):
            if i + j <= bound:
                out[i + j] += Fraction(x) * Fraction(y)
    return out


def poly_str(a: list, bound: int) -> str:
    terms = []
    for k, q in enumerate(pad(a, bound)):
        if q == 0:
            continue
        terms.append(str(q) if k == 0 else f"t^{k}" if q == 1 else f"{q}*t^{k}")
    return " + ".join(terms or ["0"]) + f" + O(t^{bound + 1})"


def assert_reduced(s: TruncatedSeries) -> None:
    assert type(s.nums) is tuple and len(s.nums) == s.bound + 1
    assert s.den > 0 and gcd(s.den, *s.nums) == 1
    if not any(s.nums):
        assert s.den == 1


def as_list(s: TruncatedSeries) -> list:
    return [s.coeff(k) for k in range(s.bound + 1)]


def test_constructors():
    assert as_list(TruncatedSeries.zero(3)) == [0, 0, 0, 0]
    assert as_list(TruncatedSeries.one(3)) == [1, 0, 0, 0]
    assert as_list(TruncatedSeries(3, [0, 0, 1])) == [0, 0, 1, 0]
    assert as_list(TruncatedSeries(3, [0, 0, Fraction(1, 2)])) == [0, 0, Fraction(1, 2), 0]
    # a coefficient above the bound is silently dropped from the window
    assert TruncatedSeries(3, [0] * 7 + [1]) == TruncatedSeries.zero(3)
    assert as_list(TruncatedSeries.geometric(6, 2)) == [1, 0, 1, 0, 1, 0, 1]


def test_constructor_validation():
    with pytest.raises(ValueError):
        TruncatedSeries(-1)
    with pytest.raises(ValueError):
        TruncatedSeries.geometric(4, 0)
    with pytest.raises(ValueError):
        TruncatedSeries.geometric(4, -1)
    with pytest.raises(ValueError):
        TruncatedSeries.one(4).coeff(5)
    with pytest.raises(ValueError):
        TruncatedSeries.one(4).coeff(-1)


@pytest.mark.parametrize("bad", [0.5, True])
def test_inexact_inputs_are_rejected(bad):
    with pytest.raises(ValueError, match="series coefficients must be int or Fraction"):
        TruncatedSeries(3, [bad])
    with pytest.raises(ValueError, match="series coefficients must be int or Fraction"):
        TruncatedSeries(3, [Fraction(1, 3), bad])
    with pytest.raises(ValueError, match="scale factor must be int or Fraction"):
        TruncatedSeries.one(3).scale(bad)


def test_exact_inputs_are_kept():
    half = Fraction(1, 2)
    assert as_list(TruncatedSeries(2, [half, 3])) == [half, 3, 0]
    assert type(TruncatedSeries(2, [half, 3]).coeff(1)) is Fraction
    assert as_list(TruncatedSeries(2, [1, 1]).scale(half)) == [half, half, 0]
    assert type(TruncatedSeries.one(2).scale(3).coeff(0)) is Fraction


def test_geometric_inverts_one_minus_t_step():
    for step in (1, 2, 3, 4):
        one = TruncatedSeries.one(BOUND)
        factor = one + TruncatedSeries(BOUND, [0] * step + [-1])
        assert factor * TruncatedSeries.geometric(BOUND, step) == one


@given(coeff_lists, coeff_lists)
def test_mul_matches_convolution(a, b):
    sa, sb = TruncatedSeries(BOUND, a), TruncatedSeries(BOUND, b)
    assert as_list(sa * sb) == poly_mul(a, b, BOUND)


fraction_lists = st.lists(fractions, max_size=BOUND + 1)


@given(fraction_lists, fraction_lists)
def test_mul_of_fractions_is_exact(a, b):
    # the product convolves integer numerators over common denominators;
    # it must still equal the Fraction convolution and hold only Fractions
    sa, sb = TruncatedSeries(BOUND, a), TruncatedSeries(BOUND, b)
    for prod, want in [(sa * sb, poly_mul(a, b, BOUND)),
                       (sb * sa, poly_mul(b, a, BOUND)),
                       (sa * sa * sb, poly_mul(poly_mul(a, a, BOUND), b, BOUND))]:
        assert as_list(prod) == want
        assert all(type(q) is Fraction for q in prod.coeffs)
        assert_reduced(prod)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_axioms(a, b, c):
    sa, sb, sc = (TruncatedSeries(BOUND, x) for x in (a, b, c))
    assert sa * sb == sb * sa
    assert (sa * sb) * sc == sa * (sb * sc)
    assert sa * (sb + sc) == sa * sb + sa * sc
    assert sa + sb == sb + sa
    assert sa + sa.scale(-1) == TruncatedSeries.zero(BOUND)
    assert sa * TruncatedSeries.one(BOUND) == sa


@given(coeff_lists, st.integers(min_value=1, max_value=4))
def test_substitute_power_relocates_coefficients(a, r):
    s = TruncatedSeries(BOUND, a)
    sub = s.substitute_power(r)
    for k in range(BOUND + 1):
        expected = s.coeff(k // r) if k % r == 0 and k // r <= BOUND else Fraction(0)
        assert sub.coeff(k) == expected


@given(coeff_lists, coeff_lists, st.integers(min_value=1, max_value=3))
def test_substitute_power_is_a_ring_map(a, b, r):
    sa, sb = TruncatedSeries(BOUND, a), TruncatedSeries(BOUND, b)
    assert (sa * sb).substitute_power(r) == sa.substitute_power(r) * sb.substitute_power(r)
    assert (sa + sb).substitute_power(r) == sa.substitute_power(r) + sb.substitute_power(r)


def test_pow_and_scale():
    g = TruncatedSeries.geometric(8, 2)
    assert g.scale(3).coeff(2) == 3
    assert g.scale(Fraction(1, 2)).coeff(0) == Fraction(1, 2)


def test_truncate():
    g = TruncatedSeries.geometric(8, 2)
    t = g.truncate(4)
    assert t.bound == 4
    assert as_list(t) == [1, 0, 1, 0, 1]
    assert g.truncate(8) == g
    with pytest.raises(ValueError):
        g.truncate(9)
    with pytest.raises(ValueError, match="series bound must be >= 0"):
        TruncatedSeries(3, (1, 2)).truncate(-1)


def test_mixed_bounds_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries.one(4) + TruncatedSeries.one(5)
    with pytest.raises(ValueError):
        TruncatedSeries.one(4) * TruncatedSeries.one(5)


def test_equality_and_hash():
    a = TruncatedSeries(4, [1, 2])
    b = TruncatedSeries(4, [1, 2, 0])
    assert a == b and hash(a) == hash(b)
    assert a != TruncatedSeries(5, [1, 2])
    assert a != "1 + 2t"


def test_str_is_stable():
    assert str(TruncatedSeries.zero(3)) == "0 + O(t^4)"
    assert str(TruncatedSeries(3, [1, 0, 2])) == "1 + 2*t^2 + O(t^4)"
    assert str(TruncatedSeries(3, [0, 1])) == "t^1 + O(t^4)"


def test_immutability():
    s = TruncatedSeries(3, [Fraction(1, 2), 3])
    s.coeffs  # the cached Fractions, once built, are as fixed as the rest
    for name in ("bound", "den", "nums", "coeffs", "_coeffs"):
        with pytest.raises(AttributeError):
            setattr(s, name, getattr(s, name))
    assert type(s.nums) is tuple and type(s.coeffs) is tuple
    assert (s.bound, s.den, s.nums) == (3, 2, (1, 6, 0, 0))


# ---------------------------------------------------------------------------
# Every operation against the Fraction oracle, with fractional coefficients.

@given(coeff_lists)
def test_constructor_matches_oracle(a):
    s = TruncatedSeries(BOUND, a)
    assert as_list(s) == pad(a, BOUND)
    assert s.coeffs == tuple(pad(a, BOUND))
    assert all(type(q) is Fraction for q in s.coeffs)
    assert all(type(s.coeff(k)) is Fraction for k in range(BOUND + 1))
    assert_reduced(s)


@given(coeff_lists, coeff_lists)
def test_add_matches_oracle(a, b):
    total = TruncatedSeries(BOUND, a) + TruncatedSeries(BOUND, b)
    assert as_list(total) == poly_add(a, b, BOUND)
    assert_reduced(total)


@given(coeff_lists, st.one_of(st.integers(min_value=-9, max_value=9), fractions))
def test_scale_matches_oracle(a, q):
    scaled = TruncatedSeries(BOUND, a).scale(q)
    assert as_list(scaled) == [q * x for x in pad(a, BOUND)]
    assert_reduced(scaled)


@given(coeff_lists, st.integers(min_value=0, max_value=BOUND))
def test_truncate_matches_oracle(a, bound):
    cut = TruncatedSeries(BOUND, a).truncate(bound)
    assert cut.bound == bound
    assert as_list(cut) == pad(a, BOUND)[: bound + 1]
    assert cut == TruncatedSeries(bound, a)
    assert_reduced(cut)


@given(coeff_lists, st.integers(min_value=1, max_value=14))
def test_substitute_power_matches_oracle(a, r):
    sub = TruncatedSeries(BOUND, a).substitute_power(r)
    want = [Fraction(0)] * (BOUND + 1)
    for k, q in enumerate(pad(a, BOUND)):
        if k * r <= BOUND:
            want[k * r] = q
    assert as_list(sub) == want
    assert_reduced(sub)


@given(coeff_lists, coeff_lists)
def test_eq_and_hash_match_oracle(a, b):
    sa, sb = TruncatedSeries(BOUND, a), TruncatedSeries(BOUND, b)
    assert (sa == sb) == (pad(a, BOUND) == pad(b, BOUND))
    if sa == sb:
        assert hash(sa) == hash(sb)


@given(coeff_lists)
def test_str_matches_oracle(a):
    assert str(TruncatedSeries(BOUND, a)) == poly_str(a, BOUND)


def test_zero_one_geometric_match_oracle():
    for bound in (0, 1, 5):
        assert as_list(TruncatedSeries.zero(bound)) == [0] * (bound + 1)
        assert as_list(TruncatedSeries.one(bound)) == [1] + [0] * bound
        for step in (1, 2, 3, 7):
            g = TruncatedSeries.geometric(bound, step)
            assert as_list(g) == [int(k % step == 0) for k in range(bound + 1)]
            assert_reduced(g)
        assert (TruncatedSeries.zero(bound).den, TruncatedSeries.one(bound).den) == (1, 1)


@given(coeff_lists)
def test_normal_form_is_unique(a):
    s = TruncatedSeries(BOUND, a)
    third = s.scale(Fraction(1, 3)).scale(3)
    assert third == s and hash(third) == hash(s)
    # every construction path lands on the same (den, nums)
    one = TruncatedSeries.one(BOUND)
    paths = [third, s.scale(1), s + TruncatedSeries.zero(BOUND), s * one, one * s,
             s.truncate(BOUND), s.substitute_power(1),
             s.scale(Fraction(-2, 7)) + s.scale(Fraction(9, 7)),
             TruncatedSeries(BOUND, s.coeffs)]
    for other in paths:
        assert (other.den, other.nums) == (s.den, s.nums)
        assert hash(other) == hash(s)
    assert s.scale(0) == TruncatedSeries.zero(BOUND)
    assert (s.scale(0).den, s + s.scale(-1)) == (1, TruncatedSeries.zero(BOUND))


def test_normal_form_worked_cases():
    s = TruncatedSeries(3, [Fraction(1, 2), Fraction(1, 3)])
    assert (s.den, s.nums) == (6, (3, 2, 0, 0))
    assert (s.scale(6).den, s.scale(6).nums) == (1, (3, 2, 0, 0))
    # dropping the coefficient that carried the 3 leaves the denominator 2
    assert (s.truncate(0).den, s.truncate(0).nums) == (2, (1,))
    assert (s.substitute_power(4).den, s.substitute_power(4).nums) == (2, (1, 0, 0, 0))
    half = TruncatedSeries(2, [Fraction(1, 2)])
    assert ((half + half).den, (half + half).nums) == (1, (1, 0, 0))
