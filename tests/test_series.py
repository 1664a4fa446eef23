"""Tests for exact truncated power series.

The oracle here is direct polynomial arithmetic on coefficient lists,
written out inline; the series class must agree with it coefficient by
coefficient inside the truncation window.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ratstems.series import TruncatedSeries

BOUND = 12

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), max_size=BOUND + 1)


def poly_mul(a: list, b: list, bound: int) -> list:
    out = [Fraction(0)] * (bound + 1)
    for i, x in enumerate(a[: bound + 1]):
        for j, y in enumerate(b[: bound + 1]):
            if i + j <= bound:
                out[i + j] += Fraction(x) * Fraction(y)
    return out


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


fraction_lists = st.lists(st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                                    st.integers(min_value=1, max_value=12)),
                         max_size=BOUND + 1)


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
    s = TruncatedSeries.one(3)
    with pytest.raises(AttributeError):
        s.bound = 5
