"""Exact univariate polynomials in the regularity parameter."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from kdvlab.spoly import SPoly, binom_s


def test_construction_and_normalization():
    # the trailing zero is dropped: degree 1, two coefficients
    p = SPoly([1, 2, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert SPoly([0, 0]).is_zero()
    assert SPoly().is_zero()


def test_const_and_s():
    assert SPoly.const(3)(10) == 3
    assert SPoly.s()(Fraction(7, 2)) == Fraction(7, 2)
    assert SPoly.const(0).is_zero()


def test_arithmetic():
    s = SPoly.s()
    p = (s + SPoly.const(1)) * (s - SPoly.const(1))
    assert p == SPoly([-1, 0, 1])
    assert (p - p).is_zero()
    assert (-p)(2) == -3
    assert (p / 2)(3) == Fraction(8, 2)


def test_evaluation_is_exact_for_fractions_and_float_aware():
    p = SPoly([Fraction(1, 3), Fraction(1, 6)])
    assert p(Fraction(2)) == Fraction(2, 3)
    out = p(0.5)
    assert isinstance(out, float)
    assert abs(out - (1 / 3 + 1 / 12)) < 1e-15


def test_constant_value_guard():
    # a constant (degree 0) has its value as the one coefficient; zero has
    # no coefficient, and s (degree 1) is not a constant
    assert SPoly.const(5).coeffs == (Fraction(5),)
    assert SPoly().coeffs == ()
    assert SPoly.s().coeffs == (Fraction(0), Fraction(1))


def test_binom_s():
    # binom(s + a, j) as a polynomial in s, checked at integer points
    # against math.comb
    import math

    for off in (0, 1, 3):
        for j in (0, 1, 2, 3):
            p = binom_s(off, j)
            for sv in range(j + 4, j + 9):
                assert p(sv) == math.comb(sv + off, j)


def test_a_negative_binomial_order_is_refused():
    with pytest.raises(ValueError, match="^binomial order must be nonnegative$"):
        binom_s(0, -1)


def test_roundtrip_serialization():
    p = SPoly([Fraction(-3, 10), Fraction(1, 5)])
    q = SPoly(p.to_obj())
    assert p == q


# ---------------------------------------------------------------------------
# properties against a plain list-of-Fraction reference

rationals = st.fractions(min_value=-60, max_value=60, max_denominator=36)
coeff_lists = st.lists(rationals | st.just(Fraction(0)), max_size=5)
nonzero = rationals.filter(lambda c: c != 0)


def _ref(cs) -> list[Fraction]:
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return out


def _ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))
    return _ref([x + sign * y for x, y in zip(a, b)])


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref(out)


@settings(max_examples=100, deadline=None)
@given(coeff_lists, coeff_lists, nonzero)
def test_arithmetic_matches_fraction_reference(a, b, c):
    ra, rb = _ref(a), _ref(b)
    p, q = SPoly(a), SPoly(b)
    assert list(p.coeffs) == ra
    assert list((p + q).coeffs) == _ref_add(ra, rb)
    assert list((p - q).coeffs) == _ref_add(ra, rb, -1)
    assert list((p * q).coeffs) == _ref_mul(ra, rb)
    assert list((-p).coeffs) == _ref([-x for x in ra])
    assert list((p / c).coeffs) == _ref([x / c for x in ra])
    # scalars on either side
    assert list((p + c).coeffs) == _ref_add(ra, [c])
    assert list((c - p).coeffs) == _ref_add([c], ra, -1)
    assert list((c * p).coeffs) == _ref([c * x for x in ra])


@settings(max_examples=100, deadline=None)
@given(coeff_lists, coeff_lists, nonzero)
def test_storage_is_normalized_so_eq_and_hash_agree(a, b, c):
    p, q = SPoly(a), SPoly(b)
    for r in (p, q, p * q, p + q, p / c):
        assert r.den > 0 and gcd(r.den, *r.num) == 1
        assert not r.num or r.num[-1] != 0
    assert (p == q) == (_ref(a) == _ref(b))
    # the same polynomial reached by another route
    same = (p * c + q) / c - q / c
    assert same == p and hash(same) == hash(p)
    if len(_ref(a)) <= 1:
        assert p == (_ref(a) or [0])[0]


@settings(max_examples=100, deadline=None)
@given(coeff_lists)
def test_obj_roundtrip(a):
    p = SPoly(a)
    assert p.to_obj() == [str(c) for c in _ref(a)]
    q = SPoly(p.to_obj())
    assert q == p and hash(q) == hash(p)


@settings(max_examples=150, deadline=None)
@given(coeff_lists, st.floats(min_value=-40.0, max_value=40.0), rationals)
def test_evaluation_matches_reference_horner(a, x, r):
    ra = _ref(a)
    acc = 0 * x
    for c in reversed(ra):
        acc = acc * x + float(c)
    assert SPoly(a)(x).hex() == acc.hex()  # bit for bit, signed zeros included
    exact = Fraction(0)
    for c in reversed(ra):
        exact = exact * r + c
    assert SPoly(a)(r) == exact
