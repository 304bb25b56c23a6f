"""Differential-polynomial algebra: derivations, exactness, normal forms.

The variational derivative (Euler operator) is the ground truth throughout:
it annihilates exactly the total x-derivatives, so every exactness claim
below is certified against it rather than against the peel that produced it.
"""

from fractions import Fraction

import pytest

from kdvlab.diffpoly import (
    DiffMonomial,
    DiffPoly,
    GradientMismatch,
    IntegralExpr,
    NotExact,
    euler_operator,
    homotopy_hamiltonian,
    ibp_normal_form,
    integrate_exact,
    is_exact,
    latex_poly,
    mono,
    partial_derivative,
    poly_to_obj,
    split_exact,
    sym,
    total_derivative,
)

u = sym("u")
u1 = sym("u", 1)
u2 = sym("u", 2)
u3 = sym("u", 3)


def test_monomial_canonical_order():
    a = DiffMonomial(1, (("u", 2), ("u", 0)))
    b = DiffMonomial(1, (("u", 0), ("u", 2)))
    assert a == b
    assert a.factors == (("u", 0), ("u", 2))


def test_polynomial_arithmetic_collects_terms():
    p = u * u2 + u2 * u
    assert len(p) == 1
    assert p == mono(2) * u * u2
    assert (p - p).is_zero()


def test_total_derivative_leibniz():
    p = u * u1
    assert total_derivative(p) == u1 * u1 + u * u2
    # d^2 via repeated application equals the order argument
    assert total_derivative(p, 2) == total_derivative(total_derivative(p))


def test_partial_derivative():
    p = u * u1 * u1
    assert partial_derivative(p, ("u", 1)) == mono(2) * u * u1
    assert partial_derivative(p, ("u", 0)) == u1 * u1
    assert partial_derivative(p, ("u", 5)).is_zero()


def test_euler_operator_kills_exact_derivatives():
    for p in (u * u2, u * u1 * u2, u3 * u1, u * u * u2 * u1):
        assert euler_operator(total_derivative(p)).is_zero()


def test_euler_operator_known_value():
    # delta/delta u of u^3 is 3 u^2; of u_x^2 is -2 u_xx
    assert euler_operator(u * u * u) == mono(3) * u * u
    assert euler_operator(u1 * u1) == mono(-2) * u2


def test_is_exact_and_integrate_exact():
    p = u * u2 + u1 * u1  # = d/dx (u u_x)
    assert is_exact(p)
    assert integrate_exact(p) == u * u1
    q = u1 * u1
    assert not is_exact(q)
    with pytest.raises(NotExact):
        integrate_exact(q)


def test_split_exact_never_raises_and_is_certified():
    p = u * u2 + mono(Fraction(1, 2)) * u1 * u1
    anti, residue = split_exact(p)
    assert total_derivative(anti) + residue == p
    # residue lies in the kernel complement: the split is idempotent
    anti2, residue2 = split_exact(residue)
    assert anti2.is_zero() and residue2 == residue
    # and the Euler operator agrees residue carries all the variational content
    assert euler_operator(residue) == euler_operator(p)


def test_normal_form_mod_exact_is_canonical():
    p = u * u2 + mono(Fraction(1, 2)) * u1 * u1
    nf = ibp_normal_form(p)
    assert nf == mono(Fraction(-1, 2)) * u1 * u1
    # adding any exact derivative does not change the normal form
    assert ibp_normal_form(p + total_derivative(u * u * u1)) == nf
    # idempotent
    assert ibp_normal_form(nf) == nf
    # as integrals, p and p plus an exact derivative are one key, shown by their normal form
    assert {IntegralExpr(p), IntegralExpr(p + total_derivative(u * u * u1))} == {IntegralExpr(nf)}
    assert repr(IntegralExpr(p)) == "Int[(-1/2)*u_1*u_1]"


def test_normal_form_multisymbol_terminates_and_is_stable():
    # three independent symbols with high derivative orders: the peel must
    # reduce only the leading block, never cycle between symbols
    w, f, g = sym("w"), sym("f"), sym("g")
    p = w * total_derivative(f, 7) * total_derivative(g, 6)
    nf = ibp_normal_form(p)
    assert ibp_normal_form(nf) == nf
    assert euler_operator(nf - p, "w").is_zero()


def test_rank_bookkeeping():
    m = next(iter(u * u2))
    assert m.degree + Fraction(sum(k for _, k in m.factors), 2) == 3  # 2 factors + 2 derivatives / 2
    m2 = next(iter(mono(1, [("u", 0), ("u", 0), ("u", 1)])))
    assert m2.degree + Fraction(sum(k for _, k in m2.factors), 2) == Fraction(7, 2)


def test_serialization_roundtrip_exact(read_poly):
    p = mono(Fraction(5, 18)) * u * u * u + u2 * u1
    assert read_poly(poly_to_obj(p)) == p


def test_latex_rendering_mentions_derivative_orders():
    s = latex_poly(u * u2)
    assert "\\partial_x^{2}" in s


def test_zero_and_constant_rendering():
    assert repr(DiffPoly()) == "DiffPoly(0)"
    assert repr(mono(-3) + u) == "(-3) + (1)*u"
    assert latex_poly(DiffPoly()) == "0"
    assert latex_poly(mono(-3) + u) == "-3 +u"


def test_a_constant_is_not_exact_and_is_its_own_normal_form():
    assert not is_exact(mono(3))
    assert ibp_normal_form(mono(3)) == mono(3)


def test_a_non_gradient_has_no_hamiltonian():
    # u_1^2 is not a variational derivative: the line homotopy cannot regenerate it
    with pytest.raises(GradientMismatch):
        homotopy_hamiltonian(u1 * u1)


def test_scalar_multiplication_exactness():
    p = mono(Fraction(2, 3)) * (u * u1)
    assert p == mono(Fraction(2, 3)) * u * u1
    assert integrate_exact(total_derivative(p)) == p
