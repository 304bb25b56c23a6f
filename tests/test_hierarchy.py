"""Integrable hierarchy generation: exact values, audits, golden pinning.

The golden file tests/golden/hierarchy_l8.json freezes levels 0..8.  It was
produced by a run in which every recursion step was certified exact by the
variational oracle and the rank audit passed; the invariant tests below
re-certify on every run, so the golden file is a pure change detector.
"""

import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

from kdvlab import hierarchy
from kdvlab.diffpoly import IntegralExpr, euler_operator, is_exact, mono, sym, total_derivative

GOLDEN = Path(__file__).parent / "golden" / "hierarchy_l8.json"

u = sym("u")
u1 = sym("u", 1)
u2 = sym("u", 2)
u3 = sym("u", 3)
u4 = sym("u", 4)


def test_level_zero_and_one():
    assert hierarchy.level(0).g == u
    # first nontrivial integrand: u_xx + u^2/2
    assert hierarchy.level(1).g == u2 + mono(Fraction(1, 2)) * u * u


def test_level_two_exact_value():
    # u_4x + (5/3) u u_xx + (5/6) u_x^2 + (5/18) u^3, all coefficients exact
    expected = (
        u4
        + mono(Fraction(5, 3)) * u * u2
        + mono(Fraction(5, 6)) * u1 * u1
        + mono(Fraction(5, 18)) * u * u * u
    )
    assert hierarchy.level(2).g == expected


def test_monomial_counts_through_level_eight():
    counts = [len(hierarchy.level(l).g) for l in range(9)]
    assert counts == [1, 2, 4, 7, 12, 21, 34, 55, 88]


def test_recursion_integrand_is_exact_at_every_step():
    # the recursion only continues because (d^3 + (2/3)u d + (1/3)u_x) G_l
    # is a total derivative; certify with the variational oracle
    for l in range(6):
        g = hierarchy.level(l).g
        nxt = (
            total_derivative(g, 3)
            + mono(Fraction(2, 3)) * u * total_derivative(g)
            + mono(Fraction(1, 3)) * u1 * g
        )
        assert euler_operator(nxt).is_zero()


def _rank_audit(l, rhs):
    """Every degree-k monomial of d/dx G_l carries weight 2(l - k) + 3, so rank (degree + weight/2) l + 3/2."""
    return all(sum(k for _, k in m.factors) == 2 * (l - m.degree) + 3 for m in rhs)


def test_rank_audit_through_level_eight():
    for l in range(9):
        assert _rank_audit(l, hierarchy.level(l).rhs), l


def test_rank_violation_detected():
    # degree-2 monomials of this rhs carry weight 2, but level 1 demands
    # weight 2(l-k)+3 = 1 for k = 2
    assert not _rank_audit(1, total_derivative(u2 + u * u1))


def test_a_negative_level_is_refused():
    with pytest.raises(ValueError, match="^level must be nonnegative$"):
        hierarchy.generate(-1)


# the soliton profile exactly: functions sum c T^a th^b of T = sech^2 and th = tanh
# at kappa = 1, keyed (a, b) with b in {0, 1}, since th^2 = 1 - T


def _profile_add(out, key, c):
    out[key] = out.get(key, 0) + c
    if not out[key]:
        del out[key]


def _profile_derivative(p):
    """d/dxi with T' = -2 T th and th' = T: d(T^a) = -2a T^a th, d(T^a th) = -2a T^a + (2a + 1) T^(a+1)."""
    out = {}
    for (a, b), c in p.items():
        if b == 0:
            _profile_add(out, (a, 1), -2 * a * c)
        else:
            _profile_add(out, (a, 0), -2 * a * c)
            _profile_add(out, (a + 1, 0), (2 * a + 1) * c)
    return out


def _profile_product(p, q):
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            if b1 + b2 == 2:  # th^2 = 1 - T
                _profile_add(out, (a1 + a2, 0), c1 * c2)
                _profile_add(out, (a1 + a2 + 1, 0), -c1 * c2)
            else:
                _profile_add(out, (a1 + a2, b1 + b2), c1 * c2)
    return out


def _on_soliton_profile(g):
    """g(12 T) as an exact sum c T^a th^b (the soliton 12 kappa^2 sech^2(kappa xi) at kappa = 1)."""
    derivs = [{(1, 0): Fraction(12)}]
    out = {}
    for m in g:
        value = {(0, 0): m.coeff}
        for _, k in m.factors:
            while len(derivs) <= k:
                derivs.append(_profile_derivative(derivs[-1]))
            value = _profile_product(value, derivs[k])
        for key, c in value.items():
            _profile_add(out, key, c)
    return out


def test_soliton_profile_is_a_travelling_wave_of_every_flow():
    # u = 12 kappa^2 sech^2(kappa xi) travels left at speed (4 kappa^2)^l under
    # u_t = d/dx G_l, so G_l(u) = (4 kappa^2)^l u.  Every monomial of G_l has
    # rank l + 1 (degree + weight/2; the rank audit checks d/dx G_l at l + 3/2), and
    # d^k u carries kappa^(2 + k), so both sides are kappa^(2l + 2) times their
    # kappa = 1 values, which must agree exactly
    for l in range(1, 9):
        g = hierarchy.level(l).g
        assert {m.degree + Fraction(sum(k for _, k in m.factors), 2) for m in g} == {l + 1}
        value = _on_soliton_profile(g)
        assert value == {(1, 0): 12 * 4**l}, l
        # one coefficient off (the u^(l+1) term doubled) breaks it: the check has teeth
        top = g.monomials[-1]
        assert _on_soliton_profile(g + mono(top.coeff, list(top.factors))) != value, l


@functools.cache
def _gardner_densities(n: int) -> tuple:
    """w_0..w_n of the Gardner transform (Miura, Gardner & Kruskal, J. Math. Phys. 9, 1968).

    kdvlab's u_t = u_xxx + u u_x is v_t - 6 v v_x + v_xxx = 0 for v = -u/6, up
    to time reversal, which keeps every conserved density.  v = w + eps w_x +
    eps^2 w^2 with w = sum_n eps^n w_n gives w_0 = v and w_n = -d w_{n-1} -
    sum_{i+j=n-2} w_i w_j: DiffPoly operations alone, nothing of the Lenard
    recursion or the antiderivative it takes.
    """
    w = [mono(Fraction(-1, 6)) * u]
    for k in range(1, n + 1):
        w_k = -total_derivative(w[-1])
        for i in range(k - 1):
            w_k = w_k - w[i] * w[k - 2 - i]
        w.append(w_k)
    return tuple(w)


# levels 0..10: the golden file freezes 0..8 and the level digests cover 9..12;
# -1/18 is one constant for all of them
_GARDNER_LEVELS = range(11)
_GARDNER = mono(Fraction(-1, 18))


def test_even_gardner_densities_are_the_hierarchy_gradients():
    w = _gardner_densities(2 * _GARDNER_LEVELS[-1] + 2)
    for l in _GARDNER_LEVELS:
        assert euler_operator(w[2 * l + 2]) == _GARDNER * hierarchy.level(l).g, l


def test_odd_gardner_densities_are_exact():
    w = _gardner_densities(2 * _GARDNER_LEVELS[-1] + 2)
    for n in range(1, len(w), 2):
        assert is_exact(w[n]), n


def test_even_gardner_densities_integrate_to_the_hamiltonians():
    # the homotopy Hamiltonians and the IBP normal form, certified by a second route
    w = _gardner_densities(2 * _GARDNER_LEVELS[-1] + 2)
    for l in _GARDNER_LEVELS:
        assert IntegralExpr(w[2 * l + 2]) == IntegralExpr(_GARDNER * hierarchy.level(l).hamiltonian.integrand), l


@pytest.mark.parametrize("l", [3, 4])
def test_the_gardner_identity_sees_one_coefficient_of_each_degree(l):
    # hier3's cubic and quartic coefficients and all of hier4's are below what
    # the Hill drift can see; a 1% change in one coefficient of each degree of
    # G_l breaks the identity
    g = hierarchy.level(l).g
    gradient = euler_operator(_gardner_densities(2 * l + 2)[2 * l + 2])
    assert gradient == _GARDNER * g
    degrees = sorted({m.degree for m in g})
    assert degrees == list(range(1, l + 2))
    for d in degrees:
        m = next(m for m in g if m.degree == d)
        assert gradient != _GARDNER * (g + mono(m.coeff / 100, list(m.factors))), (l, m)


def test_hamiltonian_gradient_recovers_integrand():
    # delta H_l / delta u = G_l: the homotopy construction inverts the
    # variational derivative exactly
    for l in range(5):
        lv = hierarchy.level(l)
        assert euler_operator(lv.hamiltonian.integrand) == lv.g


def test_flows_in_involution():
    # gradients of the first Hamiltonians pair to exact derivatives against
    # every listed flow: the normal form of grad H_m * rhs_l vanishes
    for m in range(4):
        for l in range(4):
            assert hierarchy.involution_residue(m, l).is_zero()


def test_golden_levels_unchanged():
    with open(GOLDEN) as fh:
        frozen = json.load(fh)
    assert len(frozen) == 9
    for obj in frozen:
        lv = hierarchy.level(obj["l"])
        assert hierarchy.level_to_obj(lv) == obj


def test_serialization_roundtrip(read_poly):
    lv = hierarchy.level(3)
    obj = hierarchy.level_to_obj(lv)
    back = hierarchy._build_level(obj["l"], read_poly(obj["g"]))
    assert back.g == lv.g
    assert back.rhs == lv.rhs
    assert back.hamiltonian.canonical == lv.hamiltonian.canonical


def test_cold_cache_fill_is_thread_safe(monkeypatch):
    # four threads filling a cold cache at once must still store level l at index l
    monkeypatch.setattr(hierarchy, "_LEVELS", [])
    with open(GOLDEN) as fh:
        frozen = json.load(fh)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(hierarchy.generate, [8] * 4))
    finally:
        sys.setswitchinterval(interval)
    assert [lv.l for lv in hierarchy._LEVELS] == list(range(9))
    for levels in results:
        assert [hierarchy.level_to_obj(lv) for lv in levels] == frozen
