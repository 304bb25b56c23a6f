"""Randomized algebra laws, certified against the variational oracle, and
the FFT grid-size rule.

Every property here is exact (rational or integer arithmetic end to end), so
a single counterexample is a real bug, never noise.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from kdvlab.diffpoly import (
    DiffMonomial,
    DiffPoly,
    euler_operator,
    ibp_normal_form,
    integrate_exact,
    partial_derivative,
    split_exact,
    total_derivative,
)
from kdvlab.spectral import _fast_size
from kdvlab.spoly import SPoly

coeffs = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=4),
)


def _monomials(symbols: tuple[str, ...], max_order: int):
    factor = st.tuples(st.sampled_from(symbols), st.integers(0, max_order))
    return st.builds(
        DiffMonomial,
        coeffs,
        st.lists(factor, min_size=1, max_size=3).map(tuple),
    )


def _polys(symbols=("u",), max_order=4, max_terms=3):
    return st.builds(
        DiffPoly,
        st.lists(_monomials(symbols, max_order), min_size=1, max_size=max_terms),
    )


@settings(max_examples=80, deadline=None)
@given(_polys())
def test_euler_annihilates_total_derivatives(p):
    assert euler_operator(total_derivative(p)).is_zero()


@settings(max_examples=80, deadline=None)
@given(_polys())
def test_integrate_inverts_derivative(p):
    assert integrate_exact(total_derivative(p)) == p


@settings(max_examples=80, deadline=None)
@given(_polys())
def test_split_exact_reconstructs(p):
    anti, residue = split_exact(p)
    assert total_derivative(anti) + residue == p
    anti2, residue2 = split_exact(residue)
    assert anti2.is_zero() and residue2 == residue


@settings(max_examples=60, deadline=None)
@given(_polys(), _polys())
def test_normal_form_is_a_congruence(p, q):
    # equal normal forms exactly when the difference is a total derivative
    nf = ibp_normal_form(p + total_derivative(q))
    assert nf == ibp_normal_form(p)


@settings(max_examples=40, deadline=None)
@given(_polys(symbols=("w", "f", "g"), max_order=5, max_terms=2))
def test_multisymbol_peel_terminates_and_is_idempotent(p):
    # regression guard: naive leading-term orders can cycle between symbols
    nf = ibp_normal_form(p)
    assert ibp_normal_form(nf) == nf
    for s in ("w", "f", "g"):
        assert euler_operator(nf - p, s).is_zero()


@settings(max_examples=80, deadline=None)
@given(_polys(), _polys())
def test_derivation_product_rule(p, q):
    lhs = total_derivative(p * q)
    rhs = total_derivative(p) * q + p * total_derivative(q)
    assert lhs == rhs


def _greedy_key(fac):
    # the peel's block order spelled out: degree, symbol sequence (ascending),
    # then derivative orders, descending within each symbol block
    by_sym: dict = {}
    for s, k in fac:
        by_sym.setdefault(s, []).append(k)
    syms, orders = [], []
    for s in sorted(by_sym):
        ks = sorted(by_sym[s], reverse=True)
        syms += [s] * len(ks)
        orders += ks
    return (len(fac), tuple(syms), tuple(orders))


def _greedy_peel(p):
    """Slow reference peel: rescan for the maximal monomial at every step."""
    work, anti, residue = p, DiffPoly(), DiffPoly()
    while not work.is_zero():
        top = max(work, key=lambda m: _greedy_key(m.factors))
        fac = top.factors
        block = sorted((k for s, k in fac if s == fac[0][0]), reverse=True) if fac else [0]
        if block[0] >= 1 and (len(block) == 1 or block[0] > block[1]):
            lowered = list(fac)
            lowered.remove((fac[0][0], block[0]))
            lowered.append((fac[0][0], block[0] - 1))
            mult = lowered.count((fac[0][0], block[0] - 1))
            a = DiffPoly([DiffMonomial(top.coeff / mult, tuple(lowered))])
            anti, work = anti + a, work - total_derivative(a)
        else:
            residue, work = residue + DiffPoly([top]), work - DiffPoly([top])
    return anti, residue


@settings(max_examples=80, deadline=None)
@given(_polys(max_order=5, max_terms=4) | _polys(symbols=("u", "v"), max_order=4, max_terms=4))
def test_peel_matches_greedy_max_reference(p):
    anti, residue = split_exact(p)
    ref_anti, ref_residue = _greedy_peel(p)
    assert residue == ref_residue
    assert anti == ref_anti
    assert total_derivative(anti) + residue == p


@settings(max_examples=60, deadline=None)
@given(_polys(symbols=("u", "v"), max_order=4, max_terms=4))
def test_euler_operator_matches_its_defining_sum(p):
    for s in ("u", "v"):
        want = DiffPoly()
        for k in range(6):
            term = total_derivative(partial_derivative(p, (s, k)), k)
            want = want + (term if k % 2 == 0 else -term)
        assert euler_operator(p, s) == want


spolys = st.builds(SPoly, st.lists(coeffs | st.just(Fraction(0)), max_size=4))
points = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


@settings(max_examples=100, deadline=None)
@given(spolys, spolys, points)
def test_spoly_evaluation_is_a_homomorphism(a, b, s0):
    assert (a + b)(s0) == a(s0) + b(s0)
    assert (a * b)(s0) == a(s0) * b(s0)
    assert (a - b)(s0) == a(s0) - b(s0)


def _five_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=10**5))
def test_fast_size_is_the_next_even_five_smooth_number(m):
    n = _fast_size(m)
    assert n >= m and n % 2 == 0 and _five_smooth(n)
    assert not any(_five_smooth(k) for k in range(m + m % 2, n, 2))
