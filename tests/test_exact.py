"""The exact oracle of tests/exact.py, and the numeric half checked against it.

Gates are relative, in units of the float eps.  Over 30 seeds of K = 8 fields the
errors were at most 24 eps for functional_eval on H_0..H_5 (H_5 the worst, H_0
and H_1 at most 2.4 eps) and at most 0.94 eps in the largest mode for
rhs_field; the gates are 64 and 4 eps.  The squared H^s norm at s = 0..5 and
the raw H^s rate along model_flow(2) are weighted sums over k of products of
modes; against the sum of those products' magnitudes their errors were at
most 2.71 and 0.73 eps (the rate's dispersive part cancels exactly, so its
terms are the products, not the sum per k); the gates are 8 and 4 eps.
experiments._directional_rate's central differences at steps h = 5e-6 and 1e-5
are exact on the quartic H_2 once Richardson-combined, so only the roundoff of
its four values over h is left: over 100 seeds (u from seeds 10..109, v from
1010..1109) it read at most 7.6 eps |H_2(u)| / h; the gate is 16.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from exact import ExactField, directional, integral, spectrum
from kdvlab import hierarchy
from kdvlab.diffpoly import mono, sym
from kdvlab.experiments import _directional_rate, _raw_rate
from kdvlab.spectral import (
    SpectralField,
    functional_eval,
    hierarchy_flow,
    model_flow,
    regularized_flow,
    rhs_field,
    sobolev_norm,
)

EPS = np.finfo(np.float64).eps
SEEDS = (0, 1, 2)
U, UX = sym("u"), sym("u", 1)


def test_integral_of_u_squared_is_parseval():
    field = ExactField.random(8, 5)
    c0 = field.modes[0][0]
    assert integral(U * U, field) == c0 * c0 + 2 * sum(re * re + im * im for re, im in field.modes[1:])


def test_integral_of_u_ux_squared_hand_value():
    # u = cos x + cos 2x: int u u_x^2 = 2 pi (from cos x) - pi / 2 (from cos 2x) = 3 pi / 2
    field = ExactField([(0, 0), (Fraction(1, 2), 0), (Fraction(1, 2), 0)])
    assert integral(U * UX * UX, field) == Fraction(3, 4)


def test_spectrum_of_a_derivative_and_a_product():
    # u = cos x: u_x = -sin x has modes -+i/2 at +-1, and u^2 = (1 + cos 2x) / 2
    field = ExactField([(0, 0), (Fraction(1, 2), 0)])
    assert spectrum(UX, field) == {-1: (0, Fraction(-1, 2)), 1: (0, Fraction(1, 2))}
    assert spectrum(U * U, field) == {-2: (Fraction(1, 4), 0), 0: (Fraction(1, 2), 0), 2: (Fraction(1, 4), 0)}


def test_directional_of_u_squared_is_twice_the_pairing():
    # d/dtau int (u + tau v)^2 at tau = 0 is 2 int u v = 2 * 2 pi (u_0 v_0 + 2 sum_k Re(u_k conj(v_k)))
    field, v = ExactField.random(8, 5), ExactField.random(8, 6)
    pairs = zip(field.modes[1:], v.modes[1:])
    pairing = field.modes[0][0] * v.modes[0][0] + 2 * sum(a * c + b * d for (a, b), (c, d) in pairs)
    assert directional(U * U, field, v) == 2 * pairing


def test_the_field_is_refused_on_too_few_points():
    with pytest.raises(ValueError, match="modes up to 8 need more than 16 points"):
        ExactField.random(8, 0).half_spectrum(16)


@pytest.mark.parametrize("seed", SEEDS)
def test_functional_eval_matches_the_exact_hamiltonians(seed):
    field = ExactField.random(8, seed)
    u = SpectralField(64, field.half_spectrum(64))
    for l in range(6):
        h = hierarchy.level(l).hamiltonian
        exact = math.tau * float(integral(h.integrand, field))
        assert abs(functional_eval(h, u) - exact) <= 64 * EPS * abs(exact), l


_MODEL2 = -sym("u", 5) + U * sym("u", 3)
_FLOWS = [
    (model_flow(2), _MODEL2),
    # the damping -mu k^6 is mu d^6 u; mu = 0.01 is read as its float's exact value
    (regularized_flow(2, 0.01), _MODEL2 + mono(Fraction(0.01), [("u", 6)])),
    *((hierarchy_flow(l), hierarchy.level(l).rhs) for l in (1, 2, 3, 4)),
]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("flow, rhs", _FLOWS, ids=[f"{f.name}{f.l}" for f, _ in _FLOWS])
def test_rhs_field_matches_the_exact_right_hand_side(flow, rhs, seed):
    n = 128
    field = ExactField.random(8, seed)
    modes = spectrum(rhs, field)
    # the product band stays below N/2, the Nyquist mode that SpectralField zeroes
    assert max(modes) < n // 2
    exact = np.zeros(n // 2 + 1, dtype=np.complex128)
    for k, (re, im) in modes.items():
        if k >= 0:
            exact[k] = complex(re, im)
    numeric = rhs_field(flow, SpectralField(n, field.half_spectrum(n))).modes
    assert np.max(np.abs(numeric - exact)) <= 4 * EPS * np.max(np.abs(exact))


def _weighted_pairing(a: dict, b: dict, s: int) -> tuple[Fraction, Fraction]:
    """sum_k (1 + k^2)^s Re(conj(a_k) b_k) over exact spectra, and the sum of its products' magnitudes."""
    terms = [(1 + k * k) ** s * a[k][j] * b[k][j] for k in a if k in b for j in (0, 1)]
    return sum(terms), sum(map(abs, terms))


@pytest.mark.parametrize("seed", SEEDS)
def test_sobolev_norm_matches_the_exact_sum_at_integer_s(seed):
    field = ExactField.random(8, seed)
    u, modes = SpectralField(64, field.half_spectrum(64)), spectrum(U, field)
    for s in range(6):
        exact, size = _weighted_pairing(modes, modes, s)
        assert abs(sobolev_norm(u, s) ** 2 - math.tau * float(exact)) <= 8 * EPS * math.tau * float(size), s


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_rate_matches_the_exact_rate_along_model2(seed):
    n = 64
    field = ExactField.random(8, seed)
    modes, rhs = spectrum(U, field), spectrum(_MODEL2, field)
    # the product band stays below N/2, the Nyquist mode that SpectralField zeroes
    assert max(rhs) < n // 2
    u = SpectralField(n, field.half_spectrum(n))
    for s in range(6):
        exact, size = _weighted_pairing(modes, rhs, s)
        assert abs(_raw_rate(model_flow(2), u, s) - math.tau * float(exact)) <= 4 * EPS * math.tau * float(size), s


@pytest.mark.parametrize("seed", SEEDS)
def test_directional_rate_matches_the_exact_derivative_of_h2(seed):
    h, step = hierarchy.level(2).hamiltonian, 5e-6
    field, v = ExactField.random(8, seed), ExactField.random(8, seed + 100)
    u, f = (SpectralField(64, x.half_spectrum(64)) for x in (field, v))
    exact = math.tau * float(directional(h.integrand, field, v))
    gate = 16 * EPS * math.tau * abs(float(integral(h.integrand, field))) / step
    assert abs(_directional_rate(lambda w: functional_eval(h, w), u, f) - exact) <= gate
