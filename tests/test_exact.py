"""The exact oracle of tests/exact.py, and the numeric half checked against it.

Gates are relative, in units of the float eps.  Over 30 seeds of K = 8 fields the
errors were at most 24 eps for functional_eval on H_0..H_5 (H_5 the worst, H_0
and H_1 at most 2.4 eps) and at most 0.94 eps in the largest mode for
rhs_field; the gates are 64 and 4 eps.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from exact import ExactField, integral, spectrum
from kdvlab import hierarchy
from kdvlab.diffpoly import mono, sym
from kdvlab.spectral import SpectralField, functional_eval, hierarchy_flow, model_flow, regularized_flow, rhs_field

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
