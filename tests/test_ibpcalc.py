"""Odd-order integration-by-parts identities and their exact coefficients.

Frozen coefficient tables below were derived from the binomial recursion
  alpha_{m,l} = C(2l+1, m) - sum_{j<m} C(2l+1, j) alpha_{m-j, l-j}
and independently certified by the variational oracle (verify_identity) and
by spectral quadrature on random trigonometric fields.
"""

from fractions import Fraction

import numpy as np
import pytest

from kdvlab.diffpoly import IntegralExpr
from kdvlab.ibpcalc import _identity_sides, alpha_coeffs, verify_identity

FROZEN = {
    1: [3],
    2: [5, -5],
    3: [7, -14, 7],
    4: [9, -27, 30, -9],
}


def test_frozen_alpha_tables():
    for l, expected in FROZEN.items():
        table = alpha_coeffs(l)
        assert list(table.alphas) == [Fraction(a) for a in expected]


def test_alphas_are_integers():
    for l in range(1, 13):
        for a in alpha_coeffs(l).alphas:
            assert a.denominator == 1


def test_one_based_indexing_and_diagonal():
    t = alpha_coeffs(4)
    assert t[1] == 9 and t[4] == -9
    assert t.diagonal == t[4]
    with pytest.raises(IndexError):
        t[0]
    with pytest.raises(IndexError):
        t[5]


def test_a_negative_level_is_refused():
    with pytest.raises(ValueError, match="^l must be nonnegative$"):
        alpha_coeffs(-1)


def test_diagonal_law():
    # alpha_{l,l} = (-1)^{l+1} (2l+1), exact rational equality
    for l in range(1, 13):
        assert alpha_coeffs(l).diagonal == (-1) ** (l + 1) * (2 * l + 1)


def test_identity_certified_by_variational_oracle():
    for l in range(1, 7):
        assert verify_identity(l)


def test_reduce_integral_sides_match_canonically():
    for l in (1, 2, 3):
        lhs, rhs = _identity_sides(l)
        assert IntegralExpr(lhs) == IntegralExpr(rhs), l


def _quad(fields: dict[str, np.ndarray], terms) -> float:
    """int prod_i d^{o_i} sym_i dx on [0, 2pi) by trapezoid-exact FFT grid."""
    total = 0.0
    n = next(iter(fields.values())).size
    x = 2.0 * np.pi * np.arange(n) / n
    del x
    for coeff, factors in terms:
        prod = np.ones(n)
        for name, order in factors:
            modes = np.fft.rfft(fields[name]) / n
            k = np.arange(modes.size)
            vals = np.fft.irfft(modes * (1j * k) ** order * n, n=n)
            prod = prod * vals
        total += float(coeff) * float(prod.mean()) * 2.0 * np.pi
    return total


def test_identity_numerically_on_trig_fields():
    # three unrelated band-limited fields; grid large enough that every
    # product of band-8 factors is quadrature-exact
    n = 128
    x = 2.0 * np.pi * np.arange(n) / n
    fields = {
        "w": np.cos(x) + 0.3 * np.sin(2 * x),
        "f": 0.7 * np.sin(x) - 0.2 * np.cos(3 * x),
        "g": 0.5 * np.cos(2 * x) + 0.1 * np.sin(5 * x),
    }
    for l in (1, 2, 3, 4):
        table = alpha_coeffs(l)
        m = 2 * l + 1
        lhs = _quad(
            fields,
            [
                (1, [("w", m), ("f", 0), ("g", 0)]),
                (1, [("w", 0), ("f", m), ("g", 0)]),
                (1, [("w", 0), ("f", 0), ("g", m)]),
            ],
        )
        rhs = _quad(
            fields,
            [
                (table[j], [("w", 2 * (l - j) + 1), ("f", j), ("g", j)])
                for j in range(1, l + 1)
            ],
        )
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) / scale < 1e-12, (l, lhs, rhs)


def test_runtime_budget_diagonals():
    import time

    t0 = time.time()
    for l in range(1, 13):
        alpha_coeffs(l)
    assert time.time() - t0 < 1.0
