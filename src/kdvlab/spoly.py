"""Exact dense polynomials in the symbolic Sobolev index s.

Coefficient arithmetic for the modified-energy construction: binomial weights
C(s, j) and the solved correction weights are polynomials in s with Fraction
coefficients. A constant polynomial plays the role of a plain rational.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Union

Scalar = Union[Fraction, int]


class SPoly:
    """Polynomial in s, coefficients ascending: c[0] + c[1] s + c[2] s^2 + ..."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c: Scalar) -> "SPoly":
        return SPoly([Fraction(c)])

    @staticmethod
    def s() -> "SPoly":
        return SPoly([0, 1])

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def constant_value(self) -> Fraction:
        """The value when the polynomial is constant; errors otherwise."""
        if self.degree > 0:
            raise ValueError(f"not a constant: {self!r}")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __call__(self, s_value):
        """Evaluate; exact for Fraction/int input, float for float input."""
        acc = 0 * s_value if isinstance(s_value, float) else Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * s_value + (float(c) if isinstance(s_value, float) else c)
        return acc

    def _binop(self, other, fn):
        o = other if isinstance(other, SPoly) else SPoly.const(other)
        n = max(len(self.coeffs), len(o.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(o.coeffs) + [Fraction(0)] * (n - len(o.coeffs))
        return SPoly([fn(x, y) for x, y in zip(a, b)])

    def __add__(self, other):
        return self._binop(other, lambda x, y: x + y)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda x, y: x - y)

    def __rsub__(self, other):
        return SPoly.const(other) - self

    def __neg__(self):
        return SPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        o = other if isinstance(other, SPoly) else SPoly.const(other)
        if self.is_zero() or o.is_zero():
            return SPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return SPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar):
        c = Fraction(other)
        return SPoly([x / c for x in self.coeffs])

    def __eq__(self, other):
        o = other if isinstance(other, SPoly) else SPoly.const(other)
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*s")
            else:
                parts.append(f"{c}*s^{i}")
        return " + ".join(parts)

    def to_obj(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_obj(obj) -> "SPoly":
        return SPoly([Fraction(c) for c in obj])


@lru_cache(maxsize=None)
def binom_s(offset: int, j: int) -> SPoly:
    """C(s + offset, j) = prod_{i=0}^{j-1} (s + offset - i) / j! as an SPoly.

    Memoized: an SPoly is never mutated, so callers may share the result.
    """
    if j < 0:
        raise ValueError("binomial order must be nonnegative")
    acc = SPoly.const(1)
    for i in range(j):
        acc = acc * (SPoly.s() + (offset - i))
    return acc / factorial(j)
