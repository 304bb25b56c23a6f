"""Exact dense polynomials in the symbolic Sobolev index s.

Coefficient arithmetic for the modified-energy construction: binomial weights
C(s, j) and the solved correction weights are polynomials in s with rational
coefficients. A constant polynomial plays the role of a plain rational.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import Union

Scalar = Union[Fraction, int]


def _parts(x) -> tuple[tuple[int, ...], int]:
    """(numerators, denominator) of an SPoly or a rational scalar."""
    if isinstance(x, SPoly):
        return x.num, x.den
    f = x if isinstance(x, (int, Fraction)) else Fraction(x)
    return ((f.numerator,) if f else ()), f.denominator


class SPoly:
    """Polynomial in s, coefficients ascending: (num[0] + num[1] s + ...) / den.

    Integer numerators over one positive denominator, normalized (no trailing
    zeros, gcd(den, *num) = 1), so equal polynomials have equal (num, den).
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, num: list[int], den: int) -> "SPoly":
        while num and not num[-1]:
            num.pop()
        g = gcd(den, *num)
        self.num, self.den = tuple(n // g for n in num), den // g
        return self

    @staticmethod
    def const(c: Scalar) -> "SPoly":
        return SPoly([c])

    @staticmethod
    def s() -> "SPoly":
        return SPoly([0, 1])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Read-only view of the coefficients as Fractions, ascending."""
        return tuple(Fraction(n, self.den) for n in self.num)

    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    def __call__(self, s_value):
        """Evaluate; exact for Fraction/int input, float for float input.

        A float coefficient is n / den, one correctly rounded int division:
        the same float as float(Fraction(n, den)).
        """
        fl = isinstance(s_value, float)
        acc = 0 * s_value if fl else 0
        for n in reversed(self.num):
            acc = acc * s_value + (n / self.den if fl else n)
        return acc if fl else Fraction(acc) / self.den

    def _add(self, other, sign: int) -> "SPoly":
        on, od = _parts(other)
        g = gcd(self.den, od)
        a = [n * (od // g) for n in self.num] + [0] * (len(on) - len(self.num))
        for i, n in enumerate(on):
            a[i] += sign * n * (self.den // g)
        return object.__new__(SPoly)._set(a, self.den // g * od)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self)._add(other, 1)

    def __neg__(self):
        return object.__new__(SPoly)._set([-n for n in self.num], self.den)

    def __mul__(self, other):
        on, od = _parts(other)
        out = [0] * max(len(self.num) + len(on) - 1, 0)
        for i, a in enumerate(self.num):
            for j, b in enumerate(on):
                out[i + j] += a * b
        return object.__new__(SPoly)._set(out, self.den * od)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar):
        return self * (1 / Fraction(other))

    def __eq__(self, other):
        return (self.num, self.den) == _parts(other)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        powers = ("", "*s") + tuple(f"*s^{i}" for i in range(2, len(self.num)))
        return " + ".join(f"{c}{x}" for c, x in zip(self.coeffs, powers) if c) or "0"

    def to_obj(self) -> list[str]:
        return [str(c) for c in self.coeffs]


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
