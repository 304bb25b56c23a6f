"""An exact oracle for the numeric half: real trigonometric polynomials with rational modes.

A field u(x) = sum_{|k| <= K} c_k e^{ikx}, with c_{-k} = conj(c_k) and c_0 real,
has Gaussian-rational modes c_k.  The modes of d^q u are (ik)^q c_k and those of
a product are the convolution of its factors' modes, so the spectrum of a
differential polynomial in u is a finite sum of Gaussian rationals and its
integral over the period is 2 pi times its zero mode.  Everything here is exact
integer arithmetic over one common denominator: it reads a DiffPoly's monomials
and shares no FFT, grid or plan with kdvlab.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import numpy as np


class ExactField:
    """u(x) = sum_{|k| <= K} c_k e^{ikx} from c_0..c_K, each an exact (re, im) pair.

    The modes are kept as Gaussian integers over the common denominator den,
    and the modes of each product of derivatives, keyed by its sorted orders,
    are kept once computed: a polynomial's monomials share their prefixes.
    """

    def __init__(self, modes):
        modes = [(Fraction(re), Fraction(im)) for re, im in modes]
        if modes[0][1]:
            raise ValueError("mode 0 of a real field is real")
        self.K = len(modes) - 1
        self.modes = tuple(modes)
        self.den = lcm(*(x.denominator for c in modes for x in c))
        half = {k: (int(re * self.den), int(im * self.den)) for k, (re, im) in enumerate(modes)}
        self._num = {**{-k: (re, -im) for k, (re, im) in half.items()}, **half}
        self._products = {(): {0: (1, 0)}}

    @classmethod
    def random(cls, K: int, seed: int) -> "ExactField":
        """c_k = (a + ib) / (10 k^2), a and b integers in [-9, 9], c_0 = a / 10, each rounded
        to a float first, so that half_spectrum holds exactly this field."""
        rng = random.Random(seed)
        draw = lambda k: Fraction(float(Fraction(rng.randint(-9, 9), 10 * max(k, 1) ** 2)))
        return cls([(draw(0), 0)] + [(draw(k), draw(k)) for k in range(1, K + 1)])

    def half_spectrum(self, n: int) -> np.ndarray:
        """c_0..c_{n/2} as complex floats: the rfft layout of the field on n points."""
        if 2 * self.K >= n:
            raise ValueError(f"modes up to {self.K} need more than {n} points")
        out = np.zeros(n // 2 + 1, dtype=np.complex128)
        out[: self.K + 1] = [complex(re, im) for re, im in self.modes]
        return out

    def _derivative(self, q: int) -> dict:
        """The modes of d^q u times den: (ik)^q c_k, rotated by i^q."""
        out = {}
        for k, (re, im) in self._num.items():
            re, im = re * k**q, im * k**q
            for _ in range(q % 4):
                re, im = -im, re
            out[k] = (re, im)
        return out

    def product(self, orders: tuple[int, ...]) -> dict:
        """The modes of prod_i d^{q_i} u times den^len(orders), orders sorted."""
        if orders not in self._products:
            self._products[orders] = _convolve(self.product(orders[:-1]), self._derivative(orders[-1]))
        return self._products[orders]


def _convolve(a: dict, b: dict) -> dict:
    out: dict = {}
    for k1, (re1, im1) in a.items():
        for k2, (re2, im2) in b.items():
            re, im = out.get(k1 + k2, (0, 0))
            out[k1 + k2] = (re + re1 * re2 - im1 * im2, im + re1 * im2 + im1 * re2)
    return out


def _orders(monomial) -> tuple[int, ...]:
    if any(symbol != "u" for symbol, _ in monomial.factors):
        raise ValueError("the oracle evaluates polynomials in u alone")
    return tuple(sorted(q for _, q in monomial.factors))


def spectrum(poly, field: ExactField) -> dict[int, tuple[Fraction, Fraction]]:
    """The nonzero modes of the differential polynomial poly(u, u_x, ...), as exact (re, im) by k."""
    out: dict = {}
    for monomial in poly:
        orders = _orders(monomial)
        scale = Fraction(monomial.coeff) / field.den ** len(orders)
        for k, (re, im) in field.product(orders).items():
            acc = out.get(k, (0, 0))
            out[k] = (acc[0] + scale * re, acc[1] + scale * im)
    return {k: c for k, c in out.items() if c != (0, 0)}


def integral(poly, field: ExactField) -> Fraction:
    """r with int_0^{2 pi} poly(u, u_x, ...) dx = 2 pi r: the zero mode of poly's spectrum.

    The last factor of each monomial is paired with the product of the others,
    so only the zero mode of the full product is formed.  For a real field the
    zero mode is real, and that is checked.
    """
    re_sum = im_sum = Fraction(0)
    for monomial in poly:
        orders = _orders(monomial)
        if not orders:
            re_sum += Fraction(monomial.coeff)
            continue
        rest, last = field.product(orders[:-1]), field._derivative(orders[-1])
        re = sum(r1 * last[-k][0] - i1 * last[-k][1] for k, (r1, i1) in rest.items() if -k in last)
        im = sum(r1 * last[-k][1] + i1 * last[-k][0] for k, (r1, i1) in rest.items() if -k in last)
        scale = Fraction(monomial.coeff) / field.den ** len(orders)
        re_sum, im_sum = re_sum + scale * re, im_sum + scale * im
    if im_sum:
        raise AssertionError(f"the integral of a real field's polynomial has imaginary part {im_sum}")
    return re_sum
