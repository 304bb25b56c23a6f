"""An exact oracle for the numeric half: real trigonometric polynomials with rational modes.

A field u(x) = sum_{|k| <= K} c_k e^{ikx}, with c_{-k} = conj(c_k) and c_0 real,
has Gaussian-rational modes c_k.  The modes of d^q u are (ik)^q c_k and those of
a product are the convolution of its factors' modes, so the spectrum of a
differential polynomial in u is a finite sum of Gaussian rationals and its
integral over the period is 2 pi times its zero mode.  Everything here is exact
integer arithmetic over one common denominator: it reads a DiffPoly's monomials
(and takes their partial derivatives) and shares no FFT, grid or plan with kdvlab.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import lcm

import numpy as np

from kdvlab.diffpoly import partial_derivative


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
        """The modes of d^q u times den: (ik)^q c_k."""
        return derivative(self._num, q)

    def product(self, orders: tuple[int, ...]) -> dict:
        """The modes of prod_i d^{q_i} u times den^len(orders), orders sorted."""
        if orders not in self._products:
            self._products[orders] = convolve(self.product(orders[:-1]), self._derivative(orders[-1]))
        return self._products[orders]


def derivative(modes: dict, q: int) -> dict:
    """The modes of d^q of a spectrum {k: (re, im)}: mode k times k^q, rotated by i^q."""
    out = {}
    for k, (re, im) in modes.items():
        re, im = re * k**q, im * k**q
        for _ in range(q % 4):
            re, im = -im, re
        out[k] = (re, im)
    return out


def abs_power(sigma: int):
    """The symbol |k|^sigma of D^sigma for an even sigma >= 0, where it is the integer k^sigma.

    At sigma = 0 it is 1 at every k, k = 0 included; above, it sends k = 0 to 0.
    """
    if sigma < 0 or sigma % 2:
        raise ValueError(f"|k|^sigma is an integer polynomial in k only for an even sigma >= 0, not {sigma}")
    return lambda k: k**sigma


def weight(modes: dict, symbol) -> dict:
    """The modes of a Fourier multiplier with an integer symbol: mode k times symbol(k).

    weight(field.product(orders), abs_power(sigma)) is D^sigma of a product.
    """
    return {k: (re * w, im * w) for k, (re, im) in modes.items() if (w := symbol(k))}


def zero_mode(*spectra: dict) -> tuple:
    """The zero mode (re, im) of the product of the fields of spectra: all but the last
    convolved in order, then paired with the last's modes at -k, so the last may be the widest."""
    *front, last = spectra
    rest = functools.reduce(convolve, front) if front else {0: (1, 0)}
    re = sum(r1 * last[-k][0] - i1 * last[-k][1] for k, (r1, i1) in rest.items() if -k in last)
    im = sum(r1 * last[-k][1] + i1 * last[-k][0] for k, (r1, i1) in rest.items() if -k in last)
    return re, im


def combine(*terms) -> dict:
    """sum_j c_j a_j over (c_j, a_j) pairs of an integer c_j and a spectrum a_j on one common scale."""
    out: dict = {}
    for c, a in terms:
        for k, (re, im) in a.items():
            acc = out.get(k, (0, 0))
            out[k] = (acc[0] + c * re, acc[1] + c * im)
    return out


def convolve(a: dict, b: dict) -> dict:
    """The spectrum of the product of the fields of two spectra."""
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
        re, im = zero_mode(field.product(orders[:-1]), field._derivative(orders[-1]))
        scale = Fraction(monomial.coeff) / field.den ** len(orders)
        re_sum, im_sum = re_sum + scale * re, im_sum + scale * im
    if im_sum:
        raise AssertionError(f"the integral of a real field's polynomial has imaginary part {im_sum}")
    return re_sum


def directional(poly, field: ExactField, v: ExactField) -> Fraction:
    """r with d/dtau int poly(u + tau v) dx at tau = 0 equal to 2 pi r, for u the field.

    It is sum_k int dpoly/d(d^k u) . d^k v over the orders k of poly's factors,
    each partial derivative taken by partial_derivative and integrated exactly.
    """
    total = Fraction(0)
    for q in sorted({q for monomial in poly for q in _orders(monomial)}):
        re, _ = zero_mode(spectrum(partial_derivative(poly, ("u", q)), field), v.product((q,)))
        total += re / v.den
    return total
