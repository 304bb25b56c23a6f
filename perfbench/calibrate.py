"""Fixed calibration kernels that measure the speed the host gives a process.

On a shared host the speed one process gets swings by up to 2x, in bursts of
seconds and spells of minutes, while its CPU time keeps tracking wall time.  A
kernel whose work never changes slows down with it, so a pass timed between
two runs of the kernel can be expressed in kernel units, which stay put.

Two kernels, because different work slows down by different factors (measured
on a 2-core Xeon VM, slow spell over fast spell): ``hierarchy.generate`` 1.52,
the ``exact`` kernel 1.51, the ``numeric`` kernel 1.70.  Each workload is
normalised by the kernel whose mix matches its own (``run.CAL_KERNELS``).

  exact    sparse multivariate polynomial products with Fraction
           coefficients in dicts keyed by exponent tuples, as kdvlab's
           symbolic layers do them
  numeric  Fraction arithmetic, dict updates and NumPy real FFTs at the
           padded length 1366, the mix of a spectral solve

Neither calls kdvlab code, so no change to kdvlab moves them.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

KERNELS = ("exact", "numeric")


def _poly(rnd: random.Random, terms: int) -> dict[tuple[int, ...], Fraction]:
    return {
        tuple(rnd.randrange(3) for _ in range(6)): Fraction(rnd.randrange(1, 50), rnd.randrange(1, 30))
        for _ in range(terms)
    }


def _mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e)
            out[e] = ca * cb if c is None else c + ca * cb
    return {e: c for e, c in out.items() if c}


_RND = random.Random(7)
_P, _Q, _R = _poly(_RND, 40), _poly(_RND, 40), _poly(_RND, 8)
_PQ = _mul(_P, _Q)
_SIGNAL = np.random.default_rng(12345).standard_normal((4, 1366))


def exact() -> None:
    _mul(_PQ, _R)


def numeric() -> None:
    acc = Fraction(0)
    for i in range(1, 1200):
        acc += Fraction(i % 7 + 1, i) * Fraction(3, i % 5 + 2)
    table: dict[tuple[int, int], int] = {}
    for i in range(15000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    for _ in range(60):
        np.fft.irfft(np.fft.rfft(_SIGNAL) * 0.5, 1366)


def calibrate() -> dict[str, float]:
    """Seconds of one run of each kernel."""
    out = {}
    for name, kernel in (("exact", exact), ("numeric", numeric)):
        t0 = time.perf_counter()
        kernel()
        out[name] = time.perf_counter() - t0
    return out
