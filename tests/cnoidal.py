"""Exact travelling waves of every KdV hierarchy flow: the cnoidal (genus-1) family.

In kdvlab's normalization, Hill's operator -d^2 - u/6, the potentials of real
period 2 pi

    u_q(x) = a + 24 sum_{k >= 1} k q^k / (1 - q^{2k}) cos kx,   0 < q < 1, any a,

are -12 wp(x + omega') plus a constant (the Fourier series of Weierstrass's wp,
Whittaker & Watson ch. 20).  Every flow of the hierarchy is linear on the
one-dimensional Jacobian of a genus-1 spectral curve (Novikov, Funct. Anal.
Appl. 1974; Dubrovin, Matveev & Novikov, Russ. Math. Surveys 1976), so
hierarchy_flow(l) carries u_q to u_q(x + c t), with one speed c per (l, q, a).
The modes fall as q^k, so u_q is resolved on a small grid and q sets the
amplitude: q -> 0 is a small cosine, q -> 1 a train of solitons.
"""

from __future__ import annotations

import numpy as np

from kdvlab.spectral import SpectralField, hierarchy_flow, rhs_field

# the largest relative residual max_k |RHS_k - c (ik) u_k| / max_k |RHS_k| of a
# fit: 10x the worst of 116 fits on N = 128 at parameters the identity test
# does not use (l = 1..4; a = -0.4, 0 and 0.7 at q = 0.05, 0.1, ..., 0.4; a = 0.3
# at q = 0.1, 0.15, 0.25, 0.3, 0.35), 9.9e-13 at l = 4, q = 0.3, a = 0
RESIDUAL_GATE = 1e-11


def cnoidal(n: int, q: float, a: float) -> SpectralField:
    """u_q on n points: mode 0 is a and mode k is 12 k q^k / (1 - q^{2k}) for 1 <= k < n/2."""
    k = np.arange(1, n // 2, dtype=np.float64)
    modes = np.zeros(n // 2 + 1, dtype=np.complex128)
    modes[0] = a
    modes[1 : n // 2] = 12.0 * k * q**k / (1.0 - q ** (2 * k))
    return SpectralField(n, modes)


def cnoidal_speed(l: int, field: SpectralField) -> float:
    """The c with rhs_field(hierarchy_flow(l), field) = c d_x field, by least squares over the modes.

    The fit's relative residual must be at most RESIDUAL_GATE: otherwise the
    field is not a travelling wave of the flow, and AssertionError says by how much.
    """
    rhs = rhs_field(hierarchy_flow(l), field).modes
    ux = 1j * np.arange(field.modes.size) * field.modes
    c = np.vdot(ux, rhs).real / np.vdot(ux, ux).real
    residual = np.max(np.abs(rhs - c * ux)) / np.max(np.abs(rhs))
    assert residual <= RESIDUAL_GATE, (l, residual)
    return float(c)

