"""The KdV hierarchy generated by the Lenard recursion.

Level 0 is G_0 = u and each next integrand solves
d/dx G_{l+1} = (d^3 + (2/3) u d + (1/3) u_x) G_l,
which is exact at every level, so the antiderivative engine produces G_{l+1}
with exact rational coefficients. The flow at level l is u_t = d/dx G_l and
its Hamiltonian comes from the line homotopy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .diffpoly import (
    DiffPoly,
    IntegralExpr,
    euler_operator,
    homotopy_hamiltonian,
    ibp_normal_form,
    integrate_exact,
    mono,
    poly_to_obj,
    sym,
    total_derivative,
)

__all__ = [
    "HierarchyLevel",
    "lenard_step",
    "generate",
    "involution_residue",
    "level_to_obj",
]


@dataclass(frozen=True)
class HierarchyLevel:
    """One level of the hierarchy: flow u_t = d/dx g."""

    l: int
    g: DiffPoly
    rhs: DiffPoly
    hamiltonian: IntegralExpr


def lenard_step(g: DiffPoly) -> DiffPoly:
    """Next integrand: the exact antiderivative of (d^3 + 2/3 u d + 1/3 u_x) g."""
    u = sym("u")
    ux = sym("u", 1)
    rhs_next = (
        total_derivative(g, 3)
        + mono(Fraction(2, 3)) * u * total_derivative(g)
        + mono(Fraction(1, 3)) * ux * g
    )
    return integrate_exact(rhs_next)


# the highest level that generate builds: each level costs about 1.6x the one
# below, and kdvlab hierarchy gen from a cold cache takes 0.74 s at l = 12, 1.85 s
# at 14 and 3.87 s at 16 (2-core Xeon), so level 40 would take days
MAX_LEVEL = 16


def _build_level(l: int, g: DiffPoly) -> HierarchyLevel:
    return HierarchyLevel(
        l=l,
        g=g,
        rhs=total_derivative(g),
        hamiltonian=homotopy_hamiltonian(g),
    )


@functools.cache
def level(l: int) -> HierarchyLevel:
    """Level l, its integrand the Lenard step of the cached level below."""
    if l < 0:
        raise ValueError("level must be nonnegative")
    if l > MAX_LEVEL:
        raise ValueError(f"the hierarchy level l = {l} is above the level bound {MAX_LEVEL}")
    return _build_level(l, lenard_step(level(l - 1).g) if l else sym("u"))


def generate(l: int) -> tuple[HierarchyLevel, ...]:
    """Levels 0..l inclusive, memoized; level l comes first, so a bad l is refused before any is built."""
    level(l)
    return tuple(map(level, range(l + 1)))


def involution_residue(m: int, l: int) -> DiffPoly:
    """Normal form of the integrand grad H_m * (d/dx G_l); zero iff in involution."""
    levels = generate(max(m, l))
    gm = euler_operator(levels[m].hamiltonian.integrand)
    return ibp_normal_form(gm * levels[l].rhs)


def level_to_obj(h: HierarchyLevel) -> dict:
    return {
        "l": h.l,
        "g": poly_to_obj(h.g),
        "rhs": poly_to_obj(h.rhs),
        "hamiltonian": poly_to_obj(h.hamiltonian.canonical),
    }

