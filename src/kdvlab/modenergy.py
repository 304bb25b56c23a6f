"""Modified Sobolev energies with exact cancellation of resonant terms.

For the flow u_t + d_x^{2l+1} u = u d_x^{2l-1} u on the torus, the growth of
the H^s norm is driven by a finite list of cubic "resonant" integrals

    B_m = int d_x^{2(l-m)-1} u (D^s d_x^m u)^2 ,   m = 1 .. l-1.

This module constructs an energy E^s(u) = 1/2 |u|_{H^s}^2 + sum gamma_T T(u)
whose time derivative contains no resonant term at any polynomial order: each
correction T is chosen so that the linear part of dT/dt cancels one resonant
bucket exactly, the cascade is repeated through the (l+1)-linear stage, and
everything left over is either manifestly bounded (strictly negative net
D-order, or no derivative transfer at all) or carried as an exactly evaluable
remainder functional.  All coefficients are exact polynomials in the symbolic
Sobolev index s.

The working basis for energy terms is the bundled form

    coeff(s) * int d_x^A( prod_i d_x^{q_i} u ) . D^{s+off} d_x^b u . D^{s+off} d_x^c u

with b <= c and off even; squares (b == c) are normalized through the parity
rewrite d_x^2 = -D^2, which is sign-free inside a square.  The reduction of a
non-square pair runs on the gap c - b: even gaps integrate by parts once, odd
gaps apply the exact trilinear identity whose alpha coefficients come from
ibpcalc, so every rewrite in the pipeline is an identity rather than an
estimate.  Two remainder species are not polynomial integrals of derivatives
and are kept as marker objects with exact numeric evaluation: the J^{2s}-D^{2s}
norm-gap term and the tails of the para-Leibniz expansion

    D^sigma(fg) = sum_i C(sigma, i) d_x^i f D^sigma d_x^{-i} g + tail.

A blueprint is built in exact arithmetic and evaluated in floats: its items
(terms and markers, or Corrections) are compiled into an _EnergyPlan for one
Sobolev index s and one field band, which evaluates every item on a field
with a few batched transforms per padded grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb, isfinite
from typing import ClassVar

import numpy as np

from .diffpoly import DiffMonomial, DiffPoly, _merge_coeffs, split_exact
from .ibpcalc import alpha_coeffs
from .spectral import TAU, SpectralField, _d_rows, _d_weights, _product_grid, _sobolev_weights, sobolev_norm
from .spoly import SPoly, binom_s

__all__ = [
    "OddOffset",
    "SingularSystem",
    "ThresholdViolation",
    "PTerm",
    "pterm",
    "NormGapTerm",
    "CommutatorTail",
    "Correction",
    "StageReport",
    "EnergyBlueprint",
    "build_energy",
    "regularity_threshold",
    "evaluate_energy",
    "energy_time_derivative",
]

_ZERO = SPoly()
_ONE = SPoly.const(1)


class OddOffset(ValueError):
    """A rewrite would require an odd power of D relative to D^s."""


class SingularSystem(RuntimeError):
    """A cancellation stage failed to eliminate a resonant bucket."""


class ThresholdViolation(ValueError):
    """Requested Sobolev index at or below the construction's threshold."""


def regularity_threshold(l: int) -> Fraction:
    """Smallest s excluded by the construction: evaluation needs s > 4l - 9/2."""
    return Fraction(8 * l - 9, 2)


# ---------------------------------------------------------------------------
# term type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PTerm:
    """coeff(s) * int d^a_out(prod_i d^{q_i}u) . D^{s+off}d^b u . D^{s+off}d^c u.

    inner lists the plain derivative orders q_i inside the bundle, sorted
    ascending; a single plain factor is always folded into a_out so that
    inner == (0,).  b <= c.  Squares have b == c.
    """

    coeff: SPoly
    a_out: int
    inner: tuple[int, ...]
    off: int
    b: int
    c: int

    @property
    def degree(self) -> int:
        return len(self.inner) + 2

    @property
    def is_square(self) -> bool:
        return self.b == self.c

    @property
    def is_resonant(self) -> bool:
        return self.is_square and self.off == 0 and self.b >= 1

    def bucket(self) -> tuple[int, tuple[int, ...], int]:
        return (self.a_out, self.inner, self.b)

    def to_obj(self) -> dict:
        return {
            "coeff": self.coeff.to_obj(),
            "a_out": self.a_out,
            "inner": list(self.inner),
            "off": self.off,
            "b": self.b,
            "c": self.c,
        }


def pterm(coeff, a_out: int, inner, off: int, b: int, c: int) -> PTerm:
    """Canonicalizing constructor: sorts inner, folds single factors, b <= c."""
    cp = coeff if isinstance(coeff, SPoly) else SPoly.const(coeff)
    inn = tuple(sorted(inner))
    if len(inn) == 1:
        a_out += inn[0]
        inn = (0,)
    if b > c:
        b, c = c, b
    if a_out < 0 or b < 0 or any(q < 0 for q in inn):
        raise ValueError("negative derivative order in term")
    return PTerm(cp, a_out, inn, off, b, c)


# ---------------------------------------------------------------------------
# marker functionals (exact remainders that are not derivative polynomials)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormGapTerm:
    """coeff(s) * int u d^{2l-1}u ((J^{2s} - D^{2s})u): the J-vs-D norm gap."""

    coeff: SPoly
    l: int
    degree: ClassVar[int] = 3


@dataclass(frozen=True)
class CommutatorTail:
    """Tail of the para-Leibniz expansion, paired with its bundle context.

    Represents coeff(s) * int d^{a_out}(prod(inner)) . tail . D^{s+off}d^{other_b}u
    where tail = D^{s+off}(d^rho u . d^{m_high} u)
                 - sum_{i=0}^{i_max} C(s+off, i) d^{rho+i}u . D^{s+off}d^{m_high-i}u.
    """

    coeff: SPoly
    a_out: int
    inner: tuple[int, ...]
    off: int
    rho: int
    m_high: int
    i_max: int
    other_b: int

    @property
    def degree(self) -> int:
        return len(self.inner) + 4


# ---------------------------------------------------------------------------
# exact reduction to normalized squares
# ---------------------------------------------------------------------------


def _normalize_square(pt: PTerm) -> PTerm:
    """Canonical (off, j) for a square via d^2 = -D^2; sign-free inside squares."""
    if pt.b != pt.c:
        raise ValueError("normalize_square requires b == c")
    if pt.off % 2:
        raise OddOffset(f"odd D-offset {pt.off} in square term")
    net = pt.off + pt.b
    if net >= 1:
        off2, j2 = 0, net
    else:
        j2 = net % 2
        off2 = net - j2
    return pterm(pt.coeff, pt.a_out, pt.inner, off2, j2, j2)


def _merge(terms) -> list[PTerm]:
    """Terms summed by shape, sorted by (a_out, inner, off, b, c), zero sums dropped."""
    acc = _merge_coeffs(((t.a_out, t.inner, t.off, t.b, t.c), t.coeff) for t in terms)
    return [PTerm(acc[key], *key) for key in sorted(acc)]


def _reduce_pair(pt: PTerm) -> list[PTerm]:
    """Rewrite a D-pair term as normalized squares, exactly.

    Even gaps integrate by parts once; odd gaps 2m+1 apply the trilinear
    identity I_{2m+1}(W, phi, phi) with W the whole bundle.
    """
    if pt.coeff.is_zero():
        return []
    gap = pt.c - pt.b
    if gap == 0:
        return [_normalize_square(pt)]
    if gap % 2 == 0:
        left = pterm(-pt.coeff, pt.a_out + 1, pt.inner, pt.off, pt.b, pt.c - 1)
        right = pterm(-pt.coeff, pt.a_out, pt.inner, pt.off, pt.b + 1, pt.c - 1)
        return _reduce_pair(left) + _reduce_pair(right)
    m = (gap - 1) // 2
    out = []
    if m >= 1:
        table = alpha_coeffs(m)
        for i in range(1, m + 1):
            out.append(
                _normalize_square(
                    pterm(
                        pt.coeff * (table[i] / 2),
                        pt.a_out + 2 * (m - i) + 1,
                        pt.inner,
                        pt.off,
                        pt.b + i,
                        pt.b + i,
                    )
                )
            )
    out.append(
        _normalize_square(pterm(pt.coeff * Fraction(-1, 2), pt.a_out + gap, pt.inner, pt.off, pt.b, pt.b))
    )
    return out


def _reduce_classify(pairs) -> tuple[list[PTerm], list[PTerm]]:
    """Reduce pair terms to merged normalized squares: (bounded, resonant)."""
    bounded: list[PTerm] = []
    resonant: list[PTerm] = []
    for term in _merge(square for pair in pairs for square in _reduce_pair(pair)):
        (resonant if term.is_resonant else bounded).append(term)
    return bounded, resonant


# ---------------------------------------------------------------------------
# quadratic stage: d/dt of 1/2 |u|_{H^s}^2 along u_t = -d^{2l+1}u + u d^{2l-1}u
# ---------------------------------------------------------------------------


def _quadratic_expansion(l: int) -> tuple[list, list[PTerm]]:
    """(markers, pairs) of d/dt (1/2 |u|_{H^s}^2): the cascade's starting stage.

    The linear flow contributes nothing (odd operator).  Since J^{2s} =
    D^{2s} + (J^{2s} - D^{2s}), the nonlinear part is the J/D norm-gap marker
    plus the correction expansion (_expand_nonlinear) applied to
    1/2 int (D^s u)^2: para-Leibniz pairs with weights C(s, j) and one
    commutator tail marker.
    """
    pairs, _, tails = _expand_nonlinear(PTerm(_ONE / 2, 0, (), 0, 0, 0), l)
    return [NormGapTerm(_ONE, l), *tails], pairs


# ---------------------------------------------------------------------------
# correction terms and their time derivatives
# ---------------------------------------------------------------------------


def _correction_shape(bucket: tuple[int, tuple[int, ...], int], l: int) -> PTerm:
    """The unit-coefficient correction whose linear d/dt hits bucket exactly."""
    a_out, inner, m = bucket
    if a_out < 1:
        raise ValueError("correction requires an outer derivative to remove")
    t = m - l
    jj = t % 2
    offp = t - jj
    return pterm(_ONE, a_out - 1, inner, offp, jj, jj)


def _expand_linear(corr: PTerm, l: int) -> list[PTerm]:
    """Normalized squares of d/dt corr along u_t = -d^{2l+1}u (exact).

    Hitting either D-factor gives the odd-gap pair -2 c (b, b + 2l + 1),
    reduced by _reduce_pair; a hit on a plain factor raises its order.
    """
    out = _reduce_pair(pterm(-2 * corr.coeff, corr.a_out, corr.inner, corr.off, corr.b, corr.b + 2 * l + 1))
    for idx, q in enumerate(corr.inner):
        raised = corr.inner[:idx] + (q + 2 * l + 1,) + corr.inner[idx + 1 :]
        out.append(_normalize_square(pterm(-corr.coeff, corr.a_out, raised, corr.off, corr.b, corr.b)))
    return _merge(out)


def _expand_nonlinear(corr: PTerm, l: int) -> tuple[list[PTerm], list[PTerm], list[CommutatorTail]]:
    """d/dt corr along u_t = u d^{2l-1}u: (pair terms, bounded squares, tails).

    Plain-factor hits stay inside the bundle (Leibniz, exact) and keep the
    strictly negative net D-order, hence bounded.  D-factor hits para-expand;
    the loose low-frequency factor is folded back into the bundle through
    d^n(P).G = sum_w (-1)^w C(n, w) d^{n-w}(P . d^w G).
    """
    pairs: list[PTerm] = []
    squares: list[PTerm] = []
    tails: list[CommutatorTail] = []
    jj = corr.b

    for idx, q in enumerate(corr.inner):
        base = corr.inner[:idx] + corr.inner[idx + 1 :]
        for r in range(q + 1):
            new_inner = base + (r, 2 * l - 1 + q - r)
            squares.append(
                _normalize_square(pterm(corr.coeff * comb(q, r), corr.a_out, new_inner, corr.off, jj, jj))
            )

    for r in range(jj + 1):
        m_high = 2 * l - 1 + jj - r
        i_max = corr.off + m_high - 1
        lead = corr.coeff * (2 * comb(jj, r))
        for i in range(max(i_max + 1, 0)):
            cpoly = lead * binom_s(corr.off, i)
            loose = r + i
            for w in range(corr.a_out + 1):
                cw = cpoly * (Fraction(-1) ** w * comb(corr.a_out, w))
                pairs.append(
                    pterm(cw, corr.a_out - w, corr.inner + (loose + w,), corr.off, jj, m_high - i)
                )
        tails.append(
            CommutatorTail(lead, corr.a_out, corr.inner, corr.off, r, m_high, i_max, jj)
        )
    return _merge(pairs), _merge(squares), tails


# ---------------------------------------------------------------------------
# the cancellation cascade
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Correction:
    """One energy correction: gamma(s) times the stored unit integral."""

    stage: int
    index: int
    term: PTerm
    gamma: SPoly
    bucket: tuple[int, tuple[int, ...], int]

    def to_obj(self) -> dict:
        return {
            "stage": self.stage,
            "index": self.index,
            "gamma": self.gamma.to_obj(),
            "term": self.term.to_obj(),
            "bucket": [self.bucket[0], list(self.bucket[1]), self.bucket[2]],
        }


@dataclass(frozen=True)
class StageReport:
    stage: int
    buckets: int
    diagonal: Fraction

    def to_obj(self) -> dict:
        return {"stage": self.stage, "buckets": self.buckets, "diagonal": str(self.diagonal)}


@dataclass
class EnergyBlueprint:
    """Complete bookkeeping of E^s(u) and its exactly decomposed derivative.

    corrections carry the solved gamma(s); bounded_remainder and markers hold
    every surviving piece of d/dt E^s; resonant_residue lists resonant terms
    the basis failed to absorb (empty for a sound construction) and pending
    holds not-yet-processed input when the cascade is stopped early.
    """

    l: int
    max_stage: int
    corrections: list[Correction] = field(default_factory=list)
    resonant_residue: list[PTerm] = field(default_factory=list)
    bounded_remainder: list[PTerm] = field(default_factory=list)
    markers: list = field(default_factory=list)
    stages: list[StageReport] = field(default_factory=list)
    pending: list[PTerm] = field(default_factory=list)
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def to_obj(self) -> dict:
        return {
            "l": self.l,
            "max_stage": self.max_stage,
            "gammas": [c.gamma.to_obj() for c in self.corrections],
            "corrections": [c.to_obj() for c in self.corrections],
            "resonant_residue": [t.to_obj() for t in self.resonant_residue],
            "diagnostics": {
                "stages": [r.to_obj() for r in self.stages],
                "bounded_terms": len(self.bounded_remainder),
                "markers": len(self.markers),
                "pending_terms": len(self.pending),
                "regularity_threshold": str(regularity_threshold(self.l)),
            },
        }


def _peel_zero_outer(resonant: list[PTerm]) -> tuple[dict, list[PTerm]]:
    """Bucket resonant squares, rewriting those with no outer derivative exactly.

    int P (D^s d^m u)^2 with P a bare product is correctable only if P is a
    total derivative; the peel runs on the SPoly coefficients, its exact part
    becomes (A=1, inner) buckets, and any non-exact residue is reported
    instead of silently dropped.
    """
    buckets = [(t.bucket(), t.coeff) for t in resonant if t.a_out >= 1]
    by_m: dict[int, list[DiffMonomial]] = {}
    for t in resonant:
        if t.a_out == 0:
            by_m.setdefault(t.b, []).append(DiffMonomial(t.coeff, tuple(("u", q) for q in t.inner)))
    residue: list[PTerm] = []
    for m in sorted(by_m):
        anti, res = split_exact(DiffPoly(by_m[m]))
        for mono in anti:
            buckets.append((pterm(mono.coeff, 1, [k for _, k in mono.factors], 0, m, m).bucket(), mono.coeff))
        residue.extend(pterm(mono.coeff, 0, [k for _, k in mono.factors], 0, m, m) for mono in res)
    return _merge_coeffs(buckets), residue


def _solve_stage(l: int, stage: int, resonant: dict, bp: EnergyBlueprint) -> list[PTerm]:
    """Cancel every resonant bucket of one stage; returns next-stage pairs.

    Buckets are processed in descending m: the correction's diagonal hit
    cancels its own bucket exactly (verified symbolically, SingularSystem on
    failure) and pollutes only strictly smaller m.
    """
    diag = alpha_coeffs(l).diagonal
    load = dict(resonant)
    next_pairs: list[PTerm] = []
    index = 0
    while True:
        live = [k for k, v in load.items() if not v.is_zero()]
        if not live:
            break
        bucket = max(live, key=lambda k: (k[2], -k[0], tuple(-q for q in k[1])))
        gamma = load[bucket] / diag
        corr = _correction_shape(bucket, l)
        bp.corrections.append(Correction(stage, index, corr, gamma, bucket))
        index += 1
        scaled = replace(corr, coeff=gamma)
        for piece in _expand_linear(scaled, l):
            if piece.is_resonant:
                key = piece.bucket()
                if key != bucket and key[2] >= bucket[2]:
                    raise SingularSystem(f"stage {stage}: pollution into bucket {key} from {bucket}")
                load[key] = load.get(key, _ZERO) + piece.coeff
            else:
                bp.bounded_remainder.append(piece)
        if not load[bucket].is_zero():
            raise SingularSystem(f"stage {stage}: bucket {bucket} not cancelled")
        del load[bucket]
        pairs, squares, tails = _expand_nonlinear(scaled, l)
        next_pairs.extend(pairs)
        bp.bounded_remainder.extend(squares)
        bp.markers.extend(tails)
    bp.stages.append(StageReport(stage, len(resonant), diag))
    return _merge(next_pairs)


# the highest model-flow level whose cascade build_energy runs: 0.23 s at l = 6,
# 0.94 s at 7, 2.97 s at 8, and kdvlab energy build --l 9 takes 8.0 s (2-core Xeon)
MAX_CASCADE = 8


def build_energy(l: int, max_stage: int | None = None) -> EnergyBlueprint:
    """Run the cancellation cascade through max_stage (default l+1).

    Stage k cancels the k-linear resonant terms; the spill of the final
    stage's corrections is reduced and must land entirely in bounded terms,
    otherwise it is reported in resonant_residue.  Stopping early leaves the
    unprocessed input in pending.
    """
    if l < 2:
        raise ValueError("model flow requires l >= 2")
    if l > MAX_CASCADE:
        raise ValueError(f"the cascade level l = {l} is above the bound {MAX_CASCADE}")
    full = l + 1
    if max_stage is None:
        max_stage = full
    if not 3 <= max_stage <= full:
        raise ValueError(f"stage must be in 3..{full}")

    bp = EnergyBlueprint(l=l, max_stage=max_stage)
    bp.markers, pairs = _quadratic_expansion(l)
    for stage in range(3, max_stage + 1):
        bounded, resonant = _reduce_classify(pairs)
        bp.bounded_remainder.extend(bounded)
        buckets, residue = _peel_zero_outer(resonant)
        bp.resonant_residue.extend(residue)
        pairs = _solve_stage(l, stage, buckets, bp)
    bounded, resonant = _reduce_classify(pairs)
    bp.bounded_remainder = _merge(bp.bounded_remainder + bounded)
    # the final stage's spill must be non-resonant; an early stop leaves it pending
    (bp.resonant_residue if max_stage == full else bp.pending).extend(resonant)
    return bp


# ---------------------------------------------------------------------------
# numeric evaluation of the energy and its predicted derivative
# ---------------------------------------------------------------------------


def _check_threshold(l: int, s) -> None:
    """Refuse s <= the threshold; inf and nan compare as they are, so -inf is refused here and
    _sobolev_weights names +inf and nan."""
    thr = regularity_threshold(l)
    if not isinstance(s, float):
        val = Fraction(s)
    else:
        val = Fraction(s).limit_denominator(10**9) if isfinite(s) else s
    if val <= thr:
        raise ThresholdViolation(f"need s > {thr} for l = {l}, got {s}")


# bytes of the bundle rows in one block of _EnergyPlan.apply (see its docstring)
_BLOCK_BYTES = 1 << 17


def _ix(rows) -> np.ndarray:
    return np.array(rows, dtype=np.intp)


class _GridPlan:
    """The items of an _EnergyPlan on one grid m, as row indices.

    Rows of F: a row of ones, the factors d^q u (sigma None), d^q D^sigma u
    and (J^{2s} - D^{2s})u (sigma "gap"), factor i in row 1 + i, and last the
    tail cores, core c in row -1 - c, their symbols |k|^sigma held as float
    rows.  Rows of U: the plain products of one block of bundles, then their
    outer derivatives.  Every integrand is (U[ia] * F[ib]) * F[ic]; the norm
    gap's bundle is u with no outer derivative, exact since 1 * u = u.
    """

    __slots__ = ("m", "rows", "n_factors", "orders", "factors", "cores", "blocks")

    def __init__(self, m: int, terms, index: list[int], s: float):
        self.m = m
        # row 0 of F holds ones: short bundles and Taylor sums are padded with it
        row, orders, factors, cores, groups, members = {"ones": 0}, {}, {}, {}, {}, []

        def fac(sigma, q: int) -> int:
            return row.setdefault((sigma, q), len(row))

        for i in index:
            t = terms[i]
            if isinstance(t, NormGapTerm):
                a_out, inner, b, c = 0, (0,), fac(None, 2 * t.l - 1), fac("gap", 0)
            elif isinstance(t, PTerm):
                a_out, inner, b, c = t.a_out, t.inner, fac(s + t.off, t.b), fac(s + t.off, t.c)
            else:
                sigma, core = s + t.off, (t.off, t.rho, t.m_high, t.i_max)
                if core not in cores:
                    taylor = [(float(binom_s(t.off, j)(s)), fac(None, t.rho + j), fac(sigma, t.m_high - j))
                              for j in range(t.i_max + 1)]
                    cores[core] = (-1 - len(cores), fac(None, t.rho), fac(None, t.m_high), sigma, taylor)
                a_out, inner, b, c = t.a_out, t.inner, cores[core][0], fac(sigma, t.other_b)
            groups.setdefault(inner, ([fac(None, q) for q in inner], set()))[1].update([a_out] if a_out else [])
            members.append((i, inner, a_out, b, c))

        self.rows, self.n_factors = len(row) + len(cores), len(row) - 1
        for (sigma, q), r in list(row.items())[1:]:
            factors.setdefault(sigma, []).append((orders.setdefault(q, len(orders)), r - 1))
        self.factors = [(sigma, *map(_ix, zip(*qs))) for sigma, qs in factors.items()]
        self.cores = None
        if cores:
            _, first, second, sigmas, taylor = zip(*reversed(cores.values()))
            # term j of every Taylor sum, the shorter sums padded with 0 * 1 * 1
            w, low, high = np.array([tj + [(0.0, 0, 0)] * (max(map(len, taylor)) - len(tj)) for tj in taylor]).T
            symbols = np.array([_d_weights.__wrapped__(m, sigma) for sigma in sigmas])  # read once: not cached
            self.cores = (_ix(first), _ix(second), symbols, w[..., None], low.astype(np.intp), high.astype(np.intp))

        # the outer derivatives' orders follow the factors' in orders
        for a in sorted(set().union(*(outs for _, outs in groups.values()))):
            orders.setdefault(a, len(orders))
        self.orders = tuple(orders)
        cap, packed = max(1, _BLOCK_BYTES // (8 * m)), []
        for g in groups:
            if not packed or sum(1 + len(groups[h][1]) for h in packed[-1] + [g]) > cap:
                packed.append([])
            packed[-1].append(g)
        self.blocks = []
        for gs in packed:
            derivs = [(g, a) for g in gs for a in sorted(groups[g][1])]
            with_d = [g for g in gs if groups[g][1]]
            urow = {d: r for r, d in enumerate([(g, 0) for g in gs] + derivs)}
            # factor j of every bundle, the shorter bundles padded with ones (a bundle with no factor is one)
            factor_rows = _ix([[groups[g][0][j] if j < len(g) else 0 for g in gs] for j in range(max(1, *map(len, gs)))])
            layout = (len(gs), factor_rows, _ix([gs.index(g) for g in with_d]),
                      _ix([with_d.index(g) for g, _ in derivs]), _ix([orders[a] for _, a in derivs]))
            rows = [(i, urow[(g, a)], b, c) for i, g, a, b, c in members if g in gs]
            self.blocks.append((layout, _ix(list(zip(*rows)))))


def _times_symbol(spectrum: np.ndarray, symbol: np.ndarray, m: int, pick=slice(None)) -> np.ndarray:
    """(spectrum / m)[pick] * symbol * m in place, for an m-grid rfft's spectrum and its symbol."""
    spectrum /= m
    spectrum = spectrum[pick]
    spectrum *= symbol
    spectrum *= m
    return spectrum


class _EnergyPlan:
    """Energy items compiled once for one Sobolev index s and one field band.

    Items are terms and markers, or Corrections: their terms, weighted by
    gamma(s) in total.  An item of degree d is integrated on the grid
    _product_grid(d, band), where the mean of its integrand's samples is
    exact.  The plan holds float(coeff(s)) * TAU per item, the tail weights
    and, per grid, row indices: nothing per field and nothing complex.  Per
    grid, apply zero-pads every factor's spectrum into one array for one
    irfft, transforms all tail cores together (one rfft, one irfft), then
    takes about _BLOCK_BYTES of bundle rows at a time: their plain products,
    their outer derivatives (one rfft, one irfft) and the means of their
    items' integrands.  Every irfft writes into the plan's rows through
    out=, from (rfft / m * symbol) * m for the tails and outer derivatives.
    Of 64, 128, 256 and 512 KiB blocks, 128 ran the energy workload fastest;
    512 ran as slowly as 64 and raised the peak allocation of a call from 0.8
    to 2.4 MiB.  pocketfft transforms each row of a batch as it would the row
    alone, and a spectrum padded here gives irfft the input it pads itself,
    so every value keeps its bits.
    Immutable: threads may share one.
    """

    __slots__ = ("items", "s", "weights", "coefs", "grids")

    def __init__(self, items: tuple, s: float, band: int):
        self.items, self.s = items, s
        weighted = all(isinstance(c, Correction) for c in items)
        self.weights = tuple(float(c.gamma(s)) if weighted else 1.0 for c in items)
        terms = [c.term for c in items] if weighted else items
        self.coefs = np.array([float(t.coeff(s)) * TAU for t in terms])
        grids: dict[int, list[int]] = {}
        for i, t in enumerate(terms):
            grids.setdefault(_product_grid(t.degree, band), []).append(i)
        self.grids = [_GridPlan(m, terms, index, s) for m, index in sorted(grids.items())]

    def apply(self, fieldval: SpectralField) -> list[float]:
        """Each item's value (without gamma), in item order."""
        modes = fieldval.modes
        d_modes = {None: modes}
        out = np.empty(len(self.items))
        for g in self.grids:
            m = g.m
            f = np.empty((g.rows, m))
            f[0] = 1.0
            take = min(modes.size, m // 2 + 1)
            rows = _d_rows(g.orders, m // 2 + 1)
            # every factor's spectrum, zero-padded here: one irfft for all of them
            spectra = np.zeros((g.n_factors, m // 2 + 1), dtype=complex)
            for sigma, q, at in g.factors:
                if sigma == "gap" and sigma not in d_modes:
                    gap = _sobolev_weights(fieldval.n, self.s) - _d_weights(fieldval.n, 2.0 * self.s)
                    d_modes[sigma] = modes * gap
                elif sigma not in d_modes:
                    d_modes[sigma] = modes * _d_weights(fieldval.n, sigma)
                spectrum = rows[q, :take]
                spectra[at, :take] = np.multiply(d_modes[sigma][:take], spectrum, out=spectrum)
            spectra *= m
            np.fft.irfft(spectra, n=m, out=f[1 : 1 + g.n_factors])
            del spectra, spectrum  # as large as the factor rows: freed before the blocks run
            if g.cores:
                # each tail D^sigma(d^rho u d^high u) - sum_j w_j d^{rho+j}u D^sigma d^{high-j}u,
                # formed in place in the last rows of F
                first, second, symbols, w, low, high = g.cores
                tails = slice(-len(symbols), None)
                np.fft.irfft(_times_symbol(np.fft.rfft(f[first] * f[second]), symbols, m), n=m, out=f[tails])
                for j in range(len(w)):
                    product = w[j] * f[low[j]]
                    product *= f[high[j]]
                    f[tails] -= product
                    del product
            for (n, factor_rows, with_d, spectrum, a_out), (items, ia, ib, ic) in g.blocks:
                # the block's bundles: plain products from each first factor (1 * x is x; "clip"
                # spares the copy of out that "raise" makes), then the outer derivatives; each item's
                # row of them becomes its integrand, averaged as ndarray.mean does but without its wrapper
                u = np.empty((n + len(a_out), m))
                np.take(f, factor_rows[0], axis=0, out=u[:n], mode="clip")
                for fr in factor_rows[1:]:
                    u[:n] *= f[fr]
                if len(a_out):
                    np.fft.irfft(_times_symbol(np.fft.rfft(u[with_d]), rows[a_out], m, spectrum), n=m, out=u[n:])
                u = u[ia]
                u *= f[ib]
                u *= f[ic]
                out[items] = self.coefs[items] * (np.add.reduce(u, axis=1) / m)
        return out.tolist()

    def total(self, fieldval: SpectralField, start: float) -> float:
        """start plus each value times its weight, added one by one in item
        order: the terms cancel to many digits."""
        total = start
        for w, value in zip(self.weights, self.apply(fieldval)):
            total += w * value
        return total


_PLANS_KEPT = 8  # plans cached per blueprint, keyed (E or dE/dt, s, band)


def _plan(bp: EnergyBlueprint, kind: str, items: tuple, s: float, fieldval: SpectralField) -> _EnergyPlan:
    """bp's plan for items on fieldval's band, built on first use and kept while bp lists the same items.

    An s whose (1 + k^2)^s overflows on fieldval's grid is refused first, before any table is formed.
    Threads that miss together each build a plan and use their own; the cache
    keeps one of them.  It holds a few plans, so a scan over s stays small.
    """
    _sobolev_weights(fieldval.n, s)
    band = fieldval.band_limit()
    plan = bp._plans.get((kind, s, band))
    if plan is None or plan.items != items:
        if len(bp._plans) >= _PLANS_KEPT:
            bp._plans.clear()
        plan = bp._plans[(kind, s, band)] = _EnergyPlan(items, s, band)
    return plan


def evaluate_energy(bp: EnergyBlueprint, s, fieldval: SpectralField) -> float:
    """E^s(u) = 1/2 |u|_{H^s}^2 + sum gamma(s) * correction integrals."""
    _check_threshold(bp.l, s)
    sf = float(s)
    plan = _plan(bp, "E", tuple(bp.corrections), sf, fieldval)
    return plan.total(fieldval, 0.5 * sobolev_norm(fieldval, sf) ** 2)


def energy_time_derivative(bp: EnergyBlueprint, s, fieldval: SpectralField) -> float:
    """Predicted d/dt E^s(u) along the flow, from the stored decomposition.

    For a complete blueprint this is an exact identity: the sum of all
    bounded terms, marker functionals, and any reported residue or pending
    input (included for honesty; empty when the construction succeeded).
    """
    _check_threshold(bp.l, s)
    items = tuple(bp.bounded_remainder + bp.markers + bp.resonant_residue + bp.pending)
    return _plan(bp, "dE", items, float(s), fieldval).total(fieldval, 0.0)
