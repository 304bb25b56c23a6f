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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb
from typing import ClassVar

from .diffpoly import DiffMonomial, DiffPoly, split_exact
from .energyplan import _EnergyPlan
from .ibpcalc import alpha_coeffs
from .spectral import SpectralField, sobolev_norm
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
    "CorrectionDerivative",
    "EnergyBlueprint",
    "reduce_triple",
    "quadratic_derivative",
    "correction_derivative",
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


class _Integral:
    """A term or marker: coeff(s) times an integral of the field."""

    __slots__ = ()

    def evaluate(self, fieldval: SpectralField, s: float) -> float:
        return _EnergyPlan((self,), float(s), fieldval.band_limit()).apply(fieldval)[0]


@dataclass(frozen=True)
class PTerm(_Integral):
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
class NormGapTerm(_Integral):
    """coeff(s) * int u d^{2l-1}u ((J^{2s} - D^{2s})u): the J-vs-D norm gap."""

    coeff: SPoly
    l: int
    degree: ClassVar[int] = 3


@dataclass(frozen=True)
class CommutatorTail(_Integral):
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
    acc: dict[tuple, SPoly] = {}
    for t in terms:
        key = (t.a_out, t.inner, t.off, t.b, t.c)
        acc[key] = acc.get(key, _ZERO) + t.coeff
    out = []
    for key in sorted(acc):
        if not acc[key].is_zero():
            a_out, inner, off, b, c = key
            out.append(PTerm(acc[key], a_out, inner, off, b, c))
    return out


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


def reduce_triple(t: PTerm) -> list[PTerm]:
    """Exact rewrite of a D-pair term as normalized squares.

    Returns the squares merged and sorted deterministically; the
    resonant/bounded split is read off each term's flags.  The rewrite is
    driven by the gap c - b.
    """
    if t.off % 2:
        raise OddOffset(f"odd D-offset {t.off}")
    return _merge(_reduce_pair(t))


# ---------------------------------------------------------------------------
# quadratic stage: d/dt of 1/2 |u|_{H^s}^2 along u_t = -d^{2l+1}u + u d^{2l-1}u
# ---------------------------------------------------------------------------


def quadratic_derivative(l: int) -> tuple[list, list[PTerm]]:
    """Main terms of d/dt (1/2 |u|_{H^s}^2): (bounded-with-markers, resonant).

    The linear flow contributes nothing (odd operator).  Since J^{2s} =
    D^{2s} + (J^{2s} - D^{2s}), the nonlinear part is the J/D norm-gap marker
    plus the correction expansion (_expand_nonlinear) applied to
    1/2 int (D^s u)^2: para-Leibniz pairs with weights C(s, j) and one
    commutator tail marker.  The pairs are reduced to squares and classified.
    Resonant output carries the beta weights as polynomials in s.
    """
    if l < 2:
        raise ValueError("model flow requires l >= 2")
    pairs, _, tails = _expand_nonlinear(PTerm(_ONE / 2, 0, (), 0, 0, 0), l)
    bounded: list = [NormGapTerm(_ONE, l), *tails]
    resonant: list[PTerm] = []
    for term in _merge(square for pair in pairs for square in _reduce_pair(pair)):
        (resonant if term.is_resonant else bounded).append(term)
    return bounded, resonant


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
    """Normalized squares of d/dt corr along u_t = -d^{2l+1}u (exact)."""
    table = alpha_coeffs(l)
    out = []
    for i in range(1, l + 1):
        out.append(
            _normalize_square(
                pterm(-table[i] * corr.coeff, corr.a_out + 2 * (l - i) + 1, corr.inner, corr.off, corr.b + i, corr.b + i)
            )
        )
    out.append(_normalize_square(pterm(corr.coeff, corr.a_out + 2 * l + 1, corr.inner, corr.off, corr.b, corr.b)))
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


@dataclass(frozen=True)
class CorrectionDerivative:
    """Exact d/dt of one unit-coefficient cubic correction term."""

    resonant: tuple[PTerm, ...]
    bounded: tuple[PTerm, ...]
    higher: tuple  # PTerm pairs feeding the next stage, then tail markers


def correction_derivative(l: int, j: int) -> CorrectionDerivative:
    """d/dt of the cubic correction with index j (0 <= j <= l-2), gamma = 1.

    The resonant part contains the diagonal hit on B_{l-1-j} plus lower
    buckets; bounded squares and the quartic pair/tail terms are returned
    separately.
    """
    if l < 2:
        raise ValueError("model flow requires l >= 2")
    if not 0 <= j <= l - 2:
        raise ValueError(f"correction index must be in 0..{l - 2}")
    m = l - 1 - j
    corr = _correction_shape((2 * j + 1, (0,), m), l)
    linear = _expand_linear(corr, l)
    pairs, squares, tails = _expand_nonlinear(corr, l)
    res = tuple(t for t in linear if t.is_resonant)
    bnd = tuple(t for t in linear if not t.is_resonant)
    return CorrectionDerivative(res, bnd, tuple(pairs + squares) + tuple(tails))


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

    def gammas(self) -> list[SPoly]:
        return [c.gamma for c in self.corrections]

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


def _bucketize(squares: list[PTerm]) -> tuple[dict, list[PTerm]]:
    resonant: dict[tuple, SPoly] = {}
    bounded: list[PTerm] = []
    for t in squares:
        if t.coeff.is_zero():
            continue
        if t.is_resonant:
            key = t.bucket()
            resonant[key] = resonant.get(key, _ZERO) + t.coeff
        else:
            bounded.append(t)
    return {k: v for k, v in resonant.items() if not v.is_zero()}, bounded


def _peel_zero_outer(resonant: dict) -> tuple[dict, list[PTerm]]:
    """Rewrite resonant buckets with no outer derivative via the exact peel.

    int P (D^s d^m u)^2 with P a bare product is correctable only if P is a
    total derivative; the exact part becomes (A=1, inner) buckets, any
    non-exact residue is reported instead of silently dropped.
    """
    out: dict[tuple, SPoly] = {}
    residue: list[PTerm] = []
    by_m: dict[int, list[tuple[tuple[int, ...], SPoly]]] = {}
    for (a_out, inner, m), cp in sorted(resonant.items()):
        if a_out >= 1:
            out[(a_out, inner, m)] = out.get((a_out, inner, m), _ZERO) + cp
        else:
            by_m.setdefault(m, []).append((inner, cp))
    for m in sorted(by_m):
        deg = max(len(cp.coeffs) for _, cp in by_m[m])
        for d in range(deg):
            poly = DiffPoly(
                DiffMonomial(cp.coeffs[d], tuple(("u", q) for q in inner))
                for inner, cp in by_m[m]
                if d < len(cp.coeffs) and cp.coeffs[d] != 0
            )
            if poly.is_zero():
                continue
            anti, res = split_exact(poly)
            sd = SPoly((0,) * d + (1,))
            for monoterm in anti.monomials:
                t = pterm(sd * monoterm.coeff, 1, tuple(k for _, k in monoterm.factors), 0, m, m)
                key = t.bucket()
                out[key] = out.get(key, _ZERO) + t.coeff
            for monoterm in res.monomials:
                residue.append(pterm(sd * monoterm.coeff, 0, tuple(k for _, k in monoterm.factors), 0, m, m))
    return {k: v for k, v in out.items() if not v.is_zero()}, residue


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


def build_energy(l: int, max_stage: int | None = None) -> EnergyBlueprint:
    """Run the cancellation cascade through max_stage (default l+1).

    Stage k cancels the k-linear resonant terms; the spill of the final
    stage's corrections is reduced and must land entirely in bounded terms,
    otherwise it is reported in resonant_residue.  Stopping early leaves the
    unprocessed input in pending.
    """
    if l < 2:
        raise ValueError("model flow requires l >= 2")
    full = l + 1
    if max_stage is None:
        max_stage = full
    if not 3 <= max_stage <= full:
        raise ValueError(f"stage must be in 3..{full}")

    bp = EnergyBlueprint(l=l, max_stage=max_stage)
    qbounded, qresonant = quadratic_derivative(l)
    for item in qbounded:
        (bp.bounded_remainder if isinstance(item, PTerm) else bp.markers).append(item)
    squares = qresonant

    for stage in range(3, max_stage + 1):
        resonant, bounded = _bucketize(_merge(squares))
        bp.bounded_remainder.extend(bounded)
        resonant, residue = _peel_zero_outer(resonant)
        bp.resonant_residue.extend(residue)
        pairs = _solve_stage(l, stage, resonant, bp)
        squares = []
        for p in pairs:
            squares.extend(_reduce_pair(p))

    resonant, bounded = _bucketize(_merge(squares))
    bp.bounded_remainder.extend(bounded)
    if max_stage == full:
        # spill of the last stage must be non-resonant; report otherwise
        for key in sorted(resonant):
            a_out, inner, m = key
            bp.resonant_residue.append(PTerm(resonant[key], a_out, inner, 0, m, m))
    else:
        for key in sorted(resonant):
            a_out, inner, m = key
            bp.pending.append(PTerm(resonant[key], a_out, inner, 0, m, m))
    bp.bounded_remainder = _merge(bp.bounded_remainder)
    return bp


# ---------------------------------------------------------------------------
# numeric evaluation of the energy and its predicted derivative
# ---------------------------------------------------------------------------


def _check_threshold(l: int, s) -> None:
    thr = regularity_threshold(l)
    val = Fraction(s).limit_denominator(10**9) if isinstance(s, float) else Fraction(s)
    if val <= thr:
        raise ThresholdViolation(f"need s > {thr} for l = {l}, got {s}")


_PLANS_KEPT = 8  # plans cached per blueprint, keyed (E or dE/dt, s, band)


def _plan(bp: EnergyBlueprint, kind: str, items: tuple, s: float, band: int) -> _EnergyPlan:
    """bp's plan for items, built on first use and kept while bp lists the same items.

    Threads that miss together each build a plan and use their own; the cache
    keeps one of them.  It holds a few plans, so a scan over s stays small.
    """
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
    plan = _plan(bp, "E", tuple(bp.corrections), sf, fieldval.band_limit())
    return plan.total(fieldval, 0.5 * sobolev_norm(fieldval, sf) ** 2)


def energy_time_derivative(bp: EnergyBlueprint, s, fieldval: SpectralField) -> float:
    """Predicted d/dt E^s(u) along the flow, from the stored decomposition.

    For a complete blueprint this is an exact identity: the sum of all
    bounded terms, marker functionals, and any reported residue or pending
    input (included for honesty; empty when the construction succeeded).
    """
    _check_threshold(bp.l, s)
    items = tuple(bp.bounded_remainder + bp.markers + bp.resonant_residue + bp.pending)
    return _plan(bp, "dE", items, float(s), fieldval.band_limit()).total(fieldval, 0.0)
