"""Compiled evaluation plans for the terms and markers of a modified energy.

modenergy builds an energy blueprint in exact arithmetic; this module turns a
list of its items into an _EnergyPlan for one Sobolev index s and one field
band, and evaluates every item on a field with one shared set of padded-grid
transforms (spectral._samples).  The item classes come from modenergy, which
imports this module, so they are imported where a plan is built.
"""

from __future__ import annotations

import numpy as np

from .spectral import TAU, SpectralField, _d_rows, _d_weights, _product_grid, _samples
from .spoly import binom_s

# bytes of the rows one batched step works on: enough rows to amortise a
# transform call, few enough that one call's arrays stay under a megabyte
_BLOCK_BYTES = 1 << 16


def _ix(rows) -> np.ndarray:
    return np.array(rows, dtype=np.intp)


class _GridPlan:
    """The items of an _EnergyPlan on one grid m, as row indices.

    Rows of F: the factors d^q u (sigma None) and d^q D^sigma u, the norm-gap
    factor, a zero row and the tail cores.  Rows of U: the plain products of
    one block of bundle groups, then their outer derivatives.  An integrand
    is (A[ia] * F[ib]) * F[ic] with A = U, or F in the block without bundles.
    """

    __slots__ = ("m", "rows", "orders", "factors", "gap", "zero", "cores", "core_terms", "a_outs", "blocks")

    def __init__(self, m: int, terms, index: list[int], s: float):
        from .modenergy import NormGapTerm, PTerm

        self.m = m
        # triples: (item, bundle group, a_out, F rows of B and C), or
        # (item, None, F row of A, F rows of B and C) for an item without a bundle
        row, factors, cores, groups, triples = {}, {}, [], {}, []

        def fac(sigma, q: int) -> int:
            if (sigma, q) not in row:
                factors.setdefault(sigma, []).append((q, len(row)))
                row[(sigma, q)] = len(row)
            return row[(sigma, q)]

        for i in index:
            t = terms[i]
            if isinstance(t, NormGapTerm):
                triples.append((i, None, fac(None, 0), fac(None, 2 * t.l - 1), row.setdefault("gap", len(row))))
                continue
            sigma = s + t.off
            if isinstance(t, PTerm):
                b, c = fac(sigma, t.b), fac(sigma, t.c)
            else:
                core = (t.off, t.rho, t.m_high, t.i_max)
                if core not in row:
                    row[core] = len(row)
                    terms_j = [(float(binom_s(t.off, j)(s)), fac(None, t.rho + j), fac(sigma, t.m_high - j))
                               for j in range(t.i_max + 1)]
                    cores.append((row[core], fac(None, t.rho), fac(None, t.m_high), sigma, terms_j))
                b, c = row[core], fac(sigma, t.other_b)
            if t.a_out and not t.inner:  # an outer derivative of the constant 1
                triples.append((i, None, row.setdefault("zero", len(row)), b, c))
            else:
                factor_rows = [fac(None, q) for q in t.inner]
                groups.setdefault(t.inner, (factor_rows, set()))[1].update([t.a_out] if t.a_out else [])
                triples.append((i, t.inner, t.a_out, b, c))

        self.rows, self.gap, self.zero = len(row), row.get("gap"), row.get("zero")
        self.orders = tuple(sorted({q for qs in factors.values() for q, _ in qs}))
        self.factors = [(sigma, _ix([self.orders.index(q) for q, _ in qs]), _ix([r for _, r in qs]))
                        for sigma, qs in factors.items()]
        # tail cores by length, so the cores still subtracting are a prefix
        cores.sort(key=lambda core: -len(core[4]))
        at, first, second, sigmas, subtract = zip(*cores) if cores else ((),) * 5
        self.cores, self.core_terms = (_ix(at), _ix(first), _ix(second), sigmas), []
        for j in range(len(subtract[0]) if cores else 0):
            w, low, high = zip(*(terms_j[j] for terms_j in subtract if len(terms_j) > j))
            self.core_terms.append((len(w), np.array(w)[:, None], _ix([low, high])))

        # bundle groups by length, so the groups still multiplying are a prefix
        self.a_outs = tuple(sorted(set().union(*(outs for _, outs in groups.values()))))
        cap, packed = max(1, _BLOCK_BYTES // (8 * m)), []
        for g in sorted(groups, key=len, reverse=True):
            if not packed or sum(1 + len(groups[h][1]) for h in packed[-1] + [g]) > cap:
                packed.append([])
            packed[-1].append(g)
        blocks = [(None, [(i, a, b, c) for i, g, a, b, c in triples if g is None])]
        for gs in packed:
            derivs = [(g, a) for g in gs for a in sorted(groups[g][1])]
            with_d = [g for g in gs if groups[g][1]]
            urow = {(g, 0): r for r, g in enumerate(gs)}
            urow.update((d, len(gs) + r) for r, d in enumerate(derivs))
            live = tuple(sum(len(g) > j for g in gs) for j in range(len(gs[0])))
            factor_rows = _ix([[groups[g][0][j] if len(g) > j else 0 for g in gs] for j in range(len(live))])
            layout = (len(gs), live, factor_rows, _ix([gs.index(g) for g in with_d]),
                      _ix([[with_d.index(g) for g, _ in derivs], [self.a_outs.index(a) for _, a in derivs]]))
            blocks.append((layout, [(i, urow[(g, a)], b, c) for i, g, a, b, c in triples if g in gs]))
        self.blocks = [(layout, _ix(list(zip(*members)))) for layout, members in blocks if members]

    def tail_cores(self, f: np.ndarray) -> np.ndarray:
        """Each tail D^sigma(d^rho u d^high u) - sum_j w_j d^{rho+j}u D^sigma d^{high-j}u."""
        _, first, second, sigmas = self.cores
        k = np.arange(self.m // 2 + 1, dtype=float)
        spectra = np.fft.rfft(f[first] * f[second]) / self.m
        t = _samples(spectra, np.array([_d_weights(k, sigma) for sigma in sigmas]), self.m)
        for live, w, (low, high) in self.core_terms:
            t[:live] -= w * f[low] * f[high]
        return t

    def bundles(self, layout: tuple, f: np.ndarray, d_rows: np.ndarray) -> np.ndarray:
        """One block's bundles: the plain products, then the outer derivatives."""
        groups, live, factor_rows, with_d, (spectrum, a_out) = layout
        u = np.ones((groups + len(a_out), self.m))
        for j, n in enumerate(live):
            u[:n] *= f[factor_rows[j, :n]]
        if len(a_out):
            spectra = np.fft.rfft(u[with_d]) / self.m
            u[groups:] = _samples(spectra[spectrum], d_rows[a_out], self.m)
        return u


class _EnergyPlan:
    """Energy items compiled once for one Sobolev index s and one field band.

    Items are terms and markers, or Corrections: their terms, weighted by
    gamma(s) in total.  An item of degree d is integrated on the grid
    _product_grid(d, band), where the mean of its integrand's samples is
    exact.  The plan holds float(coeff(s)) * TAU per item, the tail weights
    and, per grid, row indices: nothing per field and nothing complex.  Per
    grid, apply transforms each distinct factor once (one irfft per sigma),
    forms each bundle's plain product once, takes a block's outer derivatives
    in one rfft and one irfft, computes each distinct tail core once and
    averages the integrands a block of rows at a time.  Each row of a batch
    goes through the operations of its item evaluated alone, in the same
    order, so every value keeps its bits.  Immutable: threads may share one.
    """

    __slots__ = ("items", "s", "weights", "coefs", "grids")

    def __init__(self, items: tuple, s: float, band: int):
        from .modenergy import Correction

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
        k = np.arange(modes.size, dtype=float)
        d_modes = {None: modes}
        out = np.empty(len(self.items))
        for g in self.grids:
            m = g.m
            f = np.empty((g.rows, m))
            rows = _d_rows(g.orders, min(modes.size, m // 2 + 1))
            for sigma, q, at in g.factors:
                if sigma not in d_modes:
                    d_modes[sigma] = modes * _d_weights(k, sigma)
                f[at] = _samples(d_modes[sigma], rows[q], m)
            if g.gap is not None:
                f[g.gap] = _samples(modes, ((1.0 + k * k) ** self.s - k ** (2.0 * self.s))[None], m)[0]
            if g.zero is not None:
                f[g.zero] = 0.0
            if len(g.cores[0]):
                f[g.cores[0]] = g.tail_cores(f)
            d_rows = _d_rows(g.a_outs, m // 2 + 1) if g.a_outs else None
            for layout, (items, ia, ib, ic) in g.blocks:
                x = (g.bundles(layout, f, d_rows) if layout else f)[ia]
                x *= f[ib]
                x *= f[ic]
                out[items] = self.coefs[items] * x.mean(axis=1)
        return out.tolist()

    def total(self, fieldval: SpectralField, start: float) -> float:
        """start plus each value times its weight, added one by one in item
        order: the terms cancel to many digits."""
        total = start
        for w, value in zip(self.weights, self.apply(fieldval)):
            total += w * value
        return total
