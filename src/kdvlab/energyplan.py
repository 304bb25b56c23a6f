"""Compiled evaluation plans for the terms and markers of a modified energy.

modenergy builds an energy blueprint in exact arithmetic; this module turns a
list of its items into an _EnergyPlan for one Sobolev index s and one field
band, and evaluates every item on a field with a few batched transforms per
padded grid.  The item classes come from modenergy, which imports this
module, so they are imported where a plan is built.
"""

from __future__ import annotations

import numpy as np

from .spectral import TAU, SpectralField, _d_rows, _d_weights, _product_grid, _sobolev_weights
from .spoly import binom_s

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

    __slots__ = ("m", "rows", "n_factors", "orders", "factors", "cores", "a_outs", "blocks")

    def __init__(self, m: int, terms, index: list[int], s: float):
        from .modenergy import NormGapTerm, PTerm

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
        self.orders = tuple(orders)
        self.factors = [(sigma, *map(_ix, zip(*qs))) for sigma, qs in factors.items()]
        self.cores = None
        if cores:
            _, first, second, sigmas, taylor = zip(*reversed(cores.values()))
            # term j of every Taylor sum, the shorter sums padded with 0 * 1 * 1
            w, low, high = np.array([tj + [(0.0, 0, 0)] * (max(map(len, taylor)) - len(tj)) for tj in taylor]).T
            symbols = np.array([_d_weights(m, sigma) for sigma in sigmas])
            self.cores = (_ix(first), _ix(second), symbols, w[..., None], low.astype(np.intp), high.astype(np.intp))

        self.a_outs = tuple(sorted(set().union(*(outs for _, outs in groups.values()))))
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
            # factor j of every bundle, the shorter bundles padded with ones
            factor_rows = _ix([[groups[g][0][j] if j < len(g) else 0 for g in gs] for j in range(max(map(len, gs)))])
            layout = (len(gs), factor_rows, _ix([gs.index(g) for g in with_d]),
                      _ix([with_d.index(g) for g, _ in derivs]), _ix([self.a_outs.index(a) for _, a in derivs]))
            rows = [(i, urow[(g, a)], b, c) for i, g, a, b, c in members if g in gs]
            self.blocks.append((layout, _ix(list(zip(*rows)))))


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
    items' integrands.  Every irfft writes into the plan's rows through out=,
    from (rfft / m * symbol) * m for the tails and outer derivatives.  Of 64,
    128, 256 and 512 KiB blocks, 128 ran the energy workload fastest; 512 ran
    as slowly as 64 and raised the peak allocation of a call from 0.8 to 2.4
    MiB.  pocketfft transforms each row of a batch as it would the row alone,
    and a spectrum padded here gives irfft the input it pads itself, so every
    value keeps its bits.
    Immutable: threads may share one.
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
        d_modes = {None: modes}
        out = np.empty(len(self.items))
        for g in self.grids:
            m = g.m
            f = np.empty((g.rows, m))
            f[0] = 1.0
            take = min(modes.size, m // 2 + 1)
            rows = _d_rows(g.orders, take)
            # every factor's spectrum, zero-padded here: one irfft for all of them
            spectra = np.zeros((g.n_factors, m // 2 + 1), dtype=complex)
            for sigma, q, at in g.factors:
                if sigma == "gap" and sigma not in d_modes:
                    gap = _sobolev_weights(fieldval.n, self.s) - _d_weights(fieldval.n, 2.0 * self.s)
                    d_modes[sigma] = modes * gap
                elif sigma not in d_modes:
                    d_modes[sigma] = modes * _d_weights(fieldval.n, sigma)
                spectra[at, :take] = d_modes[sigma][:take] * rows[q] * m
            np.fft.irfft(spectra, n=m, out=f[1 : 1 + g.n_factors])
            del spectra  # as large as the factor rows: freed before the blocks run
            if g.cores:
                # each tail D^sigma(d^rho u d^high u) - sum_j w_j d^{rho+j}u D^sigma d^{high-j}u,
                # formed in place in the last rows of F
                first, second, symbols, w, low, high = g.cores
                tails = slice(-len(symbols), None)
                np.fft.irfft(np.fft.rfft(f[first] * f[second]) / m * symbols * m, n=m, out=f[tails])
                for j in range(len(w)):
                    f[tails] -= w[j] * f[low[j]] * f[high[j]]
            d_rows = _d_rows(g.a_outs, m // 2 + 1) if g.a_outs else None
            for (n, factor_rows, with_d, spectrum, a_out), (items, ia, ib, ic) in g.blocks:
                # the block's bundles: the plain products, then the outer derivatives;
                # each item's row of them becomes its integrand, and the rest is freed
                u = np.ones((n + len(a_out), m))
                for fr in factor_rows:
                    u[:n] *= f[fr]
                if len(a_out):
                    np.fft.irfft((np.fft.rfft(u[with_d]) / m)[spectrum] * d_rows[a_out] * m, n=m, out=u[n:])
                u = u[ia]
                u *= f[ib]
                u *= f[ic]
                out[items] = self.coefs[items] * u.mean(axis=1)
        return out.tolist()

    def total(self, fieldval: SpectralField, start: float) -> float:
        """start plus each value times its weight, added one by one in item
        order: the terms cancel to many digits."""
        total = start
        for w, value in zip(self.weights, self.apply(fieldval)):
            total += w * value
        return total
