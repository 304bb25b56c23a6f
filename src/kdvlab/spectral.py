"""Pseudospectral calculus and exponential integrators on the 2pi torus.

Fields are real, sampled on x_m = 2pi m/N, and carried as the rfft half
spectrum normalized so that modes[k] = (1/2pi) int f(x) e^{-ikx} dx. With
this convention spectral sums match integrals: int fg = 2pi sum_k f_k
conj(g_k) over the full (mirrored) range, and norms computed from modes
agree bit-for-bit with quadrature of the corresponding integrands.

Nonlinear terms are evaluated by zero-padded products (alias-free), then
truncated to a configurable fraction of the Nyquist band. Time stepping
uses exponential integrators so the stiff linear symbol, up to k^{2l+1}
dispersion plus k^{2l+2} dissipation, is integrated exactly.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field as dc_field, replace
from types import MappingProxyType
from typing import Callable, Sequence

import numpy as np

from .diffpoly import DiffPoly, IntegralExpr, mono
from . import hierarchy

__all__ = [
    "BlowUp",
    "Diagnostics",
    "FlowSpec",
    "SolverConfig",
    "SpectralField",
    "cosine_field",
    "eval_diffpoly",
    "functional_eval",
    "hierarchy_flow",
    "model_flow",
    "mollify",
    "random_decay_field",
    "regularized_flow",
    "scale_field",
    "sobolev_norm",
    "solve",
    "solve_batch",
]

TAU = 2.0 * math.pi

# np.errstate settings where the code tests for overflow itself, so that each
# overflow is reported once, by that test, and not also by NumPy
_QUIET = {"over": "ignore", "invalid": "ignore"}

# the largest grid size N: one ETD4 step of model_flow(2) takes 0.47 ms at N = 2048, 2.9 ms
# at 16384, 7.5 ms at 32768 and 13 ms at 65536 (2-core Xeon, NumPy 2.4.6), and the largest
# grid of a default, tier-1, CI or perfbench run is 2048 (exp bona-smith)
MAX_GRID = 2**14


def _zero_modes(n: int) -> np.ndarray:
    """The zero half-spectrum of an n-point field; n above MAX_GRID is refused before it is allocated."""
    if n > MAX_GRID:
        raise ValueError(f"the grid size {n} is above the bound {MAX_GRID}")
    return np.zeros(n // 2 + 1, dtype=np.complex128)


def _band(modes: np.ndarray) -> int:
    """A half-spectrum's band: its last mode that is != 0 (np.nonzero's test, so a NaN counts), or 0."""
    nz = np.nonzero(modes)[0]
    return int(nz[-1]) if nz.size else 0


class BlowUp(RuntimeError):
    """A mode, or a recorded norm or Hamiltonian, became non-finite: instability
    or genuine blow-up."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class SpectralField:
    """Real periodic field; immutable; modes in rfft layout, Nyquist zeroed."""

    __slots__ = ("n", "modes")

    def __init__(self, n: int, modes: np.ndarray):
        if n < 4 or n % 2:
            raise ValueError("grid size must be even and >= 4")
        if modes.shape != (n // 2 + 1,):
            raise ValueError("mode array does not match grid size")
        m = np.array(modes, dtype=np.complex128)
        m[0] = m[0].real
        m[-1] = 0.0
        m.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "modes", m)

    def __setattr__(self, *_):
        raise AttributeError("SpectralField is immutable")

    @classmethod
    def zero(cls, n: int) -> "SpectralField":
        return cls(n, _zero_modes(n))

    def values(self) -> np.ndarray:
        return np.fft.irfft(self.modes * self.n, n=self.n)

    def wavenumbers(self) -> np.ndarray:
        return np.arange(self.n // 2 + 1, dtype=np.float64)

    def band_limit(self) -> int:
        return _band(self.modes)

    def with_modes(self, modes: np.ndarray) -> "SpectralField":
        return SpectralField(self.n, modes)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        if self.n != other.n:
            raise ValueError("grid mismatch")
        return SpectralField(self.n, self.modes + other.modes)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        if self.n != other.n:
            raise ValueError("grid mismatch")
        return SpectralField(self.n, self.modes - other.modes)

    def __mul__(self, c) -> "SpectralField":
        return SpectralField(self.n, self.modes * float(c))

    __rmul__ = __mul__


# (1 + k^2)^s for k = 0..n/2, read-only; a non-finite table raises, the one finiteness test of s.
# Bounded: a solve's records, an energy plan's norm gap and _raw_rate use one key per (n, s)
@functools.lru_cache(maxsize=64)
def _sobolev_weights(n: int, s: float) -> np.ndarray:
    if n > MAX_GRID:
        raise ValueError(f"the grid size {n} is above the bound {MAX_GRID}")
    with np.errstate(over="ignore"):
        w = (1.0 + np.arange(n // 2 + 1, dtype=np.float64) ** 2) ** s
    if not np.isfinite(w).all():
        problem = "is not a number" if math.isnan(s) else f"overflows (1 + k^2)^s on a grid of {n} points"
        raise ValueError(f"s = {s:g} {problem}")
    w.setflags(write=False)
    return w


def sobolev_norm(f: SpectralField, s: float = 0.0) -> float:
    return float(_sobolev_norms(f.modes, s))


def _sobolev_norms(modes: np.ndarray, s: float) -> np.ndarray:
    """The H^s norm of the field of a half-spectrum (rfft layout), or of each row of a stack."""
    w = _sobolev_weights(2 * modes.shape[-1] - 2, float(s))
    a2 = np.abs(modes) ** 2
    return np.sqrt(TAU * (w[0] * a2[..., 0] + 2.0 * np.add.reduce(w[1:] * a2[..., 1:], axis=-1)))


# (ik)^q for k = 0..W-1 by order q, read-only, W the widest take asked so far:
# mode k's value does not depend on W, so a narrower ask is a bit-identical prefix
_D_ROWS: dict[int, np.ndarray] = {}
_D_ROWS_LOCK = threading.Lock()


def _d_rows(orders: tuple[int, ...], take: int) -> np.ndarray:
    """(ik)^q for k = 0..take-1, one row per order q, in a new array; a non-finite row raises."""
    rows = []
    for q in orders:
        if len(row := _D_ROWS.get(q, ())) < take:
            with np.errstate(**_QUIET):
                row = (1j * np.arange(take, dtype=np.float64)) ** q  # an int q: NumPy's fast paths for q <= 2
            if not np.isfinite(row).all():
                raise ValueError(f"q = {q} overflows (ik)^q for k < {take}")
            row.setflags(write=False)
            with _D_ROWS_LOCK:  # widened, never narrowed; this call keeps the row it built
                _D_ROWS[q] = max(_D_ROWS.get(q, row), row, key=len)
        rows.append(row[:take])
    return np.array(rows)


def _kept_band(n: int, dealias: float) -> int:
    """The top mode K = dealias*n/2 of the band that an n-point plan or stepper keeps."""
    if not (0.0 < dealias <= 1.0):
        raise ValueError("dealias fraction must lie in (0, 1]")
    # the Nyquist mode of a field is zero, so the kept band stops below it
    return min(int(dealias * (n // 2)), n // 2 - 1)


def _product_grid(degree: int, band: int) -> int:
    # mean of a degree-d product of band-K fields is exact once m > d*K
    m = degree * band + 2
    return m + (m % 2)


# |k|^sigma for k = 0..n/2, read-only; a non-finite table raises, the one finiteness test of sigma.
# Bounded: one key per (n, sigma) of an energy plan's factors on a field and per (m, sigma) of its tail
# cores on a grid m; the energy benchmark's calls fill 56 keys (108,720 bytes), 36 of them tail grids (82,960)
@functools.lru_cache(maxsize=256)
def _d_weights(n: int, sigma: float) -> np.ndarray:
    """|k|^sigma for k = 0..n/2, the k=0 value 0 for sigma != 0 (projection convention)."""
    k = np.arange(n // 2 + 1, dtype=np.float64)
    w = np.ones_like(k) if sigma == 0.0 else np.zeros_like(k)
    with np.errstate(**_QUIET):
        np.power(k, sigma, out=w, where=k > 0)
    if not np.isfinite(w).all():
        problem = "is not a number" if math.isnan(sigma) else f"overflows |k|^sigma on a grid of {n} points"
        raise ValueError(f"sigma = {sigma:g} {problem}")
    w.setflags(write=False)
    return w


# bounded: one key per plan and per (degree, band) of a quadrature; a solve's records reuse a handful
@functools.lru_cache(maxsize=256)
def _fast_size(m: int) -> int:
    """Smallest even 2^a 3^b 5^c >= m: a padded grid with a cheap FFT."""
    best = 2 * m
    p5 = 1
    while p5 < m:
        p = p5
        while p < m:
            # the smallest 2p * 2^a >= m
            best = min(best, 2 * p << ((m - 1) // (2 * p)).bit_length())
            p *= 3
        p5 *= 5
    return best


def _quadrature_grid(degree: int, band: int) -> int:
    """The grid on which _integrals takes the mean of a degree-d integrand of band K."""
    return _fast_size(_product_grid(degree, band))


class _Monomials:
    """A single-symbol polynomial as its distinct derivative orders.

    const is the factor-free part; orders are the sorted distinct orders q of
    the factors d^q u; terms holds (coefficient, indices into orders) per
    monomial, one index per factor.  Nothing changes after construction.
    """

    __slots__ = ("const", "orders", "terms", "degree")

    def __init__(self, p: DiffPoly):
        if len(p.symbols()) > 1:
            raise ValueError("numeric evaluation needs a single-symbol polynomial")
        const, mons = 0.0, []
        for monomial in p.monomials:
            if monomial.factors:
                mons.append((float(monomial.coeff), [k for _, k in monomial.factors]))
            else:
                const += float(monomial.coeff)
        self.const = const
        self.orders = tuple(sorted({q for _, qs in mons for q in qs}))
        index = {q: i for i, q in enumerate(self.orders)}
        self.terms = tuple((c, tuple(index[q] for q in qs)) for c, qs in mons)
        self.degree = max((len(qs) for _, qs in mons), default=0)

    def products(self, vals: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
        """sum_c c prod d^q u from the samples vals, one entry per order q.

        out, a pair of arrays shaped as one order's samples, takes the sum in out[0]
        and each later term's product in out[1]; without it both are new arrays.
        """
        first, later = (None, None) if out is None else out
        total = None
        for c, idx in self.terms:
            # 1.0 * v is v bit for bit, so a unit coefficient costs no pass
            unit = c == 1.0 and len(idx) > 1
            dest = first if total is None else later
            prod = np.multiply(vals[idx[0]], vals[idx[1]], dest) if unit else np.multiply(c, vals[idx[0]], dest)
            for i in idx[2 if unit else 1 :]:
                prod *= vals[i]
            total = prod if total is None else np.add(total, prod, out=total)
        return total


class _PolyPlan:
    """A nonlinearity compiled for one grid size n and dealias fraction.

    The input is truncated to the band |k| <= K = dealias*n/2; each distinct
    derivative order is transformed once onto one padded grid m, and the
    summed products come back through one rfft as the band itself, modes
    0..take.  Both transforms take norm="forward": pocketfft applies the 1/m,
    with no array pass of its own (bit for bit the m-scaled samples and
    1/m-scaled spectrum when m is a power of two, roundoff apart otherwise).
    A stack of bands, shape (B, take+1), is one batch: its samples are laid
    out (order, batch, m) and every row keeps the bits it has alone.
    A degree-d product reaches mode d*K, which folds onto m - d*K: m > (d+1)*K
    keeps every fold out of the band (the 2/3 rule at d = 2).  m is rounded
    up to a cheap FFT size and is never below n.  The plan is immutable and
    threads may share one; bind makes evaluators bound to buffers of their own.
    """

    __slots__ = ("take", "m", "poly", "rows")

    def __init__(self, p: DiffPoly, n: int, dealias: float):
        self.take = _kept_band(n, dealias)
        self.poly = _Monomials(p)
        self.m = max(_fast_size((self.poly.degree + 1) * self.take + 1), n)
        self.rows = _d_rows(self.poly.orders, self.take + 1)

    def bind(self, batch, count=1):
        """count evaluators of modes 0..take of p(u), u a band of shape (*batch, take+1).

        Each returns a view of its own spectrum, valid until its next call; all
        share one sampler and one pair of product buffers, which each call uses up.
        """
        poly = self.poly
        spectra = np.zeros((count, *batch, self.m // 2 + 1), np.complex128)
        # a polynomial without factors is its constant, set here once (an rfft overwrites it)
        spectra[..., 0] = poly.const
        sample = poly.terms and _sampler(self.rows, batch, self.m)
        total, term = np.empty((2, *batch, self.m))

        def bound(spectrum, band):
            def evaluate(u):
                if sample:
                    np.fft.rfft(poly.products(sample(u), (total, term)), norm="forward", out=spectrum)
                    if poly.const:
                        band[..., 0] += poly.const
                return band

            return evaluate

        return [bound(s, s[..., : self.take + 1]) for s in spectra]

    def apply(self, modes: np.ndarray) -> np.ndarray:
        """Modes 0..take of p(u) for u's rfft-layout modes (or a stack), in new arrays."""
        return self.bind(modes.shape[:-1])[0](modes[..., : self.take + 1])


def eval_diffpoly(p: DiffPoly, f: SpectralField, dealias: float = 2.0 / 3.0) -> SpectralField:
    """Evaluate a single-symbol differential polynomial pointwise.

    The input is first truncated to |k| <= dealias*N/2, the products are
    formed on a zero-padded grid large enough to be alias-free, and the
    result is truncated back to the same band (see _PolyPlan).
    """
    return SpectralField(f.n, _padded(_PolyPlan(p, f.n, dealias).apply(f.modes), f.n))


def _sampler(d_rows, batch, m):
    """The one forward sampling transform, bound to buffers for bands of shape (*batch, take).

    It maps modes 0..take-1 of u to d^q u on the m-grid, one order per row
    (ik)^q of d_rows, as views of samples that its next call overwrites.
    """
    # the input is zero above the rows, so the irfft pads nothing: NumPy pads
    # a batch more slowly than it transforms a padded one
    padded = np.zeros((len(d_rows), *batch, m // 2 + 1), np.complex128)
    samples = np.empty((len(d_rows), *batch, m))
    head, rows, views = padded[..., : d_rows.shape[-1]], d_rows[:, None] if batch else d_rows, tuple(samples)

    def sample(band):
        np.multiply(band, rows, head)
        np.fft.irfft(padded, n=m, norm="forward", out=samples)
        return views

    return sample


def _padded(band: np.ndarray, n: int) -> np.ndarray:
    """The n-grid half-spectrum of a band of modes 0..K-1 (or of each row of a stack), zero above."""
    out = np.zeros(band.shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
    out[..., : band.shape[-1]] = band
    return out


def _integrals(poly: _Monomials, rows: np.ndarray, band: int) -> np.ndarray:
    """int poly(u, u_x, ...) dx for u of band K from its modes 0..K (or more), or for each row of a stack.

    A degree-d product reaches mode d*K < m, so none but mode 0 folds onto 0
    and its mean on a cheap FFT grid m is exact: one _sampler transform, one
    sum along the contiguous last axis.  pocketfft transforms each row of
    a batch as it would that row alone, and a row-wise sum is the row's own
    pairwise sum, so a row's value does not depend on the stack.
    """
    if not poly.terms:
        return np.full(rows.shape[:-1], TAU * poly.const)
    m = _quadrature_grid(poly.degree, band)
    # a linear integrand's grid may stop below its band; only its mean counts
    take = min(band, m // 2) + 1
    vals = _sampler(_d_rows(poly.orders, take), rows.shape[:-1], m)(rows[..., :take])
    return TAU * (poly.const + np.add.reduce(poly.products(vals), axis=-1) / m)


def functional_eval(e: IntegralExpr | DiffPoly, f: SpectralField) -> float:
    """int p(u, u_x, ...) dx by exact spectral quadrature on f's band (see _integrals)."""
    poly = _Monomials(e.integrand if isinstance(e, IntegralExpr) else e)
    return float(_integrals(poly, f.modes, f.band_limit()))


# a huge but finite state overflows here first: one BlowUp, no warning
@np.errstate(**_QUIET)
def _record_values(rows: np.ndarray, polys: Sequence[_Monomials]) -> np.ndarray:
    """[sobolev_norm(f, 0), functional_eval(p, f) for p in polys] for the field f of each row.

    rows is a stack of half-spectra; the imaginary part of its mode 0 is
    dropped in place, as SpectralField does.  Rows are grouped by band, so
    each group is one transform per integrand.
    """
    rows[:, 0] = rows[:, 0].real
    out = np.empty((len(rows), 1 + len(polys)))
    out[:, 0] = _sobolev_norms(rows, 0.0)
    groups: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault(_band(row), []).append(i)
    for top, idx in groups.items():
        group, idx = (rows, slice(None)) if len(groups) == 1 else (rows[idx], idx)
        for j, poly in enumerate(polys, 1):
            out[idx, j] = _integrals(poly, group, top)
    return out


def mollify(f: SpectralField, eps: float, m: int = 3) -> SpectralField:
    """Smoothing by a Fourier window exp(-(eps k)^{2m}).

    The window equals 1 at k=0 with 2m-1 vanishing derivatives, so the
    kernel has unit mass and 2m-1 vanishing moments; m is chosen so that
    2m-1 exceeds the Sobolev indices exercised in the rate studies.
    """
    if eps <= 0 or not m >= 1:  # "not >=" refuses a NaN order too
        raise ValueError("need eps > 0 and m >= 1")
    if not math.isfinite(eps):
        raise ValueError(f"eps = {eps:g} is not finite")
    k = f.wavenumbers()
    return f.with_modes(f.modes * np.exp(-((eps * k) ** (2 * m))))


def scale_field(f: SpectralField, lam: int) -> SpectralField:
    """u(x) -> lam^2 u(lam x); mode k of the output is lam^2 * mode(k/lam).

    Spatial half of the two-parameter symmetry; the matched time for flow
    level l is t/lam^{2l+1}, applied by the caller. Integer lam keeps the
    result 2pi-periodic; the grid is refined by the same factor so no band
    is lost.
    """
    if lam < 1 or int(lam) != lam:
        raise ValueError("scaling factor must be a positive integer")
    lam = int(lam)
    n2 = f.n * lam
    out = _zero_modes(n2)
    out[:: lam][: f.n // 2 + 1] = lam * lam * f.modes
    return SpectralField(n2, out)


def cosine_field(n: int, wavenumber: int = 1, amplitude: float = 1.0) -> SpectralField:
    """amplitude * cos(wavenumber x), constructed exactly in mode space."""
    if not 1 <= wavenumber < n // 2:
        raise ValueError("wavenumber must lie in [1, N/2)")
    modes = _zero_modes(n)
    modes[wavenumber] = amplitude / 2.0
    return SpectralField(n, modes)


def random_decay_field(
    n: int,
    decay: float,
    seed: int,
    amplitude: float = 1.0,
    kmax: int | None = None,
) -> SpectralField:
    """Random-phase field with |mode k| = amplitude * k^(-decay), 1 <= k <= kmax."""
    rng = np.random.default_rng(seed)
    half = n // 2
    if kmax is None:
        kmax = half - 1
    if not 1 <= kmax <= half - 1:
        raise ValueError("kmax must lie in [1, N/2 - 1]")
    modes = _zero_modes(n)
    k = np.arange(1, kmax + 1, dtype=np.float64)
    phases = rng.uniform(0.0, TAU, size=kmax)
    with np.errstate(**_QUIET):
        modes[1 : kmax + 1] = amplitude * k ** (-decay) * np.exp(1j * phases)
    if not np.isfinite(modes).all():
        problem = "is not a number" if math.isnan(amplitude) or math.isnan(decay) else f"overflows on modes 1..{kmax}"
        raise ValueError(f"amplitude {amplitude:g} * k^{-decay:g} {problem}")
    return SpectralField(n, modes)


# ---------------------------------------------------------------------------
# flows


@dataclass(frozen=True)
class FlowSpec:
    """u_t = (dispersion (ik)^{2l+1} - damping k^{2l+2}) u + nonlinear(u), DiffPoly() for a
    linear flow; dispersion is +1 for the hierarchy and -1 for the model flow, damping mu >= 0."""

    name: str
    nonlinear: DiffPoly
    l: int
    dispersion: int
    damping: float = 0.0

    def linear_on(self, n: int) -> np.ndarray:
        k = np.arange(n // 2 + 1, dtype=np.float64)
        with np.errstate(**_QUIET):
            sym = (1j * k) ** (2 * self.l + 1)
            # i^odd k^odd is imaginary: NumPy's polar path (exponents >= 100) leaves a real part
            sym.real = np.copysign(0.0, sym.real)
            if self.dispersion < 0:
                sym = -sym  # not -1 * sym, which flips the sign of the k = 0 zero
            sym = sym - self.damping * k ** (2 * self.l + 2)
        sym[-1] = 0.0
        if not np.isfinite(sym).all():
            raise ValueError(f"{self.name} flow's symbol (l = {self.l}, mu = {self.damping:g}) overflows on N = {n}")
        return sym


def model_flow(l: int) -> FlowSpec:
    """u_t + d^{2l+1} u = u d^{2l-1} u."""
    if l < 2:
        raise ValueError("the model flow needs l >= 2")
    return FlowSpec("model", mono(1, [("u", 0), ("u", 2 * l - 1)]), l, -1)


def regularized_flow(l: int, mu: float) -> FlowSpec:
    """Model flow plus parabolic damping, Fourier symbol -mu k^{2l+2}."""
    flow = model_flow(l)
    if not (math.isfinite(mu) and mu >= 0):
        raise ValueError(f"mu must be finite and >= 0, got {mu}")
    return replace(flow, name="regularized", damping=mu)


def hierarchy_flow(l: int) -> FlowSpec:
    """u_t = d/dx G_l(u); linear symbol +(ik)^{2l+1}, the rest pointwise."""
    if l < 1:
        raise ValueError("hierarchy flows need l >= 1")
    return FlowSpec("hierarchy", hierarchy.level(l).rhs - mono(1, [("u", 2 * l + 1)]), l, 1)


def rhs_field(flow: FlowSpec, f: SpectralField, dealias: float = 1.0) -> SpectralField:
    """Full right-hand side of the flow at a state, alias-free products."""
    return SpectralField(f.n, f.modes * flow.linear_on(f.n) + eval_diffpoly(flow.nonlinear, f, dealias).modes)


# ---------------------------------------------------------------------------
# exponential time stepping


def _phi(j: int, z: np.ndarray) -> np.ndarray:
    """phi_j(z) = sum_{n>=0} z^n/(n+j)!, j = 1, 2, 3; Taylor near 0, closed form away,
    and phi_j = (phi_{j-1} - 1/(j-1)!)/z where z^j overflows."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty_like(z)
    small = np.abs(z) <= 1.0
    zs = z[small]
    acc = np.zeros_like(zs)
    # 30 terms: remainder below double precision on |z| <= 1
    for n in range(29, -1, -1):
        acc = acc * zs + 1.0 / math.factorial(n + j)
    out[small] = acc
    zb = z[~small]
    with np.errstate(**_QUIET):
        ez, zj = np.exp(zb), zb**j
        val = (ez - 1.0, ez - 1.0 - zb, ez - 1.0 - zb - zb**2 / 2.0)[j - 1] / zj
        # there the closed form reads 0 or is not finite; every other entry keeps its bits
        bad = ~np.isfinite(zj)
        if j > 1 and bad.any():
            val[bad] = (_phi(j - 1, zb[bad]) - 1.0 / (j - 1)) / zb[bad]  # (j-1)! = j-1 for j <= 3
    out[~small] = val
    return out


# The coefficient tables of a _Stepper, by name, on modes 0..take; read-only.  The key is
# each flow's linear part (its name, l, dispersion and damping, and the damping's sign),
# the grid and the scheme, and the symbols come first: one that overflows is refused
# before a table is built.  Bounded: the stepping benchmark's pass uses 9 keys (72 KiB);
# at MAX_GRID a flow's ETD4 tables take 0.5 MiB
@functools.lru_cache(maxsize=16)
def _etd_tables(linear: tuple[tuple[FlowSpec, float], ...], n: int, take: int, dt: float, order: int) -> MappingProxyType:
    lin = np.array([flow.linear_on(n) for flow, _ in linear])
    z = dt * (lin[0] if len(linear) == 1 else lin)[..., : take + 1]
    tables = {"e_full": np.exp(z)}
    if order == 2:
        tables.update(h_phi1=dt * _phi(1, z), h_phi2=dt * _phi(2, z))
    else:
        p1, p2, p3 = _phi(1, z), _phi(2, z), _phi(3, z)
        tables.update(
            e_half=np.exp(z / 2.0), h_phi1_half=(dt / 2.0) * _phi(1, z / 2.0),
            w1=p1 - 3.0 * p2 + 4.0 * p3, w2=2.0 * p2 - 4.0 * p3, w3=-p2 + 4.0 * p3,
        )
    for table in tables.values():
        table.setflags(write=False)
    return MappingProxyType(tables)


class _Stepper:
    """Precomputed exponential one-step scheme for flows sharing a nonlinearity.

    The state is the kept band, modes 0..take of the nonlinearity's plan, so
    nothing above it is stored or stepped.  One flow's state is 1-D; a stack
    of B flows is (B, take+1), each row with its own linear symbol.  The step
    sizes are folded into the phi coefficients in the order the scheme
    multiplies them, so the bits are those of h * phi * N.  The tables are
    shared by every stepper of the same flows, grid and scheme (_etd_tables).

    A stepper serves one thread: each stage's RHS comes from its own evaluator
    (_PolyPlan.bind), and the stages eu, a, b, c are formed in place in one
    (4, *shape) array by the written scheme's operations, in its order.  Only
    the returned state is new, since pending records keep it.
    """

    def __init__(self, flows: Sequence[FlowSpec], n: int, dt: float, dealias: float, order: int):
        self.dt, self.order, self.take = dt, order, _kept_band(n, dealias)
        # the tables first: an overflowing symbol is refused before the plan's tables warn
        # a damping of -0.0 equals 0.0 but turns the sign of e^z's zero imaginary part at k = 0
        linear = tuple((replace(flow, nonlinear=DiffPoly()), math.copysign(1.0, flow.damping)) for flow in flows)
        vars(self).update(_etd_tables(linear, n, self.take, dt, order))
        plan = _PolyPlan(flows[0].nonlinear, n, dealias)
        self._rhs = plan.bind(self.e_full.shape[:-1], order)
        self._stages = tuple(np.empty((4, *self.e_full.shape), np.complex128))

    def advance(self, u: np.ndarray, t: float) -> np.ndarray:
        # each ufunc writes into its third argument
        h, rhs, mul, add = self.dt, self._rhs, np.multiply, np.add
        eu, a, b, c = self._stages
        nu = rhs[0](u)
        if self.order == 2:
            add(mul(self.e_full, u, eu), mul(self.h_phi1, nu, a), a)
            na = rhs[1](a)
            new = np.subtract(na, nu)
            add(a, mul(self.h_phi2, new, new), new)
        else:
            add(mul(self.e_half, u, eu), mul(self.h_phi1_half, nu, a), a)
            na = rhs[1](a)
            add(eu, mul(self.h_phi1_half, na, b), b)
            nb = rhs[2](b)
            # c = e_half a + h_phi1_half (2 nb - nu), with e_half a formed in eu
            mul(self.h_phi1_half, np.subtract(mul(2.0, nb, c), nu, c), c)
            add(mul(self.e_half, a, eu), c, c)
            nc = rhs[3](c)
            # e_full u + h (w1 nu + w2 (na + nb) + w3 nc), the products formed in a and b
            new = mul(self.w1, nu)
            add(new, mul(self.w2, add(na, nb, a), a), new)
            add(new, mul(self.w3, nc, b), new)
            add(mul(self.e_full, u, a), mul(h, new, new), new)
        if not np.isfinite(new).all():
            raise BlowUp(f"non-finite mode at t = {t + h:.6g}", t + h)
        return new


# the most steps t_final / dt that a SolverConfig admits: an ETD4 step takes 90 us
# at N = 16, 120 us at kdvlab solve's defaults (model2, N = 256, H0..H2 every step)
# and 430 us for hier3 at N = 1024 (2-core Xeon, NumPy 2.4.6), so a march this
# long runs for 1.5 to 7 minutes
MAX_STEPS = 10**6


@dataclass(frozen=True)
class SolverConfig:
    n: int = 256
    dt: float = 1e-3
    t_final: float = 1.0
    dealias: float = 2.0 / 3.0
    order: int = 4
    diagnostics_every: int = 1
    hamiltonians: tuple[int, ...] = (0, 1, 2)

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"need a finite dt > 0, got {self.dt}")
        if not (math.isfinite(self.t_final) and self.t_final >= 0):
            raise ValueError(f"need a finite t_final >= 0, got {self.t_final}")
        if not math.isfinite(self.t_final / self.dt):
            raise ValueError(f"the step count t_final / dt = {self.t_final} / {self.dt} overflows")
        if self.t_final / self.dt > MAX_STEPS:
            raise ValueError(f"the step count t_final / dt = {self.t_final} / {self.dt} is above the bound {MAX_STEPS}")
        if abs(self.steps * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise ValueError("t_final must be an integer number of steps")
        if self.steps == 0:
            raise ValueError(f"t_final = {self.t_final:g} takes no step of dt = {self.dt:g}, which measures nothing")
        if self.order not in (2, 4):
            raise ValueError(f"integrator order must be 2 or 4, got {self.order}")
        if self.diagnostics_every < 1:
            raise ValueError(f"diagnostics_every must be >= 1, got {self.diagnostics_every}")
        if not 16 <= self.n <= MAX_GRID or self.n % 2:
            raise ValueError(f"the grid size must be even and in [16, {MAX_GRID}], got {self.n}")
        _kept_band(self.n, self.dealias)
        if not all(type(m) is int and m >= 0 for m in self.hamiltonians):
            raise ValueError(f"hamiltonians must be non-negative ints, got {self.hamiltonians!r}")

    @property
    def steps(self) -> int:
        """The step count t_final / dt, an integer by construction."""
        return round(self.t_final / self.dt)


@dataclass
class Diagnostics:
    times: list[float] = dc_field(default_factory=list)
    l2: list[float] = dc_field(default_factory=list)
    hams: dict[int, list[float]] = dc_field(default_factory=dict)


def solve(
    u0: SpectralField,
    flow: FlowSpec,
    cfg: SolverConfig,
    observe: Callable[[SpectralField], object] | None = None,
) -> tuple[SpectralField, Diagnostics]:
    """March to t_final recording the L^2 norm and Hamiltonian values.

    A state is recorded at t = 0, every diagnostics_every steps and at
    t_final; observe, if given, is called once with each recorded state,
    after its norm and Hamiltonians are stored.
    """
    watch = None if observe is None else (lambda states: observe(states[0]))
    return solve_batch(u0, [flow], cfg, watch)[0]


# bytes of the widest array that one chunk of recorded states fills (see
# solve_batch).  _record_values over the 151 states of hierarchy_flow(1),
# N = 256, with H0..H2 (1440 floats a state; medians of 11): 4-16 KiB (one
# state a chunk) 21-25 ms, 32 KiB 16 ms, 64 KiB 8.7 ms, 128 KiB 5.9 ms,
# 256 KiB 5.1 ms, 1 MiB 6.1 ms.  At 128 and 256 KiB the peak resident set of
# a stepping benchmark run at equal work read about 0.1 MiB higher than at
# 64 KiB (4 runs each); the chunk's arrays stay near the march's own.
_RECORD_BYTES = 1 << 16


def solve_batch(
    u0: SpectralField,
    flows: Sequence[FlowSpec],
    cfg: SolverConfig,
    observe: Callable[[list[SpectralField]], object] | None = None,
) -> list[tuple[SpectralField, Diagnostics]]:
    """March every flow from u0 as one stacked solve; one (state, diag) per flow.

    The flows must share their nonlinearity (they may differ in the linear
    symbol, as a ladder of regularized flows does); each RHS evaluation then
    transforms the whole stack at once.  Every member's final state,
    diagnostics and recorded states are bit-identical to solve(u0, flow, cfg)
    alone.  observe, if given, is called once per recorded time with the list
    of member states, after their norms and Hamiltonians are stored.  A
    non-finite mode, norm or Hamiltonian in any member raises BlowUp.

    Recorded states wait in a chunk of about _RECORD_BYTES and are evaluated
    together (_record_values), then stored and observed in time order.  A
    BlowUp from the stepper first evaluates the pending states, so an earlier
    non-finite norm or Hamiltonian is the one reported, and every state
    before it is observed.
    """
    flows = list(flows)
    if cfg.n != u0.n:
        raise ValueError(f"the config's grid n = {cfg.n} differs from u0's {u0.n} points")
    if not flows:
        raise ValueError("solve_batch needs at least one flow")
    if any(flow.nonlinear != flows[0].nonlinear for flow in flows):
        raise ValueError("the flows of a batch must share one nonlinearity")
    stepper = _Stepper(flows, u0.n, cfg.dt, cfg.dealias, cfg.order)
    hams = {m: _Monomials(hierarchy.level(m).hamiltonian.integrand) for m in cfg.hamiltonians}
    diags = [Diagnostics(hams={m: [] for m in cfg.hamiltonians}) for _ in flows]
    # floats of the widest array one recorded state fills: its complex half-spectrum
    # or a Hamiltonian's samples on the march's band
    widest = max([u0.n + 2] + [len(p.orders) * _quadrature_grid(p.degree, stepper.take) for p in hams.values()])
    per = max(1, _RECORD_BYTES // (8 * len(flows) * widest))
    pending: list[tuple[float, np.ndarray]] = []

    def flush():
        if not pending:
            return
        ts, bands = zip(*pending)
        pending.clear()
        # each state's half-spectrum, zero above the band: the norms sum over all of it
        rows = _padded(np.reshape(bands, (len(ts) * len(flows), -1)), u0.n)
        values = _record_values(rows, list(hams.values())).reshape(len(ts), len(flows), -1)
        for t, members, states in zip(ts, values.tolist(), rows.reshape(len(ts), len(flows), -1)):
            if not all(math.isfinite(v) for row in members for v in row):
                raise BlowUp(f"non-finite diagnostics at t = {t:.6g}", t)
            for (l2, *hs), diag in zip(members, diags):
                diag.times.append(t)
                diag.l2.append(l2)
                for m, value in zip(hams, hs):
                    diag.hams[m].append(value)
            if observe is not None:
                observe([SpectralField(u0.n, row) for row in states])

    def record(t: float, band: np.ndarray):
        # advance returns a new array, so a pending band is never overwritten
        pending.append((t, band))
        if len(pending) == per:
            flush()

    # the kept band of u0, one row per flow (1-D for a single flow)
    modes = np.array(np.broadcast_to(u0.modes[: stepper.take + 1], stepper.e_full.shape))
    try:
        record(0.0, modes)
        for start in range(0, cfg.steps, cfg.diagnostics_every):
            # an overflowing step is reported once, by its BlowUp, not also by NumPy
            with np.errstate(**_QUIET):
                for i in range(start, min(start + cfg.diagnostics_every, cfg.steps)):
                    modes = stepper.advance(modes, i * cfg.dt)
            record((i + 1) * cfg.dt, modes)
    except BlowUp:
        flush()
        raise
    flush()
    states = [SpectralField(u0.n, row) for row in _padded(modes.reshape(len(flows), -1), u0.n)]
    return list(zip(states, diags))
