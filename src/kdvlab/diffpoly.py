"""Exact differential polynomials in one periodic space variable.

A monomial is an exact multiple of a product of x-derivatives of dependent
symbols, prod_i d^{k_i} v_i, stored as a multiset of (symbol, order) factors.
Everything is exact: coefficients are any exact ring element (`Fraction`, or
`SPoly` in the energy cascade) and no float ever enters this module.

The module provides the polynomial ring operations, the variational (Euler)
derivative as an exactness oracle, a constructive antiderivative for exact
polynomials, and a canonical normal form for integrals over the torus modulo
total derivatives.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Mapping, Sequence, Union

RationalLike = Union[Fraction, int, str]

__all__ = [
    "DiffMonomial",
    "DiffPoly",
    "IntegralExpr",
    "NotExact",
    "GradientMismatch",
    "mono",
    "sym",
    "total_derivative",
    "partial_derivative",
    "euler_operator",
    "is_exact",
    "integrate_exact",
    "split_exact",
    "ibp_normal_form",
    "homotopy_hamiltonian",
    "poly_to_obj",
    "latex_poly",
]


class NotExact(ValueError):
    """Raised when an antiderivative is requested for a non-exact polynomial."""


class GradientMismatch(ValueError):
    """Raised when a candidate Hamiltonian fails to reproduce its gradient."""


Factor = tuple[str, int]


@dataclass(frozen=True)
class DiffMonomial:
    """coeff * prod over factors (symbol, order) -> d^order symbol."""

    coeff: Fraction
    factors: tuple[Factor, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(sorted(self.factors)))

    @property
    def degree(self) -> int:
        return len(self.factors)

    @property
    def weight(self) -> int:
        return sum(k for _, k in self.factors)

    def __repr__(self):
        if not self.factors:
            return f"({self.coeff})"
        body = "*".join(
            f"{s}" if k == 0 else f"{s}_{k}" for s, k in self.factors
        )
        return f"({self.coeff})*{body}"


def _sorted_monomial(coeff, factors: tuple[Factor, ...]) -> DiffMonomial:
    """A DiffMonomial of factors that are sorted already, built without __post_init__'s sort."""
    m = object.__new__(DiffMonomial)
    object.__setattr__(m, "coeff", coeff)
    object.__setattr__(m, "factors", factors)
    return m


def _merge_coeffs(terms: Iterable[tuple[Hashable, object]]) -> dict:
    """Sum exact coefficients by key; a key whose sum is == 0 is dropped."""
    acc: dict = {}
    for key, c in terms:
        c0 = acc.get(key)
        c1 = c if c0 is None else c0 + c
        if c1 == 0:
            acc.pop(key, None)
        else:
            acc[key] = c1
    return acc


class DiffPoly:
    """Finite sum of DiffMonomial with merged, deterministic storage."""

    __slots__ = ("_terms",)

    def __init__(self, monomials: Iterable[DiffMonomial] = ()):
        acc = _merge_coeffs((m.factors, m.coeff) for m in monomials if m.coeff != 0)
        # every key is a monomial's factor tuple, sorted already
        self._terms = tuple(
            _sorted_monomial(c, f)
            for f, c in sorted(acc.items(), key=lambda kv: (len(kv[0]), sum(k for _, k in kv[0]), kv[0]))
        )

    @property
    def monomials(self) -> tuple[DiffMonomial, ...]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def symbols(self) -> tuple[str, ...]:
        return tuple(sorted({s for m in self._terms for s, _ in m.factors}))

    def map_coeff(self, fn) -> "DiffPoly":
        return DiffPoly(DiffMonomial(fn(m.coeff), m.factors) for m in self._terms)

    def __iter__(self) -> Iterator[DiffMonomial]:
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        return DiffPoly((*self._terms, *other._terms))

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return self + (-other)

    def __neg__(self) -> "DiffPoly":
        return self.map_coeff(lambda c: -c)

    def __mul__(self, other) -> "DiffPoly":
        if isinstance(other, DiffPoly):
            return DiffPoly(DiffMonomial(a.coeff * b.coeff, a.factors + b.factors) for a in self for b in other)
        c = Fraction(other)
        return self.map_coeff(lambda x: x * c)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffPoly) and self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def __repr__(self):
        if not self._terms:
            return "DiffPoly(0)"
        return " + ".join(repr(m) for m in self._terms)


def mono(coeff: RationalLike, factors: Sequence[Factor] = ()) -> DiffPoly:
    return DiffPoly([DiffMonomial(Fraction(coeff), tuple(factors))])


def sym(symbol: str = "u", order: int = 0) -> DiffPoly:
    """The single factor d^order symbol as a polynomial."""
    return mono(1, [(symbol, order)])


def _derive_monomial(m: DiffMonomial) -> list[DiffMonomial]:
    """d/dx of m by the Leibniz rule: per distinct factor (s, k), its multiplicity times m with
    the last copy of (s, k) raised to (s, k + 1), which keeps the factors sorted."""
    fs, out, first = m.factors, [], 0
    for i, (s, k) in enumerate(fs):
        if i + 1 == len(fs) or fs[i + 1] != (s, k):
            mult = i + 1 - first
            coeff = m.coeff if mult == 1 else m.coeff * mult
            out.append(_sorted_monomial(coeff, fs[:i] + ((s, k + 1),) + fs[i + 1 :]))
            first = i + 1
    return out


def total_derivative(p: DiffPoly, times: int = 1) -> DiffPoly:
    """d/dx applied `times` times, by the Leibniz rule."""
    for _ in range(times):
        p = DiffPoly(t for m in p for t in _derive_monomial(m))
    return p


def partial_derivative(p: DiffPoly, factor: Factor) -> DiffPoly:
    """Formal partial derivative with respect to one factor d^k symbol."""
    out = []
    for m in p:
        mult = m.factors.count(factor)
        if not mult:
            continue
        idx = m.factors.index(factor)
        out.append(DiffMonomial(m.coeff * mult, m.factors[:idx] + m.factors[idx + 1 :]))
    return DiffPoly(out)


def euler_operator(p: DiffPoly, symbol: str = "u") -> DiffPoly:
    """Variational derivative sum_k (-1)^k d^k (dp / d(d^k symbol)).

    Summed in Horner form P_0 - d(P_1 - d(P_2 - ...)): one d/dx per order.
    """
    top = max((k for m in p for s, k in m.factors if s == symbol), default=-1)
    acc = DiffPoly()
    for k in range(top, -1, -1):
        acc = partial_derivative(p, (symbol, k)) - total_derivative(acc)
    return acc


def is_exact(p: DiffPoly) -> bool:
    """True iff p is a total x-derivative of a differential polynomial.

    Uses the kernel characterization: p with no constant term is exact iff
    its Euler operator vanishes for every symbol. A constant term makes the
    question ill-posed on the line; on the torus only 0 is exact among
    constants, which this check reproduces.
    """
    if any(not m.factors for m in p):
        return False
    return all(euler_operator(p, s).is_zero() for s in p.symbols())


def _peel_mono_key(fac: tuple[Factor, ...], rank: Mapping[str, int]):
    """Block order: degree, symbols ascending, derivative orders descending per block.

    Negated for heapq's min-heap; rank[s] is the position of symbol s in sorted
    order. d/dx preserves (degree, symbol sequence) and its top term always
    raises the leading run of the first block, so the key is strictly
    decreasing along a peel and the reduction terminates; see split_exact.
    """
    blocks = sorted((rank[s], -k) for s, k in fac)
    return (-len(fac), tuple(-r for r, _ in blocks), tuple(nk for _, nk in blocks))


def split_exact(p: DiffPoly) -> tuple[DiffPoly, DiffPoly]:
    """Split p = d/dx(anti) + residue, residue in reduced normal form.

    Greedy elimination in the block order of _peel_mono_key. The maximal
    monomial is reducible when the first symbol block's top order is >= 1
    and strictly above the block's second slot; then it equals the top term
    of d/dx of its lowered antiderivative, and subtracting that introduces
    only strictly smaller monomials. Irreducible tops move to the residue.
    A nonzero reduced residue is never exact (exact polynomials always have
    reducible tops), which makes the residue canonical modulo d/dx and zero
    exactly when p is a total derivative. Never raises: a caller can report
    the non-exact part. A monomial is keyed once, as it enters `work`; a heap
    entry whose monomial has since cancelled out of `work` is skipped.
    """
    rank = {s: i for i, s in enumerate(p.symbols())}
    work = {m.factors: m.coeff for m in p}
    heap = [(_peel_mono_key(fac, rank), fac) for fac in work]
    heapq.heapify(heap)
    anti: list[DiffMonomial] = []
    residue: list[DiffMonomial] = []
    while heap:
        fac = heapq.heappop(heap)[1]
        coeff = work.get(fac)
        if coeff is None:
            continue
        if fac:
            s0 = fac[0][0]
            block = sorted((k for s, k in fac if s == s0), reverse=True)
            reducible = block[0] >= 1 and (len(block) == 1 or block[0] > block[1])
        else:
            reducible = False
        if not reducible:
            residue.append(DiffMonomial(coeff, fac))
            del work[fac]
            continue
        idx = fac.index((s0, block[0]))
        lowered = tuple(sorted(fac[:idx] + ((s0, block[0] - 1),) + fac[idx + 1 :]))
        # d/dx of `a` reproduces the peeled monomial with exactly `coeff`,
        # so subtracting it cancels the work entry and only smaller
        # monomials remain.
        a = DiffMonomial(coeff / lowered.count((s0, block[0] - 1)), lowered)
        anti.append(a)
        for t in _derive_monomial(a):
            c0 = work.get(t.factors)
            if c0 is None:
                work[t.factors] = -t.coeff
                heapq.heappush(heap, (_peel_mono_key(t.factors, rank), t.factors))
            elif c0 == t.coeff:
                del work[t.factors]
            else:
                work[t.factors] = c0 - t.coeff
    return DiffPoly(anti), DiffPoly(residue)


def integrate_exact(p: DiffPoly) -> DiffPoly:
    """Antiderivative q with d/dx q = p; raises NotExact if none exists."""
    anti, residue = split_exact(p)
    if not residue.is_zero():
        raise NotExact(f"polynomial is not a total derivative; residue {residue!r}")
    return anti


def ibp_normal_form(p: DiffPoly) -> DiffPoly:
    """Canonical representative of the integral of p modulo total derivatives.

    Two integrands have equal integrals over the torus for all smooth
    periodic fields iff their normal forms coincide; cross-checked against
    the independent Euler-operator oracle in the tests.
    """
    _, residue = split_exact(p)
    return residue


class IntegralExpr:
    """An integral over the torus of a differential polynomial."""

    __slots__ = ("integrand", "canonical")

    def __init__(self, integrand: DiffPoly):
        self.integrand = integrand
        self.canonical = ibp_normal_form(integrand)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegralExpr) and self.canonical == other.canonical

    def __hash__(self):
        return hash(self.canonical)

    def __repr__(self):
        return f"Int[{self.canonical!r}]"


def homotopy_hamiltonian(g: DiffPoly, symbol: str = "u") -> IntegralExpr:
    """Hamiltonian H with variational gradient g, via the line homotopy.

    H(u) = int_0^1 int g(t u) u dx dt weights a degree-k monomial of g by
    1/(k+1) after multiplying by u. Raises GradientMismatch when g is not a
    variational gradient (the construction is then meaningless and the
    verification euler(H') == g fails).
    """
    terms = [
        DiffMonomial(m.coeff / (m.degree + 1), m.factors + ((symbol, 0),)) for m in g
    ]
    integrand = DiffPoly(terms)
    if euler_operator(integrand, symbol) != g:
        raise GradientMismatch(f"homotopy integrand does not regenerate {g!r}")
    return IntegralExpr(integrand)


def poly_to_obj(p: DiffPoly) -> list:
    """JSON-ready form: [{"coeff": "p/q", "factors": [[symbol, order], ...]}]."""
    return [
        {"coeff": str(m.coeff), "factors": [[s, k] for s, k in m.factors]}
        for m in p
    ]


def _latex_coeff(c: Fraction, first: bool) -> str:
    sign = "-" if c < 0 else ("" if first else "+")
    c = abs(c)
    if c.denominator == 1:
        body = "" if c == 1 else str(c.numerator)
    else:
        body = rf"\tfrac{{{c.numerator}}}{{{c.denominator}}}"
    return sign + body


def latex_poly(p: DiffPoly) -> str:
    if p.is_zero():
        return "0"
    chunks = []
    for i, m in enumerate(p):
        coeff = _latex_coeff(m.coeff, first=(i == 0))
        if not m.factors:
            chunks.append(coeff if coeff not in ("", "+", "-") else coeff + "1")
            continue
        facs = []
        for s, k in m.factors:
            if k == 0:
                facs.append(s)
            elif k == 1:
                facs.append(rf"\partial_x {s}")
            else:
                facs.append(rf"\partial_x^{{{k}}} {s}")
        body = r"\, ".join(facs)
        if coeff in ("", "+", "-"):
            chunks.append(coeff + body)
        else:
            chunks.append(coeff + r"\, " + body)
    return " ".join(chunks)
