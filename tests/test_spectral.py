"""Pseudospectral layer: fields, multipliers, quadrature, flows, stepping."""

import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from kdvlab import spectral
from kdvlab.diffpoly import sym
from kdvlab.hierarchy import level
from kdvlab.spectral import (
    _Monomials,
    _PolyPlan,
    _Stepper,
    _product_grid,
    BlowUp,
    Diagnostics,
    SolverConfig,
    SpectralField,
    cosine_field,
    eval_diffpoly,
    functional_eval,
    grid,
    hierarchy_flow,
    l2_inner,
    model_flow,
    mollify,
    multiplier,
    random_decay_field,
    regularized_flow,
    rhs_field,
    scale_field,
    sobolev_norm,
    solve,
    solve_batch,
    step,
)

TAU = 2.0 * math.pi


# ---------------------------------------------------------------------------
# fields and multipliers
# ---------------------------------------------------------------------------


def test_field_roundtrip_and_immutability():
    x = grid(64)
    f = SpectralField.from_values(np.cos(x) + 0.25 * np.sin(3 * x))
    assert np.allclose(f.values(), np.cos(x) + 0.25 * np.sin(3 * x), atol=1e-14)
    with pytest.raises(AttributeError):
        f.n = 128
    with pytest.raises((ValueError, TypeError)):
        f.modes[1] = 0.0


def test_nyquist_mode_dropped():
    n = 32
    modes = np.zeros(n // 2 + 1, dtype=complex)
    modes[-1] = 1.0
    f = SpectralField(n, modes)
    assert f.modes[-1] == 0.0


def test_cosine_norms_exact():
    # |cos|_{L^2}^2 = pi; |cos|_{H^1}^2 = 2 pi
    f = cosine_field(64, 1)
    assert abs(sobolev_norm(f, 0.0) - math.sqrt(math.pi)) < 1e-14
    assert abs(sobolev_norm(f, 1.0) - math.sqrt(TAU)) < 1e-14


def test_parseval():
    f = random_decay_field(128, decay=2.0, seed=5)
    phys = TAU * float(np.mean(f.values() ** 2))
    assert abs(phys - sobolev_norm(f, 0.0) ** 2) < 1e-12


def test_derivative_exact_on_modes():
    f = cosine_field(64, 3)
    g = multiplier(f, "d", 1)  # -3 sin 3x
    x = grid(64)
    assert np.allclose(g.values(), -3.0 * np.sin(3 * x), atol=1e-13)


def test_fractional_multiplier_values():
    f = cosine_field(64, 2)
    g = multiplier(f, "D", 0.5)
    assert abs(g.modes[2] - f.modes[2] * math.sqrt(2.0)) < 1e-15
    h = multiplier(f, "J", 2.0)
    assert abs(h.modes[2] - f.modes[2] * 5.0) < 1e-15


def test_l2_inner_orthogonality():
    f, g = cosine_field(64, 1), cosine_field(64, 2)
    assert abs(l2_inner(f, g)) < 1e-15
    assert abs(l2_inner(f, f) - math.pi) < 1e-14


def test_scale_field_doubles_frequency_and_amplitude():
    # u -> lam^2 u(lam x): cos x on N=64 becomes 4 cos 2x on N=128
    f = cosine_field(64, 1)
    g = scale_field(f, 2)
    assert g.n == 128
    x = grid(128)
    assert np.allclose(g.values(), 4.0 * np.cos(2 * x), atol=1e-13)


def test_mollifier_window_values_and_band_behavior():
    n, eps, m = 128, 0.1, 3
    f = random_decay_field(n, decay=1.5, seed=9)
    g = mollify(f, eps, m)
    k = 7
    expected = math.exp(-((eps * k) ** (2 * m)))
    assert abs(g.modes[k] - f.modes[k] * expected) < 1e-15
    # mean untouched, high modes crushed
    assert g.modes[0] == f.modes[0]
    assert abs(g.modes[60]) < abs(f.modes[60]) * 1e-10
    # smooth band-limited target: the L^2 gap is exactly the window defect
    # at the single active mode, (1 - e^{-(2 eps)^{2m}}) |cos 2x|_{L^2}
    c = cosine_field(n, 2)
    diff = sobolev_norm(SpectralField(n, c.modes - mollify(c, 0.01, m).modes), 0.0)
    expected = -math.expm1(-((2 * 0.01) ** (2 * m))) * math.sqrt(math.pi)
    assert abs(diff - expected) < 1e-6 * expected


# ---------------------------------------------------------------------------
# quadrature and symbolic evaluation
# ---------------------------------------------------------------------------


def test_functional_eval_hand_values():
    u = sym("u")
    f = cosine_field(64, 1)
    assert abs(functional_eval(u * u, f) - math.pi) < 1e-13
    assert abs(functional_eval(u * u * u, f)) < 1e-13
    assert abs(functional_eval(u * sym("u", 1), f)) < 1e-14


def test_functional_eval_dealias_free_products():
    # quartic integral of cos^4 x = 3 pi / 4 needs padding beyond the grid
    u = sym("u")
    f = cosine_field(32, 1)
    q = functional_eval(u * u * u * u, f)
    assert abs(q - 3.0 * math.pi / 4.0) < 1e-13


def test_hamiltonian_value_on_small_cosine():
    # H_1 = int -(1/2) u_x^2 + (1/6) u^3 on 0.1 cos x -> -0.005 pi
    f = 0.1 * cosine_field(256, 1)
    h1 = functional_eval(level(1).hamiltonian, f)
    assert abs(h1 - (-0.005 * math.pi)) < 1e-15


def test_eval_diffpoly_pointwise():
    p = sym("u") * sym("u", 1)  # u u_x = (u^2/2)_x
    f = cosine_field(64, 1)
    x = grid(64)
    vals = eval_diffpoly(p, f, dealias=1.0).values()
    assert np.allclose(vals, -np.cos(x) * np.sin(x), atol=1e-13)


# ---------------------------------------------------------------------------
# flows and right-hand sides
# ---------------------------------------------------------------------------


def test_model_rhs_hand_check():
    # u_t = -d^5 u + u d^3 u at u = cos x: -sin x... d^5 cos = -sin,
    # so -d^5 u = sin x; u d^3 u = cos x * sin x
    f = cosine_field(64, 1)
    r = rhs_field(model_flow(2), f, dealias=1.0)
    x = grid(64)
    assert np.allclose(r.values(), np.sin(x) + np.cos(x) * np.sin(x), atol=1e-13)


def _written_out_symbol(kind: str, l: int, mu: float, n: int) -> np.ndarray:
    """A flow's linear symbol on modes 0..n/2, the Nyquist mode zeroed."""
    k = np.arange(n // 2 + 1, dtype=np.float64)
    if kind == "hierarchy":
        sym = (1j * k) ** (2 * l + 1)
    elif kind == "model":
        sym = -((1j * k) ** (2 * l + 1))
    else:
        sym = -((1j * k) ** (2 * l + 1)) - mu * k ** (2 * l + 2)
    sym[-1] = 0.0
    return sym


def test_linear_on_keeps_the_bits_of_the_written_out_symbols():
    # every flow the lab builds, bit for bit (signed zeros included), since the
    # stepper's phi coefficients and so every solve start from these arrays
    flows = [("hierarchy", l, 0.0, hierarchy_flow(l)) for l in range(1, 7)]
    flows += [("model", l, 0.0, model_flow(l)) for l in range(2, 7)]
    flows += [("regularized", l, mu, regularized_flow(l, mu)) for l in range(2, 7) for mu in (0.0, 1e-3, 0.5)]
    for kind, l, mu, flow in flows:
        for n in (16, 32, 64, 128, 256, 512, 1024, 2048):
            got, want = flow.linear_on(n), _written_out_symbol(kind, l, mu, n)
            assert got.dtype == np.complex128 and got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (kind, l, mu, n)
    # one value by hand: (5i)^5 = 3125i, so -mu k^6 - (ik)^5 at k = 5, mu = 1/2
    assert regularized_flow(2, mu=0.5).linear_on(64)[5] == -7812.5 - 3125j


def test_hierarchy_flow_reduces_to_kdv():
    # l = 1: u_t = d^3 u + u u_x
    f = cosine_field(64, 1)
    r = rhs_field(hierarchy_flow(1), f, dealias=1.0)
    x = grid(64)
    assert np.allclose(r.values(), np.sin(x) - np.cos(x) * np.sin(x), atol=1e-13)


def test_linear_evolution_is_exact():
    # zero nonlinearity: one ETDRK step reproduces exp(t L) to roundoff
    n, dt = 64, 0.1
    lin = dataclasses.replace(model_flow(2), name="linear", nonlinear=None)
    f = cosine_field(n, 3)
    g = step(f, lin, SolverConfig(n=n, dt=dt, t_final=dt))
    exact = f.modes * np.exp(lin.linear_on(n) * dt)
    assert np.allclose(g.modes, exact, atol=1e-14)


def test_parabolic_damping_contracts_l2():
    n = 64
    f = 0.05 * cosine_field(n, 4)
    cfg = SolverConfig(n=n, dt=1e-3, t_final=0.05, hamiltonians=())
    out, _ = solve(f, regularized_flow(2, mu=0.5), cfg)
    assert sobolev_norm(out, 0.0) < sobolev_norm(f, 0.0)


def test_solve_records_requested_diagnostics():
    f = 0.1 * cosine_field(64, 1)
    cfg = SolverConfig(n=64, dt=1e-3, t_final=0.01, diagnostics_every=5, hamiltonians=(0, 1))
    seen = []
    _, diag = solve(f, hierarchy_flow(1), cfg, seen.append)
    assert set(diag.hams) == {0, 1}
    # observe runs once per recorded time, on the state whose norm was recorded
    assert len(seen) == len(diag.times) == len(diag.l2) == len(diag.hams[0]) == 3
    assert diag.l2 == [sobolev_norm(g, 0.0) for g in seen]
    assert diag.times[0] == 0.0 and abs(diag.times[-1] - 0.01) < 1e-12


def test_solve_hamiltonians_are_bit_identical_to_functional_eval():
    # solve compiles each Hamiltonian once per run; the values it records are
    # exactly those functional_eval gives on the observed states
    f = random_decay_field(128, decay=3.0, seed=4, amplitude=0.2)
    cfg = SolverConfig(
        n=128, dt=1e-3, t_final=0.01, diagnostics_every=5, hamiltonians=(0, 1, 2, 3),
    )
    seen = []
    _, diag = solve(f, hierarchy_flow(2), cfg, seen.append)
    assert len(seen) == len(diag.times)
    for m, values in diag.hams.items():
        assert values == [functional_eval(level(m).hamiltonian, g) for g in seen]


def test_zero_data_is_fixed_point():
    cfg = SolverConfig(n=64, dt=1e-3, t_final=0.01, hamiltonians=())
    out, _ = solve(SpectralField.zero(64), model_flow(2), cfg)
    assert sobolev_norm(out, 0.0) == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blowup_detected():
    f = 1e8 * cosine_field(32, 1)
    cfg = SolverConfig(n=32, dt=1.0, t_final=5.0, hamiltonians=())
    with pytest.raises(BlowUp):
        solve(f, model_flow(2), cfg)


def test_solve_batch_members_are_bit_identical_to_solve():
    # a regularized ladder marched as one stack: every member keeps the bits
    # of its own solve, in its final state, its diagnostics and what observe sees
    f = random_decay_field(64, decay=3.0, seed=7, amplitude=0.1)
    flows = [regularized_flow(2, mu) for mu in (1e-2, 5e-3, 0.0, 2.5e-3)]
    for order in (2, 4):
        for dealias in (2.0 / 3.0, 1.0):
            cfg = SolverConfig(
                n=64, dt=1e-4, t_final=2e-3, dealias=dealias, order=order,
                diagnostics_every=7, hamiltonians=(0, 1, 2),
            )
            seen = []
            batch = solve_batch(f, flows, cfg, seen.append)
            assert len(batch) == len(flows)
            assert [len(states) for states in seen] == [len(flows)] * 4
            for j, (flow, (state, diag)) in enumerate(zip(flows, batch)):
                alone = []
                ref, ref_diag = solve(f, flow, cfg, alone.append)
                assert np.array_equal(state.modes, ref.modes)
                assert np.array_equal(diag.times, ref_diag.times)
                assert np.array_equal(diag.l2, ref_diag.l2)
                assert diag.hams.keys() == ref_diag.hams.keys()
                for m, values in diag.hams.items():
                    assert np.array_equal(values, ref_diag.hams[m])
                assert len(alone) == len(seen)
                for states, g in zip(seen, alone):
                    assert np.array_equal(states[j].modes, g.modes)


def test_solve_batch_rejects_mixed_nonlinearities():
    f = 0.1 * cosine_field(64, 1)
    cfg = SolverConfig(n=64, dt=1e-3, t_final=1e-3, hamiltonians=())
    with pytest.raises(ValueError):
        solve_batch(f, [model_flow(2), hierarchy_flow(2)], cfg)
    with pytest.raises(ValueError):
        solve_batch(f, [], cfg)


def test_time_grid_must_divide():
    cfg = SolverConfig(n=64, dt=3e-3, t_final=0.01, hamiltonians=())
    with pytest.raises(ValueError):
        solve(cosine_field(64, 1), model_flow(2), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n=10)
    with pytest.raises(ValueError):
        SolverConfig(dt=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(dealias=0.0)


@pytest.mark.parametrize("hams", [(1.5,), ("a",), (-1,), (True,), (0, 2.0)])
def test_config_rejects_bad_hamiltonians(hams):
    with pytest.raises(ValueError, match="hamiltonians"):
        SolverConfig(hamiltonians=hams)


def test_integrator_refinement_order():
    # order-4 stepping on the KdV flow: halving dt shrinks the error ~16x
    f = 0.1 * cosine_field(64, 1)
    flow = hierarchy_flow(1)

    def final(dt):
        cfg = SolverConfig(n=64, dt=dt, t_final=0.2, hamiltonians=(), order=4)
        out, _ = solve(f, flow, cfg)
        return out

    ref = final(0.2 / 2048).modes
    errs = [np.max(np.abs(final(dt).modes - ref)) for dt in (0.2 / 64, 0.2 / 128)]
    ratio = errs[0] / errs[1]
    assert 10.0 < ratio < 24.0, ratio


# ---------------------------------------------------------------------------
# the compiled right-hand-side plan against per-monomial quadrature
# ---------------------------------------------------------------------------

PLAN_FLOWS = {f"hier{l}": hierarchy_flow(l) for l in (1, 2, 3, 4)} | {"model2": model_flow(2)}


def _plan_field(n, kind):
    if kind == "smooth":
        return random_decay_field(n, decay=6.0, seed=11, amplitude=0.1)
    return random_decay_field(n, decay=1.5, seed=12, amplitude=0.1)


def _monomial_values(modes, orders, m):
    """Samples of each d^q u on the m-grid, one irfft per factor."""
    take = min(modes.size, m // 2 + 1)
    k = np.arange(take, dtype=np.float64)
    out = []
    for q in orders:
        padded = np.zeros(m // 2 + 1, dtype=np.complex128)
        padded[:take] = modes[:take] * (1j * k) ** q
        out.append(np.fft.irfft(padded * m, n=m))
    return out


def _reference_rhs(p, f, dealias):
    """Each monomial on its own grid, its spectrum summed into the band.

    A degree-d product of band-K factors folds mode d*K onto m - d*K, so an
    even grid of at least (d+1)*K + 2 points, and at least n, keeps the band
    clean (d*K + 2 would not for d >= 3).
    """
    take = min(int(dealias * (f.n // 2)), f.n // 2 - 1)
    modes = f.modes.copy()
    modes[take + 1 :] = 0.0
    out = np.zeros(f.n // 2 + 1, dtype=np.complex128)
    for monomial in p.monomials:
        orders = [q for _, q in monomial.factors]
        m = (len(orders) + 1) * take + 2
        m = max(m + m % 2, f.n)
        prod = np.full(m, float(monomial.coeff))
        for v in _monomial_values(modes, orders, m):
            prod = prod * v
        out[: take + 1] += (np.fft.rfft(prod) / m)[: take + 1]
    return out


def _reference_functional(p, f):
    """Each monomial's mean on its own degree*band + 2 grid; also the sum of |terms|."""
    band = f.band_limit()
    terms = []
    for monomial in p.monomials:
        orders = [q for _, q in monomial.factors]
        m = len(orders) * band + 2
        m += m % 2
        prod = np.ones(m)
        for v in _monomial_values(f.modes, orders, m):
            prod = prod * v
        terms.append(float(monomial.coeff) * float(np.mean(prod)))
    return TAU * sum(terms), TAU * sum(abs(t) for t in terms)


@pytest.mark.parametrize("kind", ["smooth", "rough"])
@pytest.mark.parametrize("n", [128, 256, 1024])
@pytest.mark.parametrize("name", sorted(PLAN_FLOWS))
def test_rhs_plan_matches_per_monomial_quadrature(name, n, kind):
    flow, f = PLAN_FLOWS[name], _plan_field(n, kind)
    ref = _reference_rhs(flow.nonlinear, f, 2.0 / 3.0)
    got = eval_diffpoly(flow.nonlinear, f, dealias=2.0 / 3.0).modes
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    ref = f.modes * flow.linear_on(n) + ref
    got = rhs_field(flow, f, dealias=2.0 / 3.0).modes
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind", ["smooth", "rough"])
@pytest.mark.parametrize("n", [128, 256, 1024])
def test_functional_eval_matches_per_monomial_quadrature(n, kind):
    f = _plan_field(n, kind)
    for l in (0, 1, 2, 3):
        h = level(l).hamiltonian
        ref, scale = _reference_functional(h.integrand, f)
        assert abs(functional_eval(h, f) - ref) <= 1e-12 * scale, l


def _exact_functional(p, f):
    """2pi times the mean of p(u) from the full (non-circular) convolution of
    the Fourier coefficients on k = -K..K; also the sum of |terms|."""
    band = f.band_limit()
    k = np.arange(-band, band + 1)
    c = np.concatenate([np.conj(f.modes[band:0:-1]), f.modes[: band + 1]])
    terms = []
    for monomial in p.monomials:
        prod = np.ones(1, dtype=np.complex128)
        for _, q in monomial.factors:
            prod = np.convolve(prod, c * (1j * k) ** q)
        # prod holds modes -d*K..d*K; the mean is the middle one
        terms.append(float(monomial.coeff) * prod[prod.size // 2].real)
    return TAU * sum(terms), TAU * sum(abs(t) for t in terms)


def _five_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def test_functional_eval_is_exact_on_rounded_grids(monkeypatch):
    # at K = 85, _product_grid gives 172, 258, 342, 428 for d = 2..5, none
    # 5-smooth; the quadrature rounds them up and its means stay exact
    big_k, n = 85, 256
    assert not any(_five_smooth(_product_grid(d, big_k)) for d in (2, 3, 4, 5))
    grids = []
    irfft = np.fft.irfft

    def recorded(*args, **kwargs):
        grids.append(kwargs["n"])
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", recorded)
    constant = np.zeros(n // 2 + 1, dtype=np.complex128)
    constant[0] = 0.7
    fields = [
        SpectralField.zero(n),
        SpectralField(n, constant),
        cosine_field(n, big_k, 0.3),
        cosine_field(n, 1) + cosine_field(n, big_k, 0.5),
    ]
    for f in fields:
        for l in (0, 1, 2, 3):
            h = level(l).hamiltonian
            grids.clear()
            got = functional_eval(h, f)
            ref, scale = _exact_functional(h.integrand, f)
            assert abs(got - ref) <= 1e-13 * scale, (l, got, ref)
            degree = max(len(monomial.factors) for monomial in h.integrand.monomials)
            [m] = grids
            assert _five_smooth(m) and m > degree * f.band_limit(), (l, m)
    # the zero field gives exactly zero, the constant its closed form
    assert functional_eval(level(0).hamiltonian, fields[0]) == 0.0
    assert abs(functional_eval(level(0).hamiltonian, fields[1]) - math.pi * 0.49) <= 1e-15


def test_unit_coefficient_products_keep_bits():
    # products skips the multiply by a unit coefficient: 1.0 * v is v bit for bit
    vals = np.random.default_rng(3).standard_normal((2, 3, 96))
    before = vals.copy()
    for flow in (model_flow(2), hierarchy_flow(1)):
        poly = _Monomials(flow.nonlinear)
        assert poly.terms == ((1.0, (0, 1)),)
        assert np.array_equal(poly.products(vals), (1.0 * vals[0]) * vals[1])
        # the samples are read, never written
        assert np.array_equal(vals, before)


def test_rhs_plan_is_alias_free_on_an_enlarged_grid():
    # u^4 u_x with u = cos x + cos(Kx)/2 reaches mode 5K; on N = 200 the plan's
    # grid is rounded up past 6K + 2 to a 5-smooth size
    n = 200
    big_k = int(2.0 / 3.0 * (n // 2))
    u = sym("u")
    p = u * u * u * u * sym("u", 1)
    assert _PolyPlan(p, n, 2.0 / 3.0).m > 6 * big_k + 2
    f = SpectralField.from_function(lambda x: np.cos(x) + np.cos(big_k * x) / 2.0, n)
    # exact product: full (non-circular) convolution of the Fourier coefficients
    # on k = -5K..5K; index K + k holds mode k of a factor
    c = np.zeros(2 * big_k + 1, dtype=np.complex128)
    c[big_k + 1] = c[big_k - 1] = 0.5
    c[2 * big_k] = c[0] = 0.25
    cx = c * 1j * np.arange(-big_k, big_k + 1)
    prod = cx
    for _ in range(4):
        prod = np.convolve(prod, c)
    exact = np.zeros(n // 2 + 1, dtype=np.complex128)
    exact[: big_k + 1] = prod[5 * big_k : 6 * big_k + 1]
    got = eval_diffpoly(p, f).modes
    assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))


def test_rhs_fft_count_is_pinned(monkeypatch):
    counts = {"rfft": 0, "irfft": 0}
    rfft, irfft = np.fft.rfft, np.fft.irfft

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(np.fft, "rfft", counted("rfft", rfft))
    monkeypatch.setattr(np.fft, "irfft", counted("irfft", irfft))
    flow, f = hierarchy_flow(3), _plan_field(1024, "smooth")
    seen = []
    for _ in range(2):
        counts.update(rfft=0, irfft=0)
        rhs_field(flow, f, dealias=2.0 / 3.0)
        seen.append(dict(counts))
    # every derivative order in one batched irfft, the summed products in one rfft
    assert seen[0] == seen[1] == {"rfft": 1, "irfft": 1}
    counts.update(rfft=0, irfft=0)
    step(f, flow, SolverConfig(n=1024, dt=1e-4, t_final=1e-4, order=4))
    assert counts == {"rfft": 4, "irfft": 4}


def test_batch_step_fft_count_is_pinned(monkeypatch):
    # one order-4 step of six flows is four RHS evaluations of the whole
    # stack: 4 rfft + 4 irfft, as for one flow
    counts = {"rfft": 0, "irfft": 0}
    for name in counts:
        def call(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, call)
    flows = [regularized_flow(2, mu) for mu in (1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4, 3.125e-4)]
    cfg = SolverConfig(n=128, dt=1e-4, t_final=1e-4, order=4, hamiltonians=())
    solve_batch(0.1 * cosine_field(128, 1), flows, cfg)
    assert counts == {"rfft": 4, "irfft": 4}


def test_record_fft_count_is_pinned(monkeypatch):
    # a recorded Hamiltonian is one irfft of a chunk of kept bands on its own
    # grid, with no rfft and no transform shared with the march: the seven
    # states of this run share one band and fit one chunk
    counts = {"rfft": 0, "irfft": 0}
    for name in counts:
        def call(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, call)
    f, steps = random_decay_field(128, decay=3.0, seed=5, amplitude=0.1), 6

    def run(hams):
        counts.update(rfft=0, irfft=0)
        cfg = SolverConfig(n=128, dt=1e-3, t_final=steps * 1e-3, hamiltonians=hams)
        solve(f, hierarchy_flow(1), cfg)
        return dict(counts)

    with_hams, without = run((0, 1, 2)), run(())
    # records at t = 0 and after every step, one chunk
    assert with_hams["rfft"] == without["rfft"]
    assert with_hams["irfft"] - without["irfft"] == 3
    for m in (0, 1, 2):
        counts.update(rfft=0, irfft=0)
        functional_eval(level(m).hamiltonian, f)
        assert counts == {"rfft": 0, "irfft": 1}, m


@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("name", ["hier1", "hier2", "hier3", "hier4", "model2", "stack6"])
def test_chunked_records_keep_the_bits_of_single_records(monkeypatch, name, order, every):
    # without observe the recorded states are evaluated a chunk at a time,
    # grouped by band; with observe one state at a time.  The start's band (2)
    # is narrower than the march's, so the first chunk holds several bands,
    # and every run spans several chunks with a partial last one
    if name == "stack6":
        flows = [regularized_flow(2, mu) for mu in (1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4, 0.0)]
    else:
        flows = [PLAN_FLOWS[name]]
    f = random_decay_field(64, decay=3.0, seed=9, amplitude=0.1, kmax=2)
    steps = 330 if every == 7 else 51
    cfg = SolverConfig(n=64, dt=1e-5, t_final=steps * 1e-5, order=order, diagnostics_every=every,
                       hamiltonians=(0, 1, 2))
    chunks = []

    def spy(rows, *args):
        chunks.append(len(rows) // len(flows))
        return record_values(rows, *args)

    record_values = spectral._record_values
    monkeypatch.setattr(spectral, "_record_values", spy)
    chunked = solve_batch(f, flows, cfg)
    assert len(chunks) > 2 and chunks[-1] < chunks[0], chunks
    chunks.clear()
    single = solve_batch(f, flows, cfg, lambda states: None)
    assert set(chunks) == {1}
    for (state, diag), (ref, ref_diag) in zip(chunked, single):
        assert np.array_equal(state.modes, ref.modes)
        assert diag.times == ref_diag.times and diag.l2 == ref_diag.l2 and diag.hams == ref_diag.hams
        assert len(diag.times) == 1 + -(-steps // every)
        assert all(math.isfinite(v) for values in diag.hams.values() for v in values)


def test_chunked_records_report_the_first_non_finite_diagnostic():
    # at amplitude 1e8 the state after one step is finite but its H2
    # overflows; the stepper raises a few steps later, inside the same chunk.
    # The pending records are evaluated first, so the report is the one a
    # state-at-a-time solve gives
    f = 1e8 * cosine_field(64, 1)
    cfg = SolverConfig(n=64, dt=1e-2, t_final=1.0, hamiltonians=(0, 1, 2))
    caught = []
    for observe in (None, lambda states: None):
        with np.errstate(all="raise"), pytest.raises(BlowUp) as info:
            solve_batch(f, [model_flow(2)], cfg, observe)
        caught.append(info.value)
    chunked, single = caught
    assert type(chunked) is type(single) is BlowUp
    assert str(chunked) == str(single) == "non-finite diagnostics at t = 0.01"
    assert chunked.time == single.time == 0.01
    # the stepper's own BlowUp came first, mid-chunk
    assert isinstance(chunked.__context__, BlowUp) and "non-finite mode" in str(chunked.__context__)


def test_rhs_plan_keeps_bits_on_power_of_two_grids():
    # the plan lets pocketfft apply the 1/m of each transform; the reference
    # scales the samples by m and the spectrum by 1/m in
    # array passes.  A power-of-two scale is exact, so on a power-of-two grid
    # the two agree bit for bit, and on any other grid to roundoff.  One field
    # goes in as its full half-spectrum, as in eval_diffpoly; several as a
    # stack of bands, as in the stepper
    stack = [random_decay_field(128, decay=2.0, seed=seed, amplitude=0.1) for seed in range(10)]
    cases = [
        (model_flow(2), [_plan_field(64, "rough")], True),
        (model_flow(2), [_plan_field(128, "smooth")], True),
        (hierarchy_flow(1), [_plan_field(256, "rough")], True),
        (hierarchy_flow(4), [_plan_field(256, "rough")], True),
        (regularized_flow(2, 1e-2), stack, True),
        (hierarchy_flow(2), [_plan_field(256, "rough")], False),
        (hierarchy_flow(3), [_plan_field(1024, "rough")], False),
    ]
    for flow, fields, power_of_two in cases:
        n = fields[0].n
        plan = _PolyPlan(flow.nonlinear, n, 2.0 / 3.0)
        m, take = plan.m, plan.take
        assert (m & (m - 1) == 0) == power_of_two, (flow.name, n, m)
        modes = fields[0].modes if len(fields) == 1 else np.array([f.modes[: take + 1] for f in fields])
        rows = plan.rows if modes.ndim == 1 else plan.rows[:, None, :]
        old = np.fft.rfft(plan.poly.products(np.fft.irfft(modes[..., : take + 1] * rows * m, n=m)))[..., : take + 1] / m
        got = plan.apply(modes)
        assert got.shape == old.shape == modes.shape[:-1] + (take + 1,)
        if power_of_two:
            assert np.array_equal(got, old), (flow.name, n)
        else:
            assert np.max(np.abs(got - old)) <= 1e-15 * np.max(np.abs(old)), (flow.name, n)


def test_rhs_plan_is_thread_safe():
    flow = hierarchy_flow(3)
    fields = [random_decay_field(256, decay=2.0, seed=seed, amplitude=0.1) for seed in range(4)]
    plan = _PolyPlan(flow.nonlinear, 256, 2.0 / 3.0)
    stack = np.array([f.modes[: plan.take + 1] for f in fields])

    def both(f):
        return eval_diffpoly(flow.nonlinear, f).modes, plan.apply(f.modes), plan.apply(stack)

    serial = [both(f) for f in fields]
    # a (4, take+1) batch gives each row the bits of its own evaluation
    assert serial[0][2].shape == (4, plan.take + 1)
    assert all(np.array_equal(row, b) for row, (_, b, _) in zip(serial[0][2], serial))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(both, fields * 8))
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(threaded, serial * 8):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_concurrent_solves_are_bit_identical():
    # every _Stepper owns its transform buffers, so solves in threads keep
    # the bits of their serial runs, with and without recorded Hamiltonians
    f = random_decay_field(128, decay=3.0, seed=3, amplitude=0.1)
    ladder = [regularized_flow(2, mu) for mu in (1e-2, 5e-3, 2.5e-3)]

    def cfg(order, hams):
        return SolverConfig(n=128, dt=1e-4, t_final=3e-3, order=order, diagnostics_every=4, hamiltonians=hams)

    jobs = [
        lambda: [solve(f, hierarchy_flow(1), cfg(4, (0, 1, 2)))],
        lambda: [solve(f, hierarchy_flow(2), cfg(4, ()))],
        lambda: [solve(f, model_flow(2), cfg(2, (0, 1, 2)))],
        lambda: solve_batch(f, ladder, cfg(4, (0, 1, 2))),
    ]

    def run(job):
        return [
            (state.modes, diag.times, diag.l2, sorted(diag.hams.items()))
            for state, diag in job()
        ]

    serial = [run(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(run, jobs * 4))
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(threaded, serial * 4):
        assert len(got) == len(want)
        for (modes, times, l2, hams), (ref_modes, ref_times, ref_l2, ref_hams) in zip(got, want):
            assert np.array_equal(modes, ref_modes)
            assert times == ref_times and l2 == ref_l2 and hams == ref_hams


# ---------------------------------------------------------------------------
# the march's bits against the written-out scheme
# ---------------------------------------------------------------------------


def _damped(flow, mu):
    """flow with -mu k^(2l+2) added to its linear symbol: a stack member."""
    return dataclasses.replace(flow, damping=mu)


def _written_out_advance(stepper, apply, u):
    """One step of _Stepper.advance's expressions, each RHS from an allocating apply."""
    if stepper.order == 2:
        nu = apply(u)
        a = stepper.e_full * u + stepper.h_phi1 * nu
        na = apply(a)
        return a + stepper.h_phi2 * (na - nu)
    nu = apply(u)
    eu = stepper.e_half * u
    a = eu + stepper.h_phi1_half * nu
    na = apply(a)
    b = eu + stepper.h_phi1_half * na
    nb = apply(b)
    c = stepper.e_half * a + stepper.h_phi1_half * (2.0 * nb - nu)
    nc = apply(c)
    return stepper.e_full * u + stepper.dt * (stepper.w1 * nu + stepper.w2 * (na + nb) + stepper.w3 * nc)


@pytest.mark.parametrize("members", [1, 6])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize(
    "name, n", [("model2", 64), ("model2", 128), ("hier1", 256), ("hier4", 256), ("hier3", 1024)]
)
def test_march_keeps_the_bits_of_the_written_out_scheme(name, n, order, members):
    # every stage result that the final combination reads must survive the
    # later stages' transforms: consecutive steps of the stepper equal the
    # scheme evaluated with freshly allocated RHS arrays, bit for bit
    flow = PLAN_FLOWS[name]
    flows = [_damped(flow, mu) for mu in (0.0, 1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2)[:members]]
    stepper = _Stepper(flows, n, 1e-4, 2.0 / 3.0, order)
    apply = _PolyPlan(flow.nonlinear, n, 2.0 / 3.0).apply
    fields = [random_decay_field(n, decay=3.0, seed=seed, amplitude=0.1) for seed in range(members)]
    u = np.array([f.modes[: stepper.take + 1] for f in fields]).reshape(stepper.e_full.shape)
    want = u.copy()
    for i in range(4):
        u = stepper.advance(u, i * 1e-4)
        want = _written_out_advance(stepper, apply, want)
        assert u.shape == want.shape == stepper.e_full.shape
        assert np.all(np.isfinite(u)) and np.array_equal(u, want), i
