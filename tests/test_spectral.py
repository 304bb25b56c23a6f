"""Pseudospectral layer: fields, multipliers, quadrature, flows, stepping."""

import dataclasses
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from kdvlab import modenergy, spectral
from kdvlab.diffpoly import DiffPoly, mono, sym
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
    hierarchy_flow,
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
)

TAU = 2.0 * math.pi


def grid(n):
    return TAU * np.arange(n) / n


def _from_values(values):
    """The field of n real samples: mode k is their rfft's mode k over n."""
    v = np.asarray(values, dtype=np.float64)
    return SpectralField(v.size, np.fft.rfft(v) / v.size)


# ---------------------------------------------------------------------------
# fields and multipliers
# ---------------------------------------------------------------------------


def test_field_roundtrip_and_immutability():
    x = grid(64)
    f = _from_values(np.cos(x) + 0.25 * np.sin(3 * x))
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


def test_sobolev_norm_refuses_an_overflowing_table():
    # (1 + 128^2)^400 overflows: one ValueError, not a NumPy warning and a nan
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="overflows"):
            sobolev_norm(cosine_field(256, 1), 400)
    assert not caught


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
    # the L^2 inner product by polarization: <f, g> = (|f + g|^2 - |f - g|^2) / 4
    f, g = cosine_field(64, 1), cosine_field(64, 2)
    assert abs(sobolev_norm(f + g) ** 2 - sobolev_norm(f - g) ** 2) / 4 < 1e-15
    assert abs(sobolev_norm(f) ** 2 - math.pi) < 1e-14


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
# the derivative rows (ik)^q: one stored row per order, as wide as its widest ask
# ---------------------------------------------------------------------------


def _energy_calls():
    """E^s and dE^s/dt as the energy benchmark takes them: l = 2..5 at s = 4l - 4,
    N = 128 and 512, a smooth and a rough field on the band N/3 - 1."""
    for l in (2, 3, 4, 5):
        bp, s = modenergy.build_energy(l), 4 * l - 4
        for n in (128, 512):
            for decay in (s + 2.0, 5.0):
                u = random_decay_field(n, decay=decay, seed=l * n, amplitude=0.1, kmax=n // 3 - 1)
                modenergy.evaluate_energy(bp, s, u)
                modenergy.energy_time_derivative(bp, s, u)


def _asked_rows(monkeypatch) -> set:
    """Every (orders, take) asked of _d_rows by the energy plans, the stepping flows' plans
    (hier1..4 at N = 256, hier3 at 1024, model2 at 128) and a solve's H0..H2 records."""
    asks, served = set(), spectral._d_rows

    def ask(orders, take):
        asks.add((tuple(orders), take))
        return served(orders, take)

    with monkeypatch.context() as m:
        m.setattr(spectral, "_d_rows", ask)
        m.setattr(modenergy, "_d_rows", ask)
        _energy_calls()
        flows = [(hierarchy_flow(l), 256) for l in (1, 2, 3, 4)] + [(hierarchy_flow(3), 1024), (model_flow(2), 128)]
        for flow, n in flows:
            _PolyPlan(flow.nonlinear, n, 2.0 / 3.0)
        u = random_decay_field(256, decay=5.0, seed=2, amplitude=0.1, kmax=8)
        solve(u, hierarchy_flow(1), SolverConfig(n=256, dt=1e-3, t_final=2e-3))
    return asks


def _powers(orders, take) -> np.ndarray:
    return np.array([(1j * np.arange(take)) ** q for q in orders])


def test_every_row_served_is_the_power_it_names(monkeypatch):
    asks = _asked_rows(monkeypatch)
    assert len(asks) > 20
    # narrow then wide: each ask widens its rows; wide then narrow: each slices them
    for wide_first in (False, True):
        monkeypatch.setattr(spectral, "_D_ROWS", {})
        for orders, take in sorted(asks, key=lambda ask: (ask[1], ask[0]), reverse=wide_first):
            got, want = spectral._d_rows(orders, take), _powers(orders, take)
            # as integers, so that a -0.0 for a 0.0 fails too
            assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def test_rows_widened_by_racing_threads_keep_their_bits(monkeypatch):
    takes = [3, 700, 40, 129, 1025, 2, 64, 513, 257, 900, 17, 1024]

    def ask(take):
        return spectral._d_rows((5,), take)

    serial = [_powers((5,), take) for take in takes]
    monkeypatch.setattr(spectral, "_D_ROWS", {})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(ask, takes * 8, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(threaded, serial * 8):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert list(spectral._D_ROWS) == [5] and len(spectral._D_ROWS[5]) == max(takes)


def test_the_energy_benchmark_rows_take_under_160_kib(monkeypatch):
    # one row per order 0..15, at most 678 modes wide (150,608 bytes); a cache keyed by
    # (orders, take) held 88 stacks in 1.71 MB for the same calls
    monkeypatch.setattr(spectral, "_D_ROWS", {})
    _energy_calls()
    rows = spectral._D_ROWS
    assert sorted(rows) == list(range(16))
    assert sum(row.nbytes for row in rows.values()) <= 160 * 1024


def test_a_lone_high_order_stores_only_the_rows_it_asks(monkeypatch):
    monkeypatch.setattr(spectral, "_D_ROWS", {})
    plan = _PolyPlan(model_flow(60).nonlinear, 256, 2.0 / 3.0)
    assert {q: len(row) for q, row in spectral._D_ROWS.items()} == {0: plan.take + 1, 119: plan.take + 1}
    monkeypatch.setattr(spectral, "_D_ROWS", {})
    multiplier(_F64, "d", 119)
    assert {q: len(row) for q, row in spectral._D_ROWS.items()} == {119: 33}


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


def test_constant_terms_and_the_zero_order_multiplier():
    # a factor-free monomial is a constant: added to mode 0 of a pointwise
    # value, and integrated as 2 pi times itself
    f = random_decay_field(64, decay=2.0, seed=5, kmax=10)
    want = f.modes.copy()
    want[0] += 3.0
    assert np.allclose(eval_diffpoly(sym("u") + mono(3), f).modes, want, rtol=0, atol=1e-14)
    assert functional_eval(mono(3), f) == 6.0 * math.pi
    assert functional_eval(DiffPoly(), f) == 0.0
    # D^0 multiplies every mode, the mean's included, by 1
    assert np.array_equal(multiplier(f, "D", 0).modes.view(np.int64), f.modes.view(np.int64))


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


def test_high_order_model_flow_steps_unitarily():
    # (ik)^121 takes NumPy's polar path, which leaves a real part of about
    # 1e-15 of the dispersion; under the model sign e^{dt L} would overflow
    stepper = _Stepper([model_flow(60)], 256, 1e-3, 2.0 / 3.0, 4)
    assert np.allclose(np.abs(stepper.e_full), 1.0, rtol=0, atol=1e-12)


def test_hierarchy_flow_reduces_to_kdv():
    # l = 1: u_t = d^3 u + u u_x
    f = cosine_field(64, 1)
    r = rhs_field(hierarchy_flow(1), f, dealias=1.0)
    x = grid(64)
    assert np.allclose(r.values(), np.sin(x) - np.cos(x) * np.sin(x), atol=1e-13)


def test_linear_evolution_is_exact():
    # zero nonlinearity: one ETDRK step reproduces exp(t L) to roundoff
    n, dt = 64, 0.1
    lin = dataclasses.replace(model_flow(2), name="linear", nonlinear=DiffPoly())
    f = cosine_field(n, 3)
    g, _ = solve(f, lin, SolverConfig(n=n, dt=dt, t_final=dt, hamiltonians=()))
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


@pytest.mark.parametrize("n, points", [(1024, 64), (16, 8)])
def test_solve_refuses_a_config_on_another_grid(n, points):
    cfg = SolverConfig(n=n, dt=1e-3, t_final=1e-3, hamiltonians=())
    with pytest.raises(ValueError, match=f"n = {n} differs from u0's {points} points"):
        solve(0.1 * cosine_field(points, 1), model_flow(2), cfg)


def test_time_grid_must_divide():
    # the config itself refuses a fractional step count, before any solve
    with pytest.raises(ValueError, match="integer number of steps"):
        SolverConfig(n=64, dt=3e-3, t_final=0.01, hamiltonians=())


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


_F8, _F16, _F64 = cosine_field(8, 1), cosine_field(16, 1), cosine_field(64, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SpectralField(9, np.zeros(5)), "grid size must be even and >= 4"),
        (lambda: SpectralField(8, np.zeros(4)), "mode array does not match grid size"),
        (lambda: _F8 + _F16, "grid mismatch"),
        (lambda: _F8 - _F16, "grid mismatch"),
        (lambda: multiplier(_F8, "x"), "unknown multiplier kind 'x'"),
        (lambda: multiplier(_F8, "d", 1.5), "derivative order must be a nonnegative integer"),
        (lambda: multiplier(_F8, "d", -1), "derivative order must be a nonnegative integer"),
        (lambda: multiplier(_F8, "d", math.inf), "derivative order must be a nonnegative integer"),
        (lambda: multiplier(_F8, "d", math.nan), "derivative order must be a nonnegative integer"),
        # 32^400 and the (ik)^400 of every mode above it overflow, as (1 + k^2)^200 does for "J"
        (lambda: multiplier(_F64, "d", 400), "q = 400 overflows (ik)^q for k < 33"),
        (lambda: multiplier(_F64, "D", 400.0), "sigma = 400 overflows |k|^sigma on a grid of 64 points"),
        (lambda: multiplier(_F64, "D", math.nan), "sigma = nan is not a number"),
        (lambda: multiplier(_F64, "J", math.nan), "s = nan is not a number"),
        (lambda: sobolev_norm(_F64, math.nan), "s = nan is not a number"),
        (lambda: mollify(_F8, 0.0), "need eps > 0 and m >= 1"),
        (lambda: mollify(_F8, 0.1, 0), "need eps > 0 and m >= 1"),
        (lambda: mollify(_F8, 0.1, math.nan), "need eps > 0 and m >= 1"),
        (lambda: mollify(_F8, math.nan), "eps = nan is not finite"),
        (lambda: mollify(_F8, math.inf), "eps = inf is not finite"),
        (lambda: scale_field(_F8, 0), "scaling factor must be a positive integer"),
        (lambda: scale_field(_F8, 1.5), "scaling factor must be a positive integer"),
        (lambda: cosine_field(8, 4), "wavenumber must lie in [1, N/2)"),
        (lambda: random_decay_field(8, 1.0, 0, kmax=4), "kmax must lie in [1, N/2 - 1]"),
        (lambda: random_decay_field(8, math.nan, 0), "amplitude 1 * k^nan is not a number"),
        (lambda: random_decay_field(8, 1.0, 0, amplitude=math.nan), "amplitude nan * k^-1 is not a number"),
        (lambda: model_flow(1), "the model flow needs l >= 2"),
        (lambda: hierarchy_flow(0), "hierarchy flows need l >= 1"),
        (lambda: regularized_flow(2, -1.0), "mu must be finite and >= 0, got -1.0"),
        (lambda: SolverConfig(t_final=-1.0), "need a finite t_final >= 0, got -1.0"),
        (lambda: SolverConfig(dt=1e-320), "the step count t_final / dt = 1.0 / 1e-320 overflows"),
        (lambda: _PolyPlan(model_flow(2).nonlinear, 64, 0.0), "dealias fraction must lie in (0, 1]"),
        (lambda: eval_diffpoly(sym("u") * sym("v"), _F8), "numeric evaluation needs a single-symbol polynomial"),
    ],
)
def test_bad_arguments_are_refused_with_their_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


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
# the KdV soliton: closed-form Hamiltonians and a travelling exact solution
# ---------------------------------------------------------------------------


def _soliton(n, kappa, x0=math.pi):
    """12 kappa^2 sech^2(kappa xi) on the n-grid, xi the periodic distance from x0.

    The level-l flow u_t = d/dx G_l carries it left at speed (4 kappa^2)^l,
    and H_m of it on the line is 288 4^m kappa^{2m+3}/(2m+3); on the torus
    the profile at distance pi from its peak is 4 e^{-2 pi kappa} of it.
    """
    xi = (grid(n) - x0 + math.pi) % (2.0 * math.pi) - math.pi
    return _from_values(12.0 * kappa**2 / np.cosh(kappa * xi) ** 2)


def _soliton_hamiltonian(m, kappa):
    return 288.0 * 4**m * kappa ** (2 * m + 3) / (2 * m + 3)


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("kappa", [4, 5, 6])
def test_soliton_hamiltonians_match_the_closed_form(n, kappa):
    f = _soliton(n, kappa)
    for m in range(4):
        exact = _soliton_hamiltonian(m, kappa)
        assert abs(functional_eval(level(m).hamiltonian, f) - exact) <= 1e-14 * exact, m


# (order, steps): max |u - exact| / max |exact| at t = T, and the largest
# relative deviation of a recorded H0..H2 from the closed form, each the
# measured value rounded up to two digits
SOLITON_RUNS = {
    (4, 100): (3.2e-4, 1.8e-4),
    (4, 200): (1.3e-5, 8.1e-6),
    (4, 400): (6.7e-7, 2.5e-7),
    (2, 100): (3.0e-2, 2.1e-2),
    (2, 200): (6.5e-3, 2.7e-3),
    (2, 400): (1.6e-3, 3.5e-4),
}


@pytest.mark.parametrize("order, min_rate", [(4, 3.5), (2, 1.8)])
def test_kdv_soliton_travels_at_the_integrators_order(order, min_rate):
    # hierarchy_flow(1) over T = 1/(4 kappa^2) moves the soliton one unit left
    kappa, n = 5, 256
    t_final = 1.0 / (4 * kappa**2)
    exact = _soliton(n, kappa, math.pi - 1.0).values()
    errors = []
    for steps in (100, 200, 400):
        cfg = SolverConfig(n=n, dt=t_final / steps, t_final=t_final, order=order)
        u, diag = solve(_soliton(n, kappa), hierarchy_flow(1), cfg)
        errors.append(np.max(np.abs(u.values() - exact)) / np.max(exact))
        max_error, max_drift = SOLITON_RUNS[order, steps]
        assert errors[-1] <= max_error, (steps, errors[-1])
        assert len(diag.times) == steps + 1
        for m, values in diag.hams.items():
            exact_h = _soliton_hamiltonian(m, kappa)
            assert max(abs(v - exact_h) for v in values) <= max_drift * exact_h, (steps, m)
    rates = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(rates) >= min_rate, rates


@pytest.mark.xfail(
    raises=BlowUp,
    reason="ETD4 marches the l = 3 soliton into a BlowUp (non-finite diagnostics at t = 0.17 T); ETD2 does not",
)
def test_l3_soliton_survives_etd4():
    kappa, n, steps = 4, 256, 1600
    t_final = 1.0 / (4 * kappa**2) ** 3
    cfg = SolverConfig(n=n, dt=t_final / steps, t_final=t_final, order=4)
    u, _ = solve(_soliton(n, kappa), hierarchy_flow(3), cfg)
    exact = _soliton(n, kappa, math.pi - 1.0).values()
    assert np.max(np.abs(u.values() - exact)) <= 1e-2 * np.max(exact)


@pytest.mark.xfail(
    raises=AssertionError,
    reason="ETD4 converges on the l = 2 soliton at rates 0.71, 3.21 and 2.10 over 100..800 steps, not 4",
)
def test_l2_soliton_travels_at_etd4_order():
    # hierarchy_flow(2) over T = 1/(4 kappa^2)^2 moves the soliton one unit left
    kappa, n = 4, 256
    t_final = 1.0 / (4 * kappa**2) ** 2
    exact = _soliton(n, kappa, math.pi - 1.0).values()
    errors = []
    for steps in (100, 200, 400, 800):
        cfg = SolverConfig(n=n, dt=t_final / steps, t_final=t_final, diagnostics_every=steps, hamiltonians=())
        u, _ = solve(_soliton(n, kappa), hierarchy_flow(2), cfg)
        errors.append(np.max(np.abs(u.values() - exact)) / np.max(exact))
    rates = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(rates) >= 3.5, (errors, rates)


# ---------------------------------------------------------------------------
# beyond one soliton: two solitons through their collision, and commuting flows
# (Hirota, PRL 1971; Lax, CPAM 1968)
# ---------------------------------------------------------------------------

TWO_SOLITON = ((6.0, 4.5), (3.6, 2.7))  # (kappa_1, kappa_2), (x_1, x_2)


def _two_soliton(n, l, t, a_factor=1.0):
    """Hirota's two-soliton 12 d_x^2 log tau on the n-grid at time t, real or complex.

    tau = 1 + e^eta1 + e^eta2 + A e^(eta1 + eta2) with eta_i = 2 kappa_i (x - x_i
    + (4 kappa_i^2)^l t) and A = ((kappa_1 - kappa_2)/(kappa_1 + kappa_2))^2
    solves hierarchy_flow(l) for every l; a_factor scales A.  x is taken within
    pi of the midpoint of the two peaks, so the pair wraps as one.  With
    p_j = e^(E_j) / tau over tau's four exponents E_j, of x-slopes K_j,
    12 d_x^2 log tau = 12 sum_j p_j (K_j - sum_i p_i K_i)^2.
    """
    (k1, k2), xs = TWO_SOLITON
    speeds = [(4 * k * k) ** l for k in (k1, k2)]
    centre = sum(x0 - c * t.real for x0, c in zip(xs, speeds)) / 2
    x = centre + (grid(n) - centre + math.pi) % TAU - math.pi
    eta1, eta2 = (2 * k * (x - x0 + c * t) for k, x0, c in zip((k1, k2), xs, speeds))
    log_a = 2 * math.log((k1 - k2) / (k1 + k2)) + math.log(a_factor)
    exps = np.array([0 * eta1, eta1, eta2, eta1 + eta2 + log_a])
    slopes = np.array([0.0, 2 * k1, 2 * k2, 2 * (k1 + k2)])[:, None]
    p = np.exp(exps - exps.real.max(axis=0))
    p = p / p.sum(axis=0)
    return 12 * (p * (slopes - (p * slopes).sum(axis=0)) ** 2).sum(axis=0)


def _collision_time(l):
    (k1, k2), (x1, x2) = TWO_SOLITON
    return (x1 - x2) / ((4 * k1 * k1) ** l - (4 * k2 * k2) ** l)


# max |u_t - rhs_field| / max |u_t| at the collision, N = 512, over the modes
# with |u^| > 1e-12 max |u^|: each the measured value rounded up to two digits
TWO_SOLITON_RESIDUALS = {1: 5.7e-9, 2: 4.1e-7, 3: 3.3e-5}


@pytest.mark.parametrize("l", [1, 2, 3])
def test_two_soliton_collision_solves_the_hierarchy_flow(l):
    n, t, h = 512, _collision_time(l), 1e-30

    def residual(a_factor):
        u = _from_values(_two_soliton(n, l, t, a_factor))
        # u_t by a complex step in t, exact to roundoff
        u_t = _from_values(_two_soliton(n, l, t + 1j * h, a_factor).imag / h).modes
        kept = np.abs(u.modes) > 1e-12 * np.max(np.abs(u.modes))
        return np.max(np.abs(u_t - rhs_field(hierarchy_flow(l), u).modes)[kept]) / np.max(np.abs(u_t[kept]))

    assert residual(1.0) <= TWO_SOLITON_RESIDUALS[l]
    # A off by 1% misplaces the collision's phase shift, and the check sees it
    assert residual(1.01) > 1e-3


# steps: max |u - exact| / max |exact| at T = 2 t*, rounded up to two digits
TWO_SOLITON_RUNS = {200: 9.9e-2, 400: 5.8e-3, 800: 2.4e-4}


def test_kdv_two_soliton_collides_at_etd4_order():
    n, t_final = 512, 2.0 * _collision_time(1)
    u0, exact = (_from_values(_two_soliton(n, 1, t)) for t in (0.0, t_final))
    errors = []
    for steps, max_error in TWO_SOLITON_RUNS.items():
        cfg = SolverConfig(n=n, dt=t_final / steps, t_final=t_final, diagnostics_every=steps, hamiltonians=())
        u, _ = solve(u0, hierarchy_flow(1), cfg)
        errors.append(np.max(np.abs(u.values() - exact.values())) / np.max(exact.values()))
        assert errors[-1] <= max_error, (steps, errors[-1])
    rates = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(rates) >= 3.5, rates


@pytest.mark.xfail(
    raises=BlowUp,
    reason="ETD4 marches the l = 2 two-soliton into a BlowUp (non-finite mode at 0.92 T) at 6400 steps",
)
def test_l2_two_soliton_survives_etd4():
    n, steps, t_final = 512, 6400, 2.0 * _collision_time(2)
    u0 = _from_values(_two_soliton(n, 2, 0.0))
    cfg = SolverConfig(n=n, dt=t_final / steps, t_final=t_final, diagnostics_every=steps, hamiltonians=())
    u, _ = solve(u0, hierarchy_flow(2), cfg)
    exact = _two_soliton(n, 2, t_final)
    assert np.max(np.abs(u.values() - exact)) <= 1e-2 * np.max(exact)


def _commutation_gap(flow, t_flow, steps, kmax=10):
    """Relative max gap between hier1 over 0.05 after flow over t_flow and before it, ETD4.

    The data have band kmax: at kmax = 10 the hier1/hier2 gap shrinks at ETD4's
    order, at kmax = 20 at rates 1.2 to 1.65 over 100..800 steps, and at the
    default kmax = 63 at rates 0.8 to 1.7 over 50..3200 steps, for ETD2 as for ETD4.
    """
    u = random_decay_field(128, decay=6, seed=1, amplitude=1.0, kmax=kmax)

    def leg(v, f, t):
        return solve(v, f, SolverConfig(n=128, dt=t / steps, t_final=t, diagnostics_every=steps, hamiltonians=()))[0]

    ab = leg(leg(u, flow, t_flow), hierarchy_flow(1), 0.05).values()
    ba = leg(leg(u, hierarchy_flow(1), 0.05), flow, t_flow).values()
    return np.max(np.abs(ab - ba)) / np.max(np.abs(ab))


def test_hierarchy_flows_commute_at_the_integrators_order():
    gaps = [_commutation_gap(hierarchy_flow(2), 6.25e-3, steps) for steps in (100, 200, 400)]
    rates = [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]
    assert min(rates) >= 2.5, (gaps, rates)
    # the model flow does not commute with hier1 (1.7e-2), so the check has teeth
    assert _commutation_gap(model_flow(2), 6.25e-3, 100) >= 1e-2


@pytest.mark.xfail(
    raises=AssertionError,
    reason="ETD4's hier1/hier3 commutation gap grows from 2.4e-6 at 100 steps to 2.8e-6 at 1600",
)
def test_hier1_and_hier3_commute_as_the_steps_shrink():
    coarse, fine = (_commutation_gap(hierarchy_flow(3), 7.8e-4, steps) for steps in (100, 1600))
    assert fine <= coarse / 4, (coarse, fine)


@pytest.mark.xfail(
    raises=AssertionError,
    reason="on band-20 data ETD4's hier1/hier2 gap shrinks at rates 1.20, 1.65 and 1.52 over 100..800 steps",
)
def test_hier1_and_hier2_commute_at_order_on_band_20_data():
    gaps = [_commutation_gap(hierarchy_flow(2), 6.25e-3, steps, kmax=20) for steps in (100, 200, 400, 800)]
    rates = [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]
    assert min(rates) >= 2.5, (gaps, rates)


@pytest.mark.xfail(
    raises=AssertionError,
    reason="ROADMAP items 3 and 9: on full-band data (kmax = 63 of N = 128) ETD4's hier1/hier2 gap reads "
    "2.25e-7, 9.85e-8, 3.15e-8 and 1.14e-8 over 100..800 steps, rates 1.19, 1.64 and 1.46",
)
def test_hier1_and_hier2_commute_at_order_on_full_band_data():
    gaps = [_commutation_gap(hierarchy_flow(2), 6.25e-3, steps, kmax=63) for steps in (100, 200, 400, 800)]
    rates = [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]
    assert min(rates) >= 2.5, (gaps, rates)


# ---------------------------------------------------------------------------
# the Lax spectrum: every hierarchy flow is isospectral for Hill's operator
# ---------------------------------------------------------------------------


def _hill_spectrum(u, m, count):
    """The count lowest periodic and antiperiodic eigenvalues of Hill's operator -d^2 - u/6.

    Each is the spectrum of the Fourier matrix (j + theta)^2 delta_jk - u_{j-k}/6
    over |j|, |k| <= m, for theta = 0 and 1/2; modes of u above its grid are zero.
    """
    half = np.zeros(2 * m + 1, complex)
    take = min(2 * m, u.n // 2)
    half[: take + 1] = u.modes[: take + 1]
    two_sided = np.concatenate([np.conj(half[:0:-1]), half])  # u_d at index d + 2m
    j = np.arange(-m, m + 1)
    coupling = two_sided[j[:, None] - j + 2 * m] / 6.0
    return np.concatenate([np.linalg.eigvalsh(np.diag((j + theta) ** 2) - coupling)[:count] for theta in (0.0, 0.5)])


def _hill_drift(flow, t_final, steps=400, amplitude=1.0):
    """Max change of the 12 lowest Hill eigenvalues of each kind over an ETD4 solve from band-10 data."""
    u0 = random_decay_field(128, decay=6, seed=1, amplitude=amplitude, kmax=10)
    u = solve(u0, flow, SolverConfig(n=128, dt=t_final / steps, t_final=t_final, diagnostics_every=steps,
                                     hamiltonians=()))[0]
    return np.max(np.abs(_hill_spectrum(u, 64, 12) - _hill_spectrum(u0, 64, 12)))


# measured drifts: hier1 1.72e-12 to 2.05e-12 over OpenBLAS's SkylakeX, Haswell, Zen,
# Sandybridge and Prescott kernels, which is eigvalsh's own roundoff on these
# 129 x 129 matrices (the basis taken in reverse order moves the spectrum by
# 1.8e-12); hier2 5.118e-10 to 5.123e-10
@pytest.mark.parametrize("l, t_final, bound", [(1, 0.05, 2.1e-12), (2, 6.25e-3, 5.2e-10)], ids=["hier1", "hier2"])
def test_hierarchy_flows_keep_the_hill_spectrum(l, t_final, bound):
    drift = _hill_drift(hierarchy_flow(l), t_final)
    assert drift <= bound, drift


def test_the_model_flow_moves_the_hill_spectrum():
    # the control: model2 is not integrable, and its drift reads 4.5e-4
    assert _hill_drift(model_flow(2), 6.25e-3) > 1e-4


def _mutated(flow, i):
    """flow with the coefficient of its i-th nonlinear monomial scaled by 1.01."""
    monomials = flow.nonlinear.monomials
    m = monomials[i]
    mutated = DiffPoly([*monomials[:i], dataclasses.replace(m, coeff=m.coeff * 101 / 100), *monomials[i + 1:]])
    return dataclasses.replace(flow, nonlinear=mutated)


@pytest.mark.parametrize("i", range(3))
def test_a_mutated_hier2_coefficient_moves_the_hill_spectrum(i):
    # one of hier2's three nonlinear coefficients scaled by 1.01 drifts 2.98e-6,
    # 5.70e-6 and 5.72e-6 against 5.12e-10 unmutated: the spectrum certifies level(2)
    flow = hierarchy_flow(2)
    assert len(flow.nonlinear.monomials) == 3
    assert _hill_drift(_mutated(flow, i), 6.25e-3) > 1e-6


@pytest.mark.parametrize("i", [None, 0, 1, 2], ids=["unmutated", "7/3 u u5", "7 u1 u4", "35/3 u2 u3"])
def test_a_mutated_hier3_quadratic_coefficient_moves_the_hill_spectrum(i):
    # at amplitude 1.0 hier3's own ETD4 drift hides a mutation, at 0.1 it reads
    # 1.25e-8; each quadratic coefficient scaled by 1.01 drifts 1.95e-7, 5.96e-7
    # and 9.76e-7.  The cubic and quartic coefficients stay hidden (CHANGES.md)
    flow = hierarchy_flow(3)
    assert [len(m.factors) for m in flow.nonlinear.monomials[:3]] == [2, 2, 2]
    drift = _hill_drift(flow if i is None else _mutated(flow, i), 0.01, amplitude=0.1)
    assert (drift < 5e-8) == (i is None), drift


@pytest.mark.xfail(
    raises=AssertionError,
    reason="ETD4's hier3 Hill drift goes from 1.70e-7 at 100 steps only to 1.29e-7 at 1600",
)
def test_hier3_keeps_the_hill_spectrum_as_the_steps_shrink():
    coarse, fine = (_hill_drift(hierarchy_flow(3), 7.8e-4, steps) for steps in (100, 1600))
    assert fine <= coarse / 4, (coarse, fine)


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


def test_functional_eval_is_exact_on_rounded_grids(transforms):
    # at K = 85, _product_grid gives 172, 258, 342, 428 for d = 2..5, none
    # 5-smooth; the quadrature rounds them up and its means stay exact
    big_k, n = 85, 256
    assert not any(_five_smooth(_product_grid(d, big_k)) for d in (2, 3, 4, 5))
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
            transforms.clear()
            got = functional_eval(h, f)
            ref, scale = _exact_functional(h.integrand, f)
            assert abs(got - ref) <= 1e-13 * scale, (l, got, ref)
            degree = max(len(monomial.factors) for monomial in h.integrand.monomials)
            [m] = [size for name, size in transforms if name == "irfft"]
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


def test_products_into_a_buffer_keep_bits():
    # a bound evaluator's buffer takes the sum in out[0] and each later term in
    # out[1]: the bits of the allocating form, for one term and for many
    vals = np.random.default_rng(4).standard_normal((7, 3, 96))
    for flow in (model_flow(2), hierarchy_flow(3)):
        poly = _Monomials(flow.nonlinear)
        out = tuple(np.empty((2, 3, 96)))
        got = poly.products(vals[: len(poly.orders)], out)
        assert np.shares_memory(got, out[0]) and got.shape == out[0].shape
        assert np.array_equal(got, poly.products(vals[: len(poly.orders)]))


def test_rhs_plan_is_alias_free_on_an_enlarged_grid():
    # u^4 u_x with u = cos x + cos(Kx)/2 reaches mode 5K; on N = 200 the plan's
    # grid is rounded up past 6K + 2 to a 5-smooth size
    n = 200
    big_k = int(2.0 / 3.0 * (n // 2))
    u = sym("u")
    p = u * u * u * u * sym("u", 1)
    assert _PolyPlan(p, n, 2.0 / 3.0).m > 6 * big_k + 2
    x = grid(n)
    f = _from_values(np.cos(x) + np.cos(big_k * x) / 2.0)
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


def test_rhs_fft_count_is_pinned(transforms):
    flow, f = hierarchy_flow(3), _plan_field(1024, "smooth")
    seen = []
    for _ in range(2):
        transforms.clear()
        rhs_field(flow, f, dealias=2.0 / 3.0)
        seen.append(transforms.counts())
    # every derivative order in one batched irfft, the summed products in one rfft
    assert seen[0] == seen[1] == {"rfft": 1, "irfft": 1}
    # one order-4 step, whose records (no Hamiltonians) transform nothing
    transforms.clear()
    solve(f, flow, SolverConfig(n=1024, dt=1e-4, t_final=1e-4, order=4, hamiltonians=()))
    assert transforms.counts() == {"rfft": 4, "irfft": 4}


def test_batch_step_fft_count_is_pinned(transforms):
    # one order-4 step of six flows is four RHS evaluations of the whole
    # stack: 4 rfft + 4 irfft, as for one flow
    flows = [regularized_flow(2, mu) for mu in (1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4, 3.125e-4)]
    cfg = SolverConfig(n=128, dt=1e-4, t_final=1e-4, order=4, hamiltonians=())
    solve_batch(0.1 * cosine_field(128, 1), flows, cfg)
    assert transforms.counts() == {"rfft": 4, "irfft": 4}


def test_record_fft_count_is_pinned(transforms):
    # a recorded Hamiltonian is one irfft of a chunk of kept bands on its own
    # grid, with no rfft and no transform shared with the march: the seven
    # states of this run share one band and fit one chunk
    f, steps = random_decay_field(128, decay=3.0, seed=5, amplitude=0.1), 6

    def run(hams):
        transforms.clear()
        cfg = SolverConfig(n=128, dt=1e-3, t_final=steps * 1e-3, hamiltonians=hams)
        solve(f, hierarchy_flow(1), cfg)
        return transforms.counts()

    with_hams, without = run((0, 1, 2)), run(())
    # records at t = 0 and after every step, one chunk
    assert with_hams["rfft"] == without["rfft"]
    assert with_hams["irfft"] - without["irfft"] == 3
    for m in (0, 1, 2):
        transforms.clear()
        functional_eval(level(m).hamiltonian, f)
        assert transforms.counts() == {"rfft": 0, "irfft": 1}, m


@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("name", ["hier1", "hier2", "hier3", "hier4", "model2", "stack6"])
def test_chunked_records_keep_the_bits_of_single_records(monkeypatch, name, order, every):
    # recorded states are evaluated a chunk at a time, grouped by band, and
    # each value keeps the bits that sobolev_norm and functional_eval give on
    # the observed state alone.  The start's band (2) is narrower than the
    # march's, so the first chunk holds several bands, and every run spans
    # several chunks with a partial last one, observed or not
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
    alone = []

    def observe(states):
        alone.append([(sobolev_norm(g, 0.0), {m: functional_eval(level(m).hamiltonian, g) for m in (0, 1, 2)})
                      for g in states])

    observed = solve_batch(f, flows, cfg, observe)
    assert max(chunks) > 1, chunks
    for j, ((state, diag), (ref, ref_diag)) in enumerate(zip(chunked, observed)):
        assert np.array_equal(state.modes, ref.modes)
        assert diag.times == ref_diag.times and diag.l2 == ref_diag.l2 and diag.hams == ref_diag.hams
        assert len(diag.times) == len(alone) == 1 + -(-steps // every)
        assert diag.l2 == [members[j][0] for members in alone]
        for m, values in diag.hams.items():
            assert values == [members[j][1][m] for members in alone]
        assert all(math.isfinite(v) for values in diag.hams.values() for v in values)


def test_chunked_records_report_the_first_non_finite_diagnostic():
    # at amplitude 1e8 the state after one step is finite but its H2
    # overflows; the stepper raises a few steps later, inside the same chunk.
    # The pending records are evaluated first, so the report names the first
    # non-finite record, and observe has seen every state before it
    f = 1e8 * cosine_field(64, 1)
    cfg = SolverConfig(n=64, dt=1e-2, t_final=1.0, hamiltonians=(0, 1, 2))
    seen = []
    for observe in (None, seen.append):
        with np.errstate(all="raise"), pytest.raises(BlowUp) as info:
            solve_batch(f, [model_flow(2)], cfg, observe)
        assert type(info.value) is BlowUp
        assert str(info.value) == "non-finite diagnostics at t = 0.01"
        assert info.value.time == 0.01
        # the stepper's own BlowUp came first, mid-chunk
        assert isinstance(info.value.__context__, BlowUp) and "non-finite mode" in str(info.value.__context__)
    assert len(seen) == 1 and len(seen[0]) == 1 and np.array_equal(seen[0][0].modes, f.modes)


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
    # the threads race to build the shared ETD tables
    spectral._etd_tables.cache_clear()
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


def _arrays_held(fn):
    """Every array that a bound evaluator, or a sampler it calls, holds in its closure."""
    found = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            found.append(value)
        elif callable(value):
            found += _arrays_held(value)
    return found


@pytest.mark.parametrize("members", [1, 6])
@pytest.mark.parametrize("order", [2, 4])
def test_returned_states_stay_put_and_share_no_memory(order, members):
    # the stages are formed in place and every RHS writes its own buffers;
    # only the returned state is new, so pending records may keep it
    flows = [_damped(model_flow(2), mu) for mu in (0.0, 1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2)[:members]]
    stepper = _Stepper(flows, 64, 1e-4, 2.0 / 3.0, order)
    fields = [random_decay_field(64, decay=3.0, seed=seed, amplitude=0.1) for seed in range(members)]
    u = np.array([f.modes[: stepper.take + 1] for f in fields]).reshape(stepper.e_full.shape)
    states, copies = [], []
    for i in range(5):
        u = stepper.advance(u, i * 1e-4)
        states.append(u)
        copies.append(u.copy())
    buffers = [*stepper._stages, *(a for rhs in stepper._rhs for a in _arrays_held(rhs))]
    assert len(buffers) > 4
    for i, (state, copy) in enumerate(zip(states, copies)):
        assert np.array_equal(state, copy), i
        assert not any(np.shares_memory(state, other) for other in states[:i] + states[i + 1 :]), i
        assert not any(np.shares_memory(state, buffer) for buffer in buffers), i


_TABLES = {2: ("e_full", "h_phi1", "h_phi2"), 4: ("e_full", "e_half", "h_phi1_half", "w1", "w2", "w3")}


@pytest.mark.parametrize("order", [2, 4])
def test_steppers_of_one_key_share_read_only_tables(order):
    # the key is each flow's linear part, n, take, dt and order; the
    # nonlinearity is not in it
    n, dt, dealias = 128, 1e-3, 2.0 / 3.0
    flows = [regularized_flow(2, 1e-3), regularized_flow(2, 2e-3)]
    a = _Stepper(flows, n, dt, dealias, order)
    b = _Stepper([regularized_flow(2, 1e-3), regularized_flow(2, 2e-3)], n, dt, dealias, order)
    c = _Stepper([dataclasses.replace(flow, nonlinear=DiffPoly()) for flow in flows], n, dt, dealias, order)
    for name in _TABLES[order]:
        table = getattr(a, name)
        assert table is getattr(b, name) is getattr(c, name) and not table.flags.writeable, name
    assert a._rhs is not b._rhs and a._stages is not b._stages
    # a different damping (-0.0 too, which == 0.0), dt, order or grid builds new tables
    zero, signed = (_Stepper([_damped(model_flow(2), mu)], n, dt, dealias, order) for mu in (0.0, -0.0))
    assert signed.e_full[0].imag.hex() != zero.e_full[0].imag.hex()
    for other in (
        _Stepper([flows[0], regularized_flow(2, 4e-3)], n, dt, dealias, order),
        _Stepper(flows, n, dt / 2, dealias, order),
        _Stepper(flows, n, dt, dealias, 6 - order),
        _Stepper(flows, n, dt, 0.5, order),
        _Stepper(flows, 2 * n, dt, dealias / 2, order),
    ):
        assert other.e_full is not a.e_full


@pytest.mark.parametrize("order", [2, 4])
def test_a_stepper_built_after_cache_clear_marches_bit_for_bit(order):
    # a solve on cached tables, and one on tables built afresh, keep the bits
    u0 = random_decay_field(128, decay=3.0, seed=5, amplitude=0.1)
    cfg = SolverConfig(n=128, dt=1e-4, t_final=2e-3, order=order, diagnostics_every=5)
    ladder = [regularized_flow(2, mu) for mu in (1e-2, 5e-3)]
    runs = []
    for clear in (True, False, True):
        if clear:
            spectral._etd_tables.cache_clear()
        runs.append([(u.modes, d.times, d.l2, sorted(d.hams.items())) for u, d in solve_batch(u0, ladder, cfg)])
    for run in runs[1:]:
        for (modes, *rest), (ref_modes, *ref_rest) in zip(run, runs[0]):
            assert np.array_equal(modes.view(np.uint64), ref_modes.view(np.uint64)) and rest == ref_rest


def test_an_overflowing_symbol_is_refused_with_tables_cached():
    # mu k^6 at mu = 1e300 is finite for k <= 7 and overflows from k = 24: the
    # n = 16 tables are built and cached, and every n = 64 stepper is refused
    # before anything warns, since a refusal is never cached
    flow = regularized_flow(2, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(_Stepper([flow], 16, 1e-3, 2.0 / 3.0, 4).e_full).all()
        for _ in range(2):
            with pytest.raises(ValueError, match=r"regularized flow's symbol \(l = 2, mu = 1e\+300\) overflows on N = 64"):
                _Stepper([flow], 64, 1e-3, 2.0 / 3.0, 4)


def test_record_values_groups_rows_by_band_bit_for_bit():
    # one chunk with rows of band 0 (all zero and mode 0 alone), band 3 and
    # the march's band: each row's values are those of its own field
    n = 64
    take = _PolyPlan(model_flow(2).nonlinear, n, 2.0 / 3.0).take
    mean_only = np.zeros(n // 2 + 1, dtype=np.complex128)
    mean_only[0] = 0.3
    rows = [
        np.zeros(n // 2 + 1, dtype=np.complex128),
        random_decay_field(n, decay=2.0, seed=1, amplitude=0.1, kmax=3).modes,
        mean_only,
        random_decay_field(n, decay=2.0, seed=2, amplitude=0.1, kmax=take).modes,
        random_decay_field(n, decay=2.0, seed=3, amplitude=0.1, kmax=3).modes,
    ]
    fields = [SpectralField(n, row) for row in rows]
    assert [f.band_limit() for f in fields] == [0, 3, 0, take, 3]
    hams = (0, 1, 2)
    got = spectral._record_values(np.array(rows), [_Monomials(level(m).hamiltonian.integrand) for m in hams])
    for f, values in zip(fields, got):
        want = np.array([sobolev_norm(f, 0.0)] + [functional_eval(level(m).hamiltonian, f) for m in hams])
        assert np.array_equal(values.view(np.uint64), want.view(np.uint64)), f.band_limit()


def test_a_nan_mode_counts_in_the_band():
    # a NaN above the last nonzero finite mode is != 0, so the band reaches it
    # and every value on the band is NaN, as the norm is; the band once
    # stopped below it (abs(nan) > 0 is false) and the values were finite
    modes = np.zeros(33, dtype=np.complex128)
    modes[1], modes[5] = 0.1, np.nan
    u = SpectralField(64, modes)
    assert u.band_limit() == 5
    h1 = level(1).hamiltonian
    assert math.isnan(sobolev_norm(u))
    assert math.isnan(functional_eval(h1, u))
    assert np.isnan(spectral._record_values(modes[None].copy(), [_Monomials(h1.integrand)])).all()
    bp = modenergy.build_energy(2)
    assert math.isnan(modenergy.energy_time_derivative(bp, 4, u))
    assert math.isnan(modenergy.evaluate_energy(bp, 4, u))


def _phi_closed_form(j, z):
    """(e^z - sum_{n<j} z^n/n!)/z^j as written out, the only form away from 0 before the recurrence."""
    ez = np.exp(z)
    return [(ez - 1.0) / z, (ez - 1.0 - z) / z**2, (ez - 1.0 - z - z**2 / 2.0) / z**3][j - 1]


@pytest.mark.parametrize("j", [1, 2, 3])
def test_phi_keeps_the_closed_form_bits_and_stays_finite_on_huge_symbols(j):
    # on |z| <= 1e3 (Re z below exp's overflow) the closed form is finite, so
    # the recurrence touches no entry and every bit is kept
    re, im = np.meshgrid(np.linspace(-1e3, 700.0, 91), np.linspace(-1e3, 1e3, 91))
    z = np.concatenate([(re + 1j * im).ravel(), 1j * np.linspace(-1e3, 1e3, 201), np.linspace(-1e3, 700.0, 201)])
    z = z[(np.abs(z) > 1.0) & (np.abs(z) <= 1e3)]
    want = _phi_closed_form(j, z)
    assert np.isfinite(want).all()
    assert np.array_equal(spectral._phi(j, z).view(np.uint64), want.view(np.uint64))
    # a damping symbol of 1e160: z^2 and z^3 overflow; phi_j(z) -> -1/((j-1)! z)
    z = np.array([-1e160, -1e160 + 1e150j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spectral._phi(j, z)
    assert np.isfinite(got).all()
    assert np.allclose(got, -1.0 / (math.factorial(j - 1) * z), rtol=1e-12, atol=0.0)
