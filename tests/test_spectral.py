"""Pseudospectral layer: fields, multipliers, quadrature, flows, stepping."""

import math

import numpy as np
import pytest

from kdvlab.diffpoly import mono, sym
from kdvlab.hierarchy import level
from kdvlab.spectral import (
    BlowUp,
    Diagnostics,
    SolverConfig,
    SpectralField,
    cosine_field,
    custom_flow,
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


def test_regularized_flow_symbol():
    flow = regularized_flow(2, mu=0.01)
    sym_vals = flow.linear_on(64)
    k = 5
    expected = -((1j * k) ** 5) - 0.01 * k**6
    assert abs(sym_vals[k] - expected) < 1e-12


def test_hierarchy_flow_reduces_to_kdv():
    # l = 1: u_t = d^3 u + u u_x
    f = cosine_field(64, 1)
    r = rhs_field(hierarchy_flow(1), f, dealias=1.0)
    x = grid(64)
    assert np.allclose(r.values(), np.sin(x) - np.cos(x) * np.sin(x), atol=1e-13)


def test_linear_evolution_is_exact():
    # zero nonlinearity: one ETDRK step reproduces exp(t L) to roundoff
    n, dt = 64, 0.1
    flow = custom_flow(mono(0) * sym("u"), l=0)
    airy = model_flow(2)
    lin = type(airy)("linear", airy.symbol, None, airy.l)
    f = cosine_field(n, 3)
    g = step(f, lin, SolverConfig(n=n, dt=dt, t_final=dt))
    exact = f.modes * np.exp(lin.linear_on(n) * dt)
    assert np.allclose(g.modes, exact, atol=1e-14)
    del flow


def test_parabolic_damping_contracts_l2():
    n = 64
    f = 0.05 * cosine_field(n, 4)
    cfg = SolverConfig(n=n, dt=1e-3, t_final=0.05, hamiltonians=())
    out, _ = solve(f, regularized_flow(2, mu=0.5), cfg)
    assert sobolev_norm(out, 0.0) < sobolev_norm(f, 0.0)


def test_solve_records_requested_diagnostics():
    f = 0.1 * cosine_field(64, 1)
    cfg = SolverConfig(
        n=64, dt=1e-3, t_final=0.01, diagnostics_every=5,
        diagnostics_s=2.0, hamiltonians=(0, 1), store_states=True,
    )
    _, diag = solve(f, hierarchy_flow(1), cfg, energy=lambda g: sobolev_norm(g, 0.0))
    rows = diag.rows()
    assert {"t", "l2", "hs", "H0", "H1", "Es"} <= set(rows[0])
    assert len(diag.states) == len(diag.times)
    assert rows[0]["t"] == 0.0 and abs(rows[-1]["t"] - 0.01) < 1e-12


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
