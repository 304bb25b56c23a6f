"""The stepper against exact travelling waves: the cnoidal family of tests/cnoidal.py.

Every hierarchy flow moves u_q by pure translation, so a solve over t_final
has an exact answer, u_q(x + c t_final), that sees phase as well as shape.
Errors are relative max modal errors, and an order is log2 of the ratio of
errors at step counts m and 2m.  The order gates come from parameters the
tests do not use (a = 0 and -0.4, N and t_final as in the row):
- ETD4 at l = 1, q = 0.2 and 0.4 over 100..400 steps read orders 3.95 to
  4.41; the gate is 3.8;
- ETD2 read orders 1.57 to 2.34 over 16 runs: l = 1 at q = 0.2 and 0.4
  (100..400 steps), l = 2 at q = 0.05, 0.15 (t_final = 0.2) and 0.2, 0.25
  (t_final = 0.02) over 200..800 steps, and l = 3 at q = 0.05 and 0.15 over
  400..1600 steps; the gate is the band 1.5 to 2.5.
Every other row of ROADMAP item 16's table is a strict xfail (item 3), run at
the fewest steps that show its failure.
"""

import math

import numpy as np
import pytest

from cnoidal import cnoidal, cnoidal_speed
from kdvlab.spectral import BlowUp, SolverConfig, SpectralField, hierarchy_flow, solve

A = 0.3
ORDER_BANDS = {4: (3.8, math.inf), 2: (1.5, 2.5)}


@pytest.mark.parametrize("q", [0.05, 0.2, 0.4])
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_every_hierarchy_flow_moves_the_cnoidal_wave_by_translation(l, q):
    # the fit's residual is gated inside cnoidal_speed
    assert math.isfinite(cnoidal_speed(l, cnoidal(128, q, A)))


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_a_wave_with_a_wrong_prefactor_does_not_travel(l):
    # the identity is sharp in the amplitude: 24 (1 + 1e-6) in place of 24
    # leaves a residual of 9e-7 to 2e-3
    for q in (0.05, 0.2, 0.4):
        u = cnoidal(128, q, A)
        wrong = SpectralField(u.n, np.concatenate([u.modes[:1], (1 + 1e-6) * u.modes[1:]]))
        with pytest.raises(AssertionError):
            cnoidal_speed(l, wrong)


def _solves(order, l, q, n, t_final, steps):
    """(u_q, its speed, each solve's final state over t_final at each step count, None where it blew up)."""
    u0 = cnoidal(n, q, A)
    finals = []
    for m in steps:
        cfg = SolverConfig(n=n, dt=t_final / m, t_final=t_final, order=order, diagnostics_every=m, hamiltonians=())
        try:
            finals.append(solve(u0, hierarchy_flow(l), cfg)[0])
        except BlowUp:
            finals.append(None)
    return u0, cnoidal_speed(l, u0), finals


def _orders(u0, shift, finals):
    """The orders between successive solves against u0(x + shift); a blow-up fails the assertion."""
    exact = u0.modes * np.exp(1j * shift * np.arange(u0.modes.size))
    errors = [math.inf if u is None else np.max(np.abs(u.modes - exact)) / np.max(np.abs(exact)) for u in finals]
    assert all(map(math.isfinite, errors)), errors
    return [math.log2(a / b) for a, b in zip(errors, errors[1:])]


def test_etd4_moves_the_l1_wave_at_order_four():
    t_final = 0.5
    u0, c, finals = _solves(4, 1, 0.3, 128, t_final, (100, 200, 400))
    assert min(_orders(u0, c * t_final, finals)) >= 3.8
    # the exact shift sees phase: a speed 1e-6 off leaves an error floor
    assert min(_orders(u0, (1 + 1e-6) * c * t_final, finals)) < 3.8


def _fails(reading):
    return pytest.mark.xfail(raises=AssertionError, reason=f"ROADMAP item 3: {reading}")


@pytest.mark.parametrize(
    "order, l, q, n, t_final, steps",
    [
        (2, 1, 0.3, 128, 0.5, (100, 200, 400)),
        (2, 2, 0.1, 128, 0.2, (200, 400, 800)),
        (2, 2, 0.3, 128, 0.02, (200, 400, 800)),
        # at l = 3 the order rises from 1.64 at 100 steps: read from 400 on
        (2, 3, 0.1, 128, 0.02, (400, 800, 1600)),
        pytest.param(4, 2, 0.1, 128, 0.2, (200, 400), marks=_fails("errors 2.1e-6, 5.3e-7, order 1.97")),
        pytest.param(4, 2, 0.3, 128, 0.02, (100, 200), marks=_fails("errors 1.7e-4, 1.6e-5, order 3.39")),
        pytest.param(4, 3, 0.1, 128, 0.02, (100, 200), marks=_fails("errors 9.1e-7, 1.5e-2")),
        pytest.param(4, 3, 0.3, 256, 2e-3, (100, 200), marks=_fails("errors 1.5e-3, 1.8e-4, order 3.07")),
        pytest.param(4, 4, 0.1, 128, 2e-3, (100, 200), marks=_fails("errors 5.3e-7, 1.3e-3")),
        pytest.param(4, 4, 0.3, 256, 2e-4, (100,), marks=_fails("BlowUp at 100 to 1600 steps")),
        pytest.param(2, 3, 0.3, 256, 2e-3, (100, 200), marks=_fails("errors 5.7e-4, 2.6e-4, order 1.17")),
        pytest.param(2, 4, 0.1, 128, 2e-3, (100, 200), marks=_fails("errors 2.0e-6, 1.1e-6, order 0.88")),
        pytest.param(2, 4, 0.3, 256, 2e-4, (100, 200, 400), marks=_fails("errors 1.2e-3, 4.1e-4, 4.1e-3")),
    ],
    ids=lambda value: "-".join(map(str, value)) if isinstance(value, tuple) else None,
)
def test_etd_converges_at_its_order_on_the_cnoidal_wave(order, l, q, n, t_final, steps):
    u0, c, finals = _solves(order, l, q, n, t_final, steps)
    orders = _orders(u0, c * t_final, finals)
    lo, hi = ORDER_BANDS[order]
    assert all(lo <= p <= hi for p in orders), orders
