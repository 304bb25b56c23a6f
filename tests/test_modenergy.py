"""Modified-energy construction: triple reduction, cancellation, evaluation.

Hand-derived anchors for l = 2 (independent integration-by-parts chains,
recorded next to each assertion) pin the engine exactly; the census test
freezes construction sizes as a change detector; numeric tests certify that
the symbolic time-derivative decomposition is an identity on real fields.
"""

import hashlib
import json
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from kdvlab import modenergy
from kdvlab.modenergy import (
    CommutatorTail,
    NormGapTerm,
    OddOffset,
    PTerm,
    ThresholdViolation,
    _correction_shape,
    _expand_linear,
    build_energy,
    energy_time_derivative,
    evaluate_energy,
    pterm,
    regularity_threshold,
)
from kdvlab.spectral import (
    SpectralField,
    cosine_field,
    model_flow,
    random_decay_field,
    rhs_field,
    sobolev_norm,
)
from kdvlab.spoly import SPoly, binom_s

S = SPoly.s()
ONE = SPoly.const(1)


def _terms(lst):
    return [(str(t.coeff), t.a_out, t.off, t.b) for t in lst]


def _reduce_triple(t):
    """The exact rewrite of a D-pair term as normalized squares, merged and sorted."""
    return modenergy._merge(modenergy._reduce_pair(t))


def _evaluate(item, u, s):
    """One term's or marker's value on u, from a plan of that item alone."""
    return modenergy._EnergyPlan((item,), float(s), u.band_limit()).apply(u)[0]


def _quadratic_derivative(l):
    """Main terms of d/dt (1/2 |u|_{H^s}^2): (markers then bounded, resonant), the cascade's first stage."""
    markers, pairs = modenergy._quadratic_expansion(l)
    bounded, resonant = modenergy._reduce_classify(pairs)
    return markers + bounded, resonant


# ---------------------------------------------------------------------------
# triple reduction
# ---------------------------------------------------------------------------


def test_reduce_triple_hand_anchors_l2():
    # int u (D^s d^3 u)(D^s u): moving 3 odd derivatives across the square
    # leaves (3/2) int du (D^s du)^2 - (1/2) int d^3u (D^s u)^2
    out = _reduce_triple(pterm(ONE, 0, (0,), 0, 0, 3))
    assert _terms(out) == [("3/2", 1, 0, 1), ("-1/2", 3, 0, 0)]

    # int du (D^s du)(D^s d^2 u) with weight binom(s,1) = s
    out = _reduce_triple(pterm(binom_s(0, 1), 1, (0,), 0, 0, 2))
    assert _terms(out) == [("-1*s", 1, 0, 1), ("1/2*s", 3, 0, 0)]

    # int d^2u (D^s du)^2-type with weight binom(s,2): gap already even
    out = _reduce_triple(pterm(binom_s(0, 2), 2, (0,), 0, 0, 1))
    assert _terms(out) == [("1/4*s + -1/4*s^2", 3, 0, 0)]


def test_reduce_triple_rejects_odd_offset():
    with pytest.raises(OddOffset):
        _reduce_triple(pterm(ONE, 0, (0,), 1, 0, 3))


def test_reduce_triple_zero_coeff_short_circuits():
    assert _reduce_triple(pterm(SPoly(), 0, (0,), 0, 0, 3)) == []


def test_reduce_triple_numeric_identity():
    # lhs integral equals the sum of its reductions on a concrete field;
    # quadrature is exact for band-limited data
    n = 128
    u = SpectralField(
        n,
        (0.8 * cosine_field(n, 1) + 0.5 * cosine_field(n, 2) + 0.2 * cosine_field(n, 3)).modes,
    )
    s = 4.0
    tau = 2.0 * np.pi

    def dval(order, sigma):
        k = np.arange(u.modes.size, dtype=float)
        w = np.zeros_like(k)
        w[1:] = k[1:] ** sigma
        if sigma == 0:
            w[0] = 1.0
        m = u.modes * w * (1j * k) ** order
        return np.fft.irfft(m * n, n=n)

    for a, b, c in [(0, 0, 3), (1, 0, 2), (2, 0, 1)]:
        lhs = tau * float(np.mean(dval(a, 0) * dval(b, s) * dval(c, s)))
        rhs = sum(_evaluate(t, u, s) for t in _reduce_triple(pterm(ONE, a, (0,), 0, b, c)))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# quadratic stage
# ---------------------------------------------------------------------------


def test_quadratic_derivative_l2_resonant():
    bounded, resonant = _quadratic_derivative(2)
    # the single resonant coefficient is 3/2 - s at int du (D^s du)^2
    assert _terms(resonant) == [("3/2 + -1*s", 1, 0, 1)]
    kinds = sorted(type(t).__name__ for t in bounded)
    assert kinds.count("NormGapTerm") == 1
    assert kinds.count("CommutatorTail") == 1


def test_quadratic_derivative_l2_bounded_coefficient():
    bounded, _ = _quadratic_derivative(2)
    sob = [t for t in bounded if isinstance(t, PTerm)]
    agg = {}
    for t in sob:
        key = (t.a_out, t.off, t.b)
        agg[key] = agg.get(key, SPoly()) + t.coeff
    # total coefficient at int d^3u (D^s u)^2 is -1/2 + 3s/4 - s^2/4
    assert agg[(3, 0, 0)] == SPoly([Fraction(-1, 2), Fraction(3, 4), Fraction(-1, 4)])


def test_resonance_flags():
    bounded, resonant = _quadratic_derivative(2)
    assert all(t.is_resonant for t in resonant)
    assert all(not getattr(t, "is_resonant", False) for t in bounded)


# ---------------------------------------------------------------------------
# correction solve
# ---------------------------------------------------------------------------


def test_gamma_l2_exact():
    bp = build_energy(2, 3)
    assert len(bp.corrections) == 1
    corr = bp.corrections[0]
    assert corr.gamma == SPoly([Fraction(-3, 10), Fraction(1, 5)])  # (2s-3)/10
    t = corr.term
    assert (t.a_out, t.inner, t.off, t.b, t.c) == (0, (0,), -2, 1, 1)
    assert bp.stages[0].diagonal == Fraction(-5)


def test_correction_derivative_l2_linear_parts():
    # d/dt along u_t = -d^5 u of the unit correction for B_1 (j = 0, m = 1)
    linear = _expand_linear(_correction_shape((1, (0,), 1), 2), 2)
    assert _terms(t for t in linear if t.is_resonant) == [("5", 1, 0, 1)]
    assert _terms(t for t in linear if not t.is_resonant) == [("-5", 3, 0, 0)]


def test_cancellation_l2_closed_form():
    # gamma solves (3/2 - s) + gamma * (d/ds-free) diagonal 5/(2s-3)...:
    # beta_1 + gamma * 5 must vanish identically in s
    bp = build_energy(2, 3)
    _, resonant = _quadratic_derivative(2)
    beta = resonant[0].coeff
    gamma = bp.corrections[0].gamma
    assert (beta + gamma * SPoly.const(5)).is_zero()


def test_cascade_empty_residue_and_diagonals(blueprints):
    for l in (2, 3, 4, 5):
        bp = blueprints[l]
        assert bp.resonant_residue == []
        assert bp.pending == []
        expected = Fraction((-1) ** (l + 1) * (2 * l + 1))
        assert all(sr.diagonal == expected for sr in bp.stages)
        assert all(sr.diagonal != 0 for sr in bp.stages)


def test_cascade_census_change_detector(blueprints):
    # sizes of the construction, frozen from a certified run; a change here
    # is not necessarily wrong but must be deliberate
    census = {}
    for l in (2, 3, 4, 5):
        bp = blueprints[l]
        census[l] = (
            len(bp.corrections),
            len(bp.bounded_remainder),
            len(bp.markers),
            [(sr.stage, sr.buckets) for sr in bp.stages],
        )
    assert census[2] == (1, 6, 4, [(3, 1)])
    assert census[3] == (3, 28, 6, [(3, 2), (4, 1)])
    assert census[4] == (9, 119, 18, [(3, 3), (4, 5), (5, 1)])
    assert census[5] == (23, 387, 32, [(3, 4), (4, 12), (5, 5), (6, 1)])


def test_blueprint_serialization(blueprints):
    bp = blueprints[3]
    obj = bp.to_obj()
    assert obj["l"] == 3
    assert obj["resonant_residue"] == []
    assert len(obj["gammas"]) == len(bp.corrections)
    assert obj["diagnostics"]["regularity_threshold"] == str(regularity_threshold(3))


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of build_energy(l): (sorted-key to_obj() JSON, repr of the ordered
# bounded_remainder + markers), recorded from a certified run
_BLUEPRINT_SHA = {
    2: (
        "8c297fe387d912bef28a71cd8400170e2d5c0e3d295f7f3d38a9ec16da1b04d8",
        "70526fdcda9ce11c0cfe5ddc7a04a3dc4920c16c8e44395b9460669542a94560",
    ),
    3: (
        "a26509b2a153b72a23f5554eb6f42fcb50ddebdfd9ad14010544e019db5d1a2f",
        "ca3042901182e2bbc4fc49488189c1db9e03b045eeb5f14111c08f00bc965a87",
    ),
    4: (
        "30bb607a3536a9fe6743b051a636fe69fc3a88ecf384e784f1982035281cd314",
        "445fde5a6321c46b42cb940e4199abb2c4a7121634d4d72d65537753e0f367a8",
    ),
    5: (
        "8ff8698985b489700c18d5f97dcb83e0ba9c0bed4f98c03dbf057b496bf7a0ca",
        "1e5b177160f0119716bc2b5434b050e216012b15159e670a3d1c840400a333a5",
    ),
    6: (
        "ca4cfe1283551aa76510f34db8ed4bb9b53b29a072be1b2c7331bc45dad369b3",
        "c83d3da9f232c2acb38d9b85827abe4eb1a28b16387cc7f3701bfeb6e29f2c8e",
    ),
    7: (
        "56bd42a704af052fe04c11fe532962bbcaa3efbca278b8c6131877eb333a7725",
        "c0ef02a8bac6ad22d3f3c9b969c493bba718564cd71ebcabbba90d32398866da",
    ),
}

# sha256 of repr(_quadratic_derivative(l))
_QUADRATIC_SHA = {
    2: "1d7ca7a56b433aba96a24bd992d4b7c2b7c733e294842ca3c5aac6ba3e39ea55",
    3: "2bbbd3001f8458aadb5107ec9feaa11a3cde47b63c3e7adf60893366a8528efc",
    4: "5fcba243d43dee9290c3d65b324e4b3702d8b3c2dac306df5dedf250dadb4d51",
    5: "7f2e719fc4d33ef0cab7aea012afa9b3c32b2c2546254ae1688ec8492f7f1216",
    6: "9581b1595aab1ebceac4266918506cd2ebac4cdfd2cbdb681a95f0fd46635fc9",
    7: "23c4c1d8d9eaa844d6b820b25f7eddb1de29f1b64ca61fdbd9aaf6882f0ba094",
    8: "06e80f1a1e3569e144bf668486ff04b3b947f9b1849eb53ecab79b9331628e2a",
    9: "7a26b351650e04777b8091c964539a686cff5f87bc32ec4239076e0bf37b3ecc",
}

# sha256 of build_energy(l, max_stage) stopped early: to_obj() JSON then the
# repr of bounded_remainder + markers + pending
_EARLY_STOP_SHA = {
    (3, 3): "97534339f49a3e0716e4b742c7a4df8b67d9063b2ebc8505e624c885b6375bca",
    (4, 3): "598a4d4b19fd70bf2afb7e1088d9b5ec18fd2f0a7c360681b85b3a435a676c8a",
    (4, 4): "e2340a46f8e760b2abba773208675a5c971758c0a859b05a022bcbf3a29e5a4f",
    (5, 3): "d33b92855d9f94818c4bfcef129b0b3365f5c522741eecce240d307fb5c32508",
    (5, 4): "8361a387ca769741e7f97384736a22223ae4c8b873e8348ddac6a62a844d92f2",
    (5, 5): "c0d2576d958bcadeb34630dccd82b05d4ff68d73471bbddb899ecc0284d3ad5d",
}


def test_cascade_output_is_pinned(blueprints):
    # every symbolic output of the cascade, byte for byte: a rewrite of the
    # construction must reproduce the terms, their coefficients and their order
    for l, (obj_sha, items_sha) in _BLUEPRINT_SHA.items():
        bp = blueprints[l]
        assert _sha(json.dumps(bp.to_obj(), sort_keys=True)) == obj_sha, l
        assert _sha(repr(bp.bounded_remainder + bp.markers)) == items_sha, l
    for l, sha in _QUADRATIC_SHA.items():
        assert _sha(repr(_quadratic_derivative(l))) == sha, l
    for (l, stage), sha in _EARLY_STOP_SHA.items():
        bp = build_energy(l, stage)
        text = json.dumps(bp.to_obj(), sort_keys=True) + repr(bp.bounded_remainder + bp.markers + bp.pending)
        assert _sha(text) == sha, (l, stage)


# ---------------------------------------------------------------------------
# thresholds and term construction
# ---------------------------------------------------------------------------


def test_regularity_threshold_values():
    assert regularity_threshold(2) == Fraction(7, 2)
    assert regularity_threshold(3) == Fraction(15, 2)
    assert regularity_threshold(4) == Fraction(23, 2)


def test_evaluate_energy_threshold_guard():
    bp = build_energy(2)
    u = cosine_field(64, 1)
    for bad in (3.5, 3.0, Fraction(7, 2)):
        with pytest.raises(ThresholdViolation):
            evaluate_energy(bp, bad, u)
    evaluate_energy(bp, 3.6, u)  # just above the threshold: fine


def test_an_overflowing_s_is_refused_before_any_table_is_formed():
    # (1 + k^2)^400 overflows on 64 points, and so does a |k|^sigma table of the
    # dE/dt plan, which once warned (an error in tier-1) before the refusal
    bp, u = build_energy(2), random_decay_field(64, 5.0, 1, 0.1, kmax=20)
    for evaluate in (energy_time_derivative, evaluate_energy):
        with pytest.raises(ValueError) as refused:
            evaluate(bp, 400, u)
        assert str(refused.value) == "s = 400 overflows (1 + k^2)^s on a grid of 64 points"


def test_a_non_finite_s_is_refused_with_its_name():
    # -inf is below every threshold; +inf and nan pass the threshold check and
    # are refused, by name, with the H^s weights' own messages
    bp, u = build_energy(2), cosine_field(64, 1, 0.1)
    for evaluate in (evaluate_energy, energy_time_derivative):
        with pytest.raises(ThresholdViolation, match="got -inf"):
            evaluate(bp, -math.inf, u)
        for s, message in ((math.inf, "s = inf overflows (1 + k^2)^s on a grid of 64 points"),
                           (math.nan, "s = nan is not a number")):
            with pytest.raises(ValueError) as refused:
                evaluate(bp, s, u)
            assert (type(refused.value), str(refused.value)) == (ValueError, message)


def test_pterm_factory_normalization():
    t = pterm(1, 0, (2, 0), -2, 3, 1)
    assert t.inner == (0, 2)
    assert (t.b, t.c) == (1, 3)
    with pytest.raises(ValueError):
        pterm(1, -1, (0,), -2, 1, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_energy(1), "model flow requires l >= 2"),
        (lambda: build_energy(2, max_stage=4), "stage must be in 3..3"),
    ],
)
def test_bad_levels_and_stages_are_refused_with_their_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_pterm_quadrature_hand_value():
    # int u (D^{s-2} du)^2 on u = cos x + cos 2x, s = 4:
    # only the cross term survives: 2^{sigma+1} pi with sigma = 2, plus
    # -pi/2 from the k=1 square against cos 2x  ->  8 pi - pi/2
    n = 64
    u = SpectralField(n, (cosine_field(n, 1) + cosine_field(n, 2)).modes)
    t = pterm(1, 0, (0,), -2, 1, 1)
    assert abs(_evaluate(t, u, 4.0) - 15.0 * math.pi / 2.0) < 1e-12


def test_shared_quadrature_matches_direct_quadrature():
    # bundles with an outer derivative over two inner factors, non-squares and
    # the norm-gap marker against quadrature written out here: the outer
    # derivative by the Leibniz rule, every factor sampled on the field's grid
    # (exact: n exceeds the band of every product)
    n = 128
    u = random_decay_field(n, decay=1.5, seed=5, amplitude=1.0, kmax=6)
    s = 4.5
    tau = 2.0 * np.pi
    k = np.arange(u.modes.size, dtype=float)

    def dval(order, sigma=0.0, modes=u.modes):
        w = np.zeros_like(k)
        w[1:] = k[1:] ** sigma
        if sigma == 0:
            w[0] = 1.0
        return np.fft.irfft(modes * w * (1j * k) ** order * n, n=n)

    def bundle(a_out, q1, q2):
        return sum(math.comb(a_out, w) * dval(q1 + w) * dval(q2 + a_out - w) for w in range(a_out + 1))

    for coeff, a_out, (q1, q2), off, b, c in [
        (ONE, 2, (0, 1), -2, 1, 1),
        (S, 1, (0, 2), 0, 1, 2),
        (ONE, 3, (1, 1), -4, 0, 3),
        (ONE, 0, (0, 0), -2, 0, 3),
    ]:
        t = pterm(coeff, a_out, (q1, q2), off, b, c)
        direct = tau * float(np.mean(bundle(a_out, q1, q2) * dval(b, s + off) * dval(c, s + off)))
        direct *= float(coeff(s))
        assert abs(_evaluate(t, u, s) - direct) < 1e-10 * max(1.0, abs(direct))

    gap = u.modes * ((1.0 + k * k) ** s - k ** (2.0 * s))
    for l in (2, 3):
        direct = tau * float(np.mean(dval(0) * dval(2 * l - 1) * dval(0, modes=gap)))
        value = _evaluate(NormGapTerm(ONE, l), u, s)
        assert abs(value - direct) < 1e-10 * max(1.0, abs(direct))


def test_energy_small_amplitude_coercivity():
    bp = build_energy(2)
    s = 4.0
    u = random_decay_field(128, decay=5.0, seed=11, amplitude=1e-3, kmax=32)
    e = evaluate_energy(bp, s, u)
    half = 0.5 * sobolev_norm(u, s) ** 2
    # cubic corrections are O(amp^3): relative gap collapses at small data
    assert abs(e - half) < 1e-2 * half


# ---------------------------------------------------------------------------
# the decomposition is an identity on real fields
# ---------------------------------------------------------------------------


def _fd_energy_rate(bp, s, u, flow, h):
    f = rhs_field(flow, u, dealias=1.0)

    def central(hh):
        up = SpectralField(u.n, u.modes + hh * f.modes)
        um = SpectralField(u.n, u.modes - hh * f.modes)
        return (evaluate_energy(bp, s, up) - evaluate_energy(bp, s, um)) / (2 * hh)

    return (4.0 * central(h / 2) - central(h)) / 3.0


def test_time_derivative_matches_finite_difference():
    l, s = 2, 4.0
    bp = build_energy(l)
    flow = model_flow(l)
    u = random_decay_field(128, decay=s + 1.0, seed=20260819, amplitude=0.25, kmax=32)
    predicted = energy_time_derivative(bp, s, u)
    measured = _fd_energy_rate(bp, s, u, flow, h=1e-5)
    rel = abs(predicted - measured) / max(1.0, abs(measured))
    assert rel < 1e-6, rel


def test_time_derivative_second_seed():
    l, s = 2, 4.0
    bp = build_energy(l)
    flow = model_flow(l)
    u = random_decay_field(128, decay=s + 1.5, seed=7, amplitude=0.4, kmax=32)
    predicted = energy_time_derivative(bp, s, u)
    measured = _fd_energy_rate(bp, s, u, flow, h=1e-5)
    rel = abs(predicted - measured) / max(1.0, abs(measured))
    assert rel < 1e-6, rel


def _directional_energy_rate(bp, s, u, f):
    """d/dtau E^s(u + tau f) at tau = 0, exactly: no finite differences.

    The quadratic part is <u, f>_{H^s} in mode space.  Each correction is
    multilinear in its factor slots, so its derivative is the sum over slots
    with that slot's u replaced by f, each integral sampled on the field's own
    grid, which must resolve every product.  Returns (rate, quadratic part).
    """
    n = u.n
    k = np.arange(n // 2 + 1, dtype=float)
    tau = 2.0 * np.pi
    fac = np.full(k.size, 2.0)
    fac[0] = 1.0
    quad = tau * float(np.sum((1.0 + k * k) ** s * fac * np.real(np.conj(u.modes) * f.modes)))

    def sample(modes, order, sigma=0.0):
        # D^sigma d^order; sigma > 0 here, so k ** sigma sends the mean to 0
        return np.fft.irfft(modes * k**sigma * (1j * k) ** order * n, n=n)

    def integral(t, slots):
        bundle = np.ones(n)
        for q, v in zip(t.inner, slots):
            bundle = bundle * sample(v, q)
        if t.a_out:
            bundle = sample(np.fft.rfft(bundle) / n, t.a_out)
        vb, vc = slots[len(t.inner):]
        vals = bundle * sample(vb, t.b, s + t.off) * sample(vc, t.c, s + t.off)
        return float(t.coeff(s)) * tau * float(np.mean(vals))

    rate = quad
    for c in bp.corrections:
        t = c.term
        assert s + t.off > 0
        deg = len(t.inner) + 2
        slots = [[f.modes if j == i else u.modes for j in range(deg)] for i in range(deg)]
        rate += float(c.gamma(s)) * sum(integral(t, sl) for sl in slots)
    return rate, quad


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_time_derivative_matches_exact_directional_derivative(blueprints, l):
    # an oracle that shares no quadrature code with modenergy: dE^s/dt equals
    # d/dtau E^s(u + tau F) with F the flow's right-hand side.  kmax = 8 puts
    # F's band at 16, so a degree-d correction with F in one slot reaches
    # (d + 1) * 8 < n = 128 and every sampled integral is exact.  F comes from
    # double-precision products: on a steep spectrum (decay s + 2) the roundoff
    # in its high modes, amplified by |k|^sigma, moves the oracle by up to 3e-5
    # at l = 5, so the field decays gently.  The corrections can cancel most of
    # the quadratic part (165x at l = 2 here), so the gate's scale is the
    # larger of the total and the quadratic part d/dt |u|_{H^s}^2 / 2.
    bp, s, n, kmax = blueprints[l], 4.0 * l - 4.0, 128, 8
    assert all((len(c.term.inner) + 3) * kmax < n for c in bp.corrections)
    u = random_decay_field(n, decay=2.0, seed=100 + l, amplitude=0.5, kmax=kmax)
    f = rhs_field(model_flow(l), u, dealias=1.0)
    oracle, quad = _directional_energy_rate(bp, s, u, f)
    predicted = energy_time_derivative(bp, s, u)
    assert abs(predicted - oracle) <= 1e-9 * max(abs(oracle), abs(quad)), (predicted, oracle)


def test_markers_evaluate_finite():
    bp = build_energy(2)
    u = random_decay_field(64, decay=5.0, seed=3, amplitude=0.2, kmax=16)
    for mk in bp.markers:
        assert math.isfinite(_evaluate(mk, u, 4.0))
    assert isinstance(bp.markers[0], (NormGapTerm, CommutatorTail))


# ---------------------------------------------------------------------------
# one shared quadrature per call: same bits, fixed transform count, no state
# ---------------------------------------------------------------------------


def _fields(n, s):
    # a smooth field (decay s + 2) and a rough one (decay 5), band n/3 - 1
    return [
        random_decay_field(n, decay=decay, seed=seed, amplitude=0.1, kmax=n // 3 - 1)
        for decay, seed in ((s + 2.0, 41), (5.0, 42))
    ]


def _term_by_term(bp, s, u):
    """dE^s/dt and E^s summed item by item, each item evaluated on its own."""
    rate = 0.0
    for item in bp.bounded_remainder + bp.markers + bp.resonant_residue + bp.pending:
        rate += _evaluate(item, u, s)
    energy = 0.5 * sobolev_norm(u, s) ** 2
    for c in bp.corrections:
        energy += float(c.gamma(s)) * _evaluate(c.term, u, s)
    return rate, energy


@pytest.mark.parametrize("n", [128, 512])
@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_shared_quadrature_is_bit_identical_to_term_by_term(blueprints, l, n):
    bp = blueprints[l]
    s = 4.0 * l - 4.0
    fields = _fields(n, s)
    if n == 128:
        # full band: the products reach the most modes of the padded grids
        fields.append(random_decay_field(n, decay=1.5, seed=43, amplitude=0.1, kmax=n // 2 - 1))
    for u in fields:
        assert (energy_time_derivative(bp, s, u), evaluate_energy(bp, s, u)) == _term_by_term(bp, s, u)


def test_plan_cache_keys_on_s_and_band(blueprints):
    # one blueprint, two values of s and two bands, visited twice in turn:
    # every cached plan gives the sums of the items evaluated on their own
    bp = blueprints[3]
    for _ in range(2):
        for s in (8.0, 9.5):
            for kmax in (20, 42):
                u = random_decay_field(128, decay=5.0, seed=kmax, amplitude=0.1, kmax=kmax)
                assert (energy_time_derivative(bp, s, u), evaluate_energy(bp, s, u)) == _term_by_term(bp, s, u)


def test_plan_cache_follows_blueprint_edits():
    bp, s = build_energy(2), 4.0
    u = _fields(128, s)[1]
    before = energy_time_derivative(bp, s, u)
    bp.markers.append(pterm(S, 2, (0, 1), -2, 1, 2))
    after, _ = _term_by_term(bp, s, u)
    assert after != before
    assert energy_time_derivative(bp, s, u) == after


def test_energy_time_derivative_fft_count_is_pinned(blueprints, transforms):
    # a copy with an empty plan cache: the first call builds the plan
    bp = replace(blueprints[5])
    seen = []
    for u in (_fields(128, 16.0) * 2)[1:]:
        transforms.clear()
        energy_time_derivative(bp, 16, u)
        seen.append(transforms.counts())
    # per grid: one irfft for every factor and the norm gap together, one
    # rfft and one irfft for the tail cores and for each block of bundles
    # with outer derivatives (about 128 KiB of rows a block); building the
    # plan (first call) adds none, and both fields of the layer share one plan
    assert seen[0] == seen[1] == seen[2] == {"rfft": 14, "irfft": 20}


def test_energy_time_derivative_peak_allocation_is_pinned(blueprints):
    # each temporary of the plan's apply is freed before its next transform: one
    # call at l = 5, N = 512 and band 169, with the plan built, allocates at most
    # 832 KiB at its peak, the reading before the rewrite in place; a rewrite that
    # kept the tail cores' product alive across their transforms read 1093 KiB
    bp = blueprints[5]
    for u in _fields(512, 16.0):
        assert u.band_limit() == 169
        energy_time_derivative(bp, 16, u)
        tracemalloc.start()
        try:
            energy_time_derivative(bp, 16, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 832 * 1024, peak


@pytest.mark.parametrize("block_bytes", [0, 1 << 62], ids=["one-bundle-a-block", "one-block-a-grid"])
@pytest.mark.parametrize("n", [128, 512])
@pytest.mark.parametrize("l", [4, 5])
def test_energy_values_do_not_depend_on_block_size(blueprints, monkeypatch, block_bytes, l, n):
    # pocketfft transforms each row of a batch as it would the row alone, so
    # how the bundles are packed into blocks moves no bit of any value
    monkeypatch.setattr(modenergy, "_BLOCK_BYTES", block_bytes)
    bp, s = replace(blueprints[l]), 4.0 * l - 4.0
    for u in _fields(n, s):
        assert (energy_time_derivative(bp, s, u), evaluate_energy(bp, s, u)) == _term_by_term(bp, s, u)


# sha256 of the float.hex of E^s, dE^s/dt and every dE^s/dt item's value from
# the plan, per l, on _fields(n, s) at n = 128 and 512 and a full-band n = 128
# field, s = 4l - 4; recorded with NumPy 2.4.6, the build CI pins, as
# perfbench/reference.json is.  The values are roundoff-dominated at l = 5, so
# another FFT build may move them; the mode-space energy (ROADMAP item 1) moves
# them on purpose and re-pins this table
_ENERGY_SHA = {
    2: "376f7148ec1f20a9588104b7608da0369bc30fdd2d25cd9afde1dcac4fc0e5ec",
    3: "d8448f0f708fb9e04b729df597e6dd747225ce2e050479247c55c833a1934a5a",
    4: "d419d1e71acf1007b7f1a249b7495f73b83fd0821b917215f30da8694905acad",
    5: "0fc2970f3c1194c691f9ba5b5c839d730f8c7e94a701534d9367ebc963dc1a83",
}


def test_energy_values_are_pinned(blueprints):
    # every energy value bit for bit: a rewrite of the plan must keep them all
    for l, sha in _ENERGY_SHA.items():
        bp, s = blueprints[l], 4.0 * l - 4.0
        items = tuple(bp.bounded_remainder + bp.markers + bp.resonant_residue + bp.pending)
        values = []
        for n in (128, 512):
            fields = _fields(n, s)
            if n == 128:
                fields.append(random_decay_field(n, decay=1.5, seed=43, amplitude=0.1, kmax=n // 2 - 1))
            for u in fields:
                values += [evaluate_energy(bp, s, u), energy_time_derivative(bp, s, u)]
                values += modenergy._EnergyPlan(items, s, u.band_limit()).apply(u)
        assert _sha(" ".join(map(float.hex, values))) == sha, l


_GRID_ROUNDOFF = pytest.mark.xfail(
    raises=AssertionError,
    reason="ROADMAP item 1: grid roundoff times unbounded symbols moves the items with the grid",
)


def _grid_case(l, n, kmax, passes=False):
    return pytest.param(l, n, kmax, id=f"{l}-{kmax}", marks=() if passes else _GRID_ROUNDOFF)


@pytest.mark.parametrize(
    "l, n, kmax",
    [_grid_case(2, 128, 41, passes=True), _grid_case(3, 128, 41), _grid_case(4, 128, 32), _grid_case(5, 128, 24)]
    + [_grid_case(l, 512, 169) for l in (2, 3, 4, 5)]
    + [_grid_case(l, n, kmax) for l in (6, 7) for n, kmax in ((128, 41), (512, 169))],
)
def test_energy_items_do_not_depend_on_the_grid(blueprints, l, n, kmax):
    # in exact arithmetic every grid at or above _product_grid(degree, band)
    # gives each dE^s/dt item the same value; the worst item gap between the
    # field's band K and 2K + 1, over sum |items|, reads at N = 128 4.8e-14 at
    # l = 2, 6.0e-10 at 3, 1.95e-6 at 4 and 5.3e-2 at 5 (totals -4992.9 and
    # -21944), and at N = 512, band N/3 - 1 = 169, 1.08e-12 at l = 2, 6.2e-7 at
    # 3, 1.0 at 4 (totals -4697.6 and -9750.4) and 3.0e5 at 5 (totals -2.2e13
    # and 6.5e18).  At l = 6 and 7 (the blueprints test_cascade_output_is_pinned
    # builds) it reads 1.35e5 and 8.4e6 at l = 6 (N = 128 with band 41, N = 512
    # with band 169) and 1.51e8 and 3.55e8 at l = 7
    bp, s = blueprints[l], 4.0 * l - 4.0
    items = tuple(bp.bounded_remainder + bp.markers)
    u = random_decay_field(n, decay=s + 2, seed=1, amplitude=0.1, kmax=kmax)
    band = u.band_limit()
    on_band, wider = (np.array(modenergy._EnergyPlan(items, s, b).apply(u)) for b in (band, 2 * band + 1))
    scale = np.sum(np.abs(on_band))
    assert np.max(np.abs(on_band - wider)) <= 1e-12 * scale, np.max(np.abs(on_band - wider)) / scale
    assert abs(on_band.sum() - wider.sum()) <= 1e-12 * scale, (on_band.sum(), wider.sum())


def test_energy_evaluation_is_thread_safe(blueprints):
    # the threads share a fresh blueprint, so they race to fill its plan cache
    bp, s = build_energy(4), 12.0
    fields = [
        random_decay_field(128, decay=5.0, seed=seed, amplitude=0.1, kmax=42) for seed in range(4)
    ]

    def both(b, u):
        return energy_time_derivative(b, s, u), evaluate_energy(b, s, u)

    serial = [both(blueprints[4], u) for u in fields]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(lambda u: both(bp, u), fields))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
