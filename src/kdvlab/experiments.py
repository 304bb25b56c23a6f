"""Experiment pipelines: desk-scale numeric checks of the constructive claims.

Each experiment resolves a flat config over documented defaults, runs a
deterministic (seeded) computation, and returns plot-ready tables plus a
PASS/FAIL verdict computed only from thresholds carried in the config.

  conservation   hierarchy flow conserves H_0, H_1, H_2; drift decays at the
                 integrator's order under dt refinement
  mu-cauchy      regularized flows form a Cauchy sequence in mu: the
                 L^inf_T L^2 distance between the mu and mu/2 solutions
                 scales linearly in mu (log-log slope 1)
  bona-smith     mollifier rates: |phi_eps|_{H^{s+nu}} ~ eps^{-nu} growth and
                 |phi - phi_eps|_{H^{s-beta}} ~ eps^{beta} convergence on a
                 field with prescribed spectral decay
  energy-drift   the modified energy's drift, the empirical constant of its
                 derivative bound, stability of that constant under grid
                 doubling, the high-frequency contrast ratio against the raw
                 Sobolev norm, and a coercivity window scan
  scaling        u -> lambda^2 u(lambda x, lambda^{2l+1} t) maps solutions to
                 solutions: solve-then-scale against scale-then-solve
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .modenergy import _check_threshold, build_energy, energy_time_derivative, evaluate_energy
from .spectral import (
    TAU,
    SolverConfig,
    SpectralField,
    _QUIET,
    _padded,
    _sobolev_norms,
    _sobolev_weights,
    cosine_field,
    hierarchy_flow,
    mollify,
    model_flow,
    random_decay_field,
    regularized_flow,
    rhs_field,
    scale_field,
    sobolev_norm,
    solve,
    solve_batch,
)

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "run_experiment",
    "exp_conservation",
    "exp_mu_cauchy",
    "exp_bona_smith",
    "exp_energy_drift",
    "exp_scaling",
]


@dataclass
class ExperimentResult:
    name: str
    verdict: bool
    metrics: dict
    tables: dict[str, tuple[list[str], list[list]]] = field(default_factory=dict)
    config: dict = field(default_factory=dict)


def _resolve(defaults: dict, config: dict | None) -> dict:
    cfg = dict(defaults)
    for key, val in (config or {}).items():
        if key not in defaults:
            raise KeyError(f"unknown config key {key!r}; known: {sorted(defaults)}")
        ref = defaults[key]
        several = isinstance(val, (tuple, list))
        if several and not isinstance(ref, tuple):
            raise ValueError(f"config key {key!r} takes one value, got {len(val)}")
        kind = type(ref[0] if isinstance(ref, tuple) else ref)
        try:
            vals = tuple(map(kind, val if several else [val]))
        except ValueError:
            raise ValueError(f"config key {key!r} takes {kind.__name__} values, got {val!r}") from None
        cfg[key] = vals if isinstance(ref, tuple) else vals[0]
        if any(isinstance(v, float) and not math.isfinite(v) for v in vals):
            raise ValueError(f"config key {key!r} must be finite, got {cfg[key]}")
    return cfg


def _solver_config(cfg: dict, **changes) -> SolverConfig:
    """The solver settings of a resolved experiment config, with changes applied.

    Recording follows the config's cadence (every step without one).
    """
    fields = dict(
        n=cfg["n"], dt=cfg["dt"], t_final=cfg["t_final"], dealias=cfg["dealias"],
        order=cfg["order"], diagnostics_every=cfg.get("cadence", 1),
    )
    return SolverConfig(**{**fields, **changes})


def _ladder(cfg: dict, key: str, n: int) -> tuple:
    """cfg[key], refused unless it holds n or more distinct values, each > 0 (n = 2 for a rate fit)."""
    vals = cfg[key]
    if len(set(vals)) < n or min(vals) <= 0:
        raise ValueError(f"config key {key!r} needs {n} or more distinct values, each > 0, got {vals}")
    return vals


def _loglog_slope(xs, ys) -> float:
    pts = np.array([xs, ys], float)
    if not (np.isfinite(pts).all() and (pts > 0).all()):
        raise ValueError(f"a log-log rate fit needs values that are finite and > 0, got {pts[1].tolist()}")
    # the least-squares slope sum dx dy / sum dx^2 in plain reductions: np.polyfit's
    # lstsq starts LAPACK, which stays resident for the rest of the process
    x, y = np.log(pts)
    dx = x - x.mean()
    return float(np.sum(dx * (y - y.mean())) / np.sum(dx * dx))


# ---------------------------------------------------------------------------
# conservation
# ---------------------------------------------------------------------------

CONSERVATION_DEFAULTS = {
    "l": 1,
    "n": 256,
    "dt": 1e-3,
    "t_final": 1.0,
    "amplitude": 0.1,
    "order": 2,
    "dealias": 2.0 / 3.0,
    "cadence": 10,
    "drift_tol": 1e-8,
    "ratio_band": 0.30,
}


def exp_conservation(config: dict | None = None) -> ExperimentResult:
    """Hierarchy flow conserves H_0..H_2; drift refines at the scheme's order.

    Runs the flow at dt and dt/2; the max relative drift of each Hamiltonian
    must stay under drift_tol and the dt-to-dt/2 drift ratio must sit within
    ratio_band of 2^order.
    """
    cfg = _resolve(CONSERVATION_DEFAULTS, config)
    coarse_sc, fine_sc = _solver_config(cfg), _solver_config(cfg, dt=cfg["dt"] / 2)
    flow = hierarchy_flow(cfg["l"])
    u0 = cfg["amplitude"] * cosine_field(cfg["n"], 1)

    def drifts(sc: SolverConfig):
        _, diag = solve(u0, flow, sc)
        out = {}
        for m, series in diag.hams.items():
            num = max(abs(v - series[0]) for v in series)
            ref = abs(series[0])
            out[m] = num / ref if ref > 0 else num
        return out, diag

    coarse, diag = drifts(coarse_sc)
    fine, _ = drifts(fine_sc)
    lo = 2 ** cfg["order"] * (1 - cfg["ratio_band"])
    hi = 2 ** cfg["order"] * (1 + cfg["ratio_band"])
    ok_drift = all(v < cfg["drift_tol"] for v in coarse.values())
    ratios = {}
    ok_ratio = True
    for m in coarse:
        if fine[m] == 0.0:
            # zero data drifts by exactly zero at both steps
            ok_ratio = ok_ratio and coarse[m] == 0.0
        else:
            ratios[m] = coarse[m] / fine[m]
            ok_ratio = ok_ratio and lo <= ratios[m] <= hi

    header = ["t", "l2", "H0", "H1", "H2"]
    table = list(zip(diag.times, diag.l2, *diag.hams.values()))
    metrics = {f"drift_H{m}": v for m, v in sorted(coarse.items())}
    metrics.update({f"ratio_H{m}": v for m, v in sorted(ratios.items())})
    metrics.update({"expected_ratio": 2 ** cfg["order"], "drift_tol": cfg["drift_tol"]})
    return ExperimentResult(
        "conservation", ok_drift and ok_ratio, metrics, {"series": (header, table)}, cfg
    )


# ---------------------------------------------------------------------------
# mu-cauchy
# ---------------------------------------------------------------------------

MU_CAUCHY_DEFAULTS = {
    "l": 2,
    "n": 128,
    "dt": 1e-3,
    "t_final": 1.0,
    "amplitude": 0.1,
    "order": 4,
    "dealias": 2.0 / 3.0,
    "cadence": 10,
    "mus": (1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4),
    "slope_lo": 0.8,
    "slope_hi": 1.2,
}


def exp_mu_cauchy(config: dict | None = None) -> ExperimentResult:
    """Distance between the mu and mu/2 regularized solutions scales like mu.

    Marches the dissipative flow for every mu in the ladder and its halvings
    as one solve_batch (the flows differ only in their damping), takes
    the sup over recorded times of the L^2 distance per pair as the states
    arrive, and fits the log-log slope, which must land in
    [slope_lo, slope_hi].  Each member is bit-identical to its own solve.
    """
    cfg = _resolve(MU_CAUCHY_DEFAULTS, config)
    mus = _ladder(cfg, "mus", 2)
    u0 = cfg["amplitude"] * cosine_field(cfg["n"], 1)
    sc = _solver_config(cfg, hamiltonians=())
    needed = sorted({m for mu in mus for m in (mu, mu / 2)}, reverse=True)
    firsts = [needed.index(mu) for mu in mus]
    seconds = [needed.index(mu / 2) for mu in mus]
    dists = [-math.inf] * len(mus)

    def observe(states: list[SpectralField]):
        modes = np.array([f.modes for f in states])
        # one stacked norm: each row's is sobolev_norm(states[a] - states[b], 0.0) bit for bit
        for i, d in enumerate(_sobolev_norms(modes[firsts] - modes[seconds], 0.0).tolist()):
            dists[i] = max(dists[i], d)

    solve_batch(u0, [regularized_flow(cfg["l"], mu) for mu in needed], sc, observe)
    rows = [[mu, mu / 2, d] for mu, d in zip(mus, dists)]
    if min(dists) > 0.0:
        slope = _loglog_slope(mus, dists)
        ok = cfg["slope_lo"] <= slope <= cfg["slope_hi"]
    else:
        # constant-in-mu path (zero data): Cauchy trivially
        slope = 0.0
        ok = max(dists) == 0.0
    metrics = {"slope": slope, "slope_lo": cfg["slope_lo"], "slope_hi": cfg["slope_hi"]}
    return ExperimentResult(
        "mu-cauchy", ok, metrics, {"distances": (["mu", "mu_half", "linf_l2_distance"], rows)}, cfg
    )


# ---------------------------------------------------------------------------
# bona-smith
# ---------------------------------------------------------------------------

BONA_SMITH_DEFAULTS = {
    "n": 2048,
    "s": 4.0,
    "eta": 0.01,
    "seed": 20260819,
    "amplitude": 1.0,
    "kmin": 4,
    "moll_order": 3,
    "eps": (0.05, 0.025, 0.0125, 0.00625),
    "nus": (0.5, 1.0),
    "betas": (0.5, 1.0),
    "growth_band": 0.20,
    "conv_margin": 0.20,
}


# an overflowing norm is refused by _loglog_slope, not also reported by NumPy
@np.errstate(**_QUIET)
def exp_bona_smith(config: dict | None = None) -> ExperimentResult:
    """Mollifier rate study on a field with prescribed spectral decay.

    The target has |f_hat(k)| ~ |k|^{-s-1/2-eta} with seeded random phases for
    kmin <= k, so it sits just inside H^s; modes below kmin are dropped
    because they contribute an eps-independent floor to the H^{s+nu} norm
    that would mask the growth rate at moderate cutoffs 1/eps.  Growth:
    slope of log |phi_eps|_{H^{s+nu}} vs log eps must be within growth_band
    of -nu.  Convergence: slope of log |phi - phi_eps|_{H^{s-beta}} must be
    at least beta - conv_margin.
    """
    cfg = _resolve(BONA_SMITH_DEFAULTS, config)
    eps, nus, betas = _ladder(cfg, "eps", 2), _ladder(cfg, "nus", 1), _ladder(cfg, "betas", 1)
    # the rates are read off frequencies near 1/eps, so the band must reach them
    band, finest = cfg["n"] // 2 - 1, 1.0 / min(eps)
    if band < finest:
        raise ValueError(
            f"bona-smith: n = {cfg['n']} keeps modes up to {band}, below the finest "
            f"mollifier cutoff 1/eps = {finest:g}; the rate fits need "
            f"n >= {2 * math.ceil(finest) + 2}"
        )
    s = cfg["s"]
    phi = random_decay_field(
        cfg["n"], decay=s + 0.5 + cfg["eta"], seed=cfg["seed"], amplitude=cfg["amplitude"]
    )
    lowcut = phi.modes.copy()
    lowcut[: cfg["kmin"]] = 0.0
    phi = SpectralField(cfg["n"], lowcut)
    if not (0 <= cfg["kmin"] < cfg["n"] // 2 and np.any(phi.modes)):
        raise ValueError(
            f"bona-smith: the rate fits need 0 <= kmin < n/2 and a field that is nonzero above kmin, "
            f"got amplitude = {cfg['amplitude']}, kmin = {cfg['kmin']}, n = {cfg['n']}"
        )
    molls = {e: mollify(phi, e, cfg["moll_order"]) for e in eps}

    rows_g, rows_c = [], []
    ok = True
    metrics: dict = {"s": s, "eta": cfg["eta"]}
    for nu in nus:
        norms = [sobolev_norm(molls[e], s + nu) for e in eps]
        slope = _loglog_slope(eps, norms)
        ok = ok and abs(slope - (-nu)) <= cfg["growth_band"] * nu
        metrics[f"growth_slope_nu_{nu}"] = slope
        for e, v in zip(eps, norms):
            rows_g.append([nu, e, v])
    for beta in betas:
        diffs = [sobolev_norm(phi - molls[e], s - beta) for e in eps]
        slope = _loglog_slope(eps, diffs)
        ok = ok and slope >= beta - cfg["conv_margin"]
        metrics[f"conv_slope_beta_{beta}"] = slope
        for e, v in zip(eps, diffs):
            rows_c.append([beta, e, v])

    return ExperimentResult(
        "bona-smith",
        ok,
        metrics,
        {
            "growth": (["nu", "eps", "hs_plus_nu_norm"], rows_g),
            "convergence": (["beta", "eps", "hs_minus_beta_distance"], rows_c),
        },
        cfg,
    )


# ---------------------------------------------------------------------------
# energy-drift
# ---------------------------------------------------------------------------

ENERGY_DRIFT_DEFAULTS = {
    "l": 2,
    "s": 4.0,
    "n": 256,
    "dt": 1e-3,
    "t_final": 1.0,
    "amplitude": 0.1,
    "decay": 5.0,
    "seed": 20260819,
    "kmax": 32,
    "order": 4,
    "dealias": 2.0 / 3.0,
    "cadence": 100,
    "contrast_k0": (8, 16, 32, 64),
    "contrast_min_growth": 5.0,
    "c_stability_tol": 0.10,
    "coercivity_amp_lo": 1e-2,
    "coercivity_amp_hi": 1e3,
    "coercivity_amplitudes": 16,
}


def _raw_rate(flow, u: SpectralField, s: float) -> float:
    """d/dt of 1/2 |u|_{H^s}^2 along the flow, in mode space."""
    f = rhs_field(flow, u, dealias=1.0)
    w = _sobolev_weights(u.n, s)
    fac = np.full(u.modes.size, 2.0)
    fac[0] = 1.0
    return TAU * float(np.sum(w * fac * np.real(np.conj(u.modes) * f.modes)))


def _directional_rate(rate, u: SpectralField, f: SpectralField) -> float:
    """d/dtau rate(u + tau * f) at tau = 0, Richardson-extrapolated over steps 5e-6 and 1e-5; f is the RHS at u."""
    half, full = ((rate(u + h * f) - rate(u - h * f)) / (2 * h) for h in (5e-6, 1e-5))
    return (4.0 * half - full) / 3.0


def exp_energy_drift(config: dict | None = None) -> ExperimentResult:
    """Modified-energy behavior along the model flow, four-part check.

    (a) drift of E^s along a solved trajectory; (b) empirical constant C in
    |dE^s/dt| <= C (sum_{k=1}^{l-1} |u|^k) |u|^2 over sampled states and its
    stability under grid doubling; (c) contrast ratio: raw-norm rate over
    modified rate along a rising frequency ladder (rates taken at the first
    nonvanishing order in t, since both vanish identically at t = 0 for
    two-cosine data); (d) coercivity window scan: largest amplitude at which
    E^s stays within [1/4, 3/4] of the squared Sobolev norm.
    """
    cfg = _resolve(ENERGY_DRIFT_DEFAULTS, config)
    l, s = cfg["l"], cfg["s"]
    k0s = _ladder(cfg, "contrast_k0", 2)
    amp_lo, amp_hi, amps = (cfg[f"coercivity_{key}"] for key in ("amp_lo", "amp_hi", "amplitudes"))
    if not 0 < amp_lo < amp_hi or amps < 1:
        raise ValueError(
            "energy-drift: the coercivity scan needs 0 < coercivity_amp_lo < coercivity_amp_hi and one amplitude "
            f"or more, got coercivity_amp_lo = {amp_lo}, coercivity_amp_hi = {amp_hi}, coercivity_amplitudes = {amps}"
        )
    sc = _solver_config(cfg, hamiltonians=())
    fine_sc = _solver_config(cfg, n=2 * cfg["n"], hamiltonians=())
    _check_threshold(l, s)
    # the largest grid of the run (the fine solve or the top contrast rung) carries s, or s is refused
    _sobolev_weights(max(2 * cfg["n"], 8 * max(k0s)), s)
    bp = build_energy(l)
    flow = model_flow(l)
    u0 = random_decay_field(
        cfg["n"], decay=cfg["decay"], seed=cfg["seed"], amplitude=cfg["amplitude"], kmax=cfg["kmax"]
    )
    profile = random_decay_field(cfg["n"], decay=cfg["decay"], seed=cfg["seed"], kmax=cfg["kmax"])
    profile = (1.0 / sobolev_norm(profile, s)) * profile

    # the coercivity scan, before the solve: every E^s and half-norm must be finite
    # (a NumPy square: a Python float's ** raises OverflowError instead of giving inf)
    rows_coer = []
    with np.errstate(**_QUIET):
        for amp in np.geomspace(amp_lo, amp_hi, amps).tolist():
            u = amp * profile
            e, half = evaluate_energy(bp, s, u), 0.5 * np.float64(sobolev_norm(u, s)) ** 2
            rows_coer.append([amp, e, half, int(0.5 * half <= e <= 1.5 * half)])  # within [1/4, 3/4] of |u|^2
    bad = [row[0] for row in rows_coer if not np.isfinite(row[1:3]).all()]
    if bad:
        raise ValueError(f"energy-drift: E^s or 1/2 |u|_{{H^s}}^2 overflows at the coercivity amplitude {bad[0]:g}")
    # delta: the largest amplitude of the run of inside rows that starts the scan
    delta = 0.0
    for amp, *_, inside in rows_coer:
        if not inside:
            break
        delta = amp

    states: list[SpectralField] = []
    _, diag = solve(u0, flow, sc, states.append)
    hs = [sobolev_norm(f, s) for f in states]
    energy = [evaluate_energy(bp, s, f) for f in states]
    drift = max(abs(e - energy[0]) for e in energy)

    def empirical_c(sampled, norms) -> float:
        best = 0.0
        for st, nrm in zip(sampled, norms):
            if nrm == 0.0:
                continue
            rate = abs(energy_time_derivative(bp, s, st))
            denom = sum(nrm**k for k in range(1, l)) * nrm**2
            best = max(best, rate / denom)
        return best

    c_base = empirical_c(states, hs)
    u0_fine = SpectralField(2 * cfg["n"], _padded(u0.modes, 2 * cfg["n"]))
    fine_states: list[SpectralField] = []
    solve(u0_fine, flow, fine_sc, fine_states.append)
    c_fine = empirical_c(fine_states, [sobolev_norm(f, s) for f in fine_states])
    c_change = abs(c_fine - c_base) / c_base if c_base > 0.0 else 0.0

    rows_contrast = []
    ratios = []
    for k0 in k0s:
        n = max(cfg["n"], 8 * int(k0))
        u = cfg["amplitude"] * (cosine_field(n, 1) + float(k0) ** (-s) * cosine_field(n, int(k0)))
        f = rhs_field(flow, u, dealias=1.0)
        raw = _directional_rate(lambda w: _raw_rate(flow, w, s), u, f)
        mod = _directional_rate(lambda w: energy_time_derivative(bp, s, w), u, f)
        ratios.append(abs(raw) / abs(mod) if mod != 0.0 else float("nan"))
        rows_contrast.append([k0, raw, mod, ratios[-1]])
    contrast_monotone = all(b > a for a, b in zip(ratios, ratios[1:]))
    contrast_growth = ratios[-1] / ratios[0]

    ok = (
        contrast_monotone
        and contrast_growth >= cfg["contrast_min_growth"]
        and c_change <= cfg["c_stability_tol"]
        and np.isfinite(drift)
        and delta > 0.0
    )
    metrics = {
        "energy_drift": drift,
        "empirical_C": c_base,
        "empirical_C_fine": c_fine,
        "C_relative_change": c_change,
        "contrast_growth": contrast_growth,
        "contrast_monotone": contrast_monotone,
        "coercivity_delta": delta,
    }
    header = ["t", "l2", "hs", "Es"]
    series = list(zip(diag.times, diag.l2, hs, energy))
    return ExperimentResult(
        "energy-drift",
        bool(ok),
        metrics,
        {
            "series": (header, series),
            "contrast": (["k0", "raw_rate", "modified_rate", "ratio"], rows_contrast),
            "coercivity": (["amplitude", "energy", "half_norm_sq", "inside"], rows_coer),
        },
        cfg,
    )


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

SCALING_DEFAULTS = {
    "l": 2,
    "lam": 2,
    "n": 64,
    "dt": 2e-3,
    "t_final": 3.2,
    "amplitude": 0.05,
    "order": 4,
    "dealias": 2.0 / 3.0,
    "tol": 1e-6,
}


def exp_scaling(config: dict | None = None) -> ExperimentResult:
    """Scaling symmetry: solve-then-scale equals scale-then-solve.

    The scaled run uses lambda * n grid points, dt / lambda^{2l+1}, and
    t_final / lambda^{2l+1}, so the two discrete flows are related by an exact
    symmetry; the reported max relative grid error is discretization-limited.
    """
    cfg = _resolve(SCALING_DEFAULTS, config)
    l, lam = cfg["l"], cfg["lam"]
    flow = model_flow(l)
    u0 = cfg["amplitude"] * cosine_field(cfg["n"], 1)
    u0_scaled = scale_field(u0, lam)  # refuses a lam that is not a positive integer
    fac = lam ** (2 * l + 1)
    coarse = _solver_config(cfg, hamiltonians=())
    # only the final states are compared: record nothing in between
    coarse = replace(coarse, diagnostics_every=coarse.steps)
    fine = replace(coarse, n=lam * cfg["n"], dt=cfg["dt"] / fac, t_final=cfg["t_final"] / fac)

    ua, _ = solve(u0, flow, coarse)
    ub, _ = solve(u0_scaled, flow, fine)

    va, vb = scale_field(ua, lam).values(), ub.values()
    num, ref = float(np.max(np.abs(va - vb))), float(np.max(np.abs(vb)))
    # zero data is a fixed point of both runs: its error is the absolute one, 0
    err = num / ref if ref > 0 else num
    ok = err < cfg["tol"]
    metrics = {"max_rel_grid_error": err, "tol": cfg["tol"], "scaled_T": cfg["t_final"] / fac}
    return ExperimentResult("scaling", ok, metrics, {}, cfg)


EXPERIMENTS = {
    "conservation": exp_conservation,
    "mu-cauchy": exp_mu_cauchy,
    "bona-smith": exp_bona_smith,
    "energy-drift": exp_energy_drift,
    "scaling": exp_scaling,
}


def run_experiment(name: str, config: dict | None = None) -> ExperimentResult:
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name](config)
