"""The four benchmark workloads: seeded inputs, the operations of one pass, and
the checks every operation's output must pass.

A workload is built by ``build(name, seed, reference, workdir)`` inside a
worker process (``worker.py``); building it is the workload's set-up.  Each ``Op`` is one
timed call into kdvlab's public API.  ``layer`` names the per-layer metric the
call feeds; several ops may share one layer (the same call on other inputs).
``units`` is what the op contributes to ``ops_per_s``: ETD steps on
``stepping``, evaluations on ``energy``, one call elsewhere.

Checks run outside the timed region.  Symbolic results are compared with the
golden file and with sha256 digests recorded in ``reference.json``; numeric
results must be finite, hierarchy flows must conserve H0..H2, and at the
default seed every numeric fingerprint must match the recorded one to
``NUMERIC_RTOL`` (relative to the largest entry of the fingerprint).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from kdvlab import cli, hierarchy, ibpcalc, modenergy, spectral

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "hierarchy_l8.json"
DEFAULT_SEED = 0
NUMERIC_RTOL = 1e-9
# relative H0..H2 drift allowed over one solve (measured: <= 6e-7 on the
# cosine starts at l = 3, 4 and <= 4e-13 on the random l = 1 starts)
DRIFT_TOL = {1: 1e-9, 3: 1e-5, 4: 1e-5}
DEALIAS = 2.0 / 3.0
DT = 1e-3
MU_LADDER = (1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4)
EXPERIMENTS = ("conservation", "mu-cauchy", "bona-smith", "energy-drift", "scaling")
# calls per probe: per-layer timings of fast kernels are medians over these
PROBE_CALLS = 10


@dataclass
class Op:
    name: str
    layer: str
    call: Callable[[], object]
    check: Callable[[object], list[str]] = lambda _: []
    units: int = 1
    fingerprint: Callable[[object], list[float]] | None = None
    counts: Callable[[object], dict[str, int]] | None = None


@dataclass
class Workload:
    ops: list[Op]
    probes: list[Op] = field(default_factory=list)
    # (name, problems) pairs checked once per process, after the timed passes
    final_checks: list[Callable[[], tuple[str, list[str]]]] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    after_pass: Callable[[], None] = lambda: None


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _finite(*values) -> list[str]:
    bad = [v for v in values if not np.all(np.isfinite(v))]
    return ["non-finite output"] if bad else []


# ---------------------------------------------------------------------------
# algebra: exact symbolic work, no FFTs


def _check_generate(reference: dict):
    def check(levels) -> list[str]:
        problems = []
        if len(levels) != 13:
            return [f"generate(12) returned {len(levels)} levels"]
        golden = json.loads(GOLDEN.read_text())
        for obj in golden:
            if hierarchy.level_to_obj(levels[obj["l"]]) != obj:
                problems.append(f"level {obj['l']} differs from the golden file")
        for l in range(9, 13):
            if digest(hierarchy.level_to_obj(levels[l])) != reference["hierarchy_digests"][str(l)]:
                problems.append(f"level {l} digest differs from the recorded one")
        return problems

    return check


def _check_blueprint(l: int, reference: dict):
    def check(bp) -> list[str]:
        problems = []
        if bp.resonant_residue or bp.pending:
            problems.append(f"l={l}: resonant residue or pending terms left")
        if digest(bp.to_obj()) != reference["blueprint_digests"][str(l)]:
            problems.append(f"l={l}: blueprint digest differs from the recorded one")
        return problems

    return check


def _check_identity(l: int):
    def check(holds) -> list[str]:
        problems = [] if holds is True else [f"verify_identity({l}) failed"]
        if ibpcalc.alpha_coeffs(l).diagonal != Fraction((-1) ** (l + 1) * (2 * l + 1)):
            problems.append(f"alpha diagonal law fails at l={l}")
        return problems

    return check


def _l6_counts(bp) -> dict[str, int]:
    return {
        "modenergy.build_energy.l6_corrections": len(bp.corrections),
        "modenergy.build_energy.l6_bounded_terms": len(bp.bounded_remainder),
        "modenergy.build_energy.l6_markers": len(bp.markers),
    }


def _algebra(seed: int, reference: dict) -> Workload:
    rest = [
        Op(f"modenergy.build_energy.l{l}", f"modenergy.build_energy.l{l}",
           lambda l=l: modenergy.build_energy(l), _check_blueprint(l, reference),
           counts=_l6_counts if l == 6 else None)
        for l in (4, 5, 6)
    ] + [
        Op(f"ibpcalc.verify_identity.l{l}", f"ibpcalc.verify_identity.l{l}",
           lambda l=l: ibpcalc.verify_identity(l), _check_identity(l))
        for l in (6, 8, 10)
    ] + [
        Op("hierarchy.involution_residue.m2_l5", "hierarchy.involution_residue.m2_l5",
           lambda: hierarchy.involution_residue(2, 5),
           lambda r: [] if r.is_zero() else ["H_2 and flow 5 not in involution"]),
    ]
    # the seed orders the warm operations; generate(12) always runs first, cold
    order = np.random.default_rng(seed).permutation(len(rest))
    first = Op("hierarchy.generate.l12_cold", "hierarchy.generate.l12_cold",
               lambda: hierarchy.generate(12), _check_generate(reference),
               counts=lambda levels: {"hierarchy.g12_monomials": len(levels[12].g.monomials)})
    return Workload([first] + [rest[i] for i in order])


# ---------------------------------------------------------------------------
# stepping: ETD4 solves without diagnostics, plus one with H0..H2 every step


def _hamiltonians(f: spectral.SpectralField) -> np.ndarray:
    return np.array([spectral.functional_eval(hierarchy.level(m).hamiltonian, f) for m in (0, 1, 2)])


def _drift(h0: np.ndarray, h1: np.ndarray) -> float:
    return float(np.max(np.abs(h1 - h0) / np.abs(h0)))


def _solve_op(name: str, flow, u0, steps: int, *, hams: tuple[int, ...] = ()) -> Op:
    cfg = spectral.SolverConfig(
        n=u0.n, dt=DT, t_final=steps * DT, dealias=DEALIAS, order=4,
        diagnostics_every=1 if hams else steps, hamiltonians=hams,
    )
    tol = DRIFT_TOL.get(flow.l) if flow.name == "hierarchy" else None
    h_start = _hamiltonians(u0) if tol is not None else None

    def check(result) -> list[str]:
        u, diag = result
        problems = _finite(u.modes)
        if problems or tol is None:
            return problems
        drift = _drift(h_start, _hamiltonians(u))
        if hams:
            rows = np.array([diag.hams[m] for m in hams]).T
            if len(rows) != steps + 1:
                problems.append(f"{len(rows)} diagnostic rows for {steps} steps")
            drift = max(drift, max(_drift(rows[0], r) for r in rows))
        if not drift <= tol:
            problems.append(f"H0..H2 drift {drift:.3g} above {tol:g}")
        return problems

    return Op(f"spectral.solve.{name}", f"spectral.solve.{name}",
              lambda: spectral.solve(u0, flow, cfg), check, units=steps,
              fingerprint=lambda r: _state_fingerprint(r[0]))


def _state_fingerprint(u: spectral.SpectralField) -> list[float]:
    return [
        spectral.sobolev_norm(u, 0.0), spectral.sobolev_norm(u, 2.0),
        float(u.modes[1].real), float(u.modes[1].imag),
        float(u.modes[2].real), float(u.modes[2].imag),
    ]


def _ensemble_op(u0, steps: int) -> Op:
    flows = [spectral.regularized_flow(2, mu) for mu in MU_LADDER]
    cfg = spectral.SolverConfig(
        n=u0.n, dt=DT, t_final=steps * DT, dealias=DEALIAS, order=4,
        diagnostics_every=steps, hamiltonians=(),
    )
    return Op("spectral.solve.reg2_n128_ensemble", "spectral.solve.reg2_n128_ensemble",
              lambda: [spectral.solve(u0, flow, cfg)[0] for flow in flows],
              lambda us: _finite(*[u.modes for u in us]), units=steps * len(flows),
              fingerprint=lambda us: [x for u in us for x in _state_fingerprint(u)])


def _shifted_cosine(n: int, amplitude: float, shift: float) -> spectral.SpectralField:
    """amplitude * cos(x - shift): a translate of the exact cosine start."""
    c = spectral.cosine_field(n, 1, amplitude)
    return c.with_modes(c.modes * np.exp(-1j * shift * np.arange(n // 2 + 1)))


def _stepping(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    shift = float(rng.uniform(0.0, 2.0 * math.pi))
    sub = [int(x) for x in rng.integers(0, 2**31, size=2)]
    flows = {l: spectral.hierarchy_flow(l) for l in (1, 2, 3, 4)}
    model = spectral.model_flow(2)
    u1024 = _shifted_cosine(1024, 0.05, shift)
    u256c = _shifted_cosine(256, 0.05, shift)
    u256 = spectral.random_decay_field(256, decay=5.0, seed=sub[0], amplitude=0.1, kmax=8)
    u128 = spectral.random_decay_field(128, decay=5.0, seed=sub[1], amplitude=0.1, kmax=8)
    ops = [
        _solve_op("hier3_n1024", flows[3], u1024, 50),
        _solve_op("hier4_n256", flows[4], u256c, 30),
        _solve_op("model2_n128", model, u128, 200),
        _ensemble_op(u128, 100),
        _solve_op("hier1_n256_ham", flows[1], u256, 150, hams=(0, 1, 2)),
        _solve_op("hier1_n256", flows[1], u256, 150),
    ]

    def rhs_probe(name, flow, u):
        return Op(f"spectral.rhs_field.{name}", f"spectral.rhs_field.{name}",
                  lambda: spectral.rhs_field(flow, u, dealias=DEALIAS),
                  lambda r: _finite(r.modes))

    h2 = hierarchy.level(2).hamiltonian
    probes = [rhs_probe(f"hier{l}_n256", flows[l], u256) for l in (1, 2, 3, 4)] + [
        rhs_probe("hier3_n1024", flows[3], u1024),
        rhs_probe("model2_n128", model, u128),
        Op("spectral.functional_eval.H2_n256", "spectral.functional_eval.H2_n256",
           lambda: spectral.functional_eval(h2, u256), lambda r: _finite(r)),
    ]
    return Workload(ops, probes=probes)


# ---------------------------------------------------------------------------
# energy: E^s and dE^s/dt of the l = 2..5 blueprints on seeded fields


def _check_coercive(half_norm: float):
    """Small data: E^s stays within [1/2, 3/2] of 1/2 |u|_{H^s}^2."""

    def check(energy: float) -> list[str]:
        problems = _finite(energy)
        if not problems and not 0.5 <= energy / half_norm <= 1.5:
            problems.append(f"E^s / (|u|^2/2) = {energy / half_norm:.3g}")
        return problems

    return check


def _energy(seed: int, reference: dict) -> Workload:
    rng = np.random.default_rng(seed)
    blueprints = {l: modenergy.build_energy(l) for l in (2, 3, 4, 5)}
    ops = []
    for l, bp in blueprints.items():
        s = 4 * l - 4
        for n in (128, 512):
            # a smooth field (decay s + 2) and a rough one (decay 5)
            for kind, decay in (("smooth", s + 2.0), ("rough", 5.0)):
                u = spectral.random_decay_field(
                    n, decay=decay, seed=int(rng.integers(0, 2**31)), amplitude=0.1, kmax=n // 3 - 1
                )
                half_norm = 0.5 * spectral.sobolev_norm(u, s) ** 2
                tag = f"l{l}_n{n}"
                ops.append(Op(
                    f"modenergy.energy_time_derivative.{tag}.{kind}",
                    f"modenergy.energy_time_derivative.{tag}",
                    lambda bp=bp, s=s, u=u: modenergy.energy_time_derivative(bp, s, u),
                    lambda r: _finite(r), fingerprint=lambda r: [r],
                ))
                ops.append(Op(
                    f"modenergy.evaluate_energy.{tag}.{kind}",
                    f"modenergy.evaluate_energy.{tag}",
                    lambda bp=bp, s=s, u=u: modenergy.evaluate_energy(bp, s, u),
                    _check_coercive(half_norm), fingerprint=lambda r: [r],
                ))
    counts = {
        f"modenergy.terms_per_eval.l{l}": len(bp.bounded_remainder) + len(bp.markers)
        for l, bp in blueprints.items()
    }
    final = [
        (lambda l=l, bp=bp: (f"modenergy.build_energy.l{l}.digest", _check_blueprint(l, reference)(bp)))
        for l, bp in blueprints.items()
    ]
    return Workload(ops, final_checks=final, counts=counts)


# ---------------------------------------------------------------------------
# experiments: the five `kdvlab exp` pipelines at their defaults


def _experiments(seed: int, workdir: Path) -> Workload:
    order = np.random.default_rng(seed).permutation(len(EXPERIMENTS))

    def run(name: str) -> tuple[int, str]:
        out = workdir / name
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["exp", name, "--out", str(out)])
        return code, str(out / f"{name.replace('-', '_')}.json")

    def check(result) -> list[str]:
        code, report = result
        if code != 0:
            return [f"exit code {code}"]
        verdict = json.loads(Path(report).read_text())["verdict"]
        return [] if verdict == "PASS" else [f"verdict {verdict}"]

    ops = [
        Op(f"cli.exp.{EXPERIMENTS[i]}", f"cli.exp.{EXPERIMENTS[i]}",
           lambda name=EXPERIMENTS[i]: run(name), check)
        for i in order
    ]
    return Workload(ops, after_pass=lambda: shutil.rmtree(workdir, ignore_errors=True))


def build(name: str, seed: int, reference: dict, workdir: Path) -> Workload:
    if name == "algebra":
        return _algebra(seed, reference)
    if name == "stepping":
        return _stepping(seed)
    if name == "energy":
        return _energy(seed, reference)
    if name == "experiments":
        return _experiments(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


def compare_fingerprint(got: list[float], want: list[float]) -> list[str]:
    scale = max(abs(x) for x in want) or 1.0
    worst = max((abs(a - b) for a, b in zip(got, want)), default=0.0) / scale
    if len(got) != len(want) or not worst <= NUMERIC_RTOL:
        return [f"differs from the recorded value by {worst:.3g} (relative), tolerance {NUMERIC_RTOL:g}"]
    return []
