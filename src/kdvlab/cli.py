"""Command-line front end.

Subcommands:

  hierarchy gen   print one level of the integrable hierarchy (text/JSON/LaTeX)
  ibp alpha       exact coefficients of the odd-order integration-by-parts
                  identity, optionally checked against the variational oracle
  energy build    construct the modified-energy blueprint and report its
                  corrections, remainder census, and symbolic diagnostics
  solve           march a flow on the torus from a flat key=value config and
                  write a diagnostics CSV (t, l2, hs, H0, H1, H2, Es)
  exp             run a named experiment pipeline, write its tables as CSV, a
                  result JSON, and a run manifest

Exit codes: 0 = PASS, 1 = FAIL, 2 = error (bad input, blow-up, usage).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diffpoly import latex_poly
from .experiments import EXPERIMENTS, _resolve, run_experiment
from .hierarchy import level, level_to_obj
from .ibpcalc import alpha_coeffs, verify_identity
from .manifest import RunManifest
from .modenergy import (
    SingularSystem,
    ThresholdViolation,
    _check_threshold,
    build_energy,
    evaluate_energy,
)
from .spectral import (
    BlowUp,
    SolverConfig,
    SpectralField,
    cosine_field,
    hierarchy_flow,
    model_flow,
    random_decay_field,
    regularized_flow,
    sobolev_norm,
    solve,
)

__all__ = ["main", "SOLVE_DEFAULTS"]

CSV_COLUMNS = ["t", "l2", "hs", "H0", "H1", "H2", "Es"]

SOLVE_DEFAULTS = {
    "flow.kind": "model",  # model | regularized | hierarchy
    "flow.l": 2,
    "flow.mu": 0.0,
    "grid.N": 256,
    "time.dt": 1e-3,
    "time.T": 1.0,
    "dealias": 2.0 / 3.0,
    "integrator.order": 4,
    "ic.kind": "cosine",  # cosine | random | zero
    "ic.amplitude": 0.1,
    "ic.wavenumber": 1,
    "ic.seed": 0,
    "ic.decay": 5.0,
    "ic.kmax": 0,  # 0 -> N/2 - 1
    "diagnostics.s": "",  # "" -> skip the H^s column
    "diagnostics.every": 1,
    "energy.s": "",  # "" -> skip the modified-energy column
    "output.path": "solve.csv",
}


def _fmt(v) -> str:
    """Deterministic cell text: shortest round-trip form for floats."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _destination(name: str, path: str | None) -> None:
    """A file the run writes at its end, if any: checked before the run starts."""
    if path is not None and (Path(path).is_dir() or not Path(path).parent.is_dir()):
        raise ValueError(f"{name}: cannot write {path!r}: it is a directory or its directory does not exist")


def _apart(name: str, path: str | None, taken) -> None:
    """Refuse a path that resolves to another file of the run (taken(resolved path) holds)."""
    if path is not None and taken(Path(path).resolve()):
        raise ValueError(f"{name}: {path!r} is also --config or an output of this run: give each file its own path")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def parse_flat_config(path: str) -> dict:
    """key = value lines; '#' comments; comma-separated values become lists; a key at most once."""
    out: dict = {}
    lines: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key:
            raise ValueError(f"{path}:{lineno}: empty key")
        if key in lines:
            raise ValueError(f"{path}:{lineno}: key {key!r} given twice, on lines {lines[key]} and {lineno}")
        lines[key] = lineno
        out[key] = [v.strip() for v in val.split(",")] if "," in val else val
    return out


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _cmd_hierarchy_gen(args, argv) -> int:
    _destination("--out", args.out)
    lv = level(args.l)
    if args.format == "json":
        obj = level_to_obj(lv)
        obj["monomials"] = len(lv.g)
        _emit(json.dumps(obj, indent=2, sort_keys=True), args.out)
    elif args.format == "latex":
        text = "\n".join(
            [
                f"G_{{{args.l}}} &= {latex_poly(lv.g)} \\\\",
                f"\\partial_x G_{{{args.l}}} &= {latex_poly(lv.rhs)} \\\\",
                f"H_{{{args.l}}} &= \\int {latex_poly(lv.hamiltonian.canonical)} \\, dx",
            ]
        )
        _emit(text, args.out)
    else:
        text = "\n".join(
            [
                f"G_{args.l} = {lv.g}",
                f"rhs_{args.l} = {lv.rhs}",
                f"H_{args.l} = integral of {lv.hamiltonian.canonical}",
            ]
        )
        _emit(text, args.out)
    return 0


def _finite(name: str, value) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {value}")
    return v


def _cmd_ibp_alpha(args, argv) -> int:
    if args.l < 1:
        raise ValueError(f"--l must be at least 1, got {args.l}")
    _destination("--out", args.out)
    table = alpha_coeffs(args.l)
    obj = {**table.to_obj(), "diagonal": str(table.diagonal)}
    verified = None
    if args.verify:
        verified = bool(verify_identity(args.l))
        obj["verified"] = verified
    _emit(json.dumps(obj, indent=2, sort_keys=True), args.out)
    return 0 if verified in (None, True) else 1


def _cmd_energy_build(args, argv) -> int:
    _destination("--out", args.out)
    if args.s is not None:
        _check_threshold(args.l, _finite("--s", args.s))
    bp = build_energy(args.l, max_stage=args.max_stage)
    obj = bp.to_obj()
    if args.s is not None:
        obj["s"] = args.s
        obj["gammas_at_s"] = [float(g(args.s)) for g in bp.gammas()]
    _emit(json.dumps(obj, indent=2, sort_keys=True), args.out)
    complete = not obj["resonant_residue"] and not obj["diagnostics"]["pending_terms"]
    return 0 if complete else 1


def _make_ic(cfg: dict) -> SpectralField:
    n = cfg["grid.N"]
    kind, amplitude = cfg["ic.kind"], cfg["ic.amplitude"]
    if kind == "cosine":
        return amplitude * cosine_field(n, cfg["ic.wavenumber"])
    if kind == "random":
        kmax = cfg["ic.kmax"] or None
        return random_decay_field(
            n, decay=cfg["ic.decay"], seed=cfg["ic.seed"], amplitude=amplitude, kmax=kmax,
        )
    if kind == "zero":
        return SpectralField.zero(n)
    raise ValueError(f"unknown ic.kind {cfg['ic.kind']!r}")


def _make_flow(cfg: dict):
    kind, l = cfg["flow.kind"], cfg["flow.l"]
    if kind in ("model", "hierarchy") and cfg["flow.mu"] != 0.0:
        raise ValueError(f"flow.mu = {cfg['flow.mu']} needs flow.kind = regularized, got {kind!r}")
    if kind == "hierarchy" and cfg["energy.s"] != "":
        raise ValueError("energy.s needs flow.kind = model or regularized: E^s is built for the model flow")
    if kind == "model":
        return model_flow(l)
    if kind == "regularized":
        return regularized_flow(l, cfg["flow.mu"])
    if kind == "hierarchy":
        return hierarchy_flow(l)
    raise ValueError(f"unknown flow.kind {kind!r}")


def _cmd_solve(args, argv) -> int:
    cfg = _resolve(SOLVE_DEFAULTS, parse_flat_config(args.config))
    config, out = Path(args.config).resolve(), Path(cfg["output.path"]).resolve()
    _destination("output.path", cfg["output.path"])
    _destination("--manifest", args.manifest)
    _apart("output.path", cfg["output.path"], lambda p: p == config)
    _apart("--manifest", args.manifest, lambda p: p in (config, out))
    flow = _make_flow(cfg)
    u0 = _make_ic(cfg)

    # the optional columns, each a function of the recorded state
    extra = {}
    if cfg["diagnostics.s"] != "":
        hs = _finite("diagnostics.s", cfg["diagnostics.s"])
        extra["hs"] = lambda f: sobolev_norm(f, hs)
    if cfg["energy.s"] != "":
        es = _finite("energy.s", cfg["energy.s"])
        bp = build_energy(cfg["flow.l"])
        extra["Es"] = lambda f: evaluate_energy(bp, es, f)
    cols = {c: [] for c in extra}

    def observe(f: SpectralField):
        for c, fn in extra.items():
            cols[c].append(fn(f))

    sc = SolverConfig(
        n=cfg["grid.N"], dt=cfg["time.dt"], t_final=cfg["time.T"], dealias=cfg["dealias"],
        order=cfg["integrator.order"], diagnostics_every=cfg["diagnostics.every"],
    )
    # without an extra column the solve records its states a chunk at a time
    _, diag = solve(u0, flow, sc, observe if extra else None)
    cols.update(t=diag.times, l2=diag.l2, **{f"H{m}": v for m, v in diag.hams.items()})

    out_path = Path(cfg["output.path"])
    rows = ([cols[c][i] if c in cols else "" for c in CSV_COLUMNS] for i in range(len(diag.times)))
    _write_csv(out_path, CSV_COLUMNS, rows)

    if args.manifest:
        man = RunManifest(command="kdvlab " + " ".join(argv), config=cfg)
        man.add_output(str(out_path))
        man.finish()
        man.write(args.manifest)
    return 0


def _cmd_exp(args, argv) -> int:
    raw = parse_flat_config(args.config) if args.config else {}
    out_dir, stem = Path(args.out), args.name.replace("-", "_")
    # --out or its nearest existing ancestor must be a directory
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"--out: {str(existing)!r} is not a directory")
    _destination("--manifest", args.manifest)
    outputs = (f"{stem}.json", f"{stem}_*.csv") + (() if args.manifest else (f"{stem}_manifest.json",))

    def written(p: Path) -> bool:
        return p.parent == out_dir.resolve() and any(map(p.match, outputs))

    config = args.config and Path(args.config).resolve()
    _apart("--manifest", args.manifest, lambda p: written(p) or p == config)
    _apart("--config", args.config, written)
    man = RunManifest(command="kdvlab " + " ".join(argv), config={})
    result = run_experiment(args.name, raw)
    man.config = result.config
    out_dir.mkdir(parents=True, exist_ok=True)

    for table_name, (header, rows) in result.tables.items():
        path = out_dir / f"{stem}_{table_name}.csv"
        _write_csv(path, header, rows)
        man.add_output(str(path))

    verdict = "PASS" if result.verdict else "FAIL"
    report = {"name": result.name, "verdict": verdict, "metrics": result.metrics}
    report_path = out_dir / f"{stem}.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    man.add_output(str(report_path))

    man.finish(verdict)
    man.write(args.manifest or str(out_dir / f"{stem}_manifest.json"))
    print(f"{result.name}: {verdict}")
    for key in sorted(result.metrics):
        print(f"  {key} = {_fmt(result.metrics[key])}")
    return 0 if result.verdict else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="kdvlab", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"kdvlab {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    ph = sub.add_parser("hierarchy", help="symbolic hierarchy levels")
    phs = ph.add_subparsers(dest="sub", required=True)
    gen = phs.add_parser("gen", help="generate one level")
    gen.add_argument("--l", type=int, required=True)
    gen.add_argument("--format", choices=["text", "json", "latex"], default="text")
    gen.add_argument("--out", default=None, help="write to file instead of stdout")
    gen.set_defaults(handler=_cmd_hierarchy_gen)

    pi = sub.add_parser("ibp", help="integration-by-parts identities")
    pis = pi.add_subparsers(dest="sub", required=True)
    al = pis.add_parser("alpha", help="exact identity coefficients")
    al.add_argument("--l", type=int, required=True)
    al.add_argument("--verify", action="store_true", help="check against the variational oracle")
    al.add_argument("--out", default=None)
    al.set_defaults(handler=_cmd_ibp_alpha)

    pe = sub.add_parser("energy", help="modified-energy construction")
    pes = pe.add_subparsers(dest="sub", required=True)
    bu = pes.add_parser("build", help="build the cancellation blueprint")
    bu.add_argument("--l", type=int, required=True)
    bu.add_argument("--s", type=float, default=None, help="evaluate the gammas at this regularity")
    bu.add_argument("--max-stage", type=int, default=None)
    bu.add_argument("--out", default=None)
    bu.set_defaults(handler=_cmd_energy_build)

    so = sub.add_parser("solve", help="march a flow and write diagnostics CSV")
    so.add_argument("--config", required=True, help="flat key=value config file")
    so.add_argument("--manifest", default=None, help="also write a run manifest here")
    so.set_defaults(handler=_cmd_solve)

    ex = sub.add_parser("exp", help="run an experiment pipeline")
    ex.add_argument("name", choices=sorted(EXPERIMENTS))
    ex.add_argument("--config", default=None, help="flat key=value overrides")
    ex.add_argument("--out", default=".", help="output directory")
    ex.add_argument("--manifest", default=None, help="manifest path (default <out>/<name>_manifest.json)")
    ex.set_defaults(handler=_cmd_exp)
    return p


def main(argv: list[str] | None = None) -> int:
    args_list = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(args_list)
    except SystemExit as exc:  # argparse exits itself on usage error / --help
        code = exc.code
        return int(code) if code else 0
    try:
        return args.handler(args, args_list)
    except BlowUp as exc:
        print(f"error: blow-up at t = {exc.time:g}: {exc}", file=sys.stderr)
        return 2
    except (ThresholdViolation, SingularSystem, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
