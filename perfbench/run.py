"""kdvlab benchmark: time the user-facing pipelines and each layer under them.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for what one pass does and why):

  algebra      exact algebra, each pass in a fresh interpreter (cold caches)
  stepping     ETD4 solves, warm in one process
  energy       E^s and dE^s/dt of the l = 2..5 blueprints, warm in one process
  experiments  the five `kdvlab exp` pipelines, each pass in a fresh interpreter

Load is closed-loop: one single-threaded caller issues the next operation
only when the previous one has returned.  Every pass runs in a worker process
(``worker.py``) with the thread-count variables pinned to 1.

--trace 0 reports the end-to-end metrics: setup_s (process start to the first
timed operation, median over several set-ups), pass_cal_ratio (median over
passes of the pass time in units of a fixed calibration kernel timed next to
it, see calibrate.py), peak_rss_mib, and, printed only, pass_s (median pass),
pass_p10_s (10th percentile pass), ops_per_s (median per pass of operations
over timed seconds: ETD steps on stepping, energy evaluations on energy, calls
elsewhere) and error_rate.  --trace 1 runs the workload with alternately
untraced and traced passes, then one traced pass of every other workload, and
reports the per-layer metrics: median time per call of each layer, exact work
counts, FFT calls and points per span and per workload, and
trace.overhead_ratio.

Every operation's output is checked (see workloads.py); the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The full result, with provenance and, for --trace 1, every
span, goes to .perfbench_out/.  Exits 2 without a result if the kdvlab
sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"

# warm workloads set up in one process and run every pass there; cold ones
# start a fresh interpreter per pass, as `kdvlab hierarchy gen` and `kdvlab exp` do
WORKLOADS = {"algebra": "cold", "stepping": "warm", "energy": "warm", "experiments": "cold"}
# a workload that must transform reports zero counted FFTs as an error
MUST_TRANSFORM = ("stepping", "energy", "experiments")
# a warm run sets up this many times: the measuring process plus set-up-only ones
SETUP_REPEATS = 5
RUN_BUDGET_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

# printed by an untraced run; the last-line JSON carries the END_TO_END subset.
# Pass time in seconds is not bounded: on a shared 2-core host the speed this
# process gets swings by up to 2x, in bursts of seconds and spells of minutes,
# and moves any statistic of raw pass times by 30-40 % between runs.  A
# calibration kernel slows down with the host, so the bounded pass time is
# measured in its units, pass_cal_ratio.
REPORTED = {
    "setup_s": "s", "pass_cal_ratio": "ratio", "pass_s": "s", "pass_p10_s": "s",
    "ops_per_s": "1/s", "peak_rss_mib": "MiB",
}
END_TO_END = {k: REPORTED[k] for k in ("setup_s", "pass_cal_ratio", "peak_rss_mib")}
# the calibration kernels (calibrate.py) whose summed time is a workload's unit
CAL_KERNELS = {
    "algebra": ("exact",), "stepping": ("numeric",), "energy": ("numeric",),
    "experiments": ("exact", "numeric"),
}
OPS_ALIAS = {"stepping": "steps_per_s", "energy": "energy_evals_per_s"}

TIMED_LAYERS = (
    ["hierarchy.generate.l12_cold", "hierarchy.involution_residue.m2_l5"]
    + [f"ibpcalc.verify_identity.l{l}" for l in (6, 8, 10)]
    + [f"modenergy.build_energy.l{l}" for l in (4, 5, 6)]
    + [f"spectral.rhs_field.hier{l}_n256" for l in (1, 2, 3, 4)]
    + ["spectral.rhs_field.hier3_n1024", "spectral.rhs_field.model2_n128"]
    + [f"spectral.solve.{c}" for c in (
        "hier3_n1024", "hier4_n256", "model2_n128", "reg2_n128_ensemble", "hier1_n256", "hier1_n256_ham")]
    + ["spectral.functional_eval.H2_n256"]
    + [f"modenergy.{f}.l{l}_n{n}" for f in ("energy_time_derivative", "evaluate_energy")
       for l in (2, 3, 4, 5) for n in (128, 512)]
    + [f"cli.exp.{e}" for e in ("conservation", "mu-cauchy", "bona-smith", "energy-drift", "scaling")]
)
EXACT_COUNTS = (
    ["hierarchy.g12_monomials"]
    + [f"modenergy.build_energy.l6_{k}" for k in ("corrections", "bounded_terms", "markers")]
    + [f"modenergy.terms_per_eval.l{l}" for l in (2, 3, 4, 5)]
)
FFT_LAYERS = [n for n in TIMED_LAYERS if n.startswith(("spectral.", "modenergy.e"))]


def per_layer_units() -> dict[str, str]:
    units = {f"{n}_s": "s" for n in TIMED_LAYERS}
    units["spectral.solve.ham_overhead"] = "ratio"
    units.update({n: "count" for n in EXACT_COUNTS})
    for scope in FFT_LAYERS + list(MUST_TRANSFORM):
        units[f"numpy.fft.calls.{scope}"] = "count"
        units[f"numpy.fft.points.{scope}"] = "points"
    units["trace.overhead_ratio"] = "ratio"
    return units


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(spec: dict, timeout: float) -> dict:
    """Run one worker to completion; set-up time counts from process start."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(spec)],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"{spec['workload']} worker timed out")
    if proc.returncode != 0 or not out.strip():
        raise WorkerFailed(f"{spec['workload']} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    res = json.loads(out.strip().splitlines()[-1])
    res["workload"] = spec["workload"]
    res["setup_s"] = res["ready"] - t0
    res["process_s"] = time.monotonic() - t0
    return res


class Runner:
    """Starts the worker processes of one benchmark run and keeps their results."""

    def __init__(self, seed: int, reference: Path = HERE / "reference.json"):
        self.seed = seed
        self.reference = reference
        self.results: list[dict] = []
        self.crashes: list[str] = []
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def _spec(self, workload: str, **kw) -> dict:
        spec = {
            "workload": workload, "seed": self.seed, "mode": "run", "seconds": 0.0,
            "max_passes": 1, "trace": "off", "reference": str(self.reference),
            "workdir": str(OUT / f"work-{os.getpid()}"),
        }
        spec.update(kw)
        return spec

    def _spawn(self, spec: dict) -> dict | None:
        try:
            res = spawn(spec, self.deadline - time.monotonic())
        except WorkerFailed as exc:
            self.crashes.append(str(exc))
            print(f"error: {exc}", file=sys.stderr)
            return None
        self.results.append(res)
        return res

    def measure(self, workload: str, seconds: float, trace: str) -> None:
        """Passes of one workload for about `seconds`; trace is off, on or alternate."""
        if WORKLOADS[workload] == "warm":
            if trace == "off":
                for _ in range(SETUP_REPEATS - 1):
                    self._spawn(self._spec(workload, mode="setup"))
            self._spawn(self._spec(workload, seconds=seconds, max_passes=None, trace=trace))
            return
        start = time.monotonic()
        spent: list[float] = []
        i = 0
        while not spent or time.monotonic() - start + statistics.median(spent) <= seconds or (
            trace == "alternate" and i < 2
        ):
            traced = trace == "on" or (trace == "alternate" and i % 2 == 1)
            res = self._spawn(self._spec(workload, trace="on" if traced else "off"))
            if res is None:
                return
            spent.append(res["process_s"])
            i += 1

    # -- aggregation ---------------------------------------------------------

    def passes(self, workload: str, traced: bool | None = None) -> list[dict]:
        return [
            p for r in self.results if r["workload"] == workload
            for p in r["passes"] if traced is None or p["traced"] == traced
        ]

    def tally(self) -> tuple[int, int, list[str]]:
        attempted = failed = 0
        problems = list(self.crashes)
        for r in self.results:
            records = [o for p in r["passes"] for o in p["ops"] + p["probes"]] + r["final"]
            attempted += len(records)
            for o in records:
                if not o["ok"]:
                    failed += 1
                    problems.append(f"{r['workload']}: {o['name']}: {'; '.join(o['problems'])}")
        attempted += len(self.crashes)
        failed += len(self.crashes)
        return attempted, failed, problems

    def end_to_end(self, workload: str) -> tuple[dict, dict]:
        ps = self.passes(workload)
        setups = [r["setup_s"] for r in self.results]
        times = [p["seconds"] for p in ps]
        rates = [p["units"] / p["seconds"] for p in ps if p["seconds"] > 0]
        in_cal = [cal_units(p, CAL_KERNELS[workload]) for p in ps]
        values = {
            "setup_s": statistics.median(setups),
            "pass_cal_ratio": statistics.median(in_cal),
            "pass_s": statistics.median(times),
            "pass_p10_s": sorted(times)[math.ceil(0.1 * len(times)) - 1],
            "ops_per_s": statistics.median(rates),
            "peak_rss_mib": max(r["rss_kib"] for r in self.results) / 1024.0,
        }
        op_samples: dict[str, list[float]] = {}
        for p in ps:
            for o in p["ops"]:
                op_samples.setdefault(o["name"], []).append(o["seconds"])
        extra = {
            "setup_samples": setups, "pass_samples": times, "pass_tail": tail(times),
            "pass_cal_samples": in_cal,
            "segments": [p["segments"] for p in ps],
            "op_samples": op_samples,
        }
        return values, extra

    def per_layer(self, workload: str) -> tuple[dict, dict, list[str]]:
        timings: dict[str, list[float]] = {}
        ffts: dict[str, list[tuple[int, int, int]]] = {}
        counts: dict[str, int] = {}
        spans_out = []
        problems = []
        for r in self.results:
            spans = r["spans"]
            spans_out.append({"workload": r["workload"], "spans": spans})
            counts.update(r["counts"])
            for p in r["passes"]:
                if not p["traced"]:
                    continue
                for o in p["ops"] + p["probes"]:
                    if o.get("span") is None:
                        continue
                    s = spans[o["span"]]
                    timings.setdefault(o["layer"], []).append(o["seconds"])
                    ffts.setdefault(o["layer"], []).append((s["rfft_calls"], s["irfft_calls"], s["fft_points"]))
                # the pass total sums its operations' spans, leaving out the checks between them
                op_spans = [spans[o["span"]] for o in p["ops"] if o.get("span") is not None]
                ffts.setdefault(r["workload"], []).append(
                    tuple(sum(s[k] for s in op_spans) for k in ("rfft_calls", "irfft_calls", "fft_points"))
                )
        values: dict[str, float] = {}
        for layer in TIMED_LAYERS:
            if layer in timings:
                values[f"{layer}_s"] = statistics.median(timings[layer])
        if "spectral.solve.hier1_n256" in timings and "spectral.solve.hier1_n256_ham" in timings:
            values["spectral.solve.ham_overhead"] = (
                values["spectral.solve.hier1_n256_ham_s"] / values["spectral.solve.hier1_n256_s"]
            )
        for name in EXACT_COUNTS:
            if name in counts:
                values[name] = counts[name]
        fft_detail = {}
        for scope in FFT_LAYERS + list(MUST_TRANSFORM):
            if scope not in ffts:
                continue
            # every call of one scope shares its grid and band limit, so the
            # counts must repeat exactly; a difference is a failed check
            seen = sorted(set(ffts[scope]))
            if len(seen) > 1:
                problems.append(f"{scope}: FFT counts differ between calls: {seen}")
            rfft, irfft, points = seen[0]
            values[f"numpy.fft.calls.{scope}"] = rfft + irfft
            values[f"numpy.fft.points.{scope}"] = points
            fft_detail[scope] = {"rfft_calls": rfft, "irfft_calls": irfft, "points": points}
        for scope in MUST_TRANSFORM:
            if values.get(f"numpy.fft.calls.{scope}") == 0:
                problems.append(f"{scope}: no FFT counted in a traced pass; the counter is not seeing calls")
        untraced = [p["seconds"] for p in self.passes(workload, traced=False)]
        traced = [p["seconds"] for p in self.passes(workload, traced=True)]
        if untraced and traced:
            values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        extra = {"fft": fft_detail, "trace_passes": len(traced), "untraced_passes": len(untraced)}
        return values, {"detail": extra, "spans": spans_out}, problems


def cal_units(p: dict, kernels: tuple[str, ...]) -> float:
    """A pass's time in units of the summed kernels timed around each segment."""
    return sum(s / sum(cal[k] for k in kernels) for s, cal in p["segments"])


def tail(samples: list[float]) -> dict:
    """The highest of a few percentiles with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        k = math.ceil(p / 100.0 * n)
        if n - k >= 10:
            return {"percentile": p, "value": ordered[k - 1], "samples": n}
    return {"percentile": None, "value": None, "samples": n}


def provenance(args, numpy_version: str | None) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    git_rev = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_rev = done.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_rev,
        "source_sha256": src.hexdigest(),
        "env": {v: "1" for v in THREAD_VARS} | {"PYTHONHASHSEED": "0"},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in (ROOT / "src" / "kdvlab" / "__init__.py", ROOT / "tests" / "golden" / "hierarchy_l8.json"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a kdvlab checkout", file=sys.stderr)
            return 2
    OUT.mkdir(exist_ok=True)
    runner = Runner(args.seed)
    if args.trace:
        runner.measure(args.workload, args.seconds, "alternate")
        for other in WORKLOADS:
            if other != args.workload:
                runner.measure(other, 0.0, "on")
    else:
        runner.measure(args.workload, args.seconds, "off")
    if not runner.passes(args.workload):
        print("error: no pass completed", file=sys.stderr)
        return 1

    attempted, failed, problems = runner.tally()
    result: dict = {}
    if args.trace:
        values, result, trace_problems = runner.per_layer(args.workload)
        units = per_layer_units()
        attempted += len(trace_problems)
        failed += len(trace_problems)
        problems += trace_problems
    else:
        values, result["detail"] = runner.end_to_end(args.workload)
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    result.update(
        provenance=provenance(args, runner.results[0]["numpy"] if runner.results else None),
        metrics=metrics, attempted=attempted, failed=failed, problems=problems,
    )
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"kdvlab benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    for name, unit in (per_layer_units() if args.trace else REPORTED).items():
        if name in values:
            print(f"  {name:58s} {values[name]:.6g} {unit}")
    if not args.trace:
        detail = result["detail"]
        if args.workload in OPS_ALIAS:
            print(f"  {OPS_ALIAS[args.workload]:58s} {values['ops_per_s']:.6g} 1/s")
        t = detail["pass_tail"]
        print(f"  pass_s samples {t['samples']}, set-ups {len(detail['setup_samples'])}; " + (
            f"p{t['percentile']:g} {t['value']:.6g} s" if t["percentile"] is not None
            else "no percentile has ten samples above it"))
    print(f"  {'error_rate':58s} {failed / max(attempted, 1):.6g} ratio ({failed} of {attempted} operations)")
    for p in problems[:20]:
        print(f"  FAILED {p}")
    print(f"  result file {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
