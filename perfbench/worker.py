"""One benchmark process: set up a workload, run timed passes, report as JSON.

``run.py`` starts this as ``python3 perfbench/worker.py '<spec>'`` from the
checkout root, where ``<spec>`` is a JSON object:

  workload, seed      which workload and the seed its inputs derive from
  mode                "setup" (set up, then exit) or "run"
  seconds             passes start only while they are expected to end
                      within this many seconds of the end of set-up
  max_passes          stop after this many passes (null: no limit)
  trace               "off", "on", or "alternate" (untraced first)
  reference           path of the recorded digests and values
  workdir             scratch directory inside the checkout
  record              true: return numeric fingerprints instead of checking them

The last line of standard output is one JSON object.  ``ready`` is the
CLOCK_MONOTONIC time at which set-up ended, so the parent can measure set-up
from the moment it started this process.

An untraced pass is cut into segments of at least ``CAL_EVERY_S`` timed
seconds, at operation boundaries, and the calibration kernels
(``calibrate.py``) run between segments.  Each segment is reported as
``[seconds, {kernel: mean of the kernel's runs before and after it}]``, so
the parent can express the pass in units of the host's speed at the time.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from calibrate import calibrate  # noqa: E402
from tracing import Tracer  # noqa: E402

# timed seconds between two calibrations: long enough to keep their cost a
# fraction of the pass, short enough to follow bursts of host contention
CAL_EVERY_S = 0.5


class Calibrator:
    """Runs the calibration kernels between segments of untraced passes."""

    def __init__(self) -> None:
        calibrate()  # first calls pay for FFT plans and caches
        self.last = calibrate()

    def close(self, seconds: float) -> list:
        now = calibrate()
        segment = [seconds, {k: 0.5 * (self.last[k] + now[k]) for k in now}]
        self.last = now
        return segment


def _run_op(op, tracer, trace_id, spec, reference, counts) -> dict:
    rec = {"name": op.name, "layer": op.layer, "units": op.units}
    try:
        if tracer is None:
            t0 = time.perf_counter()
            result = op.call()
            rec["seconds"] = time.perf_counter() - t0
        else:
            with tracer.span(op.layer, trace_id) as span:
                result = op.call()
            rec["seconds"] = span["end"] - span["start"]
            rec["span"] = span["id"]
    except Exception:  # a failed operation is counted, and the run goes on
        rec.update(seconds=None, ok=False, problems=[traceback.format_exc(limit=3)])
        return rec
    problems = list(op.check(result))
    if op.fingerprint is not None:
        values = [float(x) for x in op.fingerprint(result)]
        if spec.get("record"):
            rec["fingerprint"] = values
        elif spec["seed"] == workloads.DEFAULT_SEED:
            want = reference["numeric"].get(op.name)
            problems += ["no recorded value"] if want is None else workloads.compare_fingerprint(values, want)
    if op.counts is not None:
        counts.update(op.counts(result))
    rec["ok"] = not problems
    rec["problems"] = problems
    return rec


def _one_pass(wl, traced: bool, tracer: Tracer, cal: Calibrator, index: int, spec, reference, counts) -> dict:
    t0 = time.perf_counter()
    if traced:
        with tracer.counting_ffts():
            with tracer.span("pass", index) as span:
                ops = [_run_op(op, tracer, index, spec, reference, counts) for op in wl.ops]
            with tracer.span("probes", index):
                probes = [
                    _run_op(op, tracer, index, spec, reference, counts)
                    for op in wl.probes
                    for _ in range(workloads.PROBE_CALLS)
                ]
        out = {"traced": True, "span": span["id"], "probes": probes}
    else:
        ops, segments, open_s = [], [], 0.0
        for k, op in enumerate(wl.ops):
            ops.append(_run_op(op, None, index, spec, reference, counts))
            open_s += ops[-1]["seconds"] or 0.0
            if open_s >= CAL_EVERY_S or k == len(wl.ops) - 1:
                segments.append(cal.close(open_s))
                open_s = 0.0
        out = {"traced": False, "probes": [], "segments": segments}
    wl.after_pass()
    timed = [r["seconds"] for r in ops if r["seconds"] is not None]
    out.update(
        ops=ops,
        seconds=sum(timed),
        units=sum(r["units"] for r in ops),
        wall=time.perf_counter() - t0,
    )
    return out


def main(spec: dict) -> dict:
    reference = json.loads(Path(spec["reference"]).read_text())
    wl = workloads.build(spec["workload"], spec["seed"], reference, Path(spec["workdir"]))
    ready = time.monotonic()
    out = {"ready": ready, "passes": [], "final": [], "counts": {}, "spans": []}
    if spec["mode"] == "run":
        tracer = Tracer()
        counts = dict(wl.counts)
        deadline = time.perf_counter() + spec["seconds"]
        max_passes = spec.get("max_passes")
        min_passes = 2 if spec["trace"] == "alternate" else 1
        walls: list[float] = []
        cal = Calibrator()
        i = 0
        while max_passes is None or i < max_passes:
            if i >= min_passes and time.perf_counter() + statistics.median(walls) > deadline:
                break
            traced = spec["trace"] == "on" or (spec["trace"] == "alternate" and i % 2 == 1)
            p = _one_pass(wl, traced, tracer, cal, i, spec, reference, counts)
            walls.append(p["wall"])
            out["passes"].append(p)
            i += 1
        for final in wl.final_checks:
            name, problems = final()
            out["final"].append({"name": name, "ok": not problems, "problems": problems})
        out["counts"] = counts
        out["spans"] = tracer.spans
    out["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["numpy"] = np.__version__
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
