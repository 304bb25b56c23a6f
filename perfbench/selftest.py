"""Self-test of the benchmark on its shortest configuration (--seconds 1).

  python3 perfbench/selftest.py

Checks, in about a minute:
  * every workload's untraced run is correct and emits exactly the
    end-to-end metrics of BENCHMARK.json, with their units;
  * a traced run emits exactly the per-layer metrics of BENCHMARK.json, with
    their units, and its exact work counts repeat in a second traced run;
  * the FFT counter sees 7 rfft and 19 irfft calls in one
    spectral.rhs_field(hierarchy_flow(3), .) at N = 1024, dealias 2/3
    (the count of the code this benchmark was written against);
  * a corrupted recorded digest makes error_rate > 0;
  * without the kdvlab sources the benchmark exits non-zero and prints no result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, dict | None]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def tree(name: str, *parts: str) -> Path:
    """A fresh copy of perfbench/ and the given parts of the checkout."""
    root = run.OUT / name
    shutil.rmtree(root, ignore_errors=True)
    for part in ("perfbench",) + parts:
        shutil.copytree(ROOT / part, root / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def units_of(entries: list[dict]) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


def main() -> int:
    e2e = units_of(SPEC["end_to_end"])
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    layers = units_of(SPEC["per_layer"])
    expect(layers == run.per_layer_units(), "BENCHMARK.json per_layer matches run.per_layer_units()")
    expect({w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS), "every listed workload exists")

    for workload in run.WORKLOADS:
        code, res = bench(workload, 0)
        expect(code == 0 and res is not None and res["correct"], f"{workload}: untraced run is correct")
        got = {k: m["unit"] for k, m in res["metrics"].items()}
        expect(got == e2e, f"{workload}: every end-to-end metric emitted with its unit")

    traced = []
    for _ in range(2):
        code, res = bench("energy", 1)
        expect(code == 0 and res is not None and res["correct"], "traced run is correct")
        got = {k: m["unit"] for k, m in res["metrics"].items()}
        expect(got == layers, "traced run emits every per-layer metric with its unit")
        traced.append(res["metrics"])
    exact = [k for k, u in layers.items() if u in ("count", "points")]
    same = [k for k in exact if traced[0][k]["value"] == traced[1][k]["value"]]
    expect(same == exact, f"{len(exact)} exact work counts repeat across two traced runs")
    detail = json.loads((run.OUT / "energy-seed0-trace1.json").read_text())["detail"]["fft"]
    hier3 = detail["spectral.rhs_field.hier3_n1024"]
    expect((hier3["rfft_calls"], hier3["irfft_calls"]) == (7, 19),
           f"rhs_field(hier3, N=1024): {hier3['rfft_calls']} rfft, {hier3['irfft_calls']} irfft")

    corrupt = tree("corrupt", "src", "tests/golden")
    reference = json.loads((corrupt / "perfbench" / "reference.json").read_text())
    reference["blueprint_digests"]["2"] = "0" * 64
    (corrupt / "perfbench" / "reference.json").write_text(json.dumps(reference))
    code, res = bench("energy", 0, cwd=corrupt)
    shutil.rmtree(corrupt)
    expect(code == 0 and res is not None and res["failed"] > 0 and not res["correct"],
           "a corrupted recorded digest makes error_rate > 0")

    bare = tree("bare")
    code, res = bench("algebra", 0, cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and res is None, "without the sources: non-zero exit, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
