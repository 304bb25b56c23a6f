"""Write BENCH_<TAG>.json: one benchmark run per workload, with provenance.

Usage, from the root of a checkout:

  python3 scripts/bench.py --tag TAG [--seconds S] [--workloads W ...]
                           [--checkout DIR] [--out DIR]

For each workload in turn (default: stepping, energy, experiments, algebra)
this runs ``perfbench/run.py --workload W --seed 0 --seconds S --trace 0`` in
the checkout DIR (default: the one holding this script) and keeps the last
line of its output, the JSON object with ``correct``, ``attempted``,
``failed`` and the end-to-end ``metrics``.  It writes them to
``BENCH_<TAG>.json`` in --out (default: the root of this checkout) under
``workloads``, next to the provenance: Python, NumPy, platform, CPU count,
git revision and source digest as perfbench/run.py records them, and the
checkout directory, as its name and a digest of its absolute path (identical
code set up in two directories can differ by several percent in
``setup_s``).  A run that exits non-zero stops the script with its exit code
and writes nothing.  A file is one sequential run per workload, so a pair of
them, the parent's and the change's, carries the order of the runs (the side
that runs first reads about 2% better) and the directories' ``setup_s``
offset: it does not carry a speed-up claim.  A claim rests on alternating
30-s pairs on one machine, each side first in half of them (ROADMAP item 2).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("stepping", "energy", "experiments", "algebra")
# the default seed of run.py, whose operations reference.json pins
SEED = 0
# the keys of run.py's provenance that a BENCH file keeps
PROVENANCE = ("python", "numpy", "platform", "nproc", "git_rev", "source_sha256")


def run_workload(checkout: Path, workload: str, seconds: float) -> tuple[dict, dict]:
    """The last-line JSON of one run.py run in checkout, and its provenance."""
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(done.returncode)
    result = json.loads((checkout / ".perfbench_out" / f"{workload}-seed{SEED}-trace0.json").read_text())
    return json.loads(done.stdout.splitlines()[-1]), result["provenance"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--checkout", type=Path, default=ROOT)
    ap.add_argument("--out", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.tag):
        ap.error(f"--tag: {args.tag!r} is not a file-name fragment (letters, digits, '_', '.', '-')")

    checkout = args.checkout.resolve()
    runs = {w: run_workload(checkout, w, args.seconds) for w in args.workloads}
    first = next(iter(runs.values()))[1]
    bench = {
        "tag": args.tag,
        "seed": SEED,
        "seconds": args.seconds,
        "provenance": {k: first[k] for k in PROVENANCE} | {
            "checkout": {"name": checkout.name, "path_sha256": hashlib.sha256(str(checkout).encode()).hexdigest()},
        },
        "workloads": {w: last for w, (last, _) in runs.items()},
    }
    path = args.out / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
