"""Record the reference values the benchmark checks against.

  python3 perfbench/record.py            # print the recorded values
  python3 perfbench/record.py --write    # overwrite perfbench/reference.json

Records the sha256 of the sorted-key JSON of ``level_to_obj`` for hierarchy
levels 9..12 and of ``build_energy(l).to_obj()`` for l = 2..6, and the numeric
fingerprints of every stepping and energy operation at the default seed.
Re-record only when a change is meant to alter these outputs, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from kdvlab import hierarchy, modenergy  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    reference = {
        "hierarchy_digests": {
            str(l): workloads.digest(hierarchy.level_to_obj(hierarchy.level(l))) for l in range(9, 13)
        },
        "blueprint_digests": {
            str(l): workloads.digest(modenergy.build_energy(l).to_obj()) for l in range(2, 7)
        },
        "numeric": {},
    }
    run.OUT.mkdir(exist_ok=True)
    draft = run.OUT / "reference-draft.json"
    draft.write_text(json.dumps(reference))
    runner = run.Runner(workloads.DEFAULT_SEED, draft)
    for name in ("stepping", "energy"):
        res = runner._spawn(runner._spec(name, record=True))
        if res is None:
            return 1
        for op in res["passes"][0]["ops"]:
            if "fingerprint" in op:
                reference["numeric"][op["name"]] = op["fingerprint"]
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    if args.write:
        (HERE / "reference.json").write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
