"""Run manifests: provenance records for solver runs and experiments.

Every experiment emits one manifest capturing the command line, the fully
resolved configuration (including seeds and thresholds), the package version,
wall-clock timestamps, and content hashes of every file the run wrote.
Identical config and seed reproduce identical symbolic output bytes; numeric
outputs agree to platform roundoff.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field

from . import __version__

__all__ = ["RunManifest", "file_sha256"]


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


@dataclass
class RunManifest:
    command: str
    config: dict = field(default_factory=dict)
    code_version: str = __version__
    started: str = field(default_factory=_now)
    finished: str = ""
    outputs: dict = field(default_factory=dict)
    verdict: str = ""

    def add_output(self, path: str) -> None:
        self.outputs[path] = file_sha256(path)

    def finish(self, verdict: str = "") -> None:
        self.finished = _now()
        if verdict:
            self.verdict = verdict

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")
