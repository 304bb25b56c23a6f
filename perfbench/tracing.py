"""Spans and FFT counts for the traced run.

Spans are opened by the benchmark's own code around each call into a kdvlab
layer; they record a name, a start, an end and their parent, stay in memory
and are written out when the run ends.  While counting is on, ``numpy.fft.rfft``
and ``numpy.fft.irfft`` are wrapped; kdvlab looks both up on ``np.fft`` at
every call, so the wrappers see every transform.  Each transform is charged to
every open span, so a span's counts include those of its children.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, trace_id: int):
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "trace": trace_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "rfft_calls": 0,
            "irfft_calls": 0,
            "fft_points": 0,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def _charge(self, kind: str, points: int) -> None:
        for rec in self._open:
            rec[kind] += 1
            rec["fft_points"] += points

    @contextlib.contextmanager
    def counting_ffts(self):
        """Wrap np.fft.rfft / irfft for the duration of the block."""
        rfft, irfft = np.fft.rfft, np.fft.irfft

        def counted_rfft(a, n=None, *args, **kwargs):
            a = np.asarray(a)
            length = a.shape[-1] if n is None else n
            self._charge("rfft_calls", length * (a.size // max(a.shape[-1], 1)))
            return rfft(a, n, *args, **kwargs)

        def counted_irfft(a, n=None, *args, **kwargs):
            a = np.asarray(a)
            length = 2 * (a.shape[-1] - 1) if n is None else n
            self._charge("irfft_calls", length * (a.size // max(a.shape[-1], 1)))
            return irfft(a, n, *args, **kwargs)

        np.fft.rfft, np.fft.irfft = counted_rfft, counted_irfft
        try:
            yield
        finally:
            np.fft.rfft, np.fft.irfft = rfft, irfft
