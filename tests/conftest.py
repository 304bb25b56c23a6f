"""Fixtures shared by the test modules."""

from fractions import Fraction

import numpy as np
import pytest

from kdvlab.diffpoly import DiffMonomial, DiffPoly
from kdvlab.modenergy import build_energy


class _Blueprints(dict):
    """build_energy(l) per key l, built on first use and then kept."""

    def __missing__(self, l):
        bp = self[l] = build_energy(l)
        return bp


@pytest.fixture(scope="session")
def blueprints():
    """The full blueprints, each l built once per session.

    Shared by every test that asks for it, so read only: a test that edits a
    blueprint's items builds its own.  Evaluation fills a blueprint's plan
    cache, which the results do not depend on.
    """
    return _Blueprints()


@pytest.fixture(scope="session")
def read_poly():
    """The reader of diffpoly.poly_to_obj's form [{"coeff": "p/q", "factors": [[symbol, order], ...]}]."""
    def read(obj):
        return DiffPoly(DiffMonomial(Fraction(d["coeff"]), tuple(map(tuple, d["factors"]))) for d in obj)
    return read


class _Transforms(list):
    """(name, length) of each np.fft.rfft and np.fft.irfft call, in call order.

    The length is the real side's: rfft's input and irfft's output length.
    """

    def counts(self) -> dict[str, int]:
        return {name: sum(call == name for call, _ in self) for name in ("rfft", "irfft")}


@pytest.fixture
def transforms(monkeypatch):
    """The transforms of the test so far; kdvlab looks both up on np.fft at each call."""
    calls = _Transforms()
    for name in ("rfft", "irfft"):
        def call(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            out = _fn(*args, **kwargs)
            calls.append((_name, (out if _name == "irfft" else np.asarray(args[0])).shape[-1]))
            return out

        monkeypatch.setattr(np.fft, name, call)
    return calls
