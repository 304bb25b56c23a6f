"""Fixtures shared by the test modules."""

import pytest

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
