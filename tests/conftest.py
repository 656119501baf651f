"""Hypothesis draws the same examples on every run, so no verdict depends
on a random draw or on examples replayed from a local database."""

import pytest
from hypothesis import settings

from biphoton import cavity

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rules_up_to_2048(monkeypatch):
    """Fail any theta rule build above 2048 nodes.  An AssertionError is
    neither a numerical nor a configuration error, so the CLI lets it out."""
    build = cavity.gauss_legendre

    def capped(n, length):
        assert n <= 2048, f"built a {n}-node theta rule"
        return build(n, length)

    monkeypatch.setattr(cavity, "gauss_legendre", capped)
