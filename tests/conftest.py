"""Shared fixtures."""

import functools

import pytest

from borbit import perms, poset


@pytest.fixture
def cached_intervals(monkeypatch):
    """Keep each subword interval for the test that asks for it: the library
    enumerates one per call, and an oracle test asks about one target
    thousands of times."""
    cached = functools.cache(perms.lower_interval)
    monkeypatch.setattr(perms, "lower_interval", cached)
    monkeypatch.setattr(poset, "lower_interval", cached)
