"""Fixtures shared across test modules."""

import pytest

from quadtile.combinatorics import search_avcs


@pytest.fixture(scope="session")
def search24():
    """The full f = 24 AVC sweep, run once for every test that reads it."""
    return search_avcs(24)
