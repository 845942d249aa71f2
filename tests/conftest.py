"""Fixtures shared across test modules."""

import pytest

from quadtile.combinatorics import search_avcs
from quadtile.constructors import (
    DomainError,
    FlipInvalidError,
    flip_segment,
    pq_earth_map,
)


@pytest.fixture(scope="session")
def search24():
    """The full f = 24 AVC sweep, run once for every test that reads it."""
    return search_avcs(24)


@pytest.fixture(scope="session")
def flip_outputs():
    """f -> (half_zones, start, count, map) for every admissible
    flip_segment output of pq_earth_map(f), f = 24 and 40, over whole and
    half zones; maps are immutable, so every test may share them."""
    out = {}
    for f in (24, 40):
        m, out[f] = pq_earth_map(f), []
        for half in (False, True):
            k = f // 4 if half else f // 8
            for start in range(k):
                for count in range(1, k + 1):
                    try:
                        flipped = flip_segment(m, start, count,
                                               half_zones=half)
                    except (FlipInvalidError, DomainError):
                        continue
                    out[f].append((half, start, count, flipped))
    return out
