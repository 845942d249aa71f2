"""Fixtures shared across test modules."""

import itertools

import pytest

from quadtile.combinatorics import search_avcs
from quadtile.constructors import (
    DomainError,
    FlipInvalidError,
    flip_segment,
    pq_earth_map,
)
from quadtile.tilingmap import TilingError, build


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


def _matchings(slots):
    """Every perfect matching of the slots, as lists of pairs."""
    if not slots:
        yield []
        return
    first, rest = slots[0], slots[1:]
    for i, other in enumerate(rest):
        for tail in _matchings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + tail


@pytest.fixture(scope="session")
def small_maps():
    """Every map that build accepts with f <= 4 and tile 0 ccw: the
    a-slots (AB, DA), the b-slots (BC) and the c-slots (CD) each matched
    among themselves in every way, under every orientation of the other
    tiles (3 at f = 2; 732 of the 105 * 3 * 3 * 8 at f = 4)."""
    maps = []
    for f in (2, 4):
        by_label = [list(_matchings([(t, p) for t in range(f) for p in ps]))
                    for ps in ((0, 3), (1,), (2,))]
        for a, b, c in itertools.product(*by_label):
            for bits in itertools.product((0, 1), repeat=f - 1):
                try:
                    maps.append(build(f, a + b + c, orient=(0, *bits)))
                except TilingError:
                    pass
    return maps
