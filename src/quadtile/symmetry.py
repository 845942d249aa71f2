"""Combinatorial automorphisms of a TilingMap and point-group classification.

Symmetries are computed purely combinatorially: an automorphism is a tile
permutation that commutes with the gluing involution slot-by-slot.  Because
corner and edge labels are part of the map, rotations preserve every tile's
orientation bit and reflections toggle all of them; the automorphism group is
therefore a faithful model of the tiling's isometry group on the sphere.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import gcd
from operator import eq, itemgetter
from typing import NamedTuple

from .tilingmap import TilingMap

__all__ = [
    "MapAutomorphism",
    "SymmetryClass",
    "automorphisms",
    "classify",
]

class MapAutomorphism(NamedTuple):
    """A label-preserving symmetry: tile permutation plus orientation type.

    ``reversing`` is True when the symmetry is orientation-reversing on the
    sphere (it maps every tile to one of opposite chirality).
    """

    perm: tuple[int, ...]
    reversing: bool

    def order(self) -> int:
        """The length of tile 0's orbit, which all tile cycles share on a
        connected map (see ``classify``)."""
        k, t = 1, self.perm[0]
        while t:
            k, t = k + 1, self.perm[t]
        return k

    def compose(self, other: "MapAutomorphism") -> "MapAutomorphism":
        """self after other: ``self.perm`` gathered at ``other.perm`` (a map
        has f >= 2 tiles, so ``itemgetter`` returns a tuple, not an int)."""
        return MapAutomorphism(itemgetter(*other.perm)(self.perm),
                               self.reversing ^ other.reversing)


def automorphisms(m: TilingMap) -> list[MapAutomorphism]:
    """The full automorphism group, sorted: ``_generators(m)`` closed under
    composition.  A new list on every call, though the generators are
    searched once per map."""
    gens, identity = _generators(m), MapAutomorphism(tuple(range(m.f)), False)
    group, queue = {0: identity}, [identity]  # image of tile 0 -> element
    for g in queue:  # grows while it is walked
        for s in gens:
            image = s.perm[g.perm[0]]  # of tile 0 under s after g
            if image not in group:
                group[image] = h = s.compose(g)
                queue.append(h)
    return sorted(group.values(), key=lambda g: (g.reversing, g.perm))


@lru_cache(maxsize=1)
def _generators(m: TilingMap) -> tuple[MapAutomorphism, ...]:
    """Generators of the automorphism group, by seeded propagation, kept
    for the last map searched (equal maps have equal groups).

    An automorphism is fixed by the image of tile 0, and the orientation
    bits of tile 0 and its image say whether it reverses orientation.  It
    sends each corner of tile 0 to the same corner of the image, so their
    vertex signatures match.  From each such image outside tile 0's orbit
    under the generators so far, the permutation is forced along the map's
    spanning tree; if it commutes with the gluing, it is a new generator.
    """
    sigs, vertex_of, orient = ([v.signature for v in m.vertices],
                               m.vertex_of, m.orient)

    def corners(t: int) -> list:  # corner (p + o) & 3 starts dart 4t + p
        return [sigs[vertex_of[4 * t + ((c - orient[t]) & 3)]]
                for c in range(4)]

    tile0, tile_darts = corners(0), _tile_darts(m.f)
    gens: list[MapAutomorphism] = []
    orbit, reached = [0], [True] + [False] * (m.f - 1)
    for target in range(m.f):
        if reached[target] or corners(target) != tile0:
            continue
        reversing = orient[target] != orient[0]
        perm = _propagate(m, target, reversing, tile_darts)
        if perm is not None:
            gens.append(MapAutomorphism(perm, reversing))
            _close(orbit, [g.perm for g in gens], reached)
    return tuple(gens)


def _close(orbit: list[int], perms: list[tuple[int, ...]],
           reached: list[bool]) -> None:
    """Extend ``orbit``, whose tiles ``reached`` marks, by the images of
    its tiles under ``perms`` until it is an orbit of their group."""
    for t in orbit:  # grows while it is walked
        for perm in perms:
            if not reached[perm[t]]:
                reached[perm[t]] = True
                orbit.append(perm[t])


def _propagate(
    m: TilingMap, target: int, reversing: bool,
    tile_darts: list[tuple[int, int, int, int]],
) -> tuple[int, ...] | None:
    """The tile permutation sending tile 0 to ``target``, forced along
    ``m.tree`` (tree dart d goes to the dart glued to the image of its
    parent dart glue[d]), or None unless it commutes with the gluing: its
    dart images, gathered at the glue table, equal the glue table gathered
    at its dart images.  Then it is a covering of the map by itself: its
    image is closed under gluing, so on a connected map it is onto, and so
    one-to-one."""
    glue, orient = m.glue, m.orient
    perm = [target] + [0] * (m.f - 1)
    for d in m.tree:
        e = glue[d]
        image = glue[4 * perm[e >> 2] + (e & 3)]
        if (image & 3 != d & 3
                or orient[image >> 2] != orient[d >> 2] ^ reversing):
            return None
        perm[d >> 2] = image >> 2
    darts = tuple(chain.from_iterable(itemgetter(*perm)(tile_darts)))
    if itemgetter(*darts)(glue) != itemgetter(*glue)(darts):
        return None
    return tuple(perm)


def _tile_darts(f: int) -> list[tuple[int, int, int, int]]:
    """Each tile t's darts 4t..4t + 3: gathered at a tile permutation and
    chained, they are its dart images, dart 4t + p going to 4 perm[t] + p."""
    return [(d, d + 1, d + 2, d + 3) for d in range(0, 4 * f, 4)]


# ---------------------------------------------------------------------------
# Point-group classification
# ---------------------------------------------------------------------------

def _orders(preserving: list[MapAutomorphism]) -> list[int]:
    """Each element's order, walking tile 0's orbit once per cyclic
    subgroup not yet met: an element is fixed by its image of tile 0, so
    if g walks 0, t_1, ..., t_{n-1}, the element sending 0 to t_k is g^k,
    of order n / gcd(n, k)."""
    index = {g.perm[0]: i for i, g in enumerate(preserving)}
    orders = [0] * len(preserving)
    for i, g in enumerate(preserving):
        if orders[i]:
            continue
        walk, t = [0], g.perm[0]
        while t:
            walk.append(t)
            t = g.perm[t]
        n = len(walk)
        for k, t in enumerate(walk):
            orders[index[t]] = n // gcd(n, k)
    return orders


class SymmetryClass(NamedTuple):
    """Schoenflies classification of the automorphism group."""

    name: str
    order: int
    principal_axis_order: int
    paper_label: str
    mirror_count: int = 0
    has_inversion: bool = False
    has_horizontal_mirror: bool = False

    def __str__(self) -> str:
        return f"{self.name}, order {self.order}"


def classify(m: TilingMap) -> SymmetryClass:
    """Point group via the decision tree: polyhedral branch first, then the
    dihedral/cyclic branch refined by mirrors, horizontal mirror, and
    inversion.

    The map must be connected, as every map ``build`` accepts is.  Then a
    non-identity automorphism fixes no tile: a preserving one that fixes a
    tile is forced to the identity, and a reversing one flips every
    orientation bit.  A reversing involution is a mirror iff it fixes an
    edge (sends a slot to its glued partner), else the inversion: fixing a
    vertex, it would reverse the ring of edges and tiles around it and so
    fix two of them, both edges."""
    group = automorphisms(m)
    order = len(group)
    preserving = [g for g in group if not g.reversing]
    reversing = [g for g in group if g.reversing]
    np_ = len(preserving)
    orders = _orders(preserving)

    mirrors, has_inv, tile_darts = [], False, _tile_darts(m.f)
    for g in reversing:
        if g.perm[g.perm[0]]:  # g^2 moves tile 0: order above 2
            continue
        images = chain.from_iterable(itemgetter(*g.perm)(tile_darts))
        if any(map(eq, images, m.glue)):
            mirrors.append(g)
        else:
            has_inv = True

    # polyhedral rotation groups
    # at least four 3-fold axes, each carrying two rotations (g, g^2)
    if np_ in (12, 24, 60) and orders.count(3) >= 8:
        base = {12: "T", 24: "O", 60: "I"}[np_]
        if not reversing:
            name = base
        elif base == "T" and not has_inv:
            name = "T_d"
        else:
            name = base + "_h"
        return SymmetryClass(
            name=name, order=order,
            principal_axis_order={12: 3, 24: 4, 60: 5}[np_],
            paper_label=name, mirror_count=len(mirrors),
            has_inversion=has_inv)

    n = max(orders, default=1)
    principal = next((g for g, k in zip(preserving, orders) if k == n), None)

    if n < 2 or not mirrors:
        horizontal = []
    elif n % 2 == 0:
        # an inversion together with the even principal rotation composes
        # to the horizontal mirror, and conversely
        horizontal = mirrors if has_inv else []
    else:
        # odd principal order (>= 3): a horizontal mirror commutes with the
        # principal rotation; a vertical one conjugates it to its inverse
        assert principal is not None
        horizontal = [mu for mu in mirrors
                      if mu.compose(principal) == principal.compose(mu)]

    if np_ == 2 * n and n >= 2:
        if horizontal:
            name = label = f"D_{n}h"
        elif mirrors:
            name = f"D_{n}d"
            label = f"D_{{{n}v}}"  # the nonstandard printed label
        else:
            name = label = f"D_{n}"
    elif np_ == n:
        if not reversing:
            name = label = f"C_{n}" if n > 1 else "C_1"
        elif horizontal:
            name = label = f"C_{n}h"
        elif mirrors:
            name = label = f"C_{n}v" if n > 1 else "C_s"
        elif has_inv and n == 1:
            name = label = "S_2"
        else:
            name = label = f"S_{2 * n}"
    else:
        raise ValueError(
            f"unclassifiable group: order {order}, preserving {np_}, "
            f"max rotation order {n}")
    return SymmetryClass(
        name=name, order=order, principal_axis_order=n,
        paper_label=label, mirror_count=len(mirrors),
        has_inversion=has_inv,
        has_horizontal_mirror=bool(horizontal))
