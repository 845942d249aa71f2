"""Combinatorial automorphisms of a TilingMap and point-group classification.

Symmetries are computed purely combinatorially: an automorphism is a tile
permutation that commutes with the gluing involution slot-by-slot.  Because
corner and edge labels are part of the map, rotations preserve every tile's
orientation bit and reflections toggle all of them; the automorphism group is
therefore a faithful model of the tiling's isometry group on the sphere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import eq, itemgetter

from .tilingmap import EDGE_LABELS, TilingMap

__all__ = [
    "MapAutomorphism",
    "SymmetryClass",
    "automorphisms",
    "vertex_bisecting_cycles",
    "classify",
]

@dataclass(frozen=True)
class MapAutomorphism:
    """A label-preserving symmetry: tile permutation plus orientation type.

    ``reversing`` is True when the symmetry is orientation-reversing on the
    sphere (it maps every tile to one of opposite chirality).
    """

    perm: tuple[int, ...]
    reversing: bool

    @property
    def is_identity(self) -> bool:
        return not self.reversing and all(
            p == i for i, p in enumerate(self.perm))

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

    def inverse(self) -> "MapAutomorphism":
        inv = [0] * len(self.perm)
        for i, p in enumerate(self.perm):
            inv[p] = i
        return MapAutomorphism(tuple(inv), self.reversing)


def automorphisms(m: TilingMap) -> list[MapAutomorphism]:
    """The full automorphism group, by seeded propagation.

    An automorphism is fixed by the image of tile 0, and the orientation
    bits of tile 0 and its image say whether it reverses orientation.  For
    each candidate image not yet reached, the permutation is forced along
    the map's spanning tree; a candidate survives iff the forced map
    commutes with the gluing.  Each survivor is a new generator, and the
    group found so far is closed under composition with the generators, so
    only a few images need the propagation.
    """
    # image of tile 0 -> element
    group = {0: MapAutomorphism(tuple(range(m.f)), False)}
    tile_darts = _tile_darts(m.f)
    gens: list[MapAutomorphism] = []
    for target in range(m.f):
        if target in group:
            continue
        reversing = m.orient[target] != m.orient[0]
        perm = _propagate(m, target, reversing, tile_darts)
        if perm is None:
            continue
        gens.append(MapAutomorphism(perm, reversing))
        queue = list(group.values())
        for g in queue:  # grows while it is walked
            for s in gens:
                image = s.perm[g.perm[0]]  # of tile 0 under s after g
                if image not in group:
                    group[image] = h = s.compose(g)
                    queue.append(h)
    return sorted(group.values(), key=lambda g: (g.reversing, g.perm))


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
# Vertex bisecting cycles (candidate mirror traces)
# ---------------------------------------------------------------------------

def vertex_bisecting_cycles(m: TilingMap) -> list[tuple[tuple[int, int], ...]]:
    """All closed edge cycles whose edges bisect every vertex they pass
    through (the two incident cycle edges split the vertex fan into two
    label-wise mirror-equal halves).  These are the only candidate traces of
    mirror planes.

    Only opposite edges, d/2 apart at even degree d, leave equally many
    edges on either side.  Their edge labels alone decide whether the halves
    mirror: the wedge between neighbouring edges is the tile corner they
    bound, fixed by their two labels (a/a alpha, a/b beta, b/c gamma, c/a
    delta).

    A trace arriving along dart s leaves along ``opposite[s]``, so a step
    is s -> glue[opposite[s]], the composite of two involutions and so
    injective: the walk from a dart comes back to it, closing a trace, or
    stops at a dart with no opposite, and needs no stop rule.  It never
    turns back (that would glue a dart to itself), and no trace has one
    edge, which would be a loop: a map on the sphere whose faces are all
    quadrilaterals is bipartite.  Each trace is walked once, from its first
    dart met; its reverse runs through the glued partners of its darts.
    """
    glue = m.glue
    opposite: dict[int, int] = {}
    for cycle in m.vertices:
        darts, d = cycle.darts, cycle.degree
        if d % 2:
            continue
        ring = [EDGE_LABELS[s % 4] for s in darts]
        for i in range(d // 2):
            if all(ring[i + u] == ring[i - u] for u in range(1, d // 2)):
                s, t = darts[i], darts[i + d // 2]
                opposite[s], opposite[t] = t, s

    cycles: list[tuple[tuple[int, int], ...]] = []
    traced: set[int] = set()
    for start in opposite:
        if start in traced:
            continue
        walk, s = [start], glue[opposite[start]]
        while s != start and s in opposite:
            walk.append(s)
            s = glue[opposite[s]]
        if s == start:
            traced.update(walk, (glue[s] for s in walk))
            cycles.append(_canonical_cycle(
                [(min(s, glue[s]), max(s, glue[s])) for s in walk]))
    return sorted(cycles)


def _canonical_cycle(
    path: list[tuple[int, int]]
) -> tuple[tuple[int, int], ...]:
    """The least rotation or reversal of a cycle of distinct edges: it
    starts at the least edge, in the smaller of the two directions."""
    i = path.index(min(path))
    seq = tuple(path[i:] + path[:i])
    return min(seq, seq[:1] + seq[:0:-1])


# ---------------------------------------------------------------------------
# Point-group classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetryClass:
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
    orders = [g.order() for g in preserving]

    mirrors, has_inv, tile_darts = [], False, _tile_darts(m.f)
    for g in reversing:
        if g.order() != 2:
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
