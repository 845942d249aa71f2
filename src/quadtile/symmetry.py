"""Combinatorial automorphisms of a TilingMap and point-group classification.

Symmetries are computed purely combinatorially: an automorphism is a tile
permutation that commutes with the gluing involution slot-by-slot.  Because
corner and edge labels are part of the map, rotations preserve every tile's
orientation bit and reflections toggle all of them; the automorphism group is
therefore a faithful model of the tiling's isometry group on the sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .angles import ANGLE_NAMES
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
        """The lcm of the permutation's cycle lengths, made even when the
        element reverses orientation."""
        k = 2 if self.reversing else 1
        seen = [False] * len(self.perm)
        for start in range(len(self.perm)):
            length, t = 0, start
            while not seen[t]:
                seen[t] = True
                t = self.perm[t]
                length += 1
            if length:
                k = math.lcm(k, length)
        return k

    def compose(self, other: "MapAutomorphism") -> "MapAutomorphism":
        """self after other."""
        return MapAutomorphism(
            tuple(self.perm[p] for p in other.perm),
            self.reversing ^ other.reversing)

    def inverse(self) -> "MapAutomorphism":
        inv = [0] * len(self.perm)
        for i, p in enumerate(self.perm):
            inv[p] = i
        return MapAutomorphism(tuple(inv), self.reversing)

    def fixed_cells(self, m: TilingMap) -> set[tuple]:
        """Tiles, edges and vertices mapped to themselves."""
        perm = self.perm
        image = [4 * p + pos for p in perm for pos in range(4)]  # of darts
        cells: set[tuple] = {("tile", t) for t in range(m.f) if perm[t] == t}
        for s1, s2 in enumerate(m.glue):
            if s1 < s2 and (image[s1], image[s2]) in ((s1, s2), (s2, s1)):
                cells.add(("edge", (s1, s2)))
        for v, cycle in enumerate(m.vertices):
            if all(m.vertex_of[image[s]] == v for s in cycle.darts):
                cells.add(("vertex", v))
        return cells


def automorphisms(m: TilingMap) -> list[MapAutomorphism]:
    """The full automorphism group, by seeded propagation.

    An automorphism is fixed by the image of tile 0, and the orientation
    bits of tile 0 and its image say whether it reverses orientation.  For
    each candidate image not yet reached, the permutation is forced
    edge-by-edge; a candidate survives iff the forced map is a bijection
    commuting with the gluing.  Each survivor is a new generator, and the
    group found so far is closed under composition with the generators, so
    only a few images need the propagation.
    """
    # image of tile 0 -> element
    group = {0: MapAutomorphism(tuple(range(m.f)), False)}
    gens: list[MapAutomorphism] = []
    for target in range(m.f):
        if target in group:
            continue
        reversing = m.orient[target] != m.orient[0]
        perm = _propagate(m, target, reversing)
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
    m: TilingMap, target: int, reversing: bool
) -> tuple[int, ...] | None:
    perm: list[int | None] = [None] * m.f
    perm[0] = target
    stack = [0]
    used = {target}
    while stack:
        t = stack.pop()
        t2 = perm[t]
        assert t2 is not None
        for pos in range(4):
            g1 = m.glue[4 * t + pos]
            g2 = m.glue[4 * t2 + pos]
            if g1 % 4 != g2 % 4:
                return None  # partner slot labels disagree
            n1, n2 = g1 // 4, g2 // 4
            if m.orient[n2] != m.orient[n1] ^ reversing:
                return None
            if perm[n1] is None:
                if n2 in used:
                    return None
                perm[n1] = n2
                used.add(n2)
                stack.append(n1)
            elif perm[n1] != n2:
                return None
    if any(p is None for p in perm):
        return None
    return tuple(perm)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Vertex bisecting cycles (candidate mirror traces)
# ---------------------------------------------------------------------------

def vertex_bisecting_cycles(m: TilingMap) -> list[tuple[tuple[int, int], ...]]:
    """All closed edge cycles whose edges bisect every vertex they pass
    through (the two incident cycle edges split the vertex fan into two
    label-wise mirror-equal halves).  These are the only candidate traces of
    mirror planes.

    Between edges i < j of a degree-d fan lie 2(j - i) - 1 wedge angles
    and edge labels one way round and 2(d - j + i) - 1 the other, so only
    opposite edges, j = i + d/2 at even d, can split it into mirror-equal
    halves; an edge paired with itself would turn the walk back, which
    never closes a cycle.  (No edge meets one vertex twice: a map on the
    sphere whose faces are all quadrilaterals is bipartite, so it has no
    loop.)  Each edge at a vertex thus has at most one continuation, and
    each cycle is the walk forced from any of its edges.
    """
    # continuation map: at vertex v, arriving along edge e, the edge that
    # continues a bisecting cycle
    cont: dict[tuple[int, tuple[int, int]], tuple[int, int]] = {}
    for v, cycle in enumerate(m.vertices):
        d = cycle.degree
        if d % 2:
            continue
        edges = [(min(s, m.glue[s]), max(s, m.glue[s])) for s in cycle.darts]
        # edge label of dart k at 2k, the wedge after it at 2k + 1
        ring = [x for s, c in zip(cycle.darts,
                                  cycle.corners[1:] + cycle.corners[:1])
                for x in (EDGE_LABELS[s % 4], ANGLE_NAMES[c])]
        for i in range(d // 2):
            if all(ring[2 * i + u] == ring[2 * i - u] for u in range(1, d)):
                ei, ej = edges[i], edges[i + d // 2]
                cont[v, ei], cont[v, ej] = ej, ei

    def far(edge: tuple[int, int], at: int) -> int:
        v1, v2 = m.vertex_of[edge[0]], m.vertex_of[edge[1]]
        return v2 if v1 == at else v1

    cycles: set[tuple[tuple[int, int], ...]] = set()
    for start_v, start_edge in cont:
        path, on_path = [start_edge], {start_edge}
        at = far(start_edge, start_v)
        # stop at a dead end or an edge already walked; close only back at
        # the start vertex and edge, with at least two edges
        while (nxt := cont.get((at, path[-1]))) is not None:
            if nxt == start_edge and at == start_v and len(path) > 1:
                cycles.add(_canonical_cycle(path))
                break
            if nxt in on_path:
                break
            path.append(nxt)
            on_path.add(nxt)
            at = far(nxt, at)
    return sorted(cycles)


def _canonical_cycle(
    path: list[tuple[int, int]]
) -> tuple[tuple[int, int], ...]:
    best = None
    n = len(path)
    for rot in range(n):
        for seq in (path[rot:] + path[:rot],
                    (path[rot:] + path[:rot])[::-1]):
            t = tuple(seq)
            if best is None or t < best:
                best = t
    assert best is not None
    return best


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


def _count_threefold_axes(order3: list[MapAutomorphism]) -> int:
    # each 3-fold axis carries two rotations (g, g^2)
    axes = set()
    for g in order3:
        axes.add(min(g.perm, g.inverse().perm))
    return len(axes)


def classify(m: TilingMap) -> SymmetryClass:
    """Point group via the decision tree: polyhedral branch first, then the
    dihedral/cyclic branch refined by mirrors, horizontal mirror, and
    inversion."""
    group = automorphisms(m)
    order = len(group)
    preserving = [g for g in group if not g.reversing]
    reversing = [g for g in group if g.reversing]
    np_ = len(preserving)
    orders = [g.order() for g in preserving]

    mirrors, has_inv = [], False
    for g in reversing:
        if g.order() != 2:
            continue
        cells = g.fixed_cells(m)
        if any(kind == "edge" for kind, _ in cells):
            mirrors.append(g)
        has_inv = has_inv or not cells

    # polyhedral rotation groups
    order3 = [g for g, k in zip(preserving, orders) if k == 3]
    if np_ in (12, 24, 60) and _count_threefold_axes(order3) >= 4:
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
        if not reversing:
            name = label = f"D_{n}"
        elif horizontal:
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
