"""Labeled quadrilateral combinatorial maps on the sphere.

A map consists of f quadrilateral tiles, each with corners A, B, C, D
(carrying angles alpha, beta, gamma, delta) and edge slots AB, BC, CD, DA
(carrying edge labels a, b, c, a), a fixed-point-free gluing involution on
the 4f slots, and a per-tile orientation bit: 0 means the corners A,B,C,D
read counterclockwise on the sphere, 1 marks a mirror copy.  Slot s is
also a dart: its edge traversed counterclockwise around its tile on the
sphere.  The vertices are the orbits of sigma, s -> face_next(glue[s]),
the next dart ccw around the vertex at the start of s; ``build`` walks
them once into the vertex table, and the tiles once into a spanning tree.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import add, attrgetter, eq, itemgetter, lt
from typing import Iterable, Mapping, NamedTuple, Sequence

from .angles import VertexSignature
from .combinatorics import (
    CheckReport,
    DegreeVector,
    catalog_sort_key,
    counting_identities,
    parity_admissible,
)

__all__ = [
    "SLOT_NAMES",
    "EDGE_LABELS",
    "TilingError",
    "LabelMismatchError",
    "InvolutionError",
    "DisconnectedError",
    "EulerError",
    "TilingMap",
    "VertexCycle",
    "build",
    "extract_avc",
    "verify",
    "format_avc",
    "balance_pair_counts",
]

SLOT_NAMES = ("AB", "BC", "CD", "DA")
EDGE_LABELS = ("a", "b", "c", "a")
#: slot name -> position 0-3, for ``TilingMap.slot``
_SLOT_INDEX = {name: p for p, name in enumerate(SLOT_NAMES)}


class TilingError(ValueError):
    """Base class for malformed tiling maps."""


class LabelMismatchError(TilingError):
    """Glued slots carry different edge labels."""


class InvolutionError(TilingError):
    """The glue table is not a fixed-point-free involution on all slots."""


class DisconnectedError(TilingError):
    """The tile adjacency graph is not connected."""


class EulerError(TilingError):
    """The Euler characteristic v - e + f differs from 2."""


class VertexCycle(NamedTuple):
    """A vertex as its sigma orbit, as ``build`` walks it: ``darts`` are the
    slots whose ccw dart starts here, each followed by the next dart ccw
    around the vertex, ``corners`` the corner (0=A..3=D) of each dart's tile
    at the vertex, and ``signature`` the count of each corner.  A named
    tuple, like ``VertexSignature``, so that ``build`` makes one cheaply."""

    darts: tuple[int, ...]
    corners: tuple[int, ...]
    signature: VertexSignature

    @property
    def degree(self) -> int:
        return len(self.darts)


@dataclass(frozen=True)
class TilingMap:
    """Immutable validated tiling map; ``vertex_of[s]`` is the index in
    ``vertices`` of the vertex at the start of dart s.  ``tree``, a
    spanning tree, lists each tile but 0 in breadth-first order from tile 0
    by the dart through which the walk first enters it."""

    f: int
    glue: tuple[int, ...]
    orient: tuple[int, ...]
    vertices: tuple[VertexCycle, ...] = field(compare=False)
    vertex_of: tuple[int, ...] = field(compare=False, repr=False)
    tree: tuple[int, ...] = field(compare=False, repr=False)

    # -- slot helpers -----------------------------------------------------

    @staticmethod
    def slot(tile: int, pos: int | str) -> int:
        p = _SLOT_INDEX.get(pos) if isinstance(pos, str) else pos
        if type(tile) is not int or type(p) is not int or not 0 <= p < 4:
            raise TilingError(f"bad glue entry: tile {tile!r}, slot {pos!r}")
        return 4 * tile + p

    def edge_label(self, slot: int) -> str:
        return EDGE_LABELS[slot % 4]

    # -- dart structure ---------------------------------------------------

    def face_next(self, slot: int) -> int:
        """Next boundary dart of the same tile in global ccw order."""
        t, p = divmod(slot, 4)
        return 4 * t + (p - 1 if self.orient[t] else p + 1) % 4

    # -- queries ----------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return 2 * self.f

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[int, int]]:
        """Each glued pair once, (smaller slot, larger slot), in ascending
        order of the smaller slot."""
        return [(s, self.glue[s]) for s in range(4 * self.f)
                if s < self.glue[s]]

    def degree_vector(self) -> DegreeVector:
        counts = Counter(map(len, map(attrgetter("darts"), self.vertices)))
        return DegreeVector(f=self.f, v=dict(counts))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        entries = []
        for s, t in self.edges():
            entries.append([
                s // 4, SLOT_NAMES[s % 4], t // 4, SLOT_NAMES[t % 4],
            ])
        return json.dumps(
            {"f": self.f, "glue": entries, "orient": list(self.orient)},
            separators=(", ", ": "))

    @staticmethod
    def from_json(text: str) -> "TilingMap":
        """Parse ``to_json`` output; a malformed layout raises TilingError."""
        try:
            data = json.loads(text)
        except RecursionError:
            raise TilingError("map JSON is nested too deeply") from None
        if not (isinstance(data, dict) and "f" in data and "glue" in data):
            raise TilingError("map JSON must be an object with 'f' and 'glue'")
        f, glue, orient = data["f"], data["glue"], data.get("orient")
        if type(f) is not int:
            raise TilingError(f"'f' must be an integer, got {f!r}")
        if not (isinstance(glue, list)
                and all(isinstance(e, list) and len(e) == 4 for e in glue)):
            raise TilingError(
                "'glue' must be a list of [tile, slot, tile, slot] entries")
        if len(glue) != 2 * f:  # before build sizes its tables by f
            raise TilingError(f"f = {f} needs 2f = {2 * f} glue entries, "
                              f"got {len(glue)}")
        if orient is not None and not isinstance(orient, list):
            raise TilingError(f"'orient' must be a list, got {orient!r}")
        pairs = [((t1, s1), (t2, s2)) for t1, s1, t2, s2 in glue]
        return build(f, pairs, orient=orient)

    # -- canonical form ---------------------------------------------------

    def canonical_form(self) -> tuple:
        """Minimal relabeling over seed tiles and mirroring.

        The form is ``(f, glue_desc, orient_desc)``, minimised
        lexicographically over every (seed, flip) pair.  A pair relabels the
        tiles in breadth-first order from ``seed`` (new label 0), visiting
        each tile's slots in canonical order AB, BC, CD, DA; ``glue_desc``
        lists, per relabelled tile and canonical slot, the pair (new label
        of the partner tile, canonical slot of the partner), and
        ``orient_desc`` the orientation bits in new-label order.  With
        ``flip`` set, canonical slot p is original slot 3 - p, so the slots
        are renamed AB<->DA and BC<->CD (beta<->delta, b<->c) and every
        orientation bit is toggled.  Flipping every orientation bit alone
        (the mirror image) is not one of these relabelings: a chiral map
        and its mirror image have different forms.

        Not every pair is relabeled in full (after nauty's automorphism
        pruning, McKay & Piperno 2014).  Each pair streams its glue_desc
        and stops at the first entry above the best form so far; orient_desc
        is compared only after glue_desc ties.  A full tie between pairs
        (s, x) and (s', x') is a symmetry of the map: tile order[i] goes to
        order'[i], with mirror bit x ^ x'.  Every such symmetry merges the
        (tile, flip) nodes it relates in a union-find, and a pair whose
        component already holds a relabeled pair is skipped, since pairs in
        one orbit of the symmetries give the same form.  The result is the
        minimum over all pairs, as if each were relabeled in full.
        """
        f, glue, orient = self.f, self.glue, self.orient
        # union-find over nodes 2 * tile + flip; ``done[root]`` marks a
        # component that holds an already relabeled pair
        parent = list(range(2 * f))
        done = [False] * (2 * f)

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def relabel(seed: int, flip: int, best: list[int]):
            """(glue_desc codes, tile order, whether the codes tie best), or
            None once a code exceeds best's."""
            pos = (3, 2, 1, 0) if flip else (0, 1, 2, 3)
            new_of = [-1] * f
            new_of[seed] = 0
            order = [seed]
            codes: list[int] = []  # entry (label, p) as 4 * label + p
            tied = bool(best)
            for t in order:  # grows while it is walked: breadth-first
                for p in pos:
                    partner = glue[4 * t + p]
                    label = new_of[partner >> 2]
                    if label < 0:
                        label = new_of[partner >> 2] = len(order)
                        order.append(partner >> 2)
                    code = 4 * label + pos[partner & 3]
                    if tied:
                        if code > best[len(codes)]:
                            return None
                        tied = code == best[len(codes)]
                    codes.append(code)
            return codes, order, tied

        best: list[int] = []
        best_orient: list[int] = []
        best_order: list[int] = []
        best_flip = 0
        for seed in range(f):
            for flip in (0, 1):
                root = find(2 * seed + flip)
                if done[root]:
                    continue
                done[root] = True
                run = relabel(seed, flip, best)
                if run is None:
                    continue
                codes, order, tied = run
                bits = [orient[t] ^ flip for t in order]
                if tied and bits > best_orient:
                    continue
                if tied and bits == best_orient:
                    mirror = flip ^ best_flip
                    for t, t2 in zip(best_order, order):
                        for x in (0, 1):
                            a = find(2 * t + x)
                            b = find(2 * t2 + (x ^ mirror))
                            if a != b:
                                parent[a] = b
                                done[b] = done[b] or done[a]
                    continue
                best, best_orient = codes, bits
                best_order, best_flip = order, flip
        return (f, tuple((c >> 2, c & 3) for c in best), tuple(best_orient))

    def is_isomorphic(self, other: "TilingMap") -> bool:
        return self.canonical_form() == other.canonical_form()


SlotSpec = tuple[int, int | str]


def build(
    f: int,
    glue_table: Iterable[tuple[SlotSpec, SlotSpec]],
    orient: Sequence[int] | None = None,
) -> TilingMap:
    """Build and validate a TilingMap from 2f slot pairs.  The vertices
    are walked by s = sigma[s] over two per-dart tables made once, four
    entries per tile t by its orientation bit o: the corner (p + o) & 3 of
    t where dart 4t + p starts, and sigma, face_next gathered at glue."""
    if f < 1:
        raise TilingError(f"tile count must be positive, got {f}")
    if f % 2:
        raise EulerError(
            f"f must be even (f = 2 e_b forces it), got {f}")
    orient_bits = (0,) * f if orient is None else tuple(orient)
    if len(orient_bits) != f:
        raise TilingError("orientation bits must cover every tile")
    for t, x in enumerate(orient_bits):
        if type(x) is not int or x not in (0, 1):
            raise TilingError(
                f"orientation bit of tile {t} must be 0 or 1, got {x!r}")

    n = 4 * f
    glue = [-1] * n
    for (spec1, spec2) in glue_table:
        s1 = TilingMap.slot(*spec1)
        s2 = TilingMap.slot(*spec2)
        if not (0 <= s1 < n and 0 <= s2 < n):
            raise TilingError(
                f"slot out of range: {s2 if 0 <= s1 < n else s1}")
        if s1 == s2:
            raise InvolutionError(f"slot glued to itself: {_slot_name(s1)}")
        if glue[s1] != -1 or glue[s2] != -1:
            raise InvolutionError(
                f"slot glued twice: {_slot_name(s1 if glue[s1] != -1 else s2)}")
        if EDGE_LABELS[s1 % 4] != EDGE_LABELS[s2 % 4]:
            raise LabelMismatchError(
                f"edge label mismatch: {_slot_name(s1)} ({EDGE_LABELS[s1 % 4]})"
                f" glued to {_slot_name(s2)} ({EDGE_LABELS[s2 % 4]})")
        glue[s1], glue[s2] = s2, s1
    if -1 in glue:
        missing = [s for s in range(n) if glue[s] == -1]
        raise InvolutionError(
            f"unglued slots: {[_slot_name(s) for s in missing[:8]]}")

    # the spanning tree, breadth-first from tile 0
    order, tree, seen = [0], [], [True] + [False] * (f - 1)
    for t in order:  # grows while it is walked
        for d in glue[4 * t:4 * t + 4]:
            if not seen[d >> 2]:
                seen[d >> 2] = True
                order.append(d >> 2)
                tree.append(d)
    if len(order) != f:
        raise DisconnectedError(
            f"map is disconnected: reached {len(order)} of {f} tiles")

    # face_next(4t + p) = 4t + p + step; n = 4f >= 8, so each gather
    # returns a tuple
    corner = list(chain.from_iterable(
        map(((0, 1, 2, 3), (1, 2, 3, 0)).__getitem__, orient_bits)))
    steps = chain.from_iterable(
        map(((1, 1, 1, -3), (3, -1, -1, -1)).__getitem__, orient_bits))
    sigma = itemgetter(*glue)(list(map(add, range(n), steps)))

    # the sigma orbits, each from its least dart, in order of that dart,
    # walked into one dart list; orbit k starts at walk[starts[k]]
    vertex_of = [-1] * n
    walk, starts = [], []
    for s0 in range(n):
        if vertex_of[s0] < 0:
            k, s = len(starts), s0
            starts.append(len(walk))
            while vertex_of[s] < 0:
                vertex_of[s] = k
                walk.append(s)
                s = sigma[s]
    v = len(starts)
    if v - 2 * f + f != 2:
        raise EulerError(
            f"Euler characteristic v - e + f = {v - 2 * f + f}, expected 2")

    corners, walk = itemgetter(*walk)(corner), tuple(walk)
    vertices = []
    for i, j in zip(starts, starts[1:] + [n]):
        c = corners[i:j]
        vertices.append(VertexCycle(walk[i:j], c, VertexSignature(
            c.count(0), c.count(1), c.count(2), c.count(3))))
    return TilingMap(f=f, glue=tuple(glue), orient=orient_bits,
                     vertices=tuple(vertices), vertex_of=tuple(vertex_of),
                     tree=tuple(tree))


def _slot_name(slot: int) -> str:
    return f"tile {slot // 4} slot {SLOT_NAMES[slot % 4]}"


def extract_avc(m: TilingMap) -> Counter[VertexSignature]:
    """Vertex signatures with multiplicities."""
    return Counter(map(attrgetter("signature"), m.vertices))


def balance_pair_counts(m: TilingMap) -> tuple[int, int, int, int, int, int]:
    """Flanking-angle pair counts over edge endpoints.

    Returns (n_gg_c, n_gd_c, n_dd_c, n_bb_b, n_bg_b, n_gg_b): for each c-edge
    endpoint the two flanking corners are gamma or delta; for each b-edge
    endpoint they are beta or gamma.

    Where b- or c-dart s = 4t + p starts, corner p + o_t of tile t and
    corner p + 1 - o_u of the tile u glued to s (where sigma(s) starts)
    flank it: bits (o_t, o_u) = (0, 1) give c gamma-gamma or b beta-beta,
    (1, 0) delta-delta or gamma-gamma, equal bits one corner of each.
    """
    orient, glue = m.orient, m.glue
    b = Counter(zip(orient, [orient[u >> 2] for u in glue[1::4]]))
    c = Counter(zip(orient, [orient[u >> 2] for u in glue[2::4]]))
    return (c[0, 1], c[0, 0] + c[1, 1], c[1, 0],
            b[0, 1], b[0, 0] + b[1, 1], b[1, 0])


def verify(
    m: TilingMap,
    expected: Mapping[VertexSignature, int] | Iterable[VertexSignature],
    f: int | None = None,
) -> CheckReport:
    """Full verification: structure, AVC match, parity, counting, balance."""
    report = CheckReport()
    if f is not None:
        report.add("tile count", m.f == f, f"map has f={m.f}, expected {f}")

    # gathers at the glue table (f >= 2, so each returns a tuple)
    glue, slots, labels = m.glue, range(4 * m.f), EDGE_LABELS * m.f
    report.add("glue involution", itemgetter(*glue)(glue) == tuple(slots)
               and not any(map(eq, glue, slots)))
    report.add("edge labels", itemgetter(*glue)(labels) == labels)
    # the label of each edge's smaller slot
    edges = Counter(compress(labels, map(lt, slots, glue)))
    report.add("edge counts e_a = f, e_b = e_c = f/2", edges["a"] == m.f
               and edges["b"] == edges["c"] == m.f // 2)

    avc = extract_avc(m)
    if isinstance(expected, Mapping):
        exp_counter = Counter(dict(expected))
        ok = avc == exp_counter
        detail = f"got {format_avc(avc)}, expected {format_avc(exp_counter)}"
    else:
        exp_set = set(expected)
        ok = set(avc) == exp_set
        detail = (f"got vertex types {sorted(map(str, avc))}, "
                  f"expected {sorted(map(str, exp_set))}")
    report.add("AVC matches expected", ok, detail)

    bad = [v for v in avc if not parity_admissible(v)]
    report.add("all vertices parity-admissible", not bad,
               f"violations: {[str(v) for v in bad]}")

    counting = counting_identities(m.degree_vector())
    report.add("counting identities", counting.passed,
               "; ".join(counting.failures))

    n_gg_c, _, n_dd_c, n_bb_b, _, n_gg_b = balance_pair_counts(m)
    report.add("balance: gamma-gamma = delta-delta c-endpoints",
               n_gg_c == n_dd_c, f"{n_gg_c} != {n_dd_c}")
    report.add("balance: beta-beta = gamma-gamma b-endpoints",
               n_bb_b == n_gg_b, f"{n_bb_b} != {n_gg_b}")

    sig_total = [0, 0, 0, 0]
    for v, mult in avc.items():
        for i, e in enumerate(v):
            sig_total[i] += mult * e
    report.add("#alpha = #beta = #gamma = #delta = f",
               all(x == m.f for x in sig_total), f"totals {sig_total}")
    return report


def format_avc(avc: Mapping[VertexSignature, int]) -> str:
    """Signatures with multiplicities in catalog order, e.g. ``α³×8 γ⁴×6``."""
    items = sorted(avc.items(), key=lambda kv: catalog_sort_key(kv[0]))
    return " ".join(f"{sig}×{n}" for sig, n in items)
