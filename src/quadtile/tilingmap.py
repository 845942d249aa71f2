"""Labeled quadrilateral combinatorial maps on the sphere.

A map consists of f quadrilateral tiles, each with corners A, B, C, D
(carrying angles alpha, beta, gamma, delta) and edge slots AB, BC, CD, DA
(carrying edge labels a, b, c, a), a fixed-point-free gluing involution on
the 4f slots, and a per-tile orientation bit: 0 means the corners A,B,C,D
read counterclockwise on the sphere, 1 marks a mirror copy.  Slot s is
also a dart: its edge traversed counterclockwise around its tile on the
sphere.  The vertices are the orbits of sigma, s -> face_next(glue[s]),
the next dart ccw around the vertex at the start of s; ``build`` walks
them once into the vertex table.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

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


@dataclass(frozen=True)
class VertexCycle:
    """A vertex as its sigma orbit: ``darts`` are the slots whose ccw dart
    starts here, each followed by the next dart ccw around the vertex, and
    ``corners`` the corner (0=A..3=D) of each dart's tile at the vertex."""

    darts: tuple[int, ...]
    corners: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.darts)

    @functools.cached_property
    def signature(self) -> VertexSignature:
        c = self.corners
        return VertexSignature(c.count(0), c.count(1), c.count(2), c.count(3))


@dataclass(frozen=True)
class TilingMap:
    """Immutable validated tiling map; ``vertex_of[s]`` is the index in
    ``vertices`` of the vertex at the start of dart s."""

    f: int
    glue: tuple[int, ...]
    orient: tuple[int, ...]
    vertices: tuple[VertexCycle, ...] = field(compare=False)
    vertex_of: tuple[int, ...] = field(compare=False, repr=False)

    # -- slot helpers -----------------------------------------------------

    @staticmethod
    def slot(tile: int, pos: int | str) -> int:
        p = SLOT_NAMES.index(pos) if pos in SLOT_NAMES else pos
        if type(tile) is not int or type(p) is not int or not 0 <= p < 4:
            raise TilingError(f"bad glue entry: tile {tile!r}, slot {pos!r}")
        return 4 * tile + p

    def edge_label(self, slot: int) -> str:
        return EDGE_LABELS[slot % 4]

    # -- dart structure ---------------------------------------------------

    def face_next(self, slot: int) -> int:
        """Next boundary dart of the same tile in global ccw order."""
        return _face_next(self.orient, slot)

    # -- queries ----------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return 2 * self.f

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[int, int]]:
        """Each glued pair once, (smaller slot, larger slot), sorted."""
        return sorted(
            (s, self.glue[s]) for s in range(4 * self.f) if s < self.glue[s])

    def degree_vector(self) -> DegreeVector:
        counts = Counter(v.degree for v in self.vertices)
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
        data = json.loads(text)
        if not (isinstance(data, dict) and "f" in data and "glue" in data):
            raise TilingError("map JSON must be an object with 'f' and 'glue'")
        f, glue, orient = data["f"], data["glue"], data.get("orient")
        if not isinstance(f, int):
            raise TilingError(f"'f' must be an integer, got {f!r}")
        if not (isinstance(glue, list)
                and all(isinstance(e, list) and len(e) == 4 for e in glue)):
            raise TilingError(
                "'glue' must be a list of [tile, slot, tile, slot] entries")
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
    """Build and validate a TilingMap from 2f slot pairs."""
    if f < 1:
        raise TilingError(f"tile count must be positive, got {f}")
    if f % 2:
        raise EulerError(
            f"f must be even (f = 2 e_b forces it), got {f}")
    orient_bits = tuple(int(bool(x)) for x in (orient or [0] * f))
    if len(orient_bits) != f:
        raise TilingError("orientation bits must cover every tile")

    glue = [-1] * (4 * f)
    for (spec1, spec2) in glue_table:
        s1 = TilingMap.slot(*spec1)
        s2 = TilingMap.slot(*spec2)
        for s in (s1, s2):
            if not 0 <= s < 4 * f:
                raise TilingError(f"slot out of range: {s}")
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
    missing = [s for s in range(4 * f) if glue[s] == -1]
    if missing:
        raise InvolutionError(
            f"unglued slots: {[_slot_name(s) for s in missing[:8]]}")

    # connectivity over tile adjacency
    seen = {0}
    stack = [0]
    while stack:
        t = stack.pop()
        for p in range(4):
            t2 = glue[4 * t + p] // 4
            if t2 not in seen:
                seen.add(t2)
                stack.append(t2)
    if len(seen) != f:
        raise DisconnectedError(
            f"map is disconnected: reached {len(seen)} of {f} tiles")

    # the sigma orbits, each from its least dart, in order of that dart
    vertex_of = [-1] * (4 * f)
    vertices = []
    for s0 in range(4 * f):
        darts, s = [], s0
        while vertex_of[s] < 0:
            vertex_of[s] = len(vertices)
            darts.append(s)
            s = _face_next(orient_bits, glue[s])
        if darts:
            vertices.append(VertexCycle(tuple(darts), tuple(
                (d % 4 + orient_bits[d // 4]) % 4 for d in darts)))

    v = len(vertices)
    if v - 2 * f + f != 2:
        raise EulerError(
            f"Euler characteristic v - e + f = {v - 2 * f + f}, expected 2")
    return TilingMap(f=f, glue=tuple(glue), orient=orient_bits,
                     vertices=tuple(vertices), vertex_of=tuple(vertex_of))


def _face_next(orient: Sequence[int], slot: int) -> int:
    t, p = divmod(slot, 4)
    return 4 * t + (p - 1 if orient[t] else p + 1) % 4


def _slot_name(slot: int) -> str:
    return f"tile {slot // 4} slot {SLOT_NAMES[slot % 4]}"


def extract_avc(m: TilingMap) -> Counter[VertexSignature]:
    """Vertex signatures with multiplicities."""
    return Counter(v.signature for v in m.vertices)


def balance_pair_counts(m: TilingMap) -> tuple[int, int, int, int, int, int]:
    """Flanking-angle pair counts over edge endpoints.

    Returns (n_gg_c, n_gd_c, n_dd_c, n_bb_b, n_bg_b, n_gg_b): for each c-edge
    endpoint the two flanking corners are gamma or delta; for each b-edge
    endpoint they are beta or gamma.
    """
    # (slot, lesser corner, greater corner) of each b-dart (slot 1 = BC)
    # and c-dart (2 = CD), flanked by its corner and the next dart's
    counts: Counter[tuple[int, int, int]] = Counter()
    for v in m.vertices:
        c = v.corners
        for s, c1, c2 in zip(v.darts, c, c[1:] + c[:1]):
            if s % 4 in (1, 2):
                counts[s % 4, min(c1, c2), max(c1, c2)] += 1
    return (counts[2, 2, 2], counts[2, 2, 3], counts[2, 3, 3],
            counts[1, 1, 1], counts[1, 1, 2], counts[1, 2, 2])


def verify(
    m: TilingMap,
    expected: Mapping[VertexSignature, int] | Iterable[VertexSignature],
    f: int | None = None,
) -> CheckReport:
    """Full verification: structure, AVC match, parity, counting, balance."""
    report = CheckReport()
    if f is not None:
        report.add("tile count", m.f == f, f"map has f={m.f}, expected {f}")

    report.add("glue involution",
               all(m.glue[m.glue[s]] == s and m.glue[s] != s
                   for s in range(4 * m.f)))
    report.add("edge labels", all(
        EDGE_LABELS[s % 4] == EDGE_LABELS[m.glue[s] % 4]
        for s in range(4 * m.f)))
    report.add("edge counts e_a = f, e_b = e_c = f/2", _edge_counts_ok(m))

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
        for i, e in enumerate(v.exponents):
            sig_total[i] += mult * e
    report.add("#alpha = #beta = #gamma = #delta = f",
               all(x == m.f for x in sig_total), f"totals {sig_total}")
    return report


def _edge_counts_ok(m: TilingMap) -> bool:
    counts = Counter(EDGE_LABELS[s % 4] for s, _ in m.edges())
    return (counts["a"] == m.f and counts["b"] == m.f // 2
            and counts["c"] == m.f // 2)


def format_avc(avc: Mapping[VertexSignature, int]) -> str:
    """Signatures with multiplicities in catalog order, e.g. ``α³×8 γ⁴×6``."""
    items = sorted(avc.items(), key=lambda kv: catalog_sort_key(kv[0]))
    return " ".join(f"{sig}×{n}" for sig, n in items)
