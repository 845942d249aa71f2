"""Constructors for the classified tiling families.

Each constructor emits an explicit gluing table (golden data transcribed from
the reference figures) and returns a validated TilingMap; the declared AVC is
re-checked on every call, so any transcription drift fails loudly.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .tilingmap import (
    EDGE_LABELS,
    SLOT_NAMES,
    TilingError,
    TilingMap,
    build,
    verify,
)
from .vertex import VertexSignature, parity_admissible

__all__ = [
    "DomainError",
    "earth_map",
    "pq_earth_map",
    "quad_subdivide",
    "family_alphadelta",
    "family_beta2delta",
    "TimeZoneDisk",
    "decompose_time_zones",
    "flip_segment",
    "FlipInvalidError",
]


class DomainError(ValueError):
    """Constructor parameter outside the family's domain."""


class FlipInvalidError(ValueError):
    """The requested flip boundary does not admit label-consistent regluing."""


def _check_avc(m: TilingMap, expected: dict[VertexSignature, int],
               name: str) -> TilingMap:
    report = verify(m, expected)
    if not report.passed:
        raise AssertionError(
            f"{name} failed self-verification:\n{report}")
    return m


# ---------------------------------------------------------------------------
# Earth map tilings
# ---------------------------------------------------------------------------

def earth_map(f: int) -> TilingMap:
    """Earth map tiling: f/2 two-tile time zones, AVC {beta gamma delta x f,
    alpha^{f/2} x 2}."""
    if f < 6 or f % 2:
        raise DomainError(f"earth_map requires even f >= 6, got {f}")
    k = f // 2
    up = lambda i: i % k            # noqa: E731 upper tile of zone i
    lo = lambda i: k + (i % k)      # noqa: E731 lower tile of zone i
    glues = []
    for i in range(k):
        glues.append(((up(i), "DA"), (up(i + 1), "AB")))
        glues.append(((lo(i), "AB"), (lo(i + 1), "DA")))
        glues.append(((up(i), "BC"), (lo(i), "BC")))
        glues.append(((up(i), "CD"), (lo(i + 1), "CD")))
    m = build(f, glues, orient=[0] * f)
    expected = {VertexSignature.parse("bgd"): f,
                VertexSignature(k, 0, 0, 0): 2}
    return _check_avc(m, expected, f"earth_map({f})")


#: Orientation pattern of an unflipped eight-tile time zone (two halves).
_PQ_ZONE_ORIENT = (0, 1, 1, 0, 0, 1, 1, 0)


def pq_earth_map(f: int) -> TilingMap:
    """(f/4,4)-earth map tiling: f/8 eight-tile time zones glued cyclically.

    AVC {alpha beta^2 x f/2, alpha^2 delta^2 x f/4, gamma^4 x f/4,
    delta^{f/4} x 2}.
    """
    if f < 16 or f % 8:
        raise DomainError(
            f"pq_earth_map requires f divisible by 8, f >= 16, got {f}")
    k = f // 8
    glues = []
    for z in range(k):
        b = 8 * z
        pz = 8 * ((z - 1) % k)  # previous zone base
        glues += [
            # within the zone
            ((b + 0, "CD"), (b + 1, "CD")),
            ((b + 0, "BC"), (b + 2, "BC")),
            ((b + 1, "BC"), (b + 3, "BC")),
            ((b + 2, "CD"), (b + 3, "CD")),
            ((b + 3, "AB"), (b + 4, "AB")),
            ((b + 4, "CD"), (b + 5, "CD")),
            ((b + 3, "DA"), (b + 6, "AB")),
            ((b + 4, "BC"), (b + 6, "BC")),
            ((b + 5, "BC"), (b + 7, "BC")),
            ((b + 6, "CD"), (b + 7, "CD")),
            ((b + 1, "AB"), (b + 4, "DA")),
            # meridian boundary with the previous zone
            ((b + 0, "DA"), (pz + 1, "DA")),
            ((b + 0, "AB"), (pz + 5, "DA")),
            ((b + 2, "AB"), (pz + 5, "AB")),
            ((b + 2, "DA"), (pz + 7, "AB")),
            ((b + 6, "DA"), (pz + 7, "DA")),
        ]
    m = build(f, glues, orient=_PQ_ZONE_ORIENT * k)
    expected = {
        VertexSignature.parse("ab2"): f // 2,
        VertexSignature.parse("a2d2"): f // 4,
        VertexSignature.parse("g4"): f // 4,
        VertexSignature(0, 0, 0, f // 4): 2,
    }
    return _check_avc(m, expected, f"pq_earth_map({f})")


# ---------------------------------------------------------------------------
# Quadrilateral subdivisions
# ---------------------------------------------------------------------------

CUBE_FACES: tuple[tuple[int, ...], ...] = (
    # vertices 0..7 = (x,y,z) bits; faces as ccw cycles seen from outside
    (0, 2, 3, 1),  # x = 0
    (4, 5, 7, 6),  # x = 1
    (0, 1, 5, 4),  # y = 0
    (2, 6, 7, 3),  # y = 1
    (0, 4, 6, 2),  # z = 0
    (1, 3, 7, 5),  # z = 1
)


def quad_subdivide(base: str) -> TilingMap:
    """Quadrilateral subdivision of a base polyhedron (f = 24 in all cases).

    cube: one quad per (face, incident vertex); corner A sits at the
    degree-3 cell class, C at the degree-4 class, B/D at edge midpoints.
    octahedron: an alias of cube with identical output, since subdividing
    the octahedron (A at face centres, C at vertices) gives the same map.
    triangular_prism: three quads per triangular face and six per square face
    (screw arrangement with trisected vertical edges).
    """
    if base in ("cube", "octahedron"):
        return _cube_subdivision()
    if base == "triangular_prism":
        return _prism_subdivision()
    raise DomainError(
        f"base must be cube, octahedron or triangular_prism, got {base!r}")


def _cube_subdivision() -> TilingMap:
    """Barycentric quads of the cube with A at its vertices: tile 4 * fi + i
    sits at corner CUBE_FACES[fi][i].

    Every cube vertex has degree 3 and every face degree 4, so A vertices
    become alpha^3 and face centers gamma^4.  The spoke from face fi's
    center to the midpoint of its i-th edge is b exactly when i + fi is
    even, so the labels alternate around each face and differ across each
    cube edge.  The only other such labelling swaps b and c everywhere,
    which the canonical form identifies (its flip renames b<->c).
    """
    orient = []
    # edge key -> the two (tile, slot) ends glued along it
    ends: dict[tuple, list[tuple[int, str]]] = {}
    for fi, face in enumerate(CUBE_FACES):
        for i, v in enumerate(face):
            t = 4 * fi + i
            e_next = frozenset((v, face[(i + 1) % 4]))  # ccw-next midpoint
            e_prev = frozenset((v, face[i - 1]))
            # orientation 0: A -> B runs ccw within the face
            mirrored = (i + fi) % 2 == 1
            b_edge, c_edge = (e_prev, e_next) if mirrored else (e_next, e_prev)
            orient.append(int(mirrored))
            for slot, key in (("AB", ("half", b_edge, v)),
                              ("BC", ("spoke", fi, b_edge)),
                              ("CD", ("spoke", fi, c_edge)),
                              ("DA", ("half", c_edge, v))):
                ends.setdefault(key, []).append((t, slot))
    m = build(24, ends.values(), orient=orient)
    expected = {VertexSignature.parse("a3"): 8,
                VertexSignature.parse("b2d2"): 12,
                VertexSignature.parse("g4"): 6}
    return _check_avc(m, expected, "quad_subdivide(cube)")


def _prism_subdivision() -> TilingMap:
    """f=24 subdivision of the triangular prism.

    Tiles 0-2: top-face quads at vertices Q_0..Q_2; tiles 3-5: bottom-face
    quads at W_0..W_2; tiles 6+6s+j (j=0..5, 'Ra'..'Rf'): the six quads of
    square side face s (between vertical edges Q_s W_s and Q_{s+1} W_{s+1}).
    """
    def top(s):
        return s % 3

    def bot(s):
        return 3 + s % 3

    def R(s, j):
        return 6 + 6 * (s % 3) + j

    Ra, Rb, Rc, Rd, Re, Rf = range(6)
    glues = []
    for s in range(3):
        glues += [
            # top and bottom in-face spokes
            ((top(s), "DA"), (top(s + 1), "AB")),
            ((bot(s), "AB"), (bot(s + 1), "DA")),
            # side face interior
            ((R(s, Ra), "AB"), (R(s, Rf), "DA")),
            ((R(s, Ra), "DA"), (R(s, Rb), "AB")),
            ((R(s, Rb), "CD"), (R(s, Rc), "CD")),
            ((R(s, Rb), "DA"), (R(s, Re), "DA")),
            ((R(s, Rc), "DA"), (R(s, Rd), "AB")),
            ((R(s, Rd), "DA"), (R(s, Re), "AB")),
            ((R(s, Re), "CD"), (R(s, Rf), "CD")),
            # vertical edge shared with the previous side face
            ((R(s, Ra), "BC"), (R(s - 1, Rc), "BC")),
            ((R(s, Rf), "AB"), (R(s - 1, Rc), "AB")),
            ((R(s, Rf), "BC"), (R(s - 1, Rd), "BC")),
            # junction with the triangular faces
            ((top(s), "CD"), (R(s, Ra), "CD")),
            ((top(s + 1), "BC"), (R(s, Rb), "BC")),
            ((bot(s), "BC"), (R(s, Re), "BC")),
            ((bot(s + 1), "CD"), (R(s, Rd), "CD")),
        ]
    orient = [0, 0, 0, 0, 0, 0] + [1, 1, 0, 1, 1, 0] * 3
    m = build(24, glues, orient=orient)
    expected = {VertexSignature.parse("a3"): 2,
                VertexSignature.parse("ab2"): 6,
                VertexSignature.parse("a2d2"): 6,
                VertexSignature.parse("b2d2"): 6,
                VertexSignature.parse("g4"): 6}
    return _check_avc(m, expected, "quad_subdivide(triangular_prism)")


# ---------------------------------------------------------------------------
# Time zone decomposition and flip modification
# ---------------------------------------------------------------------------

class TimeZoneDisk(NamedTuple):
    """One time zone of an earth-map-style tiling, viewed as a disk.

    ``tiles`` lists the member tiles, ``boundary`` the (tile, slot) sequence
    of its boundary walk, and ``flipped`` whether the zone carries mirrored
    orientation relative to the unflipped reference pattern.
    """

    tiles: tuple[int, ...]
    boundary: tuple[tuple[int, str], ...]
    flipped: bool

    @property
    def boundary_word(self) -> str:
        """Edge-label word of the boundary walk (fixed per family)."""
        return "".join(EDGE_LABELS[SLOT_NAMES.index(s)]
                       for _, s in self.boundary)


def _boundary_darts(m: TilingMap, tiles: set[int]) -> list[int]:
    """Boundary slots of the tile set, in one closed walk (segment on the
    left).  Raises FlipInvalidError unless the boundary is a single cycle."""
    bset = {s for t in tiles for s in range(4 * t, 4 * t + 4)
            if m.glue[s] // 4 not in tiles}
    if not bset:
        raise FlipInvalidError("tile set has empty boundary")
    start = min(bset)
    seq = [start]
    s = start
    while True:
        t = m.face_next(s)
        while m.glue[t] // 4 in tiles:
            t = m.face_next(m.glue[t])
        if t == start:
            break
        seq.append(t)
        s = t
    if len(seq) != len(bset):
        raise FlipInvalidError(
            "segment boundary is not a single closed meridian pair")
    return seq


#: Reflection-axis offsets flanking the pole axis, in preference order.
_AXIS_CANDIDATES = (0, -2, 1, -1)


def _avc_class(m: TilingMap) -> list[tuple[int, int, int, int]]:
    """The AVC up to canonical_form's beta<->delta flip."""
    avc = sorted(v.signature for v in m.vertices)
    return min(avc, sorted((a, d, c, b) for a, b, c, d in avc))


def _flip_tiles(m: TilingMap, tiles: Iterable[int]) -> TilingMap:
    """Replace the tile segment by its mirror image, re-glued across a
    reflection through the boundary's delta-pole pair.

    The reflection axis is offset from the pole axis by 0, -2, 1 and -1
    boundary-edge steps in turn, and the first non-trivial admissible
    regluing is returned: the rebuilt map must have parity-admissible
    vertex signatures whose angle system ``angles_feasible`` accepts, and
    must not be isomorphic to the input (which would be a mere re-rotation,
    not a flip).  Only the flip families load the angle solver, so it is
    imported here rather than with the module.
    """
    from .angles import angles_feasible

    tiles = set(tiles)
    sb = _boundary_darts(m, tiles)
    n = len(sb)
    # gap t = the boundary vertex between edges t-1 and t, where dart t
    # starts: each boundary dart starts where the one before it ends
    gaps = [m.vertex_of[s] for s in sb]

    # the flip axis passes through the two pole vertices: the antipodal gap
    # pair whose signatures are delta-dominated (no beta, no gamma, max delta)
    def delta_mass(t: int) -> int:
        sig = m.vertices[gaps[t]].signature
        if sig.b or sig.c or not sig.d:
            return -1
        return sig.d

    pole, best = None, 0
    for t in range(n // 2):
        w = min(delta_mass(t), delta_mass(t + n // 2))
        if w > best:
            pole, best = t, w
    if pole is None:
        raise FlipInvalidError(
            "segment boundary has no antipodal delta-pole vertex pair")

    kept = [(divmod(s, 4), divmod(g, 4)) for s, g in m.edges()
            if (s // 4 in tiles) == (g // 4 in tiles)]
    orient = [o ^ (t in tiles) for t, o in enumerate(m.orient)]

    def reglue(offset: int) -> TilingMap:
        pairs = list(kept)
        for t in range(n):
            a, b = sb[(2 * pole - t + offset) % n], m.glue[sb[t]]
            pairs.append((divmod(a, 4), divmod(b, 4)))
        return build(m.f, pairs, orient=orient)

    avc, form = _avc_class(m), None
    for offset in _AXIS_CANDIDATES:
        try:
            flipped = reglue(offset)
        except TilingError:
            continue
        sigs = [v.signature for v in flipped.vertices]
        if not all(parity_admissible(s) for s in sigs):
            continue
        if not angles_feasible(sigs, m.f):
            continue
        if _avc_class(flipped) == avc:
            form = form or m.canonical_form()
            if flipped.canonical_form() == form:
                continue
        return flipped
    raise FlipInvalidError(
        "no admissible reflection axis at this boundary")


def decompose_time_zones(m: TilingMap) -> list[TimeZoneDisk]:
    """Partition an earth-map-style tiling into its time zone disks.

    Two-tile zones for the earth map tilings, eight-tile zones for the
    (f/4,4)-earth map tilings and their whole-zone flip modifications; the
    ``flipped`` flag marks zones carrying mirrored orientation.
    """
    f = m.f

    def glued(t1: int, s1: str, t2: int, s2: str) -> bool:
        return m.glue[m.slot(t1, s1)] == m.slot(t2, s2)

    def zone(tiles: Iterable[int], flipped: bool) -> TimeZoneDisk:
        darts = _boundary_darts(m, set(tiles))
        return TimeZoneDisk(
            tiles=tuple(tiles),
            boundary=tuple((s // 4, SLOT_NAMES[s % 4]) for s in darts),
            flipped=flipped)

    # eight-tile zones: orientation pattern identifies each block and flips
    if f % 8 == 0 and f >= 16:
        mirror = tuple(1 - o for o in _PQ_ZONE_ORIENT)
        bases = range(0, f, 8)
        if all(m.orient[b:b + 8] in (_PQ_ZONE_ORIENT, mirror)
               and glued(b, "CD", b + 1, "CD")
               and glued(b + 6, "CD", b + 7, "CD") for b in bases):
            return _matched_zones([zone(range(b, b + 8),
                                        m.orient[b:b + 8] == mirror)
                                   for b in bases])

    # two-tile zones of the earth map tiling
    k = f // 2
    if all(glued(i, "BC", k + i, "BC") and glued(i, "DA", (i + 1) % k, "AB")
           for i in range(k)):
        return _matched_zones([zone((i, k + i), False) for i in range(k)])
    raise DomainError("map is not time-zone decomposable")


def _matched_zones(zones: list[TimeZoneDisk]) -> list[TimeZoneDisk]:
    """Check the per-family invariant: every zone has the same boundary
    edge-label word up to rotation, so zones glue label-consistently."""
    words = {min(w[i:] + w[:i] for i in range(len(w)))
             for w in [z.boundary_word for z in zones]}
    if len(words) != 1:
        raise DomainError(
            f"zone boundary words differ: {sorted(words)}")
    return zones


def flip_segment(
    m: TilingMap,
    zone_start: int,
    zone_count: int,
    *,
    half_zones: bool = False,
) -> TilingMap:
    """Flip a contiguous segment of time zones and re-glue it.

    The segment boundary must be a meridian pair through the two delta-pole
    vertices; the segment is replaced by its mirror image, reflected through
    the first axis near the pole axis that gives an admissible non-trivial
    regluing (see ``_flip_tiles``).  With ``half_zones=True``
    (eight-tile zones only) positions are counted in half-zone steps, so
    staircase mid-zone meridians become available.  Flipping every zone
    returns the global mirror image.
    """
    if half_zones:
        # half-zone units survive earlier half-zone flips that break the
        # whole-zone orientation pattern, so derive them directly
        if m.f % 8:
            raise DomainError("half_zones requires eight-tile zones")
        half = _PQ_ZONE_ORIENT[:4]
        if any(m.orient[j:j + 4] not in (half, tuple(1 - o for o in half))
               for j in range(0, m.f, 4)):
            raise DomainError("map is not half-zone decomposable")
        k = m.f // 4
        units = [tuple(range(4 * j, 4 * j + 4)) for j in range(k)]
    else:
        zones = decompose_time_zones(m)
        k = len(zones)
        units = [z.tiles for z in zones]
    if not 1 <= zone_count <= k:
        raise DomainError(
            f"zone_count must be in 1..{k}, got {zone_count}")
    if zone_count == k:
        # whole sphere: plain mirror image
        pairs = [(divmod(s, 4), divmod(t, 4)) for s, t in m.edges()]
        return build(m.f, pairs, orient=[1 - o for o in m.orient])
    tiles = [t for j in range(zone_start, zone_start + zone_count)
             for t in units[j % k]]
    return _flip_tiles(m, tiles)


# ---------------------------------------------------------------------------
# The two flip-modification families
# ---------------------------------------------------------------------------

def _family_domain(f: int, name: str) -> int:
    if f < 24 or f % 8:
        raise DomainError(
            f"{name} requires f divisible by 8, f >= 24, got {f}")
    if (f - 8) % 16:
        raise DomainError(
            f"{name} requires (f-8)/16 zones, an integer, so f = 8 (mod 16); "
            f"got {f}")
    return (f - 8) // 16


def family_alphadelta(f: int) -> TilingMap:
    """Flip modification with AVC {alpha beta^2, alpha^2 delta^2, gamma^4,
    alpha delta^{(f+8)/8}}: flip a segment of (f-8)/16 zones of the
    (f/4,4)-earth map tiling."""
    zones = _family_domain(f, "family_alphadelta")
    m = flip_segment(pq_earth_map(f), 0, zones)
    expected = {
        VertexSignature.parse("ab2"): f // 2,
        VertexSignature.parse("a2d2"): (f - 8) // 4,
        VertexSignature.parse("g4"): f // 4,
        VertexSignature(1, 0, 0, (f + 8) // 8): 4,
    }
    return _check_avc(m, expected, f"family_alphadelta({f})")


def family_beta2delta(f: int) -> TilingMap:
    """Flip modification with AVC {alpha beta^2, alpha^2 delta^2, gamma^4,
    beta^2 delta^{(f-8)/8}, alpha delta^{(f+8)/8}}: flip a segment of
    (f-8)/16 + 1/2 zones along the staircase mid-zone meridian, with the
    reflection axis shifted one boundary edge off the pole axis."""
    zones = _family_domain(f, "family_beta2delta")
    m = flip_segment(pq_earth_map(f), 0, 2 * zones + 1, half_zones=True)
    expected = {
        VertexSignature.parse("ab2"): (f - 4) // 2,
        VertexSignature.parse("a2d2"): f // 4,
        VertexSignature(0, 2, 0, (f - 8) // 8): 2,
        VertexSignature.parse("g4"): f // 4,
        VertexSignature(1, 0, 0, (f + 8) // 8): 2,
    }
    return _check_avc(m, expected, f"family_beta2delta({f})")
