"""Combinatorial automorphisms, point-group classification, mirror traces."""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from test_canonical import GOLDEN, _mirror, relabel

import quadtile
from quadtile.constructors import (
    earth_map,
    family_alphadelta,
    family_beta2delta,
    pq_earth_map,
    quad_subdivide,
)
from quadtile.geometry import closed_form_cube_subdivision, closed_form_family, realize
from quadtile.cli import main
from quadtile.symmetry import (
    MapAutomorphism,
    _generators,
    _orders,
    automorphisms,
    classify,
)
from quadtile.tilingmap import (
    EDGE_LABELS,
    TilingMap,
    balance_pair_counts,
    extract_avc,
    verify,
)


def _is_identity(g: MapAutomorphism) -> bool:
    return not g.reversing and g.perm == tuple(range(len(g.perm)))


def _inverse(g: MapAutomorphism) -> MapAutomorphism:
    inv = [0] * len(g.perm)
    for i, p in enumerate(g.perm):
        inv[p] = i
    return MapAutomorphism(tuple(inv), g.reversing)


class TestGroupStructure:
    def test_closure_and_inverses(self):
        # [TRIVIAL] the automorphism set is a group
        group = automorphisms(pq_earth_map(16))
        keys = {(g.perm, g.reversing) for g in group}
        for g in group:
            assert (_inverse(g).perm, _inverse(g).reversing) in keys
            for h in group:
                gh = g.compose(h)
                assert (gh.perm, gh.reversing) in keys

    def test_identity_present(self):
        # [TRIVIAL]
        group = automorphisms(earth_map(8))
        assert any(_is_identity(g) for g in group)

    def test_orders_divide_group_order(self):
        # [TRIVIAL] Lagrange
        group = automorphisms(quad_subdivide("cube"))
        for g in group:
            assert len(group) % g.order() == 0

    @pytest.mark.parametrize("m", [
        quad_subdivide("cube"), pq_earth_map(16), earth_map(8),
        family_alphadelta(24), family_beta2delta(24), pq_earth_map(64),
        earth_map(64)],
        ids=["cube", "pq16", "em8", "alphadelta24", "beta2delta24", "pq64",
             "em64"])
    def test_order_by_definition(self, m):
        # [DERIVED] order() is the least k >= 1 with g^k the identity, and
        # classify's one walk per cyclic subgroup reads the same orders
        group = automorphisms(m)
        for g in group:
            k, power = 1, g
            while not _is_identity(power):
                power = power.compose(g)
                k += 1
            assert g.order() == k
        preserving = [g for g in group if not g.reversing]
        assert _orders(preserving) == [g.order() for g in preserving]


class TestGeneratorMemo:
    """The generators are searched once per map and shared by
    canonical_form, classify and automorphisms."""

    def test_new_list_each_call(self):
        # [TRIVIAL] mutating a result does not change the next one
        m = quad_subdivide("cube")
        first = automorphisms(m)
        want = list(first)
        first.clear()
        assert automorphisms(m) == want and len(want) == 24

    def test_equal_maps_equal_generators(self):
        # [DERIVED] two maps built apart are equal, so they share the
        # search, and a fresh search gives them the same generators
        m1, m2 = pq_earth_map(16), pq_earth_map(16)
        assert m1 is not m2
        _generators.cache_clear()
        gens = _generators(m1)
        assert _generators(m2) is gens
        _generators.cache_clear()
        assert _generators(m2) == gens

    def test_holds_one_entry(self):
        # [TRIVIAL] the memo keeps only the last map's generators
        for m in (pq_earth_map(16), earth_map(8), quad_subdivide("cube")):
            m.canonical_form()
            classify(m)
        info = _generators.cache_info()
        assert info.maxsize == 1 and info.currsize == 1

    def test_one_search_per_cli_symmetry(self, capsys, tmp_path):
        # [DERIVED] classify and the --generators listing share one search
        path = tmp_path / "cube.json"
        path.write_text(quad_subdivide("cube").to_json())
        _generators.cache_clear()
        assert main(["symmetry", str(path), "--generators"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert _generators.cache_info().misses == 1
        assert sum(line.startswith(("preserving order", "reversing order"))
                   for line in out) == 24


class TestClassification:
    @pytest.mark.parametrize("f", [8, 10, 12, 50])
    def test_earth_map(self, f):
        # [PAPER] earth map tiling: D_{f/2}, order f, no reversing elements
        sc = classify(earth_map(f))
        assert sc.name == f"D_{f // 2}"
        assert sc.order == f
        assert sc.mirror_count == 0 and not sc.has_inversion

    def test_cube_subdivision(self):
        # [PAPER] symmetry group T_h, order 24, with inversion
        sc = classify(quad_subdivide("cube"))
        assert sc.name == "T_h" and sc.order == 24
        assert sc.has_inversion
        assert str(sc) == "T_h, order 24"

    def test_prism_subdivision(self):
        # [PAPER] D_3, order 6
        sc = classify(quad_subdivide("triangular_prism"))
        assert sc.name == "D_3" and sc.order == 6

    def test_pq16(self):
        # [PAPER] printed label D_{2v}; standard name D_2d: vertical
        # mirrors, no mirror perpendicular to the principal axis
        sc = classify(pq_earth_map(16))
        assert sc.name == "D_2d"
        assert sc.paper_label == "D_{2v}"
        assert sc.mirror_count > 0
        assert not sc.has_horizontal_mirror

    def test_pq24(self):
        # [DERIVED] same analysis at f=24: D_3d (printed D_{3v}), order 12
        sc = classify(pq_earth_map(24))
        assert sc.name == "D_3d" and sc.order == 12
        assert sc.paper_label == "D_{3v}"

    def test_alphadelta(self):
        # [PAPER] D_2, order 4
        sc = classify(family_alphadelta(24))
        assert sc.name == "D_2" and sc.order == 4

    def test_beta2delta(self):
        # [PAPER] C_2, order 2
        sc = classify(family_beta2delta(24))
        assert sc.name == "C_2" and sc.order == 2
        assert str(sc) == "C_2, order 2"


# Vertex bisecting cycles (candidate mirror traces).  classify reads the
# mirrors off the free tile action, so these walks live here, as witnesses
# of its mirror count: the dart walk below, and _reference_traces, which
# follows the definition.

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


class TestBisectingCycles:
    def test_pq16_nonempty(self):
        # [PAPER] meridian mirror traces exist through the polar vertices
        cycles = vertex_bisecting_cycles(pq_earth_map(16))
        assert cycles
        # every cycle is a closed loop of at least 4 edges
        assert all(len(c) >= 4 for c in cycles)

    def test_earth_map_empty(self):
        # [PAPER] the earth map tiling has no mirror trace
        assert vertex_bisecting_cycles(earth_map(10)) == []

    def test_prism_empty(self):
        # [PAPER] the prism subdivision has no mirror trace
        assert vertex_bisecting_cycles(quad_subdivide("triangular_prism")) == []

    def test_cycle_count_matches_mirrors(self):
        # [DERIVED] each mirror traces one bisecting cycle, in one map of
        # each family
        for m in (pq_earth_map(16), pq_earth_map(24), earth_map(12),
                  quad_subdivide("cube"), quad_subdivide("triangular_prism"),
                  family_alphadelta(24), family_beta2delta(24)):
            sc = classify(m)
            assert len(vertex_bisecting_cycles(m)) == sc.mirror_count


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


# (constructor, argument) of the canonical-form goldens -> digest of the
# traces of the map, of relabel(map, 3) and of its mirror image.  No map
# that build accepts has an edge twice in one vertex fan (a loop), so
# none is here.
TRACE_GOLDEN = {
    ("pq_earth_map", 64):
        "fc10bce4859ee9595c4f79aad91fcddf460686cc1678477d819e8cafbf5f0911",
    ("pq_earth_map", 256):
        "9e3cb1fc36677f8ad03001bf40cd66fd10e491811cc03d87423ddf65ea8b0f70",
    ("earth_map", 128):
        "f865256c77f3fc9fb80d7c6a2cdc9716f594a132d8ed568eff51d23dc252eb20",
    ("earth_map", 256):
        "f865256c77f3fc9fb80d7c6a2cdc9716f594a132d8ed568eff51d23dc252eb20",
    ("quad_subdivide", "cube"):
        "d860314a2f22c22eb7fb0e67077e604f68655f3e9ba3f1f94e6cadd9d3f64229",
    ("quad_subdivide", "octahedron"):
        "d860314a2f22c22eb7fb0e67077e604f68655f3e9ba3f1f94e6cadd9d3f64229",
    ("quad_subdivide", "triangular_prism"):
        "f865256c77f3fc9fb80d7c6a2cdc9716f594a132d8ed568eff51d23dc252eb20",
    ("family_alphadelta", 56):
        "f865256c77f3fc9fb80d7c6a2cdc9716f594a132d8ed568eff51d23dc252eb20",
    ("family_alphadelta", 120):
        "f865256c77f3fc9fb80d7c6a2cdc9716f594a132d8ed568eff51d23dc252eb20",
    ("family_beta2delta", 56):
        "f865256c77f3fc9fb80d7c6a2cdc9716f594a132d8ed568eff51d23dc252eb20",
    ("family_beta2delta", 120):
        "f865256c77f3fc9fb80d7c6a2cdc9716f594a132d8ed568eff51d23dc252eb20",
    ("pq_earth_map", 16):
        "0bd5674b3faa42d34a6a26803b7ff056044eb460ae949e4170e58fc62ef6440a",
    ("earth_map", 8):
        "f865256c77f3fc9fb80d7c6a2cdc9716f594a132d8ed568eff51d23dc252eb20",
    ("family_alphadelta", 24):
        "f865256c77f3fc9fb80d7c6a2cdc9716f594a132d8ed568eff51d23dc252eb20",
    ("family_beta2delta", 24):
        "f865256c77f3fc9fb80d7c6a2cdc9716f594a132d8ed568eff51d23dc252eb20",
}

# f -> digest of the traces of every flip_segment output of pq_earth_map(f),
# over whole and half zones, every start and count
FLIP_TRACE_GOLDEN = {
    24: "2dee1178676352756bdb2ab7c22d7e74021eef4bed3a5f5f70a7bdf4aa2e119f",
    40: "94fc6e0cfd45c65d6f6e81431a01f8885d1498a743bf72751b67be4eee8119e7",
}


class TestGoldenTraces:
    @pytest.mark.parametrize("name,arg", list(GOLDEN))
    def test_traces(self, name, arg):
        # [DERIVED] the cycles, in their sorted canonical order, pinned
        # before the walk lost its backtracking
        m = getattr(quadtile, name)(arg)
        got = [vertex_bisecting_cycles(x)
               for x in (m, relabel(m, 3), _mirror(m))]
        assert _digest(got) == TRACE_GOLDEN[name, arg]

    @pytest.mark.parametrize("f", [24, 40])
    def test_flip_segment_traces(self, f, flip_outputs):
        # [DERIVED] the flip modifications, chiral maps included
        lines = [(half, start, count, vertex_bisecting_cycles(flipped))
                 for half, start, count, flipped in flip_outputs[f]]
        assert _digest(lines) == FLIP_TRACE_GOLDEN[f]


def _reference_traces(m: TilingMap) -> list[tuple[tuple[int, int], ...]]:
    """The traces from their definition, sharing nothing with the library's
    walk: every edge pair at each vertex is tried against both the edge
    labels and the wedge corners of the fan, the walk runs on (vertex, edge)
    keys with the stop rules it had before it read darts, and each cycle is
    the least of all its rotations and reversals."""
    def edge(s):
        return min(s, m.glue[s]), max(s, m.glue[s])

    def far(e, at):
        v1, v2 = m.vertex_of[e[0]], m.vertex_of[e[1]]
        return v2 if v1 == at else v1

    cont = {}
    for v, cycle in enumerate(m.vertices):
        d = cycle.degree
        # edge label of dart k at 2k, the corner between darts k and k + 1
        # (the corner of dart k + 1's tile) at 2k + 1
        ring = [x for k in range(d) for x in (
            EDGE_LABELS[cycle.darts[k] % 4], cycle.corners[(k + 1) % d])]
        for i in range(d):
            for j in range(i + 1, d):
                # the fan from edge i to edge j, read both ways round
                ccw = ring[2 * i + 1:2 * j]
                cw = [ring[p] for p in range(2 * i - 1, 2 * j - 2 * d, -1)]
                if ccw == cw:
                    ei, ej = edge(cycle.darts[i]), edge(cycle.darts[j])
                    assert (v, ei) not in cont and (v, ej) not in cont
                    cont[v, ei], cont[v, ej] = ej, ei

    cycles, traced = [], set()
    for start_v, start_edge in cont:
        if start_edge in traced:
            continue
        path, on_path = [start_edge], {start_edge}
        at = far(start_edge, start_v)
        while (nxt := cont.get((at, path[-1]))) is not None:
            if nxt == start_edge and at == start_v and len(path) > 1:
                n = len(path)
                cycles.append(min(
                    tuple(seq) for r in range(n)
                    for seq in (path[r:] + path[:r],
                                (path[r:] + path[:r])[::-1])))
                traced |= on_path
                break
            if nxt in on_path:
                break
            path.append(nxt)
            on_path.add(nxt)
            at = far(nxt, at)
    return sorted(cycles)


class TestReferenceTraces:
    @pytest.mark.parametrize("name,arg", list(GOLDEN))
    def test_golden_maps(self, name, arg):
        # [DERIVED] only opposite edges bisect a vertex, and labels decide
        # it: the walk over darts finds what the definition finds, and on
        # these maps each trace is a mirror of classify's (not so on 24
        # maps at f = 4, C_2 with one trace and no mirror)
        m = getattr(quadtile, name)(arg)
        for x in (m, relabel(m, 3), _mirror(m)):
            traces = _reference_traces(x)
            assert vertex_bisecting_cycles(x) == traces
            assert len(traces) == classify(x).mirror_count

    @pytest.mark.parametrize("f", [24, 40])
    def test_flip_outputs(self, f, flip_outputs):
        # [DERIVED] the flip modifications, chiral maps included
        for *_, flipped in flip_outputs[f]:
            assert (vertex_bisecting_cycles(flipped)
                    == _reference_traces(flipped))

    def test_small_maps(self, small_maps):
        # [DERIVED] every map with f <= 4: on 54 of them the labels next
        # to the axis edges alone decide whether a vertex is bisected
        for m in small_maps:
            assert vertex_bisecting_cycles(m) == _reference_traces(m)


# (constructor, argument) of the canonical-form goldens -> digest of
# repr(classify(...)) of the map, of relabel(map, 3) and of its mirror
# image, recorded before classify read orders and mirrors off the free
# tile action
CLASSIFY_GOLDEN = {
    ("pq_earth_map", 64):
        "6fae4fe70a80db8e84fe1f81c12482fefe3b4ed95c0f199dd2144bd5df226c95",
    ("pq_earth_map", 256):
        "63048e518351f5e0e25dab8ef6c34e94d613e879044bbde5ced8863359dba803",
    ("earth_map", 128):
        "f93064c83bf02f431f48b64aa53ad86243ed198a279291d310badc3210bdf144",
    ("earth_map", 256):
        "a5b9a953cf3c17164889beaed2e8c9376ea95e44ab74079c274ba401e613fbbf",
    ("quad_subdivide", "cube"):
        "3dcd7e20f60723e2eff520c488224e30d00703c450e96fff57f45e4d27e4565c",
    ("quad_subdivide", "octahedron"):
        "3dcd7e20f60723e2eff520c488224e30d00703c450e96fff57f45e4d27e4565c",
    ("quad_subdivide", "triangular_prism"):
        "ef0a871e67aa1a817645ab7f9d73d33081c052487dd36e110ca96815fe234f97",
    ("family_alphadelta", 56):
        "b75f11fd78fbb8ee211406126550f48d646457ef4d4994ef612d94ea2303c9ea",
    ("family_alphadelta", 120):
        "b75f11fd78fbb8ee211406126550f48d646457ef4d4994ef612d94ea2303c9ea",
    ("family_beta2delta", 56):
        "595b40cb75c71a568c976a0883de910990df5388a908fb3aa523c4bce412b5e4",
    ("family_beta2delta", 120):
        "595b40cb75c71a568c976a0883de910990df5388a908fb3aa523c4bce412b5e4",
    ("pq_earth_map", 16):
        "955eb45380417f7df98f647c36950a84a88718b8d51318cc1fd5c2b5052c0d0b",
    ("earth_map", 8):
        "53df3c2663bd7dd7fa689b301fa92b39e3cbb220a700e29fec83db28f9db0081",
    ("family_alphadelta", 24):
        "b75f11fd78fbb8ee211406126550f48d646457ef4d4994ef612d94ea2303c9ea",
    ("family_beta2delta", 24):
        "595b40cb75c71a568c976a0883de910990df5388a908fb3aa523c4bce412b5e4",
}

# f -> digest of (half_zones, start, count, repr(classify(...))) over every
# admissible flip_segment output of pq_earth_map(f)
FLIP_CLASSIFY_GOLDEN = {
    24: "58023402ce92315df7f5b8973f67780a9eb25b37b1f045030820ad53004380d9",
    40: "326eb577ad41df3b0a6182a1f9a12dc86e6fbc053761bcdb88247471de0bfece",
}


class TestGoldenClassify:
    @pytest.mark.parametrize("name,arg", list(GOLDEN))
    def test_classify(self, name, arg):
        # [DERIVED] every field of the class, chiral mirror images included
        m = getattr(quadtile, name)(arg)
        got = [repr(classify(x)) for x in (m, relabel(m, 3), _mirror(m))]
        assert _digest(got) == CLASSIFY_GOLDEN[name, arg]

    @pytest.mark.parametrize("f", list(FLIP_CLASSIFY_GOLDEN))
    def test_flip_segment_classify(self, f, flip_outputs):
        # [DERIVED] the flip modifications, 33 at f = 24 and 55 at f = 40
        lines = [(half, start, count, repr(classify(flipped)))
                 for half, start, count, flipped in flip_outputs[f]]
        assert _digest(lines) == FLIP_CLASSIFY_GOLDEN[f]


@pytest.fixture(scope="module")
def golden_groups(flip_outputs):
    """(map, automorphisms) for the GOLDEN maps, relabel(m, 3) and the
    mirror image of each, and the flip_segment outputs of pq24 and pq40."""
    maps = []
    for name, arg in GOLDEN:
        m = getattr(quadtile, name)(arg)
        maps += [m, relabel(m, 3), _mirror(m)]
    maps += [flipped for f in (24, 40) for *_, flipped in flip_outputs[f]]
    return [(m, automorphisms(m)) for m in maps]


def _tile0_orbit(g: MapAutomorphism) -> int:
    k, t = 1, g.perm[0]
    while t != 0:
        k, t = k + 1, g.perm[t]
    return k


def _fixed_cells(g: MapAutomorphism, m: TilingMap) -> set[tuple]:
    """Tiles, edges and vertices that g maps to themselves, by brute force.

    Corner k of tile t goes to corner k of tile perm[t], and the vertex at
    corner k of tile t is the start of dart (k - orient[t]) % 4.  Vertices
    are mapped by corners, not darts: a reversing g sends the start of a
    dart to the end of the image dart.
    """
    perm = g.perm
    image = [4 * p + pos for p in perm for pos in range(4)]  # of slots
    cells: set[tuple] = {("tile", t) for t in range(m.f) if perm[t] == t}
    for s1, s2 in enumerate(m.glue):
        if s1 < s2 and (image[s1], image[s2]) in ((s1, s2), (s2, s1)):
            cells.add(("edge", (s1, s2)))
    for v, cycle in enumerate(m.vertices):
        if all(m.vertex_of[4 * perm[s // 4] + (k - m.orient[perm[s // 4]]) % 4]
               == v for s, k in zip(cycle.darts, cycle.corners)):
            cells.add(("vertex", v))
    return cells


class TestFreeAction:
    """The facts classify rests on: on a connected map every non-identity
    automorphism moves every tile, so all its tile cycles have one length."""

    def test_nonidentity_moves_every_tile(self, golden_groups):
        # [DERIVED] a preserving element fixing a tile is forced to the
        # identity; a reversing one flips every orientation bit
        for _, group in golden_groups:
            for g in group:
                if not _is_identity(g):
                    assert all(p != t for t, p in enumerate(g.perm))

    def test_reversing_orbit_even(self, golden_groups):
        # [DERIVED] an odd power of a reversing element reverses, so it
        # cannot return tile 0 to itself
        for _, group in golden_groups:
            for g in group:
                if g.reversing:
                    assert _tile0_orbit(g) % 2 == 0

    def test_flags_match_fixed_cells(self, golden_groups):
        # [DERIVED] a reversing involution is a mirror iff it fixes an
        # edge, and an inversion iff it fixes no tile, edge or vertex
        for m, group in golden_groups:
            involutions = [g for g in group if g.reversing
                           and _is_identity(g.compose(g))]
            cells = [_fixed_cells(g, m) for g in involutions]
            sc = classify(m)
            assert sc.mirror_count == sum(
                any(kind == "edge" for kind, _ in c) for c in cells)
            assert sc.has_inversion == any(not c for c in cells)


class TestSmallMapsFreeAction(TestFreeAction):
    """The same facts on every map with f <= 4."""

    @pytest.fixture(scope="class")
    def golden_groups(self, small_maps):
        return [(m, automorphisms(m)) for m in small_maps]


#: digest of (automorphisms as (perm, reversing) pairs, repr(classify)) over
#: the small_maps fixture, recorded before the automorphism search read
#: build's spanning tree
SMALL_GOLDEN = (
    "3f631610eac1b0658441d54d2e91e501596469517ceab990d2dd72da7cdece66")

#: digest of each small map's vertex table (darts, corners, signature per
#: vertex), vertex_of, tree, canonical form, balance_pair_counts,
#: degree_vector and verify report, recorded before build walked its sigma
#: and corner tables
SMALL_TABLES_GOLDEN = (
    "2fc78f238d2d30663f163a7a62cfc8b315633f36642578865fe6b638f408f9df")


class TestSmallMaps:
    def test_count(self, small_maps):
        # [DERIVED] 3 maps at f = 2, 732 at f = 4
        assert Counter(m.f for m in small_maps) == {2: 3, 4: 732}

    def test_groups_and_classes(self, small_maps):
        # [DERIVED] every automorphism and class, including the first maps
        # to reach C_s, C_2h, C_2v and S_2
        got = [([(g.perm, g.reversing) for g in automorphisms(m)],
                repr(classify(m))) for m in small_maps]
        assert _digest(got) == SMALL_GOLDEN
        names = {classify(m).name for m in small_maps}
        assert {"C_s", "C_2h", "C_2v", "S_2"} <= names

    def test_tables_and_forms(self, small_maps):
        # [DERIVED] what build walks, the form read from it and the counts
        # verify reads, per map
        got = [([(v.darts, v.corners, tuple(v.signature)) for v in m.vertices],
                m.vertex_of, m.tree, m.canonical_form(),
                balance_pair_counts(m), m.degree_vector(),
                str(verify(m, extract_avc(m)))) for m in small_maps]
        assert _digest(got) == SMALL_TABLES_GOLDEN

    def test_balance_reads_vertex_cycles(self, small_maps):
        # [DERIVED] the counts from orientation bits equal the counts read
        # around each vertex cycle, corner by corner
        for m in small_maps:
            counts = Counter()
            for v in m.vertices:
                c = v.corners
                for s, c1, c2 in zip(v.darts, c, c[1:] + c[:1]):
                    if s % 4 in (1, 2):
                        counts[s % 4, min(c1, c2), max(c1, c2)] += 1
            assert balance_pair_counts(m) == (
                counts[2, 2, 2], counts[2, 2, 3], counts[2, 3, 3],
                counts[1, 1, 1], counts[1, 1, 2], counts[1, 2, 2])


class TestGeometricCrossCheck:
    @staticmethod
    def _isometry_for(real, g: MapAutomorphism) -> float:
        """Worst distance between mapped corners and an isometry fit."""
        # fit a rotation/reflection sending tile 0's frame to its image
        pts = []
        imgs = []
        coords, corners = real.coords, real.tile_corners
        for t in range(real.map.f):
            for corner in range(4):
                pts.append(np.array(coords[corners[t][corner]]))
                imgs.append(np.array(coords[corners[g.perm[t]][corner]]))
        P = np.array(pts).T
        Q = np.array(imgs).T
        U, _, Vt = np.linalg.svd(Q @ P.T)
        R = U @ Vt
        return float(np.max(np.linalg.norm(R @ P - Q, axis=0)))

    def test_automorphisms_are_isometries(self):
        # [DERIVED] every combinatorial automorphism is realized by an
        # isometry of the embedded tiling (within 1e-6)
        real = realize(pq_earth_map(16), closed_form_family(16))
        for g in automorphisms(real.map):
            assert self._isometry_for(real, g) < 1e-6
