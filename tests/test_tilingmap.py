"""Combinatorial map structure, validation, serialization, verification."""

import json
from collections import Counter

import pytest

from quadtile.angles import VertexSignature
from quadtile.constructors import earth_map, pq_earth_map, quad_subdivide
from quadtile.tilingmap import (
    DisconnectedError,
    InvolutionError,
    LabelMismatchError,
    TilingError,
    TilingMap,
    balance_pair_counts,
    build,
    extract_avc,
    verify,
)


def sig(text: str) -> VertexSignature:
    return VertexSignature.parse(text)


def two_tile_map() -> TilingMap:
    # [TRIVIAL] the smallest legal gluing: two tiles, matching labels
    pairs = [((0, "AB"), (1, "AB")), ((0, "BC"), (1, "BC")),
             ((0, "CD"), (1, "CD")), ((0, "DA"), (1, "DA"))]
    return build(2, pairs, orient=[0, 1])


#: glue entries with a slot out of 0-3 (on f = 2, [0, 4, 0, 0] would read
#: as tile 1 AB glued to tile 0 AB, the entry it replaces), a non-int
#: tile index or slot, or an unknown slot name
BAD_GLUE_ENTRIES = [[0, 5, 0, 4], [0, 4, 0, 0], [0.0, "AB", 1, "AB"],
                    [True, "AB", 1, "AB"], [0, "AB", 1, 0.0],
                    [0, "XY", 1, "AB"]]
BAD_GLUE_IDS = ["slot-5", "slot-4", "float-tile", "bool-tile", "float-slot",
                "name-XY"]


def two_tile_json_with(entry: list) -> dict:
    """The two-tile map's JSON with its first glue entry replaced."""
    data = json.loads(two_tile_map().to_json())
    return {**data, "glue": [entry] + data["glue"][1:]}


class TestBuild:
    def test_two_tile(self):
        m = two_tile_map()
        assert m.f == 2 and m.edge_count == 4
        assert m.vertex_count == 4  # v = f + 2

    def test_label_mismatch(self):
        # [TRIVIAL] gluing an a-edge to a b-edge must fail
        pairs = [((0, "AB"), (1, "BC")), ((0, "BC"), (1, "AB")),
                 ((0, "CD"), (1, "CD")), ((0, "DA"), (1, "DA"))]
        with pytest.raises(LabelMismatchError):
            build(2, pairs, orient=[0, 1])

    def test_not_involution(self):
        # [TRIVIAL] a slot used twice
        pairs = [((0, "AB"), (1, "AB")), ((0, "BC"), (1, "AB")),
                 ((0, "CD"), (1, "CD")), ((0, "DA"), (1, "DA"))]
        with pytest.raises((InvolutionError, LabelMismatchError)):
            build(2, pairs, orient=[0, 1])

    def test_disconnected(self):
        # [TRIVIAL] two separate two-tile components
        pairs = []
        for base in (0, 2):
            pairs += [((base, s), (base + 1, s))
                      for s in ("AB", "BC", "CD", "DA")]
        with pytest.raises(DisconnectedError):
            build(4, pairs, orient=[0, 1, 0, 1])

    def test_odd_f(self):
        # [TRIVIAL]
        with pytest.raises(TilingError):
            build(3, [])


class TestStructure:
    def test_euler(self):
        # [DERIVED] v = f + 2 for quadrilateral tilings of the sphere
        for m in (earth_map(10), pq_earth_map(16), quad_subdivide("cube")):
            assert m.vertex_count == m.f + 2
            assert m.vertex_count - m.edge_count + m.f == 2

    def test_edge_label_counts(self):
        # [DERIVED] e_a = f, e_b = e_c = f/2
        m = pq_earth_map(16)
        labels = Counter(m.edge_label(s) for s, _ in m.edges())
        assert labels == {"a": 16, "b": 8, "c": 8}

    def test_sigma_orbits_partition(self):
        # [TRIVIAL] vertex orbits partition all 4f darts
        m = earth_map(12)
        seen = [s for orbit in m._orbits for s in orbit]
        assert sorted(seen) == list(range(4 * m.f))


class TestAVC:
    def test_earth_map_10(self):
        # [PAPER] AVC = {bgd x10, alpha^5 x2}
        assert extract_avc(earth_map(10)) == {sig("bgd"): 10, sig("a5"): 2}

    def test_cube_subdivision(self):
        # [PAPER] f=24 cube subdivision: {a3:8, b2d2:12, g4:6}
        assert extract_avc(quad_subdivide("cube")) == {
            sig("a3"): 8, sig("b2d2"): 12, sig("g4"): 6}

    def test_pq16(self):
        # [PAPER] {ab2:8, a2d2:4, g4:4, d4:2}
        assert extract_avc(pq_earth_map(16)) == {
            sig("ab2"): 8, sig("a2d2"): 4, sig("g4"): 4, sig("d4"): 2}


class TestVerify:
    def test_pass(self):
        # [PAPER] (6,4)-earth map tiling of f=24
        report = verify(pq_earth_map(24),
                        [sig("ab2"), sig("a2d2"), sig("g4"), sig("d6")], f=24)
        assert report.passed, report.failures

    def test_avc_mismatch(self):
        # [TRIVIAL] wrong expected AVC fails exactly the AVC check
        report = verify(earth_map(8), [sig("bgd"), sig("a8")], f=8)
        assert not report.passed
        assert any("AVC" in msg for msg in report.failures)

    def test_wrong_f(self):
        # [TRIVIAL]
        report = verify(earth_map(8), [sig("bgd"), sig("a4")], f=10)
        assert not report.passed

    def test_balance(self):
        # [DERIVED] balance identity on the cube subdivision: c-edge
        # endpoints flanked gamma-gamma as often as delta-delta
        n_gg_c, _, n_dd_c, n_bb_b, _, n_gg_b = balance_pair_counts(
            quad_subdivide("cube"))
        assert n_gg_c == n_dd_c
        assert n_bb_b == n_gg_b


class TestSerialization:
    def test_round_trip(self):
        # [TRIVIAL]
        m = pq_earth_map(16)
        m2 = TilingMap.from_json(m.to_json())
        assert m2 == m
        assert m2.to_json() == m.to_json()

    def test_deterministic(self):
        # [TRIVIAL] byte-identical serialization
        assert earth_map(10).to_json() == earth_map(10).to_json()

    @pytest.mark.parametrize("data", [
        [], None, {"f": 2}, {"f": "x", "glue": []}, {"f": 2, "glue": 5},
        {"f": 2, "glue": [[0, "AB", 1]]},
        {**json.loads(two_tile_map().to_json()), "orient": 7},
        *(two_tile_json_with(entry) for entry in BAD_GLUE_ENTRIES),
    ], ids=["list", "null", "no-glue", "str-f", "int-glue", "short-entry",
            "int-orient", *BAD_GLUE_IDS])
    def test_malformed(self, data):
        # [TRIVIAL] a malformed layout is a TilingError, not a KeyError or
        # TypeError from unpacking it
        with pytest.raises(TilingError):
            TilingMap.from_json(json.dumps(data))

    @pytest.mark.parametrize("entry", BAD_GLUE_ENTRIES, ids=BAD_GLUE_IDS)
    def test_bad_glue_entry_named(self, entry):
        # [TRIVIAL] a tile index that is not an int, or a slot that is not
        # 0-3 or a slot name, is reported as such; an out-of-range int slot
        # is not read as a slot of the next tile
        with pytest.raises(TilingError, match="bad glue entry"):
            TilingMap.from_json(json.dumps(two_tile_json_with(entry)))


class TestIsomorphism:
    def test_self(self):
        # [TRIVIAL]
        m = earth_map(8)
        assert m.is_isomorphic(m)

    def test_cube_vs_octahedron(self):
        # [PAPER] cube and octahedron subdivisions give the same map
        assert quad_subdivide("cube").is_isomorphic(
            quad_subdivide("octahedron"))

    def test_distinct(self):
        # [DERIVED] prism subdivision differs from the cube subdivision
        assert not quad_subdivide("cube").is_isomorphic(
            quad_subdivide("triangular_prism"))
