"""Combinatorial map structure, validation, serialization, verification."""

import hashlib
import json
from collections import Counter

import pytest

import quadtile
from quadtile.angles import VertexSignature
from quadtile.constructors import (
    earth_map,
    pq_earth_map,
    quad_subdivide,
)
from quadtile.tilingmap import (
    DisconnectedError,
    EulerError,
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


#: the two-tile map's glue entries
TWO_TILE_PAIRS = [((0, "AB"), (1, "AB")), ((0, "BC"), (1, "BC")),
                  ((0, "CD"), (1, "CD")), ((0, "DA"), (1, "DA"))]


def two_tile_map() -> TilingMap:
    # [TRIVIAL] the smallest legal gluing: two tiles, matching labels
    return build(2, TWO_TILE_PAIRS, orient=[0, 1])


#: glue entries with a slot out of 0-3 (on f = 2, [0, 4, 0, 0] would read
#: as tile 1 AB glued to tile 0 AB, the entry it replaces), a non-int
#: tile index or slot, or an unknown slot name
BAD_GLUE_ENTRIES = [[0, 5, 0, 4], [0, 4, 0, 0], [0.0, "AB", 1, "AB"],
                    [True, "AB", 1, "AB"], [0, "AB", 1, 0.0],
                    [0, "XY", 1, "AB"]]
BAD_GLUE_IDS = ["slot-5", "slot-4", "float-tile", "bool-tile", "float-slot",
                "name-XY"]

#: orientation lists of earth_map(6) (all 0) that are not one int 0/1 per
#: tile; read as truth values, each but the short one gave a valid map (all
#: mirrored or all ccw)
BAD_ORIENTS = [["0"] * 6, [], [None] * 6, [2] * 6, [True] * 6, [0] * 5]
BAD_ORIENT_IDS = ["str-bits", "empty-bits", "null-bits", "bit-2",
                  "bool-bits", "short-bits"]


#: one malformed input per check of ``build``, in the order build makes
#: them, each also failing a later check where one can be added; the class
#: and message are those build raised before its dart tables
BUILD_ERRORS = [
    pytest.param(-1, [], None, TilingError,
                 "tile count must be positive, got -1", id="f-below-1"),
    pytest.param(3, [], [0, 0], EulerError,
                 "f must be even (f = 2 e_b forces it), got 3", id="odd-f"),
    pytest.param(2, [((0, "XY"), (1, "AB"))], [2], TilingError,
                 "orientation bits must cover every tile", id="orient-length"),
    pytest.param(2, [((0, "XY"), (1, "AB"))], [0, 2], TilingError,
                 "orientation bit of tile 1 must be 0 or 1, got 2",
                 id="orient-bit"),
    pytest.param(2, [((5, "AB"), (0, "XY"))] + TWO_TILE_PAIRS[1:], [0, 1],
                 TilingError, "bad glue entry: tile 0, slot 'XY'",
                 id="bad-glue-entry"),
    # the second slot alone out of range, and an a-slot glued to a b-slot
    pytest.param(2, [((0, "AB"), (2, "BC"))], [0, 1], TilingError,
                 "slot out of range: 9", id="slot-out-of-range"),
    # both out of range: the first is named
    pytest.param(2, [((-1, "AB"), (2, "AB"))], [0, 1], TilingError,
                 "slot out of range: -4", id="slots-out-of-range"),
    pytest.param(2, [((0, "AB"), (1, "AB")), ((0, "AB"), (0, "AB"))],
                 [0, 1], InvolutionError,
                 "slot glued to itself: tile 0 slot AB", id="self-glue"),
    # both slots of the entry glued before: the first is named (in
    # test_not_involution only the second was)
    pytest.param(2, [((0, "AB"), (1, "AB")), ((0, "DA"), (1, "DA")),
                     ((0, "AB"), (1, "DA"))], [0, 1], InvolutionError,
                 "slot glued twice: tile 0 slot AB", id="glued-twice"),
    pytest.param(2, [((0, "AB"), (1, "BC"))], [0, 1], LabelMismatchError,
                 "edge label mismatch: tile 0 slot AB (a) glued to tile 1 "
                 "slot BC (b)", id="label-mismatch"),
    pytest.param(4, TWO_TILE_PAIRS, [0, 1, 0, 1], InvolutionError,
                 "unglued slots: ['tile 2 slot AB', 'tile 2 slot BC', "
                 "'tile 2 slot CD', 'tile 2 slot DA', 'tile 3 slot AB', "
                 "'tile 3 slot BC', 'tile 3 slot CD', 'tile 3 slot DA']",
                 id="unglued"),
    # two tori: disconnected, and v - e + f = 0
    pytest.param(4, [((b, s), (b + 1, s)) for b in (0, 2)
                     for s in ("AB", "BC", "CD", "DA")], [0] * 4,
                 DisconnectedError, "map is disconnected: reached 2 of 4 "
                 "tiles", id="disconnected"),
    pytest.param(2, [((0, s), (1, s)) for s in ("AB", "BC", "CD", "DA")],
                 [0, 0], EulerError,
                 "Euler characteristic v - e + f = 0, expected 2", id="euler"),
]


def reversed_tiles(m: TilingMap) -> TilingMap:
    """The map rebuilt from its JSON with tile t renamed f - 1 - t and the
    glue entries and the two ends of each entry reversed."""
    data = json.loads(m.to_json())
    glue = [[m.f - 1 - t2, s2, m.f - 1 - t1, s1]
            for t1, s1, t2, s2 in reversed(data["glue"])]
    return TilingMap.from_json(json.dumps(
        {"f": m.f, "glue": glue, "orient": data["orient"][::-1]}))


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
        # [TRIVIAL] a slot used twice; the entry that reuses it also glues
        # a b-slot to an a-slot, but the reuse is found first
        pairs = [((0, "AB"), (1, "AB")), ((0, "BC"), (1, "AB")),
                 ((0, "CD"), (1, "CD")), ((0, "DA"), (1, "DA"))]
        with pytest.raises(InvolutionError) as info:
            build(2, pairs, orient=[0, 1])
        assert str(info.value) == "slot glued twice: tile 1 slot AB"

    @pytest.mark.parametrize("f,pairs,orient,error,message", BUILD_ERRORS)
    def test_error_order(self, f, pairs, orient, error, message):
        # [TRIVIAL] each input also breaks the checks after its own, so the
        # error raised pins both the check's message and its place
        with pytest.raises(TilingError) as info:
            build(f, pairs, orient=orient)
        assert type(info.value) is error
        assert str(info.value) == message

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

    def test_torus(self):
        # [DERIVED] two ccw tiles glued slot to same slot close up into a
        # torus: v = 2, e = 4, f = 2
        pairs = [((0, s), (1, s)) for s in ("AB", "BC", "CD", "DA")]
        with pytest.raises(EulerError, match=r"v - e \+ f = 0, expected 2"):
            build(2, pairs, orient=[0, 0])


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
        # [TRIVIAL] vertex orbits partition all 4f darts; vertex_of names
        # each dart's cycle, a dart's corner is its slot shifted by the
        # tile's orientation bit, and each dart is followed by
        # face_next(glue[dart]); also after a relabelled from_json round trip
        for base in (earth_map(12), pq_earth_map(16)):
            for m in (base, reversed_tiles(base)):
                seen = [s for v in m.vertices for s in v.darts]
                assert sorted(seen) == list(range(4 * m.f))
                for i, v in enumerate(m.vertices):
                    assert {m.vertex_of[s] for s in v.darts} == {i}
                    assert v.corners == tuple(
                        (s % 4 + m.orient[s // 4]) % 4 for s in v.darts)
                    assert v.darts[1:] + v.darts[:1] == tuple(
                        m.face_next(m.glue[s]) for s in v.darts)


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


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def cycles(m: TilingMap) -> list[tuple[tuple[int, int], ...]]:
    """Each vertex cycle as its (tile, corner index) sequence."""
    return [tuple(zip([s // 4 for s in v.darts], v.corners))
            for v in m.vertices]


#: (constructor, argument) -> balance_pair_counts and the digest of the
#: vertex cycles in vertex order, recorded on the vertex cycles' earlier
#: (tile, corner letter) form
VERTEX_GOLDEN = {
    ("pq_earth_map", 64): ((32, 0, 32, 32, 0, 32),
        "b3c688ae070e59889e226db5a450cffaca44a41c1f43204db87e9a41faf9a225"),
    ("pq_earth_map", 256): ((128, 0, 128, 128, 0, 128),
        "497c77630f07157e1b8f9b7e96686ccd901a26b54dffbedd02f11ee40461eff4"),
    ("earth_map", 128): ((0, 128, 0, 0, 128, 0),
        "986c50f98ddf2ac6dbcc71087cb2a91a35a77b8661bc76568d170ae6abe3c2bc"),
    ("earth_map", 256): ((0, 256, 0, 0, 256, 0),
        "031abe51be2fa26af80b7e4531dbf952d4c2c7b87301ff283cdf1d72060ca27d"),
    ("quad_subdivide", "cube"): ((12, 0, 12, 12, 0, 12),
        "ddf3f69e1ddb1696facb9f64576dd78a4bceb0b75bf15dda12010e68ac121d8c"),
    ("quad_subdivide", "octahedron"): ((12, 0, 12, 12, 0, 12),
        "ddf3f69e1ddb1696facb9f64576dd78a4bceb0b75bf15dda12010e68ac121d8c"),
    ("quad_subdivide", "triangular_prism"): ((12, 0, 12, 12, 0, 12),
        "cd5af01dd017911c3a0e19f4029e80ca0a31e5f3031928469997c3f2c97601ae"),
    ("family_alphadelta", 56): ((28, 0, 28, 28, 0, 28),
        "7d5cb7df06fe6e5786361acb9e3d61065237e13c3fbdaa07a4fdfe08b9032395"),
    ("family_alphadelta", 120): ((60, 0, 60, 60, 0, 60),
        "9614c858d131da5cbd1ba54f9705fe0a060fa325a7a7268fad42c1285583819a"),
    ("family_beta2delta", 56): ((28, 0, 28, 28, 0, 28),
        "0ff8f1b2cb0b4b26f9b57ce7fdc0eb69f898e66a278bf6e7f35494f39d572115"),
    ("family_beta2delta", 120): ((60, 0, 60, 60, 0, 60),
        "7341b22663f09ff289c08c16c55f25e0febb8e66f021bf6800bf08ae9cae2f84"),
    ("pq_earth_map", 16): ((8, 0, 8, 8, 0, 8),
        "74de072ec9c467670fc1376a5f76cdf69f59a03d4160801e9f5f64103b5b2aec"),
    ("earth_map", 8): ((0, 8, 0, 0, 8, 0),
        "5ba33494d16c8fbca139e2aca248b2a68a657461635f1849e320b4d1251697e2"),
    ("family_alphadelta", 24): ((12, 0, 12, 12, 0, 12),
        "22cd3abfa7e00829fc7bb76daa2d16e2571eb86361e8fe73205e078d7970316e"),
    ("family_beta2delta", 24): ((12, 0, 12, 12, 0, 12),
        "1f89954404dd302274418aa65b24ec3d05326f8a99dfaa9fdc03696cd11fa9ea"),
}

#: digest of (half_zones, start, count, balance_pair_counts) over every
#: admissible flip_segment output of pq_earth_map(24), 33 maps
FLIP_BALANCE_GOLDEN = (
    "5ed03f432efde3fd335669d4f5f6187a2ff9f7ce98ce42a29b9d9521e3fdea59")


class TestGoldenVertexTable:
    @pytest.mark.parametrize("name,arg", list(VERTEX_GOLDEN))
    def test_cycles_and_balance(self, name, arg):
        # [DERIVED] the exact pair counts, not only gg = dd and bb = gg,
        # and every vertex cycle in vertex order
        m = getattr(quadtile, name)(arg)
        counts, digest = VERTEX_GOLDEN[name, arg]
        assert balance_pair_counts(m) == counts
        assert _digest(cycles(m)) == digest

    def test_flip_balance(self, flip_outputs):
        # [DERIVED] the flip modifications of pq_earth_map(24)
        lines = [(half, start, count, balance_pair_counts(flipped))
                 for half, start, count, flipped in flip_outputs[24]]
        assert len(lines) == 33
        assert _digest(lines) == FLIP_BALANCE_GOLDEN


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
        *({**json.loads(earth_map(6).to_json()), "orient": bits}
          for bits in BAD_ORIENTS),
        *(two_tile_json_with(entry) for entry in BAD_GLUE_ENTRIES),
        "[" * 100000,
    ], ids=["list", "null", "no-glue", "str-f", "int-glue", "short-entry",
            "int-orient", *BAD_ORIENT_IDS, *BAD_GLUE_IDS, "deep-nesting"])
    def test_malformed(self, data):
        # [TRIVIAL] a malformed layout is a TilingError, not a KeyError or
        # TypeError from unpacking it; an orientation bit is the int 0 or 1
        # and every tile has one ("0" is not read as mirrored, nor [] as
        # all ccw); a str is raw text, here JSON nested too deeply for
        # json.loads, which is a TilingError, not a RecursionError
        with pytest.raises(TilingError):
            TilingMap.from_json(
                data if isinstance(data, str) else json.dumps(data))

    @pytest.mark.parametrize("data", [
        {"f": True, "glue": [[0, "AB", 0, "DA"], [0, "BC", 0, "CD"]]},
        {"f": False, "glue": []},
    ], ids=["true", "false"])
    def test_bool_f(self, data):
        # [TRIVIAL] a JSON boolean is not a tile count, although bool is a
        # subclass of int: it is refused as such, not later as an odd or
        # non-positive f
        with pytest.raises(TilingError,
                           match=f"'f' must be an integer, got {data['f']}"):
            TilingMap.from_json(json.dumps(data))

    def test_glue_count_checked_first(self):
        # [TRIVIAL] a file claiming a million tiles with no glue is refused
        # on its glue count, naming both counts, before build allocates its
        # table of 4f slots
        with pytest.raises(TilingError, match=r"2000000 glue entries.*got 0"):
            TilingMap.from_json(json.dumps({"f": 10**6, "glue": []}))

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

    def test_octahedron_is_cube(self):
        # [DERIVED] octahedron is an alias of cube: the same map, tile for
        # tile, and the same serialisation
        cube, octahedron = quad_subdivide("cube"), quad_subdivide("octahedron")
        assert octahedron == cube
        assert octahedron.to_json() == cube.to_json()

    def test_distinct(self):
        # [DERIVED] prism subdivision differs from the cube subdivision
        assert not quad_subdivide("cube").is_isomorphic(
            quad_subdivide("triangular_prism"))
