"""Constructors: earth map families, subdivisions, flips, derived families."""

import hashlib
import random

import pytest

from quadtile.angles import VertexSignature
from quadtile.constructors import (
    DomainError,
    FlipInvalidError,
    TimeZoneDisk,
    _matched_zones,
    decompose_time_zones,
    earth_map,
    family_alphadelta,
    family_beta2delta,
    flip_segment,
    pq_earth_map,
    quad_subdivide,
)
from quadtile.tilingmap import TilingMap, extract_avc, verify


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def sig(text: str) -> VertexSignature:
    return VertexSignature.parse(text)


class TestEarthMap:
    @pytest.mark.parametrize("f", [6, 8, 10, 12, 50])
    def test_verify(self, f):
        # [PAPER] AVC == {bgd x f, alpha^{f/2} x 2}
        m = earth_map(f)
        expected = {sig("bgd"): f, VertexSignature(f // 2, 0, 0, 0): 2}
        report = verify(m, expected, f=f)
        assert report.passed, report.failures

    def test_f6_is_cube_combinatorially(self):
        # [PAPER] f=6 tiling: all vertices degree 3, v=8
        m = earth_map(6)
        assert m.vertex_count == 8
        assert all(v.degree == 3 for v in m.vertices)

    def test_domain(self):
        # [TRIVIAL]
        for bad in (4, 7, 0):
            with pytest.raises(DomainError):
                earth_map(bad)


class TestPQEarthMap:
    @pytest.mark.parametrize("f,polar", [(16, "d4"), (24, "d6"), (32, "d8")])
    def test_verify(self, f, polar):
        # [PAPER] AVC == {ab2 x f/2, a2d2 x f/4, g4 x f/4, delta^{f/4} x 2}
        m = pq_earth_map(f)
        expected = {sig("ab2"): f // 2, sig("a2d2"): f // 4,
                    sig("g4"): f // 4, sig(polar): 2}
        report = verify(m, expected, f=f)
        assert report.passed, report.failures

    def test_zones(self):
        # [PAPER] composed of f/8 eight-tile zones
        zones = decompose_time_zones(pq_earth_map(24))
        assert len(zones) == 3
        assert all(len(z.tiles) == 8 for z in zones)
        assert not any(z.flipped for z in zones)

    def test_domain(self):
        # [TRIVIAL]
        for bad in (8, 12, 20):
            with pytest.raises(DomainError):
                pq_earth_map(bad)


class TestSubdivisions:
    def test_cube(self):
        # [PAPER] {a3:8, b2d2:12, g4:6}
        report = verify(quad_subdivide("cube"),
                        {sig("a3"): 8, sig("b2d2"): 12, sig("g4"): 6}, f=24)
        assert report.passed, report.failures

    def test_octahedron(self):
        # [PAPER] isomorphic to the cube subdivision
        report = verify(quad_subdivide("octahedron"),
                        {sig("a3"): 8, sig("b2d2"): 12, sig("g4"): 6}, f=24)
        assert report.passed, report.failures

    def test_prism(self):
        # [PAPER] AVC == {a3, ab2, a2d2, b2d2, g4}
        m = quad_subdivide("triangular_prism")
        report = verify(
            m, [sig("a3"), sig("ab2"), sig("a2d2"), sig("b2d2"), sig("g4")],
            f=24)
        assert report.passed, report.failures

    def test_unknown_base(self):
        # [TRIVIAL]
        with pytest.raises(DomainError):
            quad_subdivide("dodecahedron")


class TestFlip:
    def test_whole_zone_flip_avc(self):
        # [PAPER] one flipped zone of the f=24 pq map gives
        # {ab2, a2d2, g4, ad4}
        m = flip_segment(pq_earth_map(24), 0, 1)
        assert set(extract_avc(m)) == {
            sig("ab2"), sig("a2d2"), sig("g4"), sig("ad4")}

    def test_involution(self):
        # [DERIVED] flipping the same segment twice returns the original map
        base = pq_earth_map(24)
        m = flip_segment(base, 1, 1)
        assert not m.is_isomorphic(base)
        again = flip_segment(m, 1, 1)
        assert again.is_isomorphic(base)

    def test_involution_random(self):
        # [DERIVED] 10 random admissible segments, flip twice = identity
        rng = random.Random(7)
        cases = []
        for f in (24, 40):
            k = f // 8
            cases += [(f, s, c, False)
                      for s in range(k) for c in range(1, k)]
            cases += [(f, s, c, True)
                      for s in range(2 * k) for c in range(1, 2 * k, 2)]
        for f, start, count, half in rng.sample(cases, 20):
            base = pq_earth_map(f)
            try:
                m = flip_segment(base, start, count, half_zones=half)
            except FlipInvalidError:
                continue  # inadmissible segment: nothing to check
            again = flip_segment(m, start, count, half_zones=half)
            assert again.is_isomorphic(base), (f, start, count, half)

    def test_earth_map_not_flippable(self):
        # [DERIVED] two-tile zones leave no admissible reflection axis
        with pytest.raises(FlipInvalidError):
            flip_segment(earth_map(10), 0, 2)

    def test_not_decomposable(self):
        # [TRIVIAL] the cube subdivision has no time-zone structure
        with pytest.raises(DomainError):
            decompose_time_zones(quad_subdivide("cube"))


#: map -> sha256 of repr([(tiles, boundary, flipped) per zone]), recorded
#: before decompose_time_zones read the glue table directly
DECOMPOSE_GOLDEN = {
    "pq_earth_map(24)": (
        lambda: pq_earth_map(24),
        "598e6a57127755bb13fd9fde4994717c38c2159a3e6ad6abcc7a51afc49cbe11"),
    "pq_earth_map(40)": (
        lambda: pq_earth_map(40),
        "73abab191e707de9e5b9a62f07f6563491dc41ba67f63fb5cf1ce5f77ded991f"),
    "earth_map(10)": (
        lambda: earth_map(10),
        "75925ce393b26ed08fe285c3ec366d560dbf2bb7d89fb34bb50235434cbad5f4"),
    "family_alphadelta(24)": (
        lambda: family_alphadelta(24),
        "170e15f740d79a94dbddda8ef8771eb51e9d32dd6451cc66db62099c3dc0acb8"),
    "family_alphadelta(40)": (
        lambda: family_alphadelta(40),
        "f8d227e54621bd6d597cf053d95092d47a6b5759cae035ea50abafdb1e9bc8ba"),
    "flip_segment(pq_earth_map(40), 1, 2)": (
        lambda: flip_segment(pq_earth_map(40), 1, 2),
        "4429ce365fc8a35f5c6a859e9c6443b78a05f6672ffcb8476d42a2b45e992009"),
}


class TestGoldenDecompose:
    @pytest.mark.parametrize("name", list(DECOMPOSE_GOLDEN))
    def test_zones(self, name):
        # [DERIVED] member tiles, boundary walk and flipped flag of every
        # zone, on unflipped and flipped maps
        make, want = DECOMPOSE_GOLDEN[name]
        zones = [(z.tiles, z.boundary, z.flipped)
                 for z in decompose_time_zones(make())]
        assert hashlib.sha256(repr(zones).encode()).hexdigest() == want

    @pytest.mark.parametrize("make,arg", [(family_beta2delta, 24),
                                          (quad_subdivide, "cube")])
    def test_not_decomposable(self, make, arg):
        # [DERIVED] a half-zone flip breaks the zone pattern; the cube
        # subdivision never had one
        with pytest.raises(DomainError):
            decompose_time_zones(make(arg))

    def test_boundary_word_read_once_per_zone(self, monkeypatch):
        # [TRIVIAL] matching the zones builds each boundary word once, not
        # once per rotation
        reads = []
        word = TimeZoneDisk.boundary_word.fget
        monkeypatch.setattr(TimeZoneDisk, "boundary_word", property(
            lambda z: reads.append(z) or word(z)))
        zones = decompose_time_zones(pq_earth_map(40))
        assert sorted(map(id, reads)) == sorted(map(id, zones))

    def test_mismatched_words(self):
        # [TRIVIAL] rotations of "ab" never equal "aa"
        zones = [TimeZoneDisk((0,), ((0, "AB"), (0, "BC")), False),
                 TimeZoneDisk((1,), ((1, "AB"), (1, "AB")), False)]
        with pytest.raises(DomainError) as e:
            _matched_zones(zones)
        assert str(e.value) == "zone boundary words differ: ['aa', 'ab']"


#: sha256 of repr([(map, [(half_zones, start, count, outcome), ...])]) for
#: the maps below, every start and count up to the zone count, whole and
#: half zones; outcome is the sha256 of repr(canonical_form()) of the
#: flipped map, or the error's type name and text.  Recorded before the
#: flip compared AVCs ahead of canonical forms.
FLIP_SWEEP = {
    "pq24": lambda: pq_earth_map(24),
    "pq40": lambda: pq_earth_map(40),
    "pq56": lambda: pq_earth_map(56),
    "em12": lambda: earth_map(12),
    "ad40": lambda: family_alphadelta(40),
}
FLIP_SWEEP_GOLDEN = (
    585, "ab451f1b3023c0eee512db6a2a6f4cc92340565401210729f164e75830abc4f1")


@pytest.fixture(scope="module")
def flip_sweep():
    """The flip sweep, run once: per map, ((half_zones, start, count,
    outcome), input_forms) for every call, where input_forms counts the
    call's computations of the input map's canonical form."""
    calls, runs = [], []
    form = TilingMap.canonical_form
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TilingMap, "canonical_form",
                   lambda self: calls.append(self) or form(self))
        for name, make in FLIP_SWEEP.items():
            m, out = make(), []
            for half in (False, True):
                k = m.f // 4 if half else m.f // (8 if m.f % 8 == 0 else 2)
                for start in range(k):
                    for count in range(1, k + 1):
                        calls.clear()
                        try:
                            flipped = flip_segment(m, start, count,
                                                   half_zones=half)
                        except (FlipInvalidError, DomainError) as e:
                            res = (type(e).__name__, str(e))
                        else:
                            res = _digest(form(flipped))
                        out.append(((half, start, count, res),
                                    sum(c is m for c in calls)))
            runs.append((name, out))
    return runs


class TestGoldenFlipSweep:
    def test_outcomes(self, flip_sweep):
        # [DERIVED] every flip and every refusal, with its message
        runs = [(name, [row for row, _ in out]) for name, out in flip_sweep]
        n = sum(len(out) for _, out in runs)
        assert (n, _digest(runs)) == FLIP_SWEEP_GOLDEN


class TestFlipCanonicalForms:
    def test_input_form_computed_once(self, flip_sweep):
        # [TRIVIAL] a flip computes the input's canonical form at most once,
        # however many axis offsets pass the AVC test
        assert all(forms <= 1 for _, out in flip_sweep for _, forms in out)


class TestFamilies:
    @pytest.mark.parametrize("f", [24, 40])
    def test_alphadelta(self, f):
        # [PAPER] AVC == {ab2, a2d2, g4, alpha delta^{(f+8)/8}}
        m = family_alphadelta(f)
        expected = {
            sig("ab2"): f // 2,
            sig("a2d2"): (f - 8) // 4,
            sig("g4"): f // 4,
            VertexSignature(1, 0, 0, (f + 8) // 8): 4,
        }
        report = verify(m, expected, f=f)
        assert report.passed, report.failures

    @pytest.mark.parametrize("f", [24, 40])
    def test_beta2delta(self, f):
        # [PAPER] AVC == {ab2, a2d2, g4, beta^2 delta^{(f-8)/8},
        # alpha delta^{(f+8)/8}}
        m = family_beta2delta(f)
        expected = {
            sig("ab2"): (f - 4) // 2,
            sig("a2d2"): f // 4,
            VertexSignature(0, 2, 0, (f - 8) // 8): 2,
            sig("g4"): f // 4,
            VertexSignature(1, 0, 0, (f + 8) // 8): 2,
        }
        report = verify(m, expected, f=f)
        assert report.passed, report.failures

    def test_domain(self):
        # [DERIVED] the derived families need f = 8 mod 16 (beta^2 delta^d
        # fails the parity rule at f = 32, for instance)
        for bad in (16, 32, 48):
            with pytest.raises(DomainError):
                family_alphadelta(bad)
            with pytest.raises(DomainError):
                family_beta2delta(bad)

    def test_families_distinct(self):
        # [DERIVED] the three f=24 earth-map-like tilings are pairwise
        # non-isomorphic
        maps = [pq_earth_map(24), family_alphadelta(24), family_beta2delta(24)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not maps[i].is_isomorphic(maps[j])
