"""Acceptance gate: one class per deliverable criterion, each checked at its
stated tolerance.  Combinatorial criteria are exact; numeric criteria use
1e-12 for closed forms, 1e-9 for residuals, and 1e-6 for realization.
"""

import math
import random
import warnings
from fractions import Fraction

import pytest

from quadtile.angles import AngleExpr, VertexSignature, solve_angle_system
from quadtile.combinatorics import degree_vertex_catalog, search_avcs
from quadtile.constructors import (
    FlipInvalidError,
    earth_map,
    family_alphadelta,
    family_beta2delta,
    flip_segment,
    pq_earth_map,
    quad_subdivide,
)
from quadtile.geometry import (
    DegeneracyWarning,
    area,
    closed_form_cube_subdivision,
    closed_form_family,
    degeneracy_loci,
    holonomy_residual,
    lune_quad,
    realize,
    trig_residuals,
)
from quadtile.symmetry import classify
from quadtile.tilingmap import verify

S5 = math.sqrt(5.0)


def sig(text: str) -> VertexSignature:
    return VertexSignature.parse(text)


def sigs(*texts: str) -> set[VertexSignature]:
    return {sig(t) for t in texts}


class TestC1VertexCatalogs:
    """Criterion 1: the degree-3/4/5 vertex catalogs, exactly (4/9/11)."""

    def test_degree_3(self):
        # [PAPER]
        assert set(degree_vertex_catalog(3)) == sigs("a3", "ab2", "ad2", "bgd")

    def test_degree_4(self):
        # [PAPER]
        assert set(degree_vertex_catalog(4)) == sigs(
            "a4", "b4", "g4", "d4", "a2b2", "a2d2", "b2g2", "b2d2", "g2d2")

    def test_degree_5(self):
        # [PAPER]
        assert set(degree_vertex_catalog(5)) == sigs(
            "a5", "ab4", "ad4", "a3b2", "a3d2", "b3gd", "bg3d", "bgd3",
            "ab2g2", "ab2d2", "ag2d2")

    def test_sizes(self):
        # [PAPER]
        assert [len(degree_vertex_catalog(k)) for k in (3, 4, 5)] == [4, 9, 11]


class TestC2ConstructedTilingsVerify:
    """Criterion 2: every constructor output passes the structural verifier
    against its documented AVC, with zero tolerance."""

    @pytest.mark.parametrize("f", [6, 8, 10, 12, 50])
    def test_earth_map(self, f):
        # [PAPER] {bgd x f, alpha^{f/2} x 2}
        expected = {sig("bgd"): f, VertexSignature(f // 2, 0, 0, 0): 2}
        report = verify(earth_map(f), expected, f=f)
        assert report.passed, report.failures

    @pytest.mark.parametrize("f", [16, 24, 32])
    def test_pq_earth_map(self, f):
        # [PAPER] {ab2 x f/2, a2d2 x f/4, g4 x f/4, delta^{f/4} x 2}
        expected = {sig("ab2"): f // 2, sig("a2d2"): f // 4,
                    sig("g4"): f // 4, VertexSignature(0, 0, 0, f // 4): 2}
        report = verify(pq_earth_map(f), expected, f=f)
        assert report.passed, report.failures

    @pytest.mark.parametrize("base,avc", [
        ("cube", {"a3": 8, "b2d2": 12, "g4": 6}),
        ("octahedron", {"a3": 8, "b2d2": 12, "g4": 6}),
    ])
    def test_subdivisions(self, base, avc):
        # [PAPER]
        expected = {sig(k): n for k, n in avc.items()}
        report = verify(quad_subdivide(base), expected, f=24)
        assert report.passed, report.failures

    def test_prism_subdivision(self):
        # [PAPER] support {a3, ab2, a2d2, b2d2, g4}
        report = verify(
            quad_subdivide("triangular_prism"),
            [sig("a3"), sig("ab2"), sig("a2d2"), sig("b2d2"), sig("g4")],
            f=24)
        assert report.passed, report.failures

    @pytest.mark.parametrize("f", [24, 40])
    def test_family_alphadelta(self, f):
        # [PAPER] {ab2 x f/2, a2d2 x (f-8)/4, g4 x f/4, ad^{(f+8)/8} x 4}
        expected = {
            sig("ab2"): f // 2,
            sig("a2d2"): (f - 8) // 4,
            sig("g4"): f // 4,
            VertexSignature(1, 0, 0, (f + 8) // 8): 4,
        }
        report = verify(family_alphadelta(f), expected, f=f)
        assert report.passed, report.failures

    @pytest.mark.parametrize("f", [24, 40])
    def test_family_beta2delta(self, f):
        # [PAPER] {ab2 x (f-4)/2, a2d2 x f/4, b2d^{(f-8)/8} x 2, g4 x f/4,
        # ad^{(f+8)/8} x 2}
        expected = {
            sig("ab2"): (f - 4) // 2,
            sig("a2d2"): f // 4,
            VertexSignature(0, 2, 0, (f - 8) // 8): 2,
            sig("g4"): f // 4,
            VertexSignature(1, 0, 0, (f + 8) // 8): 2,
        }
        report = verify(family_beta2delta(f), expected, f=f)
        assert report.passed, report.failures


class TestC3AngleFamilies:
    """Criterion 3: the five solved angle families, as exact rationals."""

    @staticmethod
    def pi(c) -> AngleExpr:
        return AngleExpr.pi(Fraction(c))

    @staticmethod
    def pif(c) -> AngleExpr:
        return AngleExpr.pi_over_f(Fraction(c))

    def test_pq_family(self):
        # [PAPER] {ab2, a2d2, g4}: alpha = pi - 8pi/f, beta = pi/2 + 4pi/f,
        # gamma = pi/2, delta = 8pi/f
        sol = solve_angle_system(
            [sig("ab2"), sig("a2d2"), sig("g4")], include_quad_sum=True)
        assert sol.kind == "unique"
        assert sol.assignment["alpha"] == self.pi(1) + self.pif(-8)
        assert sol.assignment["beta"] == self.pi(Fraction(1, 2)) + self.pif(4)
        assert sol.assignment["gamma"] == self.pi(Fraction(1, 2))
        assert sol.assignment["delta"] == self.pif(8)

    def test_bgd_family(self):
        # [PAPER] {bgd}: alpha = 4pi/f with two free angles
        sol = solve_angle_system([sig("bgd")], include_quad_sum=True)
        assert sol.kind == "parametric"
        assert sol.relations["alpha"] == (self.pif(4), {})
        assert len(sol.free) == 2

    def test_pq_with_d4_pins_f16(self):
        # [PAPER] adding the polar delta^4 to the pq family pins f = 16
        sol = solve_angle_system(
            [sig("ab2"), sig("a2d2"), sig("g4"), sig("d4")],
            include_quad_sum=True)
        assert sol.kind == "unique"
        assert sol.pinned_f == 16
        assert sol.assignment["delta"] == self.pi(Fraction(1, 2))

    def test_cube_family_pins_f24(self):
        # [PAPER] {a3, g4, b2d2} pins f = 24 with delta = pi - beta free
        sol = solve_angle_system(
            [sig("a3"), sig("g4"), sig("b2d2")], include_quad_sum=True)
        assert sol.pinned_f == 24
        assert sol.free == ("beta",)
        assert sol.relations["delta"] == (self.pi(1), {"beta": Fraction(-1)})

    def test_prism_avc_unique(self):
        # [PAPER] the prism AVC forces (2pi/3, 2pi/3, pi/2, pi/3) at f = 24
        sol = solve_angle_system(
            [sig("a3"), sig("ab2"), sig("a2d2"), sig("b2d2"), sig("g4")],
            include_quad_sum=True)
        assert sol.kind == "unique"
        assert sol.pinned_f == 24
        assert sol.assignment["alpha"] == self.pi(Fraction(2, 3))
        assert sol.assignment["beta"] == self.pi(Fraction(2, 3))
        assert sol.assignment["gamma"] == self.pi(Fraction(1, 2))
        assert sol.assignment["delta"] == self.pi(Fraction(1, 3))


class TestC4ClosedFormEdges:
    """Criterion 4: closed-form edge lengths at 1e-12, residuals at 1e-9."""

    def test_f24_cosines(self):
        # [PAPER] cos a = sqrt5/3, cos b = (sqrt5+1)/(2 sqrt3),
        # cos c = (sqrt5-1)/(2 sqrt3)
        q = closed_form_family(24)
        assert abs(math.cos(q.a) - S5 / 3) < 1e-12
        assert abs(math.cos(q.b) - (S5 + 1) / (2 * math.sqrt(3))) < 1e-12
        assert abs(math.cos(q.c) - (S5 - 1) / (2 * math.sqrt(3))) < 1e-12

    def test_f16_cosine(self):
        # [PAPER] cos a = (sqrt5-1)/2
        q = closed_form_family(16)
        assert abs(math.cos(q.a) - (S5 - 1) / 2) < 1e-12

    @pytest.mark.parametrize("f", [16, 24, 40])
    def test_residuals(self, f):
        # [DERIVED] holonomy and trig identities below 1e-9
        q = closed_form_family(f)
        assert holonomy_residual(q) < 1e-9
        assert max(abs(r) for r in trig_residuals(q)) < 1e-9

    def test_family_equals_cube_at_24(self):
        # [PAPER] the f=24 family quad is the cube-subdivision quad at
        # delta = pi/3, agreeing to 1e-12
        q1 = closed_form_family(24)
        q2 = closed_form_cube_subdivision(math.pi / 3)
        for name in ("a", "b", "c", "alpha", "beta", "gamma", "delta"):
            assert abs(getattr(q1, name) - getattr(q2, name)) < 1e-12


class TestC5DegeneracyLoci:
    """Criterion 5: degenerate parameter values of both families."""

    def test_loci(self):
        loci = degeneracy_loci()
        # [PAPER] family collisions in f (a=b root is the low-precision
        # rendering of the exact 20/3, hence the 1e-6 relative comparison)
        assert loci["family a=b"] == pytest.approx(6.666661841292876,
                                                   rel=1e-6)
        assert loci["family b=c"] == pytest.approx(10.0, abs=1e-9)
        assert loci["family a=c"] == pytest.approx(13.89229433053042,
                                                   rel=1e-6)
        # [PAPER] cube-subdivision collisions in delta/pi
        assert loci["cube a=b"] == pytest.approx(0.4322221997677038,
                                                 rel=1e-10)
        assert loci["cube a=c"] == pytest.approx(0.5677778002322962,
                                                 rel=1e-10)


class TestC6Realization:
    """Criterion 6: numeric realization closes up below 1e-6 and covers the
    sphere (area sum 4pi)."""

    @pytest.mark.parametrize("f", [16, 24])
    def test_pq_family(self, f):
        real = realize(pq_earth_map(f), closed_form_family(f))
        assert real.max_mismatch < 1e-6
        assert abs(real.area_sum - 4 * math.pi) < 1e-6

    @pytest.mark.parametrize("base", ["cube", "triangular_prism"])
    def test_subdivisions(self, base):
        q = closed_form_cube_subdivision(math.pi / 3)
        real = realize(quad_subdivide(base), q)
        assert real.max_mismatch < 1e-6
        assert abs(real.area_sum - 4 * math.pi) < 1e-6


class TestC7Symmetry:
    """Criterion 7: symmetry groups of the classified tilings."""

    @pytest.mark.parametrize("f", [8, 12, 50])
    def test_earth_map(self, f):
        # [PAPER] D_{f/2}, order f
        sc = classify(earth_map(f))
        assert (sc.name, sc.order) == (f"D_{f // 2}", f)

    def test_pq16(self):
        # [PAPER] D_2d (printed D_{2v}), order 8
        sc = classify(pq_earth_map(16))
        assert (sc.name, sc.order, sc.paper_label) == ("D_2d", 8, "D_{2v}")
        assert sc.mirror_count > 0 and not sc.has_horizontal_mirror

    def test_pq24(self):
        # [DERIVED] D_3d (printed D_{3v}), order 12
        sc = classify(pq_earth_map(24))
        assert (sc.name, sc.order, sc.paper_label) == ("D_3d", 12, "D_{3v}")

    def test_cube(self):
        # [PAPER] T_h, order 24
        sc = classify(quad_subdivide("cube"))
        assert (sc.name, sc.order) == ("T_h", 24)

    def test_prism(self):
        # [PAPER] D_3, order 6
        sc = classify(quad_subdivide("triangular_prism"))
        assert (sc.name, sc.order) == ("D_3", 6)

    def test_alphadelta(self):
        # [PAPER] D_2, order 4
        sc = classify(family_alphadelta(24))
        assert (sc.name, sc.order) == ("D_2", 4)

    def test_beta2delta(self):
        # [PAPER] C_2, order 2
        sc = classify(family_beta2delta(24))
        assert (sc.name, sc.order) == ("C_2", 2)


class TestC8AVCSearch:
    """Criterion 8: the feasibility search recovers the published AVCs."""

    def test_f6(self):
        # [PAPER] {a3, bgd} at f = 6
        supports = [set(c.signatures) for c in search_avcs(6)]
        assert sigs("a3", "bgd") in supports

    def test_f16(self):
        # [PAPER] {ab2, a2d2, g4, d4} at f = 16
        supports = [set(c.signatures) for c in search_avcs(16, max_degree=6)]
        assert sigs("ab2", "a2d2", "g4", "d4") in supports

    def test_f16_unrealizable_flagged(self):
        # [PAPER] {ab2, g2d2} combinations are angle-feasible but tile
        # nothing; they must carry the flag
        flagged = [c for c in search_avcs(16, max_degree=6)
                   if sigs("ab2", "g2d2") <= set(c.signatures)]
        assert flagged and all(c.known_unrealizable for c in flagged)

    def test_f24_contains_published_avcs(self, search24):
        # [PAPER] all four published f = 24 supports appear
        supports = [set(c.signatures) for c in search24]
        assert sigs("ab2", "a2d2", "g4", "d6") in supports
        assert sigs("a3", "b2d2", "g4") in supports
        assert sigs("a3", "ab2", "a2d2", "b2d2", "g4") in supports
        assert sigs("ab2", "a2d2", "g4", "ad4") in supports

    def test_f24_multiplicities(self, search24):
        # [PAPER] the subdivision AVC has counts {a3: 8, b2d2: 12, g4: 6}
        for c in search24:
            if set(c.signatures) == sigs("a3", "b2d2", "g4"):
                counts = dict(zip(c.signatures, c.multiplicities))
                assert counts == {sig("a3"): 8, sig("b2d2"): 12,
                                  sig("g4"): 6}
                break
        else:
            pytest.fail("subdivision AVC missing")


class TestC9PropertySuites:
    """Criterion 9: randomized cross-checks of the three core predicates."""

    def test_parity_bulk(self):
        # [DERIVED] 1000 fixed-seed signatures against an independent
        # restatement of the possible-vertex rules
        from test_combinatorics import oracle_admissible
        from quadtile.combinatorics import parity_admissible
        rng = random.Random(99)
        for _ in range(1000):
            v = VertexSignature(*(rng.randrange(0, 16) for _ in range(4)))
            assert parity_admissible(v) == oracle_admissible(v)

    def test_lune_area_bulk(self):
        # [PAPER] the lune quadrilateral always has area alpha (1e-9)
        rng = random.Random(4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            for _ in range(100):
                alpha = rng.uniform(0.2, math.pi - 0.2)
                theta = rng.uniform(0.05, alpha - 0.05)
                a = rng.uniform(0.2, math.pi - 0.2)
                q = lune_quad(a, alpha, theta)
                assert abs(area(q) - alpha) < 1e-9

    def test_flip_involution_bulk(self):
        # [DERIVED] flipping the same segment twice restores the tiling,
        # on 10 random admissible segments
        rng = random.Random(11)
        cases = []
        for f in (24, 40):
            k = f // 8
            cases += [(f, s, c, False) for s in range(k) for c in range(1, k)]
            cases += [(f, s, c, True)
                      for s in range(2 * k) for c in range(1, 2 * k, 2)]
        rng.shuffle(cases)
        checked = 0
        for f, start, count, half in cases:
            if checked == 10:
                break
            base = pq_earth_map(f)
            try:
                m = flip_segment(base, start, count, half_zones=half)
            except FlipInvalidError:
                continue
            again = flip_segment(m, start, count, half_zones=half)
            assert again.is_isomorphic(base), (f, start, count, half)
            checked += 1
        assert checked == 10
