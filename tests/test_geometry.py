"""Numeric spherical geometry: closed forms, solver, lune, realization."""

import hashlib
import math
import random
import warnings

import numpy as np
import pytest
from test_canonical import relabel

from quadtile import geometry
from quadtile.constructors import (
    earth_map,
    family_alphadelta,
    pq_earth_map,
    quad_subdivide,
)
from quadtile.geometry import (
    ClosureError,
    DegeneracyError,
    DegeneracyWarning,
    GeometryError,
    SphericalQuad,
    area,
    closed_form_cube_subdivision,
    closed_form_family,
    convexity_bounds,
    degeneracy_loci,
    export_obj,
    export_svg,
    holonomy_residual,
    lune_quad,
    realize,
    solve_edges,
    trig_residuals,
)
from quadtile.tilingmap import build

S5 = math.sqrt(5.0)

#: an edge solution with a reflex gamma that fits earth_map(8)'s AVC
REFLEX_QUAD = solve_edges(math.pi / 2, math.pi / 20, 3 * math.pi / 2,
                          9 * math.pi / 20)[0]


class TestClosedForms:
    def test_f24_edges(self):
        # [PAPER] cos a = sqrt5/3, cos b = (sqrt5+1)/(2 sqrt3),
        # cos c = (sqrt5-1)/(2 sqrt3)
        q = closed_form_family(24)
        assert math.cos(q.a) == pytest.approx(S5 / 3, abs=1e-12)
        assert math.cos(q.b) == pytest.approx((S5 + 1) / (2 * math.sqrt(3)),
                                              abs=1e-12)
        assert math.cos(q.c) == pytest.approx((S5 - 1) / (2 * math.sqrt(3)),
                                              abs=1e-12)

    def test_f24_residuals(self):
        # [PAPER] closed form satisfies holonomy and the trig identities
        q = closed_form_family(24)
        assert holonomy_residual(q) < 1e-9
        assert max(abs(r) for r in trig_residuals(q)) < 1e-9

    def test_f16_edge(self):
        # [PAPER] at f=16, cos a = (sqrt5-1)/2
        q = closed_form_family(16)
        assert math.cos(q.a) == pytest.approx((S5 - 1) / 2, abs=1e-12)

    def test_family_angles(self):
        # [PAPER] (pi - 8pi/f, pi/2 + 4pi/f, pi/2, 8pi/f)
        q = closed_form_family(24)
        assert q.alpha == pytest.approx(math.pi * 2 / 3, abs=1e-15)
        assert q.beta == pytest.approx(math.pi * 2 / 3, abs=1e-15)
        assert q.gamma == pytest.approx(math.pi / 2, abs=1e-15)
        assert q.delta == pytest.approx(math.pi / 3, abs=1e-15)

    def test_family_matches_cube_at_24(self):
        # [PAPER] the f=24 family quad is the cube subdivision at delta=pi/3
        q1 = closed_form_family(24)
        q2 = closed_form_cube_subdivision(math.pi / 3)
        for name in ("a", "b", "c", "alpha", "beta", "gamma", "delta"):
            assert getattr(q1, name) == pytest.approx(
                getattr(q2, name), abs=1e-12)

    def test_cube_angles(self):
        # [PAPER] alpha = 2pi/3, beta = pi - delta, gamma = pi/2
        d = 1.1
        q = closed_form_cube_subdivision(d)
        assert q.alpha == pytest.approx(2 * math.pi / 3, abs=1e-15)
        assert q.beta == pytest.approx(math.pi - d, abs=1e-15)
        assert q.gamma == pytest.approx(math.pi / 2, abs=1e-15)
        assert holonomy_residual(q) < 1e-9

    def test_family_b_equals_c_at_10(self):
        # [PAPER] f=10 collapses to b=c
        with pytest.raises(DegeneracyError):
            closed_form_family(10)

    def test_cube_delta_half_pi(self):
        # [PAPER] delta = pi/2 is the b=c exclusion
        with pytest.raises(DegeneracyError, match="b = c"):
            closed_form_cube_subdivision(math.pi / 2)

    def test_cube_domain(self):
        # [PAPER] delta must lie in (pi/4, 3pi/4)
        for bad in (0.2, math.pi * 0.8):
            with pytest.raises(GeometryError):
                closed_form_cube_subdivision(bad)

    def test_family_domain(self):
        # [PAPER] the family quad needs f = 0 (mod 8)
        with pytest.raises(GeometryError, match="divisible by 8"):
            closed_form_family(12)


class TestSolveEdges:
    def test_family_angles_recovered(self):
        # [DERIVED] solving the f=24 family angles recovers the closed form
        ref = closed_form_family(24)
        roots = solve_edges(ref.alpha, ref.beta, ref.gamma, ref.delta)
        assert any(
            abs(q.a - ref.a) < 1e-9 and abs(q.b - ref.b) < 1e-9
            and abs(q.c - ref.c) < 1e-9 for q in roots)

    def test_all_roots_close_holonomy(self):
        # [DERIVED] every returned root satisfies holonomy
        q0 = closed_form_cube_subdivision(1.2)
        for q in solve_edges(q0.alpha, q0.beta, q0.gamma, q0.delta):
            assert holonomy_residual(q) < 1e-9

    def test_beta_equals_delta_rejected(self):
        # [PAPER] no tilings for beta = delta (unless gamma = pi)
        with pytest.raises(DegeneracyError):
            solve_edges(1.0, 1.3, 1.0, 1.3)

    @staticmethod
    def _earth8_grid(i, j):
        # (alpha, beta, gamma, delta) fitting earth_map(8) on the pi/20 grid
        beta, gamma = i * math.pi / 20, j * math.pi / 20
        return solve_edges(math.pi / 2, beta, gamma, 2 * math.pi - beta - gamma)

    @pytest.mark.parametrize("i,j", [(10, 2), (10, 3), (26, 4)])
    def test_edge_of_length_pi_dropped(self, i, j):
        # [DERIVED] each of these roots had an edge of length pi (a reflex
        # gamma between antipodal corners) and realize accepted it
        assert self._earth8_grid(i, j) == []

    def test_only_degenerate_root_dropped(self):
        # [DERIVED] at (12, 15) the root a = b = c = pi goes, the proper
        # one stays
        roots = self._earth8_grid(12, 15)
        assert [(round(q.a, 6), round(q.b, 6), round(q.c, 6))
                for q in roots] == [(1.404476, 0.995282, 0.708353)]

    def test_grid_keeps_every_proper_root(self):
        # [DERIVED] of the 167 roots on the grid, the 15 with an edge of
        # length pi go and the 152 others stay
        roots = []
        for i in range(1, 40):
            for j in range(1, 40):
                try:
                    roots += self._earth8_grid(i, j)
                except GeometryError:
                    continue
        assert len(roots) == 152
        assert all(max(q.a, q.b, q.c) < math.pi - 1e-9 for q in roots)


class TestDegeneracyLoci:
    def test_loci(self):
        loci = degeneracy_loci()
        # [PAPER] a=c collides at f ~ 13.89229433053042 (6 significant
        # figures) and b=c at exactly f=10
        assert loci["family a=c"] == pytest.approx(13.89229433053042,
                                                   rel=1e-6)
        assert loci["family b=c"] == pytest.approx(10.0, abs=1e-9)
        # [PAPER] printed a=b root 6.666661841292876 is a low-precision
        # rendering of the exact root f = 20/3; compare at 1e-6 relative
        assert loci["family a=b"] == pytest.approx(6.666661841292876,
                                                   rel=1e-6)
        # [PAPER] cube-subdivision exclusions delta/pi (10 significant
        # figures)
        assert loci["cube a=b"] == pytest.approx(0.4322221997677038,
                                                 rel=1e-10)
        assert loci["cube a=c"] == pytest.approx(0.5677778002322962,
                                                 rel=1e-10)


class TestExactLoci:
    def test_exact_values(self):
        # [DERIVED] cos(4pi/f)^2 = (3 - sqrt 5)/8 at f = 10 and f = 20/3,
        # and the two cube loci are delta and pi - delta
        loci = degeneracy_loci()
        assert list(loci) == ["family a=b", "family a=c", "family b=c",
                              "cube a=b", "cube a=c"]
        assert loci["family b=c"] == 10.0
        assert loci["family a=b"] == 20 / 3
        assert loci["cube a=c"] == 1 - loci["cube a=b"]

    def test_edges_coincide(self):
        # [DERIVED] at each locus the two named cosines agree
        loci = degeneracy_loci()
        for key, value in loci.items():
            family, pair = key.split()
            i, j = ("abc".index(pair[0]), "abc".index(pair[2]))
            cosines = (geometry._family_cosines(value) if family == "family"
                       else geometry._cube_cosines(value * math.pi))
            assert abs(cosines[i] - cosines[j]) < 1e-12, key

    def test_returns_a_copy(self):
        # [TRIVIAL] editing the result leaves the next call unchanged
        fresh, loci = degeneracy_loci(), degeneracy_loci()
        loci["family b=c"] = 0.0
        assert degeneracy_loci() == fresh


class TestLune:
    def test_interior_area(self):
        # [PAPER] the inscribed quadrilateral fills the lune: area = alpha
        q = lune_quad(0.9, 1.1, 0.4)
        assert area(q) == pytest.approx(1.1, abs=1e-9)

    def test_exterior_area(self):
        # [PAPER] exterior variant also has area alpha
        q = lune_quad(0.9, 1.1, 0.4, exterior=True)
        assert area(q) == pytest.approx(1.1, abs=1e-9)

    def test_random_samples(self):
        # [DERIVED] 100 random samples per mode, |area - alpha| < 1e-9
        rng = random.Random(13)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            for _ in range(100):
                alpha = rng.uniform(0.2, math.pi - 0.2)
                theta = rng.uniform(0.05, alpha - 0.05)
                a = rng.uniform(0.2, math.pi - 0.2)
                q = lune_quad(a, alpha, theta)
                assert abs(area(q) - alpha) < 1e-9
            for _ in range(100):
                alpha = rng.uniform(0.2, math.pi - 0.2)
                a = rng.uniform(0.2, math.pi / 2 - 0.05)
                theta = rng.uniform(0.05, math.pi - alpha - 0.05)
                q = lune_quad(a, alpha, theta, exterior=True)
                assert abs(area(q) - alpha) < 1e-9

    @pytest.mark.parametrize("a,alpha,theta,exterior,message", [
        (0.9, math.pi, 0.4, False, r"alpha = .* outside \(0, pi\)"),
        (0.9, 1.1, 1.1, False, r"outside \(0, alpha\)"),
        (math.pi / 2, 1.1, 0.4, True, "exterior mode requires a"),
        (0.9, 1.1, math.pi - 1.1, True, r"outside \(0, pi - alpha\)"),
    ], ids=["alpha", "theta", "exterior-a", "exterior-theta"])
    def test_domain(self, a, alpha, theta, exterior, message):
        # [TRIVIAL] a lune of angle alpha in (0, pi), split at the apex
        # into theta in (0, alpha); the exterior cut-out needs a < pi/2
        # and alpha + theta < pi
        with pytest.raises(GeometryError, match=message):
            lune_quad(a, alpha, theta, exterior=exterior)

    def test_degeneracy_warning(self):
        # [DERIVED] coincident edges warn rather than fail
        q0 = lune_quad(0.9, 1.1, 0.4)
        with pytest.warns(DegeneracyWarning):
            lune_quad(q0.a, q0.alpha, q0.alpha / 2)


class TestRealize:
    @pytest.mark.parametrize("f", [16, 24])
    def test_pq_family(self, f):
        # [DERIVED] family quad realizes its pq earth map tiling
        real = realize(pq_earth_map(f), closed_form_family(f))
        assert real.max_mismatch < 1e-6
        assert real.area_sum == pytest.approx(4 * math.pi, abs=1e-6)

    @pytest.mark.parametrize("base", ["cube", "triangular_prism"])
    def test_subdivisions(self, base):
        # [DERIVED] cube-subdivision quad at delta=pi/3 realizes both f=24
        # subdivision tilings
        q = closed_form_cube_subdivision(math.pi / 3)
        real = realize(quad_subdivide(base), q)
        assert real.max_mismatch < 1e-6
        assert real.area_sum == pytest.approx(4 * math.pi, abs=1e-6)

    def test_flip_family(self):
        # [DERIVED] the flip-modified tiling shares the same quad
        real = realize(family_alphadelta(24), closed_form_family(24))
        assert real.max_mismatch < 1e-6

    def test_unit_vectors(self):
        # [TRIVIAL] all realized vertices on the unit sphere
        real = realize(pq_earth_map(16), closed_form_family(16))
        for p in real.coords:
            assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)

    def test_perturbed_quad_fails(self):
        # [TRIVIAL] a wrong quad cannot close up
        q = closed_form_family(24)
        bad = SphericalQuad(q.a + 0.05, q.b, q.c,
                            q.alpha, q.beta, q.gamma, q.delta)
        with pytest.raises((ClosureError, GeometryError)):
            realize(pq_earth_map(24), bad)

    def test_reflex_tile(self):
        # [DERIVED] a tile with one reflex angle (gamma = 3pi/2) realizes
        # the f=8 earth map: the signed interior angles of every tile add
        # up to the sphere's area
        assert REFLEX_QUAD.reflex_count() == 1
        real = realize(earth_map(8), REFLEX_QUAD)
        assert real.max_mismatch < 1e-6
        assert real.area_sum == pytest.approx(4 * math.pi, abs=1e-6)

    def test_wrong_family_quad_fails(self):
        # [DERIVED] the f=16 quad cannot realize the f=24 map
        with pytest.raises((ClosureError, GeometryError)):
            realize(pq_earth_map(24), closed_form_family(16))

    def test_unverified_map(self):
        # [TRIVIAL] the two-tile map, all four slots glued across, fails
        # verification before any tile is placed
        pairs = [((0, p), (1, p)) for p in ("AB", "BC", "CD", "DA")]
        with pytest.raises(GeometryError, match="map fails verification"):
            realize(build(2, pairs, orient=[0, 1]), closed_form_family(16))


class TestExport:
    def test_obj(self):
        # [TRIVIAL] OBJ has one v line per vertex and one f line per tile
        real = realize(pq_earth_map(16), closed_form_family(16))
        text = export_obj(real)
        lines = text.splitlines()
        assert sum(ln.startswith("v ") for ln in lines) == 18
        assert sum(ln.startswith("f ") for ln in lines) == 16

    def test_svg(self):
        # [TRIVIAL] SVG contains the three edge classes
        real = realize(pq_earth_map(16), closed_form_family(16))
        text = export_svg(real)
        for cls in ("edge-a", "edge-b", "edge-c"):
            assert cls in text

    def test_deterministic(self):
        # [TRIVIAL] byte-identical output
        real = realize(pq_earth_map(16), closed_form_family(16))
        assert export_svg(real) == export_svg(real)
        assert export_obj(real) == export_obj(real)


class TestConvexity:
    def test_family_quad_convex(self):
        # [DERIVED] the f=24 family quad has no reflex angles and meets all
        # six bounds
        rep = convexity_bounds(closed_form_family(24), 24)
        assert rep.passed and rep.failures == []
        lines = str(rep).splitlines()
        assert len(lines) == 6
        assert all(line.startswith("[PASS] ") for line in lines)

    def test_angle_at_lower_bound_fails(self):
        # [DERIVED] the f=24 family quad has delta = 8pi/24 = 2pi/6, so it
        # cannot tile with f=6: that angle bound fails and only that one
        rep = convexity_bounds(closed_form_family(24), 6)
        assert not rep.passed
        assert rep.failures == ["delta > 2*pi/f"]
        assert "[FAIL] delta > 2*pi/f" in str(rep).splitlines()

    def test_reflex_quad_rejected(self):
        # [TRIVIAL] the bounds are stated for convex tiles only
        with pytest.raises(GeometryError):
            convexity_bounds(REFLEX_QUAD, 8)


# ---------------------------------------------------------------------------
# Golden digests, recorded before export and realize were batched
# ---------------------------------------------------------------------------

def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fields(real) -> tuple:
    return (real.coords, real.tile_corners, repr(real.max_mismatch),
            repr(real.area_sum))


def _earth8_grid_outcomes() -> list[tuple]:
    """Per point of the pi/20 (beta, gamma) grid that fits earth_map(8)'s
    AVC: the exception type of solve_edges, or per root the digest of the
    realization's fields or the type of its rejection."""
    m = earth_map(8)
    out = []
    for i in range(1, 40):
        for j in range(1, 40 - i):
            beta, gamma = i * math.pi / 20, j * math.pi / 20
            try:
                roots = solve_edges(math.pi / 2, beta, gamma,
                                    2 * math.pi - beta - gamma)
            except GeometryError as exc:
                out.append((i, j, type(exc).__name__))
                continue
            for q in roots:
                try:
                    out.append((i, j, _digest(_fields(realize(m, q)))))
                except GeometryError as exc:
                    out.append((i, j, type(exc).__name__))
    return out


# f -> digests of the Realization fields, of export_obj and of export_svg
# (16 edge samples) for relabel(pq_earth_map(f), 7) with the family quad
PQ_GOLDEN = {
    256: (
        "90a5f799211b1b1b1b2fcbf05a8e5e25783765f5f7c7d4c971ae5256895d0383",
        "b19271a716a3de1e2c9ca3a58bf13c1183e950cc13d5e8317b116b9b605ae832",
        "72b5af248999190adc8297ad8d48dbff2e51b0373946a1e60c0b4dd26ecc943d"),
    1024: (
        "93278e09a5edee6c2fbcf40864bf75f038b1d31574d90529847ea22f3290e506",
        "7ed7e9ff74e8d5c967d855f8ddc249e0556a1724239c9d90e77fa0cbc74c3866",
        "d57d27f4ed11b26248378eaf6c39d82bbf04d8361ef1354d7b9698c2c8c44626"),
}

# delta/pi -> digest of the cube subdivision's Realization fields
CUBE_GOLDEN = {
    0.3: "7e5dacec507c2457e85c832c0119cdb3d7fa7027934c340ad3eff1c57aecb409",
    0.4: "dcc0704bde85af2a4a8f4b01e653498804b6959f3fc294aa4f594739adccde0c",
    0.6: "104d20f241cc484e06cb3fb623461c0dc21ee88eb79bb85344225346f3f89195",
    0.7: "68827df7a7f803f61b206a1f5300a3d0f394897f58659e234c902338125c1cc3",
}

# digest of the perturbed pq_earth_map(24) realization's ClosureError
CLOSURE_GOLDEN = (
    "c9acc9b63187877614c18f4103a91e59996cfa8cb655ab0499305fe1436cf481")

# digest of _earth8_grid_outcomes()
GRID_GOLDEN = (
    "d6de81ce7c7c802eead106fc0c98cf329b60ad3d94b02713606096124d1ac137")


class TestGoldenGeometry:
    @pytest.mark.parametrize("f", list(PQ_GOLDEN))
    def test_pq_realize_and_export(self, f):
        # [DERIVED] every coordinate and every exported character
        real = realize(relabel(pq_earth_map(f), 7), closed_form_family(f))
        fields, obj, svg = PQ_GOLDEN[f]
        assert _digest(_fields(real)) == fields
        assert _sha(export_obj(real, edge_samples=16)) == obj
        assert _sha(export_svg(real, edge_samples=16)) == svg

    @pytest.mark.parametrize("delta", list(CUBE_GOLDEN))
    def test_cube_subdivision(self, delta):
        q = closed_form_cube_subdivision(delta * math.pi)
        real = realize(quad_subdivide("cube"), q)
        assert _digest(_fields(real)) == CUBE_GOLDEN[delta]

    def test_earth8_grid(self):
        # [DERIVED] accepted roots bit for bit, rejections by type
        outcomes = _earth8_grid_outcomes()
        assert sum(len(o[2]) == 64 for o in outcomes) == 152
        assert _digest(outcomes) == GRID_GOLDEN

    def test_closure_error(self):
        # [DERIVED] the worst vertex and its gap, from the same propagation
        q = closed_form_family(24)
        bad = SphericalQuad(q.a + 0.05, q.b, q.c,
                            q.alpha, q.beta, q.gamma, q.delta)
        with pytest.raises(ClosureError) as info:
            realize(pq_earth_map(24), bad)
        exc = info.value
        assert _digest((str(exc), exc.worst_vertex,
                        repr(exc.gap))) == CLOSURE_GOLDEN
