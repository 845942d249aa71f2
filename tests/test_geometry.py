"""Numeric spherical geometry: closed forms, solver, lune, realization."""

import functools
import hashlib
import math
import random
import warnings

import pytest
from hypothesis import given, reject, seed, settings
from hypothesis import strategies as st
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
)
from quadtile.tilingmap import build

S5 = math.sqrt(5.0)


def trig_residuals(q: SphericalQuad) -> tuple[float, float, float]:
    """Residuals of the three edge equations that ``solve_edges`` solves:
    the quadratic in cos a, the linear relation for cos b, and the linear
    relation for cos c."""
    al, be, ga, de = q.angles
    ca, cb, cc = math.cos(q.a), math.cos(q.b), math.cos(q.c)
    A, B, C = geometry._trig_coefficients(al, be, ga, de)
    r_a = A * ca * ca + B * ca + C
    n_b, n_c = geometry._linear_terms(ca, al, be, ga, de)
    r_b = cb * math.sin(be) * math.sin(ga) - n_b
    r_c = math.sin(ga) * cc - n_c
    return (r_a, r_b, r_c)


def diagonal_residuals(q: SphericalQuad) -> tuple[float, float]:
    """Each diagonal's cosine by the spherical law of cosines in the two
    triangles it cuts off, one minus the other: BD from ABD (a, a, alpha)
    and CBD (b, c, gamma), AC from ABC (a, b, beta) and ADC (a, c, delta).
    An oracle for the edges that shares no code with ``solve_edges``; a
    reflex angle has the cosine of its triangle's angle."""
    ca, cb, cc = math.cos(q.a), math.cos(q.b), math.cos(q.c)
    sa, sb, sc = math.sin(q.a), math.sin(q.b), math.sin(q.c)
    bd = (ca * ca + sa * sa * math.cos(q.alpha)
          - cb * cc - sb * sc * math.cos(q.gamma))
    ac = (ca * cb + sa * sb * math.cos(q.beta)
          - ca * cc - sa * sc * math.cos(q.delta))
    return (bd, ac)


#: an edge solution with a reflex gamma that fits earth_map(8)'s AVC
REFLEX_QUAD = solve_edges(math.pi / 2, math.pi / 20, 3 * math.pi / 2,
                          9 * math.pi / 20)[0]

#: the f=24 family quad with edge a lengthened by 0.05: it cannot close up
PERTURBED_QUAD = closed_form_family(24)._replace(
    a=closed_form_family(24).a + 0.05)


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
        assert max(abs(r) for r in diagonal_residuals(q)) < 1e-9

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
        assert max(abs(r) for r in diagonal_residuals(q)) < 1e-9

    @pytest.mark.parametrize("delta", [0.3, 0.4, 0.6, 0.7])
    def test_cube_diagonals(self, delta):
        # [DERIVED] each diagonal is the same arc from either side
        q = closed_form_cube_subdivision(delta * math.pi)
        assert max(abs(r) for r in diagonal_residuals(q)) < 1e-9

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
            assert max(abs(r) for r in diagonal_residuals(q)) < 1e-9

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
        assert all(max(abs(r) for r in diagonal_residuals(q)) < 1e-9
                   for q in roots)


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
            assert math.hypot(*p) == pytest.approx(1.0, abs=1e-12)

    def test_perturbed_quad_fails(self):
        # [TRIVIAL] a wrong quad cannot close up
        with pytest.raises((ClosureError, GeometryError)):
            realize(pq_earth_map(24), PERTURBED_QUAD)

    def test_reflex_tile(self):
        # [DERIVED] a tile with one reflex angle (gamma = 3pi/2) realizes
        # the f=8 earth map: the signed interior angles of every tile add
        # up to the sphere's area
        assert sum(v >= math.pi for v in REFLEX_QUAD.angles) == 1
        assert max(abs(r) for r in diagonal_residuals(REFLEX_QUAD)) < 1e-9
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


def _dot(x, y):
    return sum(u * v for u, v in zip(x, y))


def _arc(x, y):
    """Angle between unit vectors x and y from their chord, which unlike
    acos of the dot product keeps its precision for short arcs."""
    return 2.0 * math.asin(math.dist(x, y) / 2.0)


def _det(p, r, x):
    """Determinant of the 3x3 matrix with rows p, r, x."""
    return (p[0] * (r[1] * x[2] - r[2] * x[1])
            - p[1] * (r[0] * x[2] - r[2] * x[0])
            + p[2] * (r[0] * x[1] - r[1] * x[0]))


#: realizations whose edges are checked against their labels' lengths
REALIZED = {
    "pq256": lambda: realize(pq_earth_map(256), closed_form_family(256)),
    "pq1024": lambda: realize(pq_earth_map(1024), closed_form_family(1024)),
    "cube-0.3pi": lambda: realize(
        quad_subdivide("cube"), closed_form_cube_subdivision(0.3 * math.pi)),
    "cube-0.6pi": lambda: realize(
        quad_subdivide("cube"), closed_form_cube_subdivision(0.6 * math.pi)),
}


@pytest.fixture(scope="module", params=list(REALIZED))
def realized(request):
    return REALIZED[request.param]()


def _edge_ends(real):
    """Per edge of ``map.edges()``: its slot position and its two corners."""
    for s, _ in real.map.edges():
        t, k = divmod(s, 4)
        corners = real.tile_corners[t]
        yield k, real.coords[corners[k]], real.coords[corners[(k + 1) % 4]]


class TestEdgeGeometry:
    """Facts about the realized edges that hold whatever the rounding."""

    def test_arcs_are_label_lengths(self, realized):
        # [DERIVED] every edge's arc is its label's length in the quad; a
        # vertex placed by several tiles sits within max_mismatch of each
        # (1.5e-12 at f=1024), so each end may add that much
        bound = 1e-12 + 2 * realized.max_mismatch
        for k, p, r in _edge_ends(realized):
            arc = math.acos(min(1.0, max(-1.0, _dot(p, r))))
            assert abs(arc - realized.quad.edges[k]) < bound

    def test_obj_polylines(self, realized):
        # [DERIVED] each OBJ polyline runs from its edge's first corner to
        # the next one in equal steps, on the unit sphere (norm within
        # k * 4e-16, k = 1) and in the plane of the two corners
        samples = 16
        lines = export_obj(realized, edge_samples=samples).splitlines()
        verts = [tuple(map(float, ln.split()[1:]))
                 for ln in lines if ln.startswith("v ")]
        polylines = [[verts[int(i) - 1] for i in ln.split()[1:]]
                     for ln in lines if ln.startswith("l ")]
        ends = list(_edge_ends(realized))
        assert len(polylines) == len(ends)
        for (_, p, r), line in zip(ends, polylines):
            assert len(line) == samples + 1
            for got, want in ((line[0], p), (line[-1], r)):
                assert max(abs(u - v) for u, v in zip(got, want)) < 1e-15
            for x in line:
                assert abs(math.hypot(*x) - 1.0) < 4e-16
                assert abs(_det(p, r, x)) < 1e-12
            step = _arc(p, r) / samples
            for x, y in zip(line, line[1:]):
                assert abs(_arc(x, y) - step) < 1e-14


def Y(x):
    """Rotation by x about the y-axis (the printed Y-block), as lists."""
    c, s = math.cos(x), math.sin(x)
    return [[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]


def Z(x):
    """Rotation by x about the z-axis (the printed Z-block), as lists."""
    c, s = math.cos(x), math.sin(x)
    return [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]


def _matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def _explicit_holonomy(q):
    """Max-abs entry of Y(b) Z(pi - beta) Y(a) Z(pi - alpha) Y(a)
    Z(pi - delta) Y(c) Z(pi - gamma) minus the identity."""
    blocks = []
    for length, angle in ((q.b, q.beta), (q.a, q.alpha), (q.a, q.delta),
                          (q.c, q.gamma)):
        blocks += [Y(length), Z(math.pi - angle)]
    M = functools.reduce(_matmul, blocks)
    return max(abs(M[i][j] - (i == j)) for i in range(3) for j in range(3))


_OPEN = st.floats(0.01, 2 * math.pi - 0.01)


class TestHolonomy:
    """holonomy_residual against the explicit product of the blocks, on
    seeded samples of closed quads and of quads that do not close."""

    @staticmethod
    def check(q):
        assert abs(holonomy_residual(q) - _explicit_holonomy(q)) < 1e-15

    @seed(2021)
    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.05, 0.95), st.floats(0.2, math.pi - 0.2),
           st.floats(0.05, 0.95), st.booleans())
    def test_lune_quads(self, a, alpha, theta, exterior):
        # [DERIVED] a, alpha, theta as fractions of their allowed ranges
        a *= math.pi / 2 if exterior else math.pi
        theta *= math.pi - alpha if exterior else alpha
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            try:
                q = lune_quad(a, alpha, theta, exterior=exterior)
            except GeometryError:
                reject()
        assert holonomy_residual(q) < 1e-9
        self.check(q)

    @seed(2021)
    @settings(max_examples=200, deadline=None)
    @given(_OPEN, _OPEN, _OPEN, _OPEN)
    def test_solve_edges_roots(self, alpha, beta, gamma, delta):
        # [DERIVED] every root of the edge solver, at any four angles
        try:
            roots = solve_edges(alpha, beta, gamma, delta)
        except GeometryError:
            reject()
        for q in roots:
            self.check(q)

    @seed(2021)
    @settings(max_examples=200, deadline=None)
    @given(st.builds(SphericalQuad, *[_OPEN] * 7))
    def test_quads_that_do_not_close(self, q):
        # [DERIVED] residuals of order one, where a wrong column update
        # would show
        self.check(q)


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
# Golden digests, recorded when realize and export moved from NumPy to
# plain Python: they pin IEEE double arithmetic and the platform's libm
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
        "926cd26fd59f585c359ad5896b1ac71e3689275a3f2332cbf81bfc1615cd85f4",
        "a5923596d33fe589d68fd1be17127cdc784e9fa22d81c1640b5fb7fd28a85400",
        "2df421512079de95e6700e2003ea83e9d45c69b2f920ceb6e8561bd16b3546ea"),
    1024: (
        "bad2fd8a8118866b4361f99a677f65f739d08e9508eeb38af5efe0c6730563e0",
        "0c8395222009f42ae98faa72eb597da4c72244a3fb7986fac430fc9447c229af",
        "b37c633bfe26f6a5c6b1243431e4ea59d8ec3fb91155437ffa0b7bdb6d866ecf"),
}

# delta/pi -> digest of the cube subdivision's Realization fields
CUBE_GOLDEN = {
    0.3: "65793e8a264033dc2344fd722e81c7f3d041fcce6900c1a76dec7176880cffe2",
    0.4: "eb5d886d1cbd2fa82e1db6634a7b3a2a7aa91c9bdee1a246ac99d2d5b80adf04",
    0.6: "2cc2e45bfd92934f0a49a2a9c6829e5d7a7135e20039af943991cdf13610e443",
    0.7: "40915c0fe619b7bc4f5203d9a0eadee7c344050b96f06006cc6877734bc2bb5f",
}

# digest of the perturbed pq_earth_map(24) realization's ClosureError
CLOSURE_GOLDEN = (
    "3a8f601ba686ddfe69b92fa9aa9b085a77668cb72f4d28aeaa65d47cb536a12b")

# digest of _earth8_grid_outcomes()
GRID_GOLDEN = (
    "8cf9d281e8fb4b64fb5f4a91ce94fe73a8b885941f9b35d98c26693d074d9952")


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
        with pytest.raises(ClosureError) as info:
            realize(pq_earth_map(24), PERTURBED_QUAD)
        exc = info.value
        assert _digest((str(exc), exc.worst_vertex,
                        repr(exc.gap))) == CLOSURE_GOLDEN
