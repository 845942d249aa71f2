"""Numeric spherical realization of a2bc quadrilateral tilings.

Rotation-matrix holonomy, the three trigonometric edge equations, closed-form
edge lengths for the two special families, lune-based quadrilateral
construction, and breadth-first embedding of a TilingMap on the unit sphere.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterator, NamedTuple

from .tilingmap import EDGE_LABELS, TilingMap, extract_avc, verify
from .vertex import ANGLE_NAMES, CheckReport

#: a point or direction in three-space
Vec = tuple[float, float, float]

__all__ = [
    "GeometryError",
    "SingularityError",
    "DegeneracyError",
    "ClosureError",
    "DegeneracyWarning",
    "SphericalQuad",
    "Realization",
    "holonomy_residual",
    "solve_edges",
    "closed_form_family",
    "closed_form_cube_subdivision",
    "degeneracy_loci",
    "lune_quad",
    "area",
    "realize",
    "convexity_bounds",
    "export_obj",
    "export_svg",
]

#: residual tolerance for algebraic identities (holonomy / trig equations)
TOL_ALGEBRAIC = 1e-9
#: tolerance for propagated realizations (accumulated rotation error)
TOL_REALIZE = 1e-6
#: closeness threshold for degeneracy warnings and exclusions
TOL_DEGENERATE = 1e-9


class GeometryError(ValueError):
    """Base class for geometric construction failures."""


class SingularityError(GeometryError):
    """A formula divides by a vanishing trigonometric factor."""


class DegeneracyError(GeometryError):
    """Parameters hit an excluded locus where two edges coincide."""


class ClosureError(GeometryError):
    """A realization failed to close up on the sphere."""

    def __init__(self, message: str, worst_vertex: int, gap: float):
        super().__init__(message)
        self.worst_vertex = worst_vertex
        self.gap = gap


class DegeneracyWarning(UserWarning):
    """Parameters are close to a degenerate (edge-coincidence) locus."""


class _QuadFields(NamedTuple):
    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float
    delta: float


class SphericalQuad(_QuadFields):
    """A spherical quadrilateral with edges AB = DA = a, BC = b, CD = c and
    interior angles alpha, beta, gamma, delta at corners A, B, C, D, each
    in (0, 2*pi) as the constructor and ``_make`` (so ``_replace``) check."""

    __slots__ = ()

    def __new__(cls, a: float, b: float, c: float, alpha: float, beta: float,
                gamma: float, delta: float) -> "SphericalQuad":
        _check_open_turn(a=a, b=b, c=c, alpha=alpha, beta=beta, gamma=gamma,
                         delta=delta)
        return tuple.__new__(cls, (a, b, c, alpha, beta, gamma, delta))

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def angles(self) -> tuple[float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta)

    @property
    def edges(self) -> tuple[float, float, float, float]:
        """Edge lengths in boundary order AB, BC, CD, DA."""
        return (self.a, self.b, self.c, self.a)


def _check_open_turn(**values: float) -> None:
    """Raise GeometryError naming the first value outside (0, 2*pi)."""
    for name, v in values.items():
        if not 0.0 < v < 2.0 * math.pi:
            raise GeometryError(f"{name} = {v!r} outside (0, 2*pi)")


def area(q: SphericalQuad) -> float:
    """Spherical excess alpha + beta + gamma + delta - 2*pi."""
    return sum(q.angles) - 2.0 * math.pi


# ---------------------------------------------------------------------------
# Holonomy and the trigonometric edge equations
# ---------------------------------------------------------------------------

def holonomy_residual(q: SphericalQuad) -> float:
    """Max-abs entry of the boundary-walk rotation product minus identity.

    The walk alternates edge translations Y(length), rotations about the
    y-axis, with corner turns Z(pi - angle), rotations about the z-axis;
    the product is the identity exactly when the quadrilateral closes up on
    the sphere.  It is built up by right multiplication, which mixes only
    columns 0 and 2 for Y and columns 1 and 0 for Z.
    """
    M = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for length, angle in ((q.b, q.beta), (q.a, q.alpha), (q.a, q.delta),
                          (q.c, q.gamma)):
        for i, j, x in ((0, 2, length), (1, 0, math.pi - angle)):
            c, s = math.cos(x), math.sin(x)
            for row in M:
                u, w = row[i], row[j]
                row[i], row[j] = c * u - s * w, s * u + c * w
    return max(abs(v - (i == j))
               for i, row in enumerate(M) for j, v in enumerate(row))


def _trig_coefficients(
    alpha: float, beta: float, gamma: float, delta: float
) -> tuple[float, float, float]:
    """Coefficients (A, B, C) of the quadratic A cos^2 a + B cos a + C = 0."""
    A = (math.cos(alpha) - 1.0) * math.sin(beta) * math.sin(delta)
    B = math.sin(alpha) * (math.cos(beta) * math.sin(delta)
                           + math.cos(delta) * math.sin(beta))
    C = (math.sin(beta) * math.sin(delta) + math.cos(gamma)
         - math.cos(alpha) * math.cos(beta) * math.cos(delta))
    return A, B, C


def _linear_terms(
    ca: float, alpha: float, beta: float, gamma: float, delta: float
) -> tuple[float, float]:
    """Right-hand sides (n_b, n_c) of the linear relations
    sin(beta) sin(gamma) cos b = n_b and sin(gamma) cos c = n_c."""
    sin_b = math.sin(beta)
    n_b = (ca * math.sin(alpha) * math.sin(delta)
           + math.cos(beta) * math.cos(gamma)
           - math.cos(alpha) * math.cos(delta))
    n_c = -(math.cos(delta) * sin_b * (math.cos(alpha) - 1.0) * ca * ca
            + math.sin(alpha) * (math.cos(beta) * math.cos(delta)
                                 - sin_b * math.sin(delta)) * ca
            + math.cos(alpha) * math.cos(beta) * math.sin(delta)
            + math.cos(delta) * sin_b)
    return n_b, n_c


def solve_edges(
    alpha: float, beta: float, gamma: float, delta: float
) -> list[SphericalQuad]:
    """Edge lengths from angles: solve the quadratic for cos a (both roots),
    derive cos b and cos c from the linear relations, and keep candidates
    whose cosines lie in [-1, 1], whose edges are all shorter than pi by
    more than ``TOL_DEGENERATE`` and whose holonomy residual is < 1e-9."""
    _check_open_turn(alpha=alpha, beta=beta, gamma=gamma, delta=delta)
    if (abs(beta - delta) < TOL_DEGENERATE
            and abs(gamma - math.pi) > TOL_DEGENERATE):
        raise DegeneracyError(
            "beta = delta with gamma != pi admits no valid tile")
    sin_b, sin_g = math.sin(beta), math.sin(gamma)
    if abs(sin_b * sin_g) < 1e-12:
        raise SingularityError(
            "sin(beta) sin(gamma) vanishes; edge relations are singular")

    A, B, C = _trig_coefficients(alpha, beta, gamma, delta)
    roots: list[float] = []
    if abs(A) < 1e-15:
        if abs(B) > 1e-15:
            roots.append(-C / B)
    else:
        disc = B * B - 4.0 * A * C
        if disc >= 0.0:
            sq = math.sqrt(disc)
            roots.extend(((-B + sq) / (2.0 * A), (-B - sq) / (2.0 * A)))

    out = []
    for ca in roots:
        if abs(ca) > 1.0 + 1e-12:
            continue
        ca = min(1.0, max(-1.0, ca))
        n_b, n_c = _linear_terms(ca, alpha, beta, gamma, delta)
        cb = n_b / (sin_b * sin_g)
        cc = n_c / sin_g
        if abs(cb) > 1.0 + 1e-12 or abs(cc) > 1.0 + 1e-12:
            continue
        cb = min(1.0, max(-1.0, cb))
        cc = min(1.0, max(-1.0, cc))
        lengths = tuple(math.acos(v) for v in (ca, cb, cc))
        # an edge of length pi joins antipodal corners: no proper tile
        if any(not 0.0 < v < math.pi - TOL_DEGENERATE for v in lengths):
            continue
        q = SphericalQuad(*lengths, alpha, beta, gamma, delta)
        if holonomy_residual(q) < TOL_ALGEBRAIC:
            out.append(q)
    return out


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

_SQRT5 = math.sqrt(5.0)


def closed_form_family(f: int) -> SphericalQuad:
    """The earth-map family quad at even f = 0 (mod 8): angles
    (pi - 8pi/f, pi/2 + 4pi/f, pi/2, 8pi/f) with closed-form cosines in
    cal_A = 4pi/f."""
    if f == _LOCI["family b=c"]:
        raise DegeneracyError(
            "f = 10 is the b = c degeneracy of the family equations")
    if f < 16 or f % 8:
        raise GeometryError(
            f"closed_form_family requires f divisible by 8, f >= 16, got {f}")
    q = SphericalQuad(
        *(math.acos(x) for x in _family_cosines(f)),
        math.pi - 8.0 * math.pi / f,
        math.pi / 2.0 + 4.0 * math.pi / f,
        math.pi / 2.0,
        8.0 * math.pi / f,
    )
    assert holonomy_residual(q) < TOL_ALGEBRAIC
    return q


def closed_form_cube_subdivision(delta: float) -> SphericalQuad:
    """The cube-subdivision quad family: angles (2pi/3, pi - delta, pi/2,
    delta) for delta in (pi/4, 3pi/4), away from the three edge-coincidence
    exclusions."""
    lo, hi = math.pi / 4.0, 3.0 * math.pi / 4.0
    if not lo < delta < hi:
        raise GeometryError(
            f"delta = {delta!r} outside (pi/4, 3pi/4)")
    for excl, pair in ((0.5, "b = c"), (_LOCI["cube a=b"], "a = b"),
                       (_LOCI["cube a=c"], "a = c")):
        if abs(delta / math.pi - excl) < TOL_DEGENERATE:
            raise DegeneracyError(
                f"delta = {excl}*pi is the {pair} degeneracy")
    q = SphericalQuad(
        *(math.acos(x) for x in _cube_cosines(delta)),
        2.0 * math.pi / 3.0,
        math.pi - delta,
        math.pi / 2.0,
        delta,
    )
    assert holonomy_residual(q) < TOL_ALGEBRAIC
    return q


def _cube_cosines(delta: float) -> tuple[float, float, float]:
    """cos a, cos b, cos c of the cube-subdivision quad at delta."""
    s, c = math.sin(delta), math.cos(delta)
    root = math.sqrt(3.0 * s * s - 1.0)
    return (root / (math.sqrt(3.0) * s),
            (root + c) / (2.0 * s),
            (root - c) / (2.0 * s))


def _family_cosines(f: float) -> tuple[float, float, float]:
    """cos a, cos b, cos c of the earth-map family quad at f tiles."""
    cal_a = 4.0 * math.pi / f
    cos_a2 = math.cos(cal_a) ** 2
    return ((4.0 * cos_a2 + _SQRT5 - 3.0) / (4.0 * cos_a2),
            (-(_SQRT5 - 3.0) * cos_a2 + _SQRT5 - 2.0) / math.cos(cal_a),
            (_SQRT5 - 1.0) / (4.0 * math.cos(cal_a)))


def degeneracy_loci() -> dict[str, float]:
    """Where two edges of a closed-form family coincide.

    ``family a=b`` / ``family a=c`` / ``family b=c`` are the f-values where
    the earth-map family's edges collide (spurious parameters); ``cube a=b``
    and ``cube a=c`` are the delta/pi exclusions of the cube-subdivision
    family.
    """
    return dict(_LOCI)


# With x = cos(4pi/f), the family has cos a = cos c at x = (sqrt5 - 1)/2, and
# at x^2 = (3 - sqrt5)/8 it has cos b = cos c = 1 for x > 0 (x = cos(2pi/5),
# f = 10) and cos a = cos b = -1 for x < 0 (x = cos(3pi/5), f = 20/3).  The
# cube family has a = b or a = c where sin^2 delta = (4 + sqrt3)/6, with
# cos delta > 0 or < 0 respectively.
_CUBE_AB = math.asin(math.sqrt((4.0 + math.sqrt(3.0)) / 6.0)) / math.pi
_LOCI = {
    "family a=b": 20.0 / 3.0,
    "family a=c": 4.0 * math.pi / math.acos((_SQRT5 - 1.0) / 2.0),
    "family b=c": 10.0,
    "cube a=b": _CUBE_AB,
    "cube a=c": 1.0 - _CUBE_AB,
}


# ---------------------------------------------------------------------------
# Lune-based construction
# ---------------------------------------------------------------------------

def _triangle_from_sas(
    s1: float, s2: float, included: float
) -> tuple[float, float, float]:
    """Side opposite the included angle, and the angles adjacent to it (at
    the far end of s1 and s2 respectively), for a spherical triangle given
    side-angle-side."""
    cos_opp = (math.cos(s1) * math.cos(s2)
               + math.sin(s1) * math.sin(s2) * math.cos(included))
    opp = math.acos(min(1.0, max(-1.0, cos_opp)))
    if min(opp, math.pi - opp) < TOL_DEGENERATE:
        raise DegeneracyError("near-degenerate triangle in lune construction")

    def adjacent(sa: float, sb: float) -> float:
        cos_ang = ((math.cos(sb) - math.cos(sa) * math.cos(opp))
                   / (math.sin(sa) * math.sin(opp)))
        return math.acos(min(1.0, max(-1.0, cos_ang)))

    ang1 = adjacent(s1, s2)  # at the far endpoint of s1
    ang2 = adjacent(s2, s1)  # at the far endpoint of s2
    for ang in (ang1, ang2):
        if min(ang, math.pi - ang) < TOL_DEGENERATE:
            raise DegeneracyError(
                "near-degenerate triangle in lune construction")
    return opp, ang1, ang2


def _warn_coincidences(q: SphericalQuad) -> None:
    for x, y, pair in ((q.a, q.b, "a = b"), (q.a, q.c, "a = c"),
                       (q.b, q.c, "b = c")):
        if abs(x - y) < 1e-7:
            warnings.warn(f"degenerate parameters: {pair}",
                          DegeneracyWarning, stacklevel=3)


def lune_quad(
    a: float, alpha: float, theta: float, exterior: bool = False
) -> SphericalQuad:
    """A quadrilateral inscribed in a lune of angle alpha, with both a-edges
    of length a and diagonal AC of length pi - a, split at the apex into
    theta and the rest.

    Interior mode: the two triangles ABC (apex theta) and ACD (apex
    alpha - theta) are joined along AC; area = alpha.  Exterior mode
    (reflex beta): the quadrilateral is triangle ACD (apex alpha + theta)
    minus triangle ABC (apex theta); requires a < pi/2; area is again alpha.
    Near edge coincidences a DegeneracyWarning is issued.
    """
    if not 0.0 < alpha < math.pi:
        raise GeometryError(f"alpha = {alpha!r} outside (0, pi)")
    diag = math.pi - a
    if exterior:
        if not 0.0 < a < math.pi / 2.0:
            raise GeometryError(
                "exterior mode requires a in (0, pi/2): the cut-out "
                "triangle is not simple otherwise")
        if not 0.0 < theta < math.pi - alpha:
            raise GeometryError(
                f"theta = {theta!r} outside (0, pi - alpha)")
        b, angle_b, angle_c1 = _triangle_from_sas(a, diag, theta)
        c, angle_d, angle_c2 = _triangle_from_sas(a, diag, alpha + theta)
        gamma = angle_c2 - angle_c1
        if gamma <= TOL_DEGENERATE:
            raise GeometryError(
                "exterior construction is not simple: gamma <= 0")
        q = SphericalQuad(a, b, c, alpha, 2.0 * math.pi - angle_b,
                          gamma, angle_d)
    else:
        if not 0.0 < a < math.pi:
            raise GeometryError(f"a = {a!r} outside (0, pi)")
        if not 0.0 < theta < alpha:
            raise GeometryError(
                f"theta = {theta!r} outside (0, alpha)")
        b, angle_b, angle_c1 = _triangle_from_sas(a, diag, theta)
        c, angle_d, angle_c2 = _triangle_from_sas(a, diag, alpha - theta)
        q = SphericalQuad(a, b, c, alpha, angle_b,
                          angle_c1 + angle_c2, angle_d)
    _warn_coincidences(q)
    return q


# ---------------------------------------------------------------------------
# Convexity bounds
# ---------------------------------------------------------------------------

def convexity_bounds(q: SphericalQuad, f: int) -> CheckReport:
    """Angle lower bounds and lune estimates for a convex tile: every angle
    exceeds 2pi/f, and gamma + delta < pi + beta, gamma + beta < pi + delta."""
    if any(v >= math.pi for v in q.angles):
        raise GeometryError("convexity bounds require all angles < pi")
    rep = CheckReport()
    lb = 2.0 * math.pi / f
    for name, v in zip(ANGLE_NAMES, q.angles):
        rep.add(f"{name} > 2*pi/f", v > lb)
    rep.add("gamma + delta < pi + beta", q.gamma + q.delta < math.pi + q.beta)
    rep.add("gamma + beta < pi + delta", q.gamma + q.beta < math.pi + q.delta)
    return rep


# ---------------------------------------------------------------------------
# Realization on the unit sphere
# ---------------------------------------------------------------------------

class Realization(NamedTuple):
    """Unit-sphere embedding of a TilingMap: coordinates per vertex, the
    vertex ids at each tile's corners, and closure diagnostics."""

    map: TilingMap
    quad: SphericalQuad
    coords: tuple[Vec, ...]
    tile_corners: tuple[tuple[int, int, int, int], ...]
    max_mismatch: float
    area_sum: float


def _dot(x: Vec, y: Vec) -> float:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _cross(x: Vec, y: Vec) -> Vec:
    x0, x1, x2 = x
    y0, y1, y2 = y
    return (x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0)


def _comb(s: float, x: Vec, t: float, y: Vec) -> Vec:
    """The linear combination s*x + t*y."""
    return (s * x[0] + t * y[0], s * x[1] + t * y[1], s * x[2] + t * y[2])


def _boundary_polygon(q: SphericalQuad, mirror: bool) -> list[Vec]:
    """Corner coordinates A, B, C, D of the canonical tile: A at the north
    pole, edge AB along the prime meridian, interior traversal flipped for
    the mirror image."""
    sign = -1.0 if mirror else 1.0
    p, t = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)
    pts = [p]
    for length, angle in zip(q.edges[:3], (q.beta, q.gamma, q.delta)):
        c, s = math.cos(length), math.sin(length)
        p, t = _comb(c, p, s, t), _comb(-s, p, c, t)
        pts.append(p)
        turn = sign * (math.pi - angle)
        t = _comb(math.cos(turn), t, math.sin(turn), _cross(p, t))
    return pts


def _triad(u1: Vec, u2: Vec) -> tuple[Vec, Vec, Vec]:
    """Orthonormal frame: u1, the unit part of u2 normal to u1, and their
    cross product."""
    v = _comb(1.0, u2, -_dot(u1, u2), u1)
    n = math.sqrt(_dot(v, v))
    v = (v[0] / n, v[1] / n, v[2] / n)
    return u1, v, _cross(u1, v)


def realize(m: TilingMap, q: SphericalQuad) -> Realization:
    """Embed the map on the unit sphere by frame propagation along the
    map's spanning ``tree``: tile 0 goes first (corner A at the north pole,
    AB along the prime meridian), then each tree dart's tile is fitted to
    the two ends of that dart, which the tile across it has placed.

    Every vertex of the map must satisfy its angle sum within 1e-9; all
    coordinates assigned to a vertex must agree within ``TOL_REALIZE``
    (1e-6), and the total spherical area of the tiles must be 4pi within
    ``TOL_REALIZE``.  The constant is read on each call.
    """
    avc = extract_avc(m)
    report = verify(m, avc)
    if not report.passed:
        raise GeometryError(f"map fails verification: {report.failures}")
    for sig in avc:  # in the order of the vertices
        total = sum(e * ang for e, ang in zip(sig, q.angles))
        if abs(total - 2.0 * math.pi) > TOL_ALGEBRAIC:
            raise GeometryError(
                f"vertex {sig} angle sum {total!r} != 2*pi: quad is "
                f"incompatible with this map's AVC")

    # corners of the canonical tile and its mirror image, and their
    # coordinates in the frame of each edge, by (orientation, corner)
    canonical = (_boundary_polygon(q, mirror=False),
                 _boundary_polygon(q, mirror=True))
    local = {}
    for o, pts in enumerate(canonical):
        for c in range(4):
            frame = _triad(pts[c], pts[(c + 1) % 4])
            local[o, c] = [tuple(_dot(p, e) for e in frame) for p in pts]
    tile_corners = tuple(
        tuple(m.vertex_of[4 * t + (c - o) % 4] for c in range(4))
        for t, o in enumerate(m.orient))

    coords: dict[int, Vec] = {}
    world: list[list[Vec]] = [[]] * m.f
    worst, worst_vertex = 0.0, 0

    def place(t: int, corners: list[Vec]) -> None:
        nonlocal worst, worst_vertex
        world[t] = corners
        for v, p in zip(tile_corners[t], corners):
            if v in coords:
                gap = math.dist(coords[v], p)
                if gap > worst:
                    worst, worst_vertex = gap, v
            else:
                coords[v] = p

    place(0, canonical[m.orient[0]])
    for dart in m.tree:
        t2, c1 = divmod(dart, 4)
        w1 = coords[tile_corners[t2][c1]]
        w2 = coords[tile_corners[t2][(c1 + 1) % 4]]
        (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = _triad(w1, w2)
        place(t2, [(a * x0 + b * y0 + c * z0, a * x1 + b * y1 + c * z1,
                    a * x2 + b * y2 + c * z2)
                   for a, b, c in local[m.orient[t2], c1]])

    if worst > TOL_REALIZE:
        raise ClosureError(
            f"realization does not close: vertex {worst_vertex} gap "
            f"{worst:.3e} exceeds {TOL_REALIZE:.0e}", worst_vertex, worst)

    # signed interior angle at every corner: the turn from the tangent
    # towards the next corner to the tangent towards the previous one,
    # counterclockwise about the outward normal (clockwise on mirrored
    # tiles), in [0, 2pi) so that a reflex corner counts as such
    angles = []
    for corners, o in zip(world, m.orient):
        sign = -1.0 if o else 1.0
        for k, p in enumerate(corners):
            prev, nxt = corners[k - 1], corners[(k + 1) % 4]
            t_prev = _comb(1.0, prev, -_dot(p, prev), p)
            t_next = _comb(1.0, nxt, -_dot(p, nxt), p)
            angles.append(math.atan2(sign * _dot(p, _cross(t_next, t_prev)),
                                     _dot(t_next, t_prev)) % (2.0 * math.pi))
    total_area = math.fsum(angles) - 2.0 * math.pi * m.f
    if abs(total_area - 4.0 * math.pi) > TOL_REALIZE:
        raise ClosureError(
            f"tile areas sum to {total_area!r}, not 4*pi", -1,
            abs(total_area - 4.0 * math.pi))

    return Realization(
        map=m,
        quad=q,
        coords=tuple(coords[v] for v in range(len(m.vertices))),
        tile_corners=tile_corners,
        max_mismatch=worst,
        area_sum=total_area,
    )


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def _edge_polylines(
    real: Realization, samples: int
) -> Iterator[tuple[int, list[Vec]]]:
    """Geodesic polylines of the edges in ``map.edges()`` order: the first
    slot s of each edge, and the ``samples + 1`` points of the slerp from
    corner ``tile_corners[t][s % 4]`` of its tile t to the next corner, each
    renormalised.  Every edge of a tile at slot position k has length
    ``quad.edges[k]``, so the slerp weights are computed once per position
    rather than once per edge."""
    weights = [[(math.sin((1 - i / samples) * ell) / math.sin(ell),
                 math.sin(i / samples * ell) / math.sin(ell))
                for i in range(samples + 1)] for ell in real.quad.edges]
    coords, corners = real.coords, real.tile_corners
    for s, _ in real.map.edges():
        t, k = divmod(s, 4)
        p0, p1, p2 = coords[corners[t][k]]
        r0, r1, r2 = coords[corners[t][(k + 1) % 4]]
        pts = []
        for u, w in weights[k]:
            x, y, z = u * p0 + w * r0, u * p1 + w * r1, u * p2 + w * r2
            n = math.hypot(x, y, z)
            pts.append((x / n, y / n, z / n))
        yield s, pts


def export_obj(real: Realization, edge_samples: int = 0) -> str:
    """Wavefront OBJ text: one vertex per map vertex, one quad face per tile;
    with edge_samples > 0, geodesic edge polylines are appended as lines."""
    # The text is joined from one short string per line (and, in SVG, per
    # point): short strings come from Python's small-object pools, which
    # are returned once freed, where longer pieces would leave freed blocks
    # in the C heap and raise peak memory.
    lines = ["# a2bc quadrilateral tiling realization",
             f"# f = {real.map.f}, vertices = {len(real.coords)}"]
    lines += [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in real.coords]
    lines += ["f %d %d %d %d" % tuple(c + 1 for c in corners)
              for corners in real.tile_corners]
    if edge_samples > 0:
        idx = len(real.coords) + 1
        for _, pts in _edge_polylines(real, edge_samples):
            lines += [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in pts]
            lines.append("l " + " ".join(map(str, range(idx,
                                                        idx + len(pts)))))
            idx += len(pts)
    lines.append("")  # the final newline, without copying the text
    return "\n".join(lines)


#: width and height of the SVG drawing, in pixels
SVG_SIZE = 640

#: SVG stroke styling per edge label: plain a, double b, heavy c
SVG_STYLE = """
.edge-a { stroke: #000; stroke-width: 1; fill: none; }
.edge-b { stroke: #000; stroke-width: 3; fill: none; }
.edge-b-core { stroke: #fff; stroke-width: 1.2; fill: none; }
.edge-c { stroke: #000; stroke-width: 4; fill: none; }
"""


def export_svg(real: Realization, edge_samples: int = 16) -> str:
    """Stereographic projection from the south pole as an SVG drawing of
    ``SVG_SIZE`` pixels square, with stroke classes per edge label (plain
    a, double b, heavy c)."""
    if edge_samples < 1:
        raise ValueError(f"edge_samples must be >= 1, got {edge_samples}")
    half = SVG_SIZE / 2.0
    scale = SVG_SIZE / 8.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n'
        f"<style>{SVG_STYLE}</style>"]
    for s, pts in _edge_polylines(real, edge_samples):
        d, cmd = [], "M"
        for x, y, z in pts:
            # stereographic projection, kept finite near the south pole
            w = 1.0 + max(z, -0.999999)
            u, v = half + scale * x / w, half - scale * y / w
            d.append(f"{cmd} {u:.17g} {v:.17g}")
            cmd = " L"
        label = EDGE_LABELS[s % 4]
        parts += [f'\n<path class="edge-{label}" d="', *d, '"/>']
        if label == "b":
            parts += ['\n<path class="edge-b-core" d="', *d, '"/>']
    parts.append("\n</svg>\n")
    return "".join(parts)
