"""Numeric spherical realization of a2bc quadrilateral tilings.

Rotation-matrix holonomy, the three trigonometric edge equations, closed-form
edge lengths for the two special families, lune-based quadrilateral
construction, and breadth-first embedding of a TilingMap on the unit sphere.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .angles import ANGLE_NAMES
from .combinatorics import CheckReport
from .tilingmap import EDGE_LABELS, TilingMap, extract_avc, verify

__all__ = [
    "GeometryError",
    "SingularityError",
    "DegeneracyError",
    "ClosureError",
    "DegeneracyWarning",
    "SphericalQuad",
    "Realization",
    "Y",
    "Z",
    "holonomy_residual",
    "trig_residuals",
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


@dataclass(frozen=True)
class SphericalQuad:
    """A spherical quadrilateral with edges AB = DA = a, BC = b, CD = c and
    interior angles alpha, beta, gamma, delta at corners A, B, C, D."""

    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self) -> None:
        _check_open_turn(a=self.a, b=self.b, c=self.c, alpha=self.alpha,
                         beta=self.beta, gamma=self.gamma, delta=self.delta)

    @property
    def angles(self) -> tuple[float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta)

    @property
    def edges(self) -> tuple[float, float, float, float]:
        """Edge lengths in boundary order AB, BC, CD, DA."""
        return (self.a, self.b, self.c, self.a)

    def reflex_count(self) -> int:
        return sum(1 for v in self.angles if v >= math.pi)

    def distinct_edges(self, tol: float = TOL_DEGENERATE) -> bool:
        return (abs(self.a - self.b) > tol and abs(self.a - self.c) > tol
                and abs(self.b - self.c) > tol)


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

def Y(x: float) -> np.ndarray:
    """Rotation by x about the y-axis (the printed Y-block)."""
    c, s = math.cos(x), math.sin(x)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def Z(x: float) -> np.ndarray:
    """Rotation by x about the z-axis (the printed Z-block)."""
    c, s = math.cos(x), math.sin(x)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def holonomy_residual(q: SphericalQuad) -> float:
    """Max-abs entry of the boundary-walk rotation product minus identity.

    The walk alternates edge translations Y(length) with corner turns
    Z(pi - angle); the product is the identity exactly when the quadrilateral
    closes up on the sphere.
    """
    M = (Y(q.b) @ Z(math.pi - q.beta)
         @ Y(q.a) @ Z(math.pi - q.alpha)
         @ Y(q.a) @ Z(math.pi - q.delta)
         @ Y(q.c) @ Z(math.pi - q.gamma))
    return float(np.abs(M - np.eye(3)).max())


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


def trig_residuals(q: SphericalQuad) -> tuple[float, float, float]:
    """Residuals of the three edge equations: the quadratic in cos a, the
    linear relation for cos b, and the linear relation for cos c."""
    al, be, ga, de = q.angles
    ca, cb, cc = math.cos(q.a), math.cos(q.b), math.cos(q.c)
    A, B, C = _trig_coefficients(al, be, ga, de)
    r_a = A * ca * ca + B * ca + C
    n_b, n_c = _linear_terms(ca, al, be, ga, de)
    r_b = cb * math.sin(be) * math.sin(ga) - n_b
    r_c = math.sin(ga) * cc - n_c
    return (r_a, r_b, r_c)


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
    if abs(sin_g) < 1e-12 or abs(sin_b * sin_g) < 1e-12:
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
    if not 0.0 < included < math.pi:
        raise GeometryError(
            f"included angle {included!r} outside (0, pi)")
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

@dataclass(frozen=True)
class Realization:
    """Unit-sphere embedding of a TilingMap: coordinates per vertex, the
    vertex ids at each tile's corners, and closure diagnostics."""

    map: TilingMap
    quad: SphericalQuad
    coords: tuple[tuple[float, float, float], ...]
    tile_corners: tuple[tuple[int, int, int, int], ...]
    max_mismatch: float
    area_sum: float

    def corner_point(self, tile: int, corner: int) -> np.ndarray:
        return np.array(self.coords[self.tile_corners[tile][corner]])


def _boundary_polygon(q: SphericalQuad, mirror: bool) -> list[np.ndarray]:
    """Corner coordinates A, B, C, D of the canonical tile: A at the north
    pole, edge AB along the prime meridian, interior traversal flipped for
    the mirror image."""
    sign = -1.0 if mirror else 1.0
    p = np.array([0.0, 0.0, 1.0])
    t = np.array([1.0, 0.0, 0.0])
    pts = [p]
    for length, angle in zip(q.edges[:3],
                             (q.beta, q.gamma, q.delta)):
        p, t = (p * math.cos(length) + t * math.sin(length),
                -p * math.sin(length) + t * math.cos(length))
        pts.append(p)
        turn = sign * (math.pi - angle)
        t = t * math.cos(turn) + np.array(_cross(p, t)) * math.sin(turn)
    return pts


def _cross(a: Sequence[float], b: Sequence[float]) -> list[float]:
    """a x b for 3-vectors, in the operand order of ``np.cross``."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def _triad(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Orthonormal frame with columns u1, the unit part of u2 normal to u1,
    and their cross product."""
    v = u2 - np.dot(u1, u2) * u1
    v = (v / math.sqrt(np.dot(v, v))).tolist()
    u = u1.tolist()
    return np.array(list(zip(u, v, _cross(u, v))))


def realize(m: TilingMap, q: SphericalQuad,
            tol: float = TOL_REALIZE) -> Realization:
    """Embed the map on the unit sphere by frame propagation along the
    map's spanning ``tree``: tile 0 goes first (corner A at the north pole,
    AB along the prime meridian), then each tree dart's tile is fitted to
    the two ends of that dart, which the tile across it has placed.

    Every vertex of the map must satisfy its angle sum within 1e-9; all
    coordinates assigned to a vertex must agree within ``tol`` (default
    1e-6), and the total spherical area of the tiles must be 4pi within
    ``tol``.
    """
    avc = extract_avc(m)
    report = verify(m, avc)
    if not report.passed:
        raise GeometryError(f"map fails verification: {report.failures}")
    for sig in avc:  # in the order of the vertices
        total = sum(e * ang for e, ang in zip(sig.exponents, q.angles))
        if abs(total - 2.0 * math.pi) > TOL_ALGEBRAIC:
            raise GeometryError(
                f"vertex {sig} angle sum {total!r} != 2*pi: quad is "
                f"incompatible with this map's AVC")

    # corners of the canonical tile and its mirror image, and the
    # transposed frame of each of their edges, by (orientation, corner)
    canonical = (_boundary_polygon(q, mirror=False),
                 _boundary_polygon(q, mirror=True))
    frames = {(o, c): _triad(pts[c], pts[(c + 1) % 4]).T
              for o, pts in enumerate(canonical) for c in range(4)}
    tile_corners = tuple(
        tuple(m.vertex_of[4 * t + (c - o) % 4] for c in range(4))
        for t, o in enumerate(m.orient))

    coords: dict[int, np.ndarray] = {}
    world: list[list[np.ndarray] | None] = [None] * m.f
    worst, worst_vertex = 0.0, 0

    def place(t: int, corners: list[np.ndarray]) -> None:
        nonlocal worst, worst_vertex
        world[t] = corners
        for v, p in zip(tile_corners[t], corners):
            if v in coords:
                diff = coords[v] - p
                gap = math.sqrt(diff @ diff)
                if gap > worst:
                    worst, worst_vertex = gap, v
            else:
                coords[v] = p

    place(0, list(canonical[m.orient[0]]))
    for dart in m.tree:
        t2, c1 = divmod(dart, 4)
        w1 = coords[tile_corners[t2][c1]]
        w2 = coords[tile_corners[t2][(c1 + 1) % 4]]
        R = _triad(w1, w2) @ frames[m.orient[t2], c1]
        place(t2, [R @ p for p in canonical[m.orient[t2]]])

    if worst > tol:
        raise ClosureError(
            f"realization does not close: vertex {worst_vertex} gap "
            f"{worst:.3e} exceeds {tol:.0e}", worst_vertex, worst)

    # signed interior angle at every corner: the turn from the tangent
    # towards the next corner to the tangent towards the previous one,
    # counterclockwise about the outward normal (clockwise on mirrored
    # tiles), in [0, 2pi) so that a reflex corner counts as such
    pts = np.array(world)  # (tile, corner, xyz)
    prev, nxt = np.roll(pts, 1, axis=1), np.roll(pts, -1, axis=1)
    t_prev = prev - (pts * prev).sum(-1, keepdims=True) * pts
    t_next = nxt - (pts * nxt).sum(-1, keepdims=True) * pts
    sign = 1.0 - 2.0 * np.array(m.orient, dtype=float)[:, None]
    angles = np.arctan2(sign * (pts * np.cross(t_next, t_prev)).sum(-1),
                        (t_next * t_prev).sum(-1)) % (2.0 * math.pi)
    total_area = float(angles.sum()) - 2.0 * math.pi * m.f
    if abs(total_area - 4.0 * math.pi) > tol:
        raise ClosureError(
            f"tile areas sum to {total_area!r}, not 4*pi", -1,
            abs(total_area - 4.0 * math.pi))

    nv = len(m.vertices)
    return Realization(
        map=m,
        quad=q,
        coords=tuple(tuple(coords[v].tolist()) for v in range(nv)),
        tile_corners=tile_corners,
        max_mismatch=worst,
        area_sum=total_area,
    )


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

#: edges per pass of ``_edge_polylines``; keeps its arrays near 100 kB
_EDGE_CHUNK = 256


def _edge_polylines(
    real: Realization, samples: int
) -> Iterator[tuple[list[int], np.ndarray]]:
    """Geodesic polylines of the edges in ``map.edges()`` order, in chunks:
    the first slot of each edge and an (edges, samples + 1, 3) array.  For
    the edge at slot s of tile t this is the slerp from corner
    ``tile_corners[t][s % 4]`` to the next corner, each sample renormalised;
    an edge shorter than 1e-12 is that corner repeated.

    Every number is rounded as the per-sample loop this replaced rounded
    it: dot products go through matmul, which rounds like ``np.dot``, and
    each edge's angle through ``math.acos``, which ``np.arccos`` does not
    match.  ``np.sin`` matches ``math.sin`` on the x86-64 hosts tried; the
    golden digests in ``tests/test_geometry.py`` catch a platform where it
    does not.  Those digests also pin the BLAS kernel: the batched matmul
    rounds each 3-term dot product as a fused multiply-add there, and a
    kernel that sums in another order moves the last bit of the output.
    """
    slots = [s for s, _ in real.map.edges()]
    corners = np.array(real.tile_corners, dtype=np.intp).reshape(-1, 4)
    coords = np.array(real.coords)
    tile, pos = divmod(np.array(slots, dtype=np.intp), 4)
    p = coords[corners[tile, pos]]
    r = coords[corners[tile, (pos + 1) % 4]]
    cos = (p[:, None, :] @ r[:, :, None])[:, 0, 0]
    ang = np.array([math.acos(min(1.0, max(-1.0, x))) for x in cos.tolist()])
    frac = np.array([i / samples for i in range(samples + 1)])[:, None]
    for lo in range(0, len(slots), _EDGE_CHUNK):
        hi = lo + _EDGE_CHUNK
        a, p0, p1 = ang[lo:hi, None, None], p[lo:hi, None], r[lo:hi, None]
        flat = a[:, 0, 0] < 1e-12
        sin = np.sin(a)
        sin[flat] = 1.0
        pts = (np.sin((1 - frac) * a) * p0 + np.sin(frac * a) * p1) / sin
        pts /= np.sqrt(pts[..., None, :] @ pts[..., :, None])[..., 0]
        pts[flat] = p0[flat]
        yield slots[lo:hi], pts


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
            for row in pts.tolist():
                lines += [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in row]
                lines.append("l " + " ".join(map(str, range(idx,
                                                            idx + len(row)))))
                idx += len(row)
    lines.append("")  # the final newline, without copying the text
    return "\n".join(lines)


#: SVG stroke styling per edge label: plain a, double b, heavy c
SVG_STYLE = """
.edge-a { stroke: #000; stroke-width: 1; fill: none; }
.edge-b { stroke: #000; stroke-width: 3; fill: none; }
.edge-b-core { stroke: #fff; stroke-width: 1.2; fill: none; }
.edge-c { stroke: #000; stroke-width: 4; fill: none; }
"""


def export_svg(
    real: Realization, size: int = 640, edge_samples: int = 16,
) -> str:
    """Stereographic projection from the south pole as an SVG drawing,
    with stroke classes per edge label (plain a, double b, heavy c)."""
    if edge_samples < 1:
        raise ValueError(f"edge_samples must be >= 1, got {edge_samples}")
    half = size / 2.0
    scale = size / 8.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">\n'
        f"<style>{SVG_STYLE}</style>"]
    for slots, pts in _edge_polylines(real, edge_samples):
        # stereographic projection, kept finite near the south pole
        denom = 1.0 + np.maximum(pts[..., 2], -0.999999)
        xs = (half + scale * pts[..., 0] / denom).tolist()
        ys = (half - scale * pts[..., 1] / denom).tolist()
        for s1, x, y in zip(slots, xs, ys):
            label = EDGE_LABELS[s1 % 4]
            d = [f"M {x[0]:.17g} {y[0]:.17g}"]
            d += [f" L {u:.17g} {v:.17g}" for u, v in zip(x[1:], y[1:])]
            parts += [f'\n<path class="edge-{label}" d="', *d, '"/>']
            if label == "b":
                parts += ['\n<path class="edge-b-core" d="', *d, '"/>']
    parts.append("\n</svg>\n")
    return "".join(parts)
