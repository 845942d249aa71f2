"""Vertex catalog, parity/balance predicates, counting identities, and the
anglewise-vertex-combination (AVC) feasibility search.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .angles import AffineAngles, AngleExpr, VertexSignature, solve_affine

__all__ = [
    "parity_admissible",
    "angles_feasible",
    "degree_vertex_catalog",
    "catalog_sort_key",
    "DegreeVector",
    "CheckReport",
    "counting_identities",
    "avc_feasibility",
    "AVCCandidate",
    "search_avcs",
    "KNOWN_UNREALIZABLE",
]


def parity_admissible(sig: VertexSignature) -> bool:
    """Whether the signature can occur at a vertex (degree >= 3 and the
    allowed exponent-parity shapes)."""
    a, b, c, d = sig.exponents
    if sig.degree < 3:
        return False
    if a > 0:
        if b % 2 or c % 2 or d % 2:
            return False
        if c > 0 and b == 0 and d == 0:
            return False  # alpha^a gamma^c is never a vertex
        if b > 0 and c > 0 and d > 0:
            return False  # no vertex contains all four angles
        return True
    if b % 2 == 0 and c % 2 == 0 and d % 2 == 0:
        return True
    return b % 2 == 1 and c % 2 == 1 and d % 2 == 1 and b > 0 and c > 0 and d > 0


def angles_feasible(signatures: Iterable[VertexSignature], f: int) -> bool:
    """Whether the vertex angle-sum system admits angle values in (0, 2pi)
    with at most one reflex angle (and beta != delta unless gamma = pi)."""
    node = solve_affine(signatures, include_quad_sum=True, f=f)
    return node is not None and _node_witness(node)


def catalog_sort_key(sig: VertexSignature) -> tuple:
    """Deterministic catalog order: by degree, then descending exponents."""
    return (sig.degree, -sig.a, -sig.b, -sig.c, -sig.d)


def degree_vertex_catalog(k: int) -> list[VertexSignature]:
    """All admissible vertex signatures of degree k, for k in {3, 4, 5}."""
    if k not in (3, 4, 5):
        raise ValueError(f"degree must be 3, 4 or 5, got {k}")
    return _signatures_of_degree(k)


def _signatures_of_degree(k: int) -> list[VertexSignature]:
    out = []
    for a in range(k + 1):
        for b in range(k - a + 1):
            for c in range(k - a - b + 1):
                sig = VertexSignature(a, b, c, k - a - b - c)
                if parity_admissible(sig):
                    out.append(sig)
    return sorted(out, key=catalog_sort_key)


@dataclass(frozen=True)
class DegreeVector:
    """Counts of degree-h vertices, h >= 3, for a tiling with f tiles."""

    f: int
    v: Mapping[int, int]

    @property
    def vertex_count(self) -> int:
        return sum(self.v.values())


@dataclass
class CheckReport:
    """Named pass/fail checks in the order they were made, each with an
    optional detail shown only when the check fails."""

    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    @property
    def failures(self) -> list[str]:
        """``"name: detail"`` per failed check, or ``"name"`` without one."""
        return [f"{name}: {detail}" if detail else name
                for name, ok, detail in self.checks if not ok]

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))

    def __str__(self) -> str:
        lines = []
        for name, ok, detail in self.checks:
            mark = "PASS" if ok else "FAIL"
            suffix = f" ({detail})" if detail and not ok else ""
            lines.append(f"[{mark}] {name}{suffix}")
        return "\n".join(lines)


def counting_identities(dv: DegreeVector) -> CheckReport:
    """Check the Euler-derived counting identities for a degree vector."""
    report = CheckReport()
    f = dv.f
    v3 = dv.v.get(3, 0)
    high = {h: n for h, n in dv.v.items() if h >= 4}
    report.add("all degree counts nonnegative",
               all(n >= 0 for n in dv.v.values()) and all(h >= 3 for h in dv.v))
    report.add("f even", f % 2 == 0)
    report.add("v3 = 8 + sum (h-4) v_h",
               v3 == 8 + sum((h - 4) * n for h, n in high.items()))
    report.add("f = 6 + sum (h-3) v_h",
               f == 6 + sum((h - 3) * n for h, n in high.items()))
    e = 2 * f
    v = dv.vertex_count
    report.add("sum h v_h = 2e", sum(h * n for h, n in dv.v.items()) == 2 * e)
    report.add("v - e + f = 2", v - e + f == 2)
    return report


def avc_feasibility(
    signatures: Iterable[VertexSignature], f: int,
    require_all_used: bool = True,
) -> list[dict[VertexSignature, int]]:
    """All multiplicity vectors with #alpha = #beta = #gamma = #delta = f and
    sum n_v = f + 2 (the Euler vertex count, which subsumes the degree-count
    identities).  By default every listed signature must be used (n_v >= 1,
    the "AVC identically equal" reading); pass require_all_used=False for
    nonnegative vectors.  The vectors come in ascending lexicographic order
    of their multiplicities read in catalog order (``catalog_sort_key``)."""
    return list(_multiplicity_vectors(signatures, f, require_all_used))


def _multiplicity_vectors(
    signatures: Iterable[VertexSignature], f: int, require_all_used: bool,
) -> Iterator[dict[VertexSignature, int]]:
    """The vectors of ``avc_feasibility``, lazily and in the same order: the
    recursion fixes one signature at a time in catalog order and tries its
    multiplicities in ascending order."""
    sigs = sorted(set(signatures), key=catalog_sort_key)
    n = len(sigs)
    lo = 1 if require_all_used else 0

    # suffix bounds for pruning: the largest per-angle exponent and the
    # degree range among signatures i..n-1
    sufmax = [(0, 0, 0, 0)] * (n + 1)
    sufdeg = [(0, 0)] * (n + 1)
    for i in range(n - 1, -1, -1):
        a, b, c, d = sigs[i].exponents
        pa, pb, pc, pd = sufmax[i + 1]
        sufmax[i] = (max(a, pa), max(b, pb), max(c, pc), max(d, pd))
        dmin, dmax = sufdeg[i + 1]
        deg = sigs[i].degree
        sufdeg[i] = (deg if dmin == 0 else min(deg, dmin), max(deg, dmax))

    def rec(i: int, counts: dict[VertexSignature, int], ra: int, rb: int,
            rc: int, rd: int, rv: int) -> Iterator[dict[VertexSignature, int]]:
        if i == n:
            if ra == rb == rc == rd == rv == 0:
                yield dict(counts)
            return
        # each remaining vertex uses one remaining signature, so the leftover
        # angle slots are bounded by the suffix exponent and degree ranges
        ma, mb, mc, md = sufmax[i]
        if ra > rv * ma or rb > rv * mb or rc > rv * mc or rd > rv * md:
            return
        dmin, dmax = sufdeg[i]
        total = ra + rb + rc + rd
        if total > rv * dmax or total < rv * dmin:
            return
        sig = sigs[i]
        a, b, c, d = sig.exponents
        bounds = [rv - lo * (n - 1 - i)]  # room for the later signatures
        for e, r in ((a, ra), (b, rb), (c, rc), (d, rd)):
            if e:
                bounds.append(r // e)
        hi = min(bounds)
        for m in range(lo, hi + 1):
            counts[sig] = m
            yield from rec(i + 1, counts, ra - m * a, rb - m * b, rc - m * c,
                           rd - m * d, rv - m)
        counts.pop(sig, None)

    return rec(0, {}, f, f, f, f, f + 2)


@dataclass(frozen=True)
class AVCCandidate:
    """A candidate AVC: signatures with multiplicities, the solved angles,
    and a flag for combinations known to admit no tiling."""

    f: int
    signatures: tuple[VertexSignature, ...]
    multiplicities: tuple[int, ...]
    angles: tuple[AngleExpr, AngleExpr, AngleExpr, AngleExpr] | None
    known_unrealizable: bool = False

    def __str__(self) -> str:
        body = ", ".join(
            f"{s}×{m}" for s, m in zip(self.signatures, self.multiplicities))
        flag = "  [no tiling exists]" if self.known_unrealizable else ""
        return "{" + body + "}" + flag


#: Support sets proved untileable despite being angle- and count-feasible.
KNOWN_UNREALIZABLE: tuple[frozenset[VertexSignature], ...] = (
    frozenset({VertexSignature(1, 2, 0, 0), VertexSignature(0, 0, 2, 2)}),
)


def _is_known_unrealizable(support: frozenset[VertexSignature]) -> bool:
    return any(bad <= support for bad in KNOWN_UNREALIZABLE)


_ANGLE_PAIRS = tuple(itertools.combinations(range(4), 2))
_DEGREE3_BIT = 1 << 12


def _balance_mask(sig: VertexSignature) -> int:
    """13-bit count-balance mask of a signature: for angle pair k of
    ``_ANGLE_PAIRS``, bit k is set when the first exponent is larger and bit
    k + 6 when it is smaller; bit 12 is set when the degree is 3."""
    e = sig.exponents
    mask = _DEGREE3_BIT if sig.degree == 3 else 0
    for k, (i, j) in enumerate(_ANGLE_PAIRS):
        if e[i] > e[j]:
            mask |= 1 << k
        elif e[i] < e[j]:
            mask |= 1 << (k + 6)
    return mask


def _balanced(mask: int) -> bool:
    """Whether a support whose masks OR to ``mask`` can pass the count
    equations with every multiplicity >= 1.

    Sum n_v (x_v - y_v) = 0 for each angle pair (x, y), so the support has
    either no signature with x != y or ones with x > y and with x < y; and
    sum n_v (deg_v - 4) = -8, so some signature has degree 3.  This is a
    necessary condition only."""
    return bool(mask & _DEGREE3_BIT) and mask & 63 == (mask >> 6) & 63


def search_avcs(f: int, max_degree: int | None = None) -> list[AVCCandidate]:
    """Enumerate angle- and count-feasible AVCs at a concrete f.

    Subsets of at most 6 signatures of the degree-3/4/5 catalog are combined
    with at most 2 admissible signatures of degree 6 up to both max_degree
    (default max(f // 2, 6)) and f - 3, since Euler's degree budget below
    leaves no vertex of higher degree.  A candidate must admit angle values
    with all four angles in (0, 2pi), at most one angle >= pi, beta != delta
    unless gamma = pi, and an all-positive multiplicity vector.  Results are a
    superset of the AVCs of actual tilings within these bounds;
    known-untileable combinations are flagged.

    Before any angle work, two proved necessary conditions for an
    all-positive multiplicity vector screen each support: count balance
    (``_balanced``) and Euler's degree budget, sum n_v (deg_v - 3) = f - 6,
    which bounds the sum of deg_v - 3 over the support by f - 6.
    """
    if f < 6 or f % 2:
        raise ValueError(f"f must be even and >= 6, got {f}")
    if max_degree is None:
        max_degree = max(f // 2, 6)
    if max_degree < 3:
        raise ValueError("max_degree must be >= 3")

    low = [s for k in (3, 4, 5) if k <= max_degree
           for s in degree_vertex_catalog(k)]
    high = [s for k in range(6, min(max_degree, f - 3) + 1)
            for s in _signatures_of_degree(k)
            if max(s.exponents) <= f]

    found: list[AVCCandidate] = []
    mask = {s: _balance_mask(s) for s in low + high}

    @functools.cache
    def pin(node: AffineAngles | None,
            s: VertexSignature) -> AffineAngles | None:
        child = (solve_affine([s], include_quad_sum=True, f=f) if node is None
                 else node.pin(node.equation(s)))
        return child if child is not None and _node_witness(child) else None

    def step(node: AffineAngles | None,
             s: VertexSignature) -> AffineAngles | None:
        """node with s's equation added: node itself if it is redundant, None
        if it is infeasible or the pinned node has no witness."""
        if node is not None:
            const, *coeffs = node.equation(s)
            if not any(coeffs):
                return None if const else node
        return pin(node, s)

    def consider(subset: list[VertexSignature], node: AffineAngles,
                 support_mask: int) -> None:
        if not _balanced(support_mask):
            return
        counts = next(_multiplicity_vectors(subset, f, True), None)
        if counts is None:
            return
        sigs = tuple(sorted(subset, key=catalog_sort_key))
        exprs = None
        if not node.free:
            exprs = tuple(AngleExpr.pi(Fraction(row[0], node.den))
                          for row in node.rows)
        found.append(AVCCandidate(
            f=f, signatures=sigs,
            multiplicities=tuple(counts[s] for s in sigs), angles=exprs,
            known_unrealizable=_is_known_unrealizable(frozenset(subset))))

    # a node's compatible high signatures, each with the node it steps to,
    # depend only on its solution set, so subsets with equal nodes share them
    comp_cache: dict[AffineAngles, list] = {}

    def extend_high(subset: list[VertexSignature], base: AffineAngles,
                    subset_mask: int, budget: int) -> None:
        consider(subset, base, subset_mask)
        if not subset_mask & _DEGREE3_BIT:
            return  # high signatures cannot supply a degree-3 vertex
        if base not in comp_cache:
            comp_cache[base] = [(s, node) for s in high
                                if (node := step(base, s)) is not None]
        comp = comp_cache[base]
        for i, (s, node) in enumerate(comp):
            cost = s.degree - 3
            if cost > budget:
                break  # high is in ascending degree
            s_mask = subset_mask | mask[s]
            consider(subset + [s], node, s_mask)
            for t, _ in comp[i + 1:]:
                if cost + t.degree - 3 > budget:
                    break
                if _balanced(s_mask | mask[t]):
                    pair = step(node, t)
                    if pair is not None:
                        consider(subset + [s, t], pair, s_mask | mask[t])

    def rec_low(start: int, subset: list[VertexSignature],
                node: AffineAngles | None, subset_mask: int,
                budget: int) -> None:
        if subset:
            extend_high(subset, node, subset_mask, budget)
        if len(subset) == 6:
            return
        for i, s in enumerate(low[start:], start):
            if s.degree - 3 > budget:
                break  # low is in ascending degree
            child = step(node, s)
            if child is not None:
                subset.append(s)
                rec_low(i + 1, subset, child, subset_mask | mask[s],
                        budget - s.degree + 3)
                subset.pop()

    rec_low(0, [], None, 0, f - 6)
    return sorted(found, key=lambda c: (
        len(c.signatures), tuple(s.exponents for s in c.signatures)))


# Inside the search a solved vertex-angle system at concrete f is carried as
# a node: the solver's AffineAngles, angles = (row[0] + sum k_j free_j) / den
# with integer rows, den > 0 and gcd(den, all entries) = 1, so a node is its
# own canonical cache key.  f is concrete, so the free parameters are angles;
# delta is always a pivot of the quadrilateral sum, so they are drawn from
# alpha, beta, gamma.  The search extends a node by one signature at a time
# through ``step``: an equation with no free coefficient leaves the node
# unchanged (constant zero) or makes it infeasible (constant nonzero); any
# other equation pins the node, eliminating the first free angle, in alpha,
# beta, gamma order, with a nonzero coefficient, and the pinned node is kept
# only if it has a witness.  Of the steps, only pins are cached, keyed on
# (node, signature), so the witness runs once per pin miss; a node that
# several pins reach is judged again.  The first signature has no node to
# pin, so its node comes from ``solve_affine`` with the quadrilateral sum:
# which angles stay free matters, because the witness below samples the
# free angles on a grid, and the solver's pivot order fixes them.


def _node_witness(node: AffineAngles) -> bool:
    """Whether some angle assignment with the free angles on the 1/8 grid
    (multiples of pi in (0, 2)) has all angles in (0, 2), at most one >= 1,
    and beta != delta unless gamma = 1.

    At grid point free_j = t_j / 8 an angle is n / (8 den) with
    n = 8 row[0] + sum(row[j] t_j), so every test is an integer comparison
    of n against 0, 8 den and 16 den.
    """
    one, two = 8 * node.den, 16 * node.den
    consts = [8 * row[0] for row in node.rows]
    for ts in itertools.product(range(1, 16), repeat=len(node.free)):
        a, b, g, d = (c + sum(k * t for k, t in zip(row[1:], ts))
                      for c, row in zip(consts, node.rows))
        if not (0 < a < two and 0 < b < two and 0 < g < two and 0 < d < two):
            continue
        if (a >= one) + (b >= one) + (g >= one) + (d >= one) > 1:
            continue
        if b == d and g != one:
            continue
        return True
    return False
