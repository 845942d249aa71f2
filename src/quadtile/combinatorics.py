"""Vertex catalog, count-balance screen, and the anglewise-vertex-
combination (AVC) feasibility search.  The parity rule, catalog order,
degree vectors, counting identities and report type live in ``vertex``
and are re-exported here.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, NamedTuple

from .angles import AffineAngles, AngleExpr, solve_affine
from .vertex import (
    CheckReport,
    DegreeVector,
    VertexSignature,
    catalog_sort_key,
    counting_identities,
    parity_admissible,
)

__all__ = [
    "parity_admissible",
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


def avc_feasibility(
    signatures: Iterable[VertexSignature], f: int,
) -> list[dict[VertexSignature, int]]:
    """All multiplicity vectors with #alpha = #beta = #gamma = #delta = f and
    sum n_v = f + 2 (the Euler vertex count, which subsumes the degree-count
    identities) that use every listed signature (n_v >= 1, the "AVC
    identically equal" reading), in ascending lexicographic order of their
    multiplicities read in catalog order (``catalog_sort_key``)."""
    return list(_multiplicity_vectors(signatures, f))


def _multiplicity_vectors(
    signatures: Iterable[VertexSignature], f: int,
) -> Iterator[dict[VertexSignature, int]]:
    """The vectors of ``avc_feasibility``, lazily and in the same order: the
    recursion fixes one signature at a time in catalog order and tries its
    multiplicities in ascending order."""
    sigs = sorted(set(signatures), key=catalog_sort_key)
    n = len(sigs)

    # suffix bounds for pruning: the largest per-angle exponent and the
    # degree range among signatures i..n-1
    sufmax = [(0, 0, 0, 0)] * (n + 1)
    sufdeg = [(0, 0)] * (n + 1)
    for i in range(n - 1, -1, -1):
        a, b, c, d = sigs[i]
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
        a, b, c, d = sig
        bounds = [rv - (n - 1 - i)]  # room for the later signatures
        for e, r in ((a, ra), (b, rb), (c, rc), (d, rd)):
            if e:
                bounds.append(r // e)
        hi = min(bounds)
        for m in range(1, hi + 1):
            counts[sig] = m
            yield from rec(i + 1, counts, ra - m * a, rb - m * b, rc - m * c,
                           rd - m * d, rv - m)
        counts.pop(sig, None)

    return rec(0, {}, f, f, f, f, f + 2)


class AVCCandidate(NamedTuple):
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
    mask = _DEGREE3_BIT if sig.degree == 3 else 0
    for k, (i, j) in enumerate(_ANGLE_PAIRS):
        if sig[i] > sig[j]:
            mask |= 1 << k
        elif sig[i] < sig[j]:
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
    known-untileable combinations are flagged.  Only the f - 3 bound is
    proved: the 6-low and 2-high caps and max_degree are search bounds, and
    the 2-high cap does drop feasible supports, such as {αδ², βγδ, α⁴β²,
    γ⁶, α¹⁵} at f = 30 (multiplicities 3, 24, 3, 1, 1).  A step from a node
    with at most one free angle is exact (``AffineAngles.step``); the first
    signature and steps from nodes with two or more free angles are judged
    by ``has_witness``'s 1/8 grid.

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
            if max(s) <= f]

    found: list[AVCCandidate] = []
    mask = {s: _balance_mask(s) for s in low + high}

    @functools.cache
    def pin(node: AffineAngles | None,
            s: VertexSignature) -> AffineAngles | None:
        """``step`` where ``has_witness`` samples the 1/8 grid: the first
        signature, solved alone, and nodes with two or more free angles.
        Cached, so each such (node, signature) is judged once."""
        if node is not None:
            return node.step(s)
        child = solve_affine([s], f)
        return child if child is not None and child.has_witness() else None

    def step(node: AffineAngles | None,
             s: VertexSignature) -> AffineAngles | None:
        """node with s's equation added: node itself if it is redundant, None
        if it is infeasible or the pinned node has no witness.  A node with
        at most one free angle steps by integer arithmetic, uncached."""
        if node is None or len(node.free) > 1:
            return pin(node, s)
        return node.step(s)

    def consider(subset: list[VertexSignature], node: AffineAngles,
                 support_mask: int) -> None:
        if not _balanced(support_mask):
            return
        counts = next(_multiplicity_vectors(subset, f), None)
        if counts is None:
            return
        sigs = tuple(sorted(subset, key=catalog_sort_key))
        found.append(AVCCandidate(
            f=f, signatures=sigs,
            multiplicities=tuple(counts[s] for s in sigs),
            angles=node.angles(),
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
    return sorted(found, key=lambda c: (len(c.signatures), c.signatures))
