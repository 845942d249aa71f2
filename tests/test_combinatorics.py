"""Catalog, parity, counting, and AVC search tests."""

import collections
import functools
import hashlib
import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtile import combinatorics
from quadtile.angles import (
    ANGLE_NAMES,
    AffineAngles,
    AngleExpr,
    VertexSignature,
    angles_feasible,
    solve_affine,
    solve_angle_system,
)
from quadtile.combinatorics import (
    DegreeVector,
    KNOWN_UNREALIZABLE,
    CheckReport,
    avc_feasibility,
    catalog_sort_key,
    counting_identities,
    degree_vertex_catalog,
    parity_admissible,
    search_avcs,
)
from quadtile.combinatorics import (
    _balance_mask,
    _balanced,
    _signatures_of_degree,
)


def sig(text: str) -> VertexSignature:
    return VertexSignature.parse(text)


def sigs(*texts: str) -> set[VertexSignature]:
    return {sig(t) for t in texts}


# Independent restatement of the possible-vertex list: generic shapes with
# their exponent-parity side conditions, used as a test oracle.
def oracle_admissible(v: VertexSignature) -> bool:
    a, b, c, d = v.exponents
    if v.degree < 3:
        return False
    if a > 0:
        # alpha^a, alpha^a beta^b, alpha^a beta^b gamma^c,
        # alpha^a beta^b delta^d, alpha^a gamma^c delta^d, alpha^a delta^d
        # with b, c, d even; no vertex has all four angles; alpha^a gamma^c
        # is never a vertex
        if b % 2 or c % 2 or d % 2:
            return False
        if b > 0 and c > 0 and d > 0:
            return False
        if c > 0 and b == 0 and d == 0:
            return False
        return True
    # beta^b, beta^b gamma^c, beta^b delta^d, gamma^c, gamma^c delta^d,
    # delta^d with even exponents; beta^b gamma^c delta^d all even or all odd
    if b % 2 == 0 and c % 2 == 0 and d % 2 == 0:
        return True
    return b % 2 == c % 2 == d % 2 == 1 and b > 0 and c > 0 and d > 0


class TestCatalog:
    def test_degree_3(self):
        # [PAPER] AVC_3 = {a3, ab2, ad2, bgd}
        assert set(degree_vertex_catalog(3)) == sigs("a3", "ab2", "ad2", "bgd")

    def test_degree_4(self):
        # [PAPER] AVC_4 has exactly these 9 entries
        assert set(degree_vertex_catalog(4)) == sigs(
            "a4", "b4", "g4", "d4", "a2b2", "a2d2", "b2g2", "b2d2", "g2d2")

    def test_degree_5(self):
        # [PAPER] AVC_5 has exactly these 11 entries
        assert set(degree_vertex_catalog(5)) == sigs(
            "a5", "ab4", "ad4", "a3b2", "a3d2", "b3gd", "bg3d", "bgd3",
            "ab2g2", "ab2d2", "ag2d2")

    def test_sizes(self):
        # [PAPER] 4 / 9 / 11 entries
        assert [len(degree_vertex_catalog(k)) for k in (3, 4, 5)] == [4, 9, 11]

    def test_bad_degree(self):
        # [TRIVIAL]
        with pytest.raises(ValueError):
            degree_vertex_catalog(6)


class TestParity:
    @given(st.tuples(st.integers(0, 12), st.integers(0, 12),
                     st.integers(0, 12), st.integers(0, 12)))
    @settings(max_examples=300)
    def test_against_oracle(self, exps):
        # [DERIVED] independent restatement of the possible-vertex list
        v = VertexSignature(*exps)
        assert parity_admissible(v) == oracle_admissible(v)

    def test_bulk_random(self):
        # [DERIVED] 1000 fixed-seed random signatures against the oracle
        rng = random.Random(20240824)
        for _ in range(1000):
            v = VertexSignature(*(rng.randrange(0, 16) for _ in range(4)))
            assert parity_admissible(v) == oracle_admissible(v)

    def test_known_cases(self):
        # [PAPER] alpha^a gamma^c is never a vertex; no vertex has all four
        assert not parity_admissible(sig("a2g2"))
        assert not parity_admissible(sig("a2b2g2d2"))
        assert parity_admissible(sig("bgd"))
        assert parity_admissible(sig("d6"))


class TestCounting:
    def test_earth_map_vector(self):
        # [DERIVED] earth map f=10: 10 degree-3 vertices and 2 degree-5 poles
        dv = DegreeVector(f=10, v={3: 10, 5: 2})
        assert counting_identities(dv).passed

    def test_euler_violation(self):
        # [TRIVIAL]
        dv = DegreeVector(f=10, v={3: 9, 5: 2})
        assert not counting_identities(dv).passed

    def test_v3_identity(self):
        # [PAPER] v3 = 8 + sum (h-4) v_h at the cube subdivision (f=24):
        # 8 degree-3, 18 degree-4 vertices
        dv = DegreeVector(f=24, v={3: 8, 4: 18})
        assert counting_identities(dv).passed


class TestCheckReport:
    def test_failures_and_text(self):
        # [TRIVIAL] a failure reads "name: detail", or "name" without a
        # detail; the text shows a detail only on failed checks
        rep = CheckReport()
        rep.add("one", True, "unused")
        rep.add("two", False)
        rep.add("three", False, "why")
        assert not rep.passed
        assert rep.failures == ["two", "three: why"]
        assert str(rep) == "[PASS] one\n[FAIL] two\n[FAIL] three (why)"

    def test_counting_report(self):
        # [TRIVIAL] an Euler violation names its identity without a detail
        rep = counting_identities(DegreeVector(f=10, v={3: 9, 5: 2}))
        assert "v - e + f = 2" in rep.failures


class TestFeasibility:
    def test_pq16_multiplicities(self):
        # [PAPER] f=16: ab2 x8, a2d2 x4, g4 x4, d4 x2
        mults = avc_feasibility(
            [sig("ab2"), sig("a2d2"), sig("g4"), sig("d4")], 16)
        want = {sig("ab2"): 8, sig("a2d2"): 4, sig("g4"): 4, sig("d4"): 2}
        assert want in mults

    def test_counts_balance(self):
        # [DERIVED] every multiplicity vector uses each angle exactly f times
        for counts in avc_feasibility(
                [sig("ab2"), sig("a2d2"), sig("g4"), sig("d4")], 16):
            for i in range(4):
                assert sum(s.exponents[i] * n for s, n in counts.items()) == 16
            assert sum(counts.values()) == 18

    def test_catalog_order(self):
        # [DERIVED] vectors come in ascending lexicographic order of their
        # multiplicities read in catalog order (by degree, then descending
        # exponents: a3, bgd, a6, b2g2d2); the AVC search keeps the first
        support = [sig("b2g2d2"), sig("a6"), sig("bgd"), sig("a3")]
        order = sorted(support, key=catalog_sort_key)
        mults = avc_feasibility(support, 24)
        rows = [[counts[s] for s in order] for counts in mults]
        assert len(rows) == 3
        assert rows == sorted(rows)

    def test_angles_feasible(self):
        # [DERIVED] pq family feasible at f=16; {ab2, ad2, g4} forces
        # beta = delta = pi - alpha/2 with gamma = pi/2 != pi, excluded
        assert angles_feasible([sig("ab2"), sig("a2d2"), sig("g4")], 16)
        assert not angles_feasible([sig("ab2"), sig("ad2"), sig("g4")], 16)


def _support_mask(support) -> int:
    return functools.reduce(operator.or_, map(_balance_mask, support))


class TestBalanceScreen:
    """The search's count-balance mask is a necessary condition: a support
    it rejects has no all-positive multiplicity vector."""

    CATALOG = [s for k in (3, 4, 5, 6) for s in _signatures_of_degree(k)]

    def test_mask_bits(self):
        # [DERIVED] pairs (a,b),(a,c),(a,d),(b,c),(b,d),(c,d): ab2 has
        # a < b, a > c, a > d, b > c, b > d, c = d, and degree 3
        assert _balance_mask(sig("ab2")) == \
            (1 << 12) | (1 << 6) | 0b11110
        assert _balance_mask(sig("a2b2g2d2")) == 0
        assert _balanced(_support_mask([sig("a3"), sig("bgd")]))
        assert not _balanced(_support_mask([sig("a4"), sig("b4")]))
        assert not _balanced(_support_mask([sig("ab2"), sig("b4")]))

    @pytest.mark.parametrize("f", [12, 24])
    def test_catalog_subsets(self, f):
        # [DERIVED] every 1-3-subset of the degree-3..6 catalog
        rejected = 0
        for r in (1, 2, 3):
            for support in itertools.combinations(self.CATALOG, r):
                if not _balanced(_support_mask(support)):
                    rejected += 1
                    assert avc_feasibility(support, f) == [], support
        assert rejected > 0.9 * sum(
            len(list(itertools.combinations(self.CATALOG, r)))
            for r in (1, 2, 3))

    @given(st.integers(3, 20).map(lambda k: 2 * k),
           st.lists(st.sampled_from(CATALOG + [
               s for k in (7, 8) for s in _signatures_of_degree(k)]),
               min_size=1, max_size=5, unique=True))
    @settings(max_examples=300, deadline=None)
    def test_random_supports(self, f, support):
        # [DERIVED] random supports of up to 5 signatures at even f in
        # [6, 40]: rejection implies no multiplicity vector
        if not _balanced(_support_mask(support)):
            assert avc_feasibility(support, f) == []


class TestDegreeBudget:
    """Euler's degree budget, sum n_v (deg_v - 3) = f - 6, is a necessary
    condition: a support whose degrees minus 3 sum past f - 6 has no
    all-positive multiplicity vector."""

    @given(st.integers(3, 20).map(lambda k: 2 * k),
           st.lists(st.sampled_from(TestBalanceScreen.CATALOG + [
               s for k in (7, 8) for s in _signatures_of_degree(k)]),
               min_size=1, max_size=6, unique=True))
    @settings(max_examples=300, deadline=None)
    def test_random_supports(self, f, support):
        # [DERIVED] random supports of up to 6 signatures of degree 3-8 at
        # even f in [6, 40]: over the budget implies no multiplicity vector
        if sum(s.degree - 3 for s in support) > f - 6:
            assert avc_feasibility(support, f) == []


class TestSearch:
    def test_f6(self):
        # [PAPER] f=6 contains {a3, bgd}
        supports = [{s.exponents for s in c.signatures} for c in search_avcs(6)]
        assert {(3, 0, 0, 0), (0, 1, 1, 1)} in supports

    def test_f16(self):
        # [PAPER] f=16 contains {ab2, a2d2, g4, d4}
        cands = search_avcs(16, max_degree=6)
        supports = [{str(s) for s in c.signatures} for c in cands]
        assert {"αβ²", "α²δ²", "γ⁴", "δ⁴"} in supports

    def test_known_unrealizable_flagged(self):
        # [PAPER] {ab2, g2d2} is angle-feasible but admits no tiling
        assert any(
            sigs("ab2", "g2d2") <= bad for bad in KNOWN_UNREALIZABLE)
        cands = search_avcs(16, max_degree=6)
        flagged = [c for c in cands
                   if sigs("ab2", "g2d2") <= set(c.signatures)]
        assert flagged and all(c.known_unrealizable for c in flagged)

    def test_bad_f(self):
        # [TRIVIAL]
        with pytest.raises(ValueError):
            search_avcs(7)

    def test_degree_cap(self, monkeypatch):
        # [DERIVED] sum n_v (deg_v - 3) = f - 6 leaves no vertex of degree
        # above f - 3, so no signature of higher degree is generated
        degrees = []

        def spy(k):
            degrees.append(k)
            return _signatures_of_degree(k)

        monkeypatch.setattr(combinatorics, "_signatures_of_degree", spy)
        capped = search_avcs(8, max_degree=20)
        assert degrees and max(degrees) <= 8 - 3
        monkeypatch.undo()
        assert capped == search_avcs(8, max_degree=5)


def general_step(node, s):
    """The search's step before ``AffineAngles.step``: None or the node
    itself when s's equation has no free coefficient, else the pinned node
    if it has a witness."""
    eq = node.equation(s)
    if not any(eq[1:]):
        return None if eq[0] else node
    child = node.pin(eq)
    return child if child.has_witness() else None


class TestOneFreeStep:
    """``AffineAngles.step`` decides nodes with at most one free angle by
    integer arithmetic; it must agree with the general pin and witness."""

    def test_search_pairs(self, monkeypatch):
        # [DERIVED] every (node, signature) pair that search_avcs(24) and
        # search_avcs(16, max_degree=7) step on a node with at most one
        # free angle
        met = {}
        step = AffineAngles.step

        def spy(node, s):
            met[node, s] = out = step(node, s)
            return out

        monkeypatch.setattr(AffineAngles, "step", spy)
        search_avcs(24)
        search_avcs(16, max_degree=7)
        monkeypatch.undo()
        shapes = collections.Counter(
            len(node.free) for node, _ in met if len(node.free) <= 1)
        assert shapes[0] > 50000 and shapes[1] > 20000
        for (node, s), out in met.items():
            if len(node.free) <= 1:
                assert out == general_step(node, s), (node, s)

    def test_random_one_free_nodes(self):
        # [DERIVED] seeded one-free nodes solved from 2-subsets of the
        # degree-3/4/5 catalog at every even f in [6, 48], against every
        # admissible signature of degree 3-8
        rng = random.Random(20261022)
        pairs = list(itertools.combinations(
            [s for k in (3, 4, 5) for s in degree_vertex_catalog(k)], 2))
        checked = collections.Counter()
        for f in range(6, 50, 2):
            nodes = [node for pair in rng.sample(pairs, 40)
                     if (node := solve_affine(pair, f)) is not None
                     and len(node.free) == 1][:4]
            assert nodes
            for node in nodes:
                for s in ADMISSIBLE_3_8:
                    out = node.step(s)
                    assert out == general_step(node, s), (f, node, s)
                    checked[out is None, out == node] += 1
        # infeasible, redundant and pinned outcomes all occur
        assert len(checked) == 3


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _candidate_line(cand) -> str:
    body = ",".join(
        f"{s}x{m}" for s, m in zip(cand.signatures, cand.multiplicities))
    angles = ",".join(map(str, cand.angles)) if cand.angles else "-"
    return f"{cand.f}|{body}|{angles}|{cand.known_unrealizable}"


def _solution_line(subset, sol) -> str:
    head = ",".join(map(str, subset)) + f"|{sol.kind}|{sol.pinned_f}"
    if sol.kind == "infeasible":
        return head
    rel = ";".join(
        f"{name}={const}" + "".join(
            f"+{k}*{v}" for v, k in sorted(coeffs.items()))
        for name, (const, coeffs) in sol.relations.items())
    return f"{head}|{','.join(sol.free)}|{rel}"


def reference_solve(signatures, include_quad_sum, f):
    """Gauss-Jordan over Fractions with unit pivots, in the solver's pivot
    order (delta, gamma, beta, alpha, then x = pi/f): an oracle for
    solve_angle_system that shares no code with it.  Returns (kind, free,
    pinned_f, relations) in the form of AngleSolution."""
    # columns alpha, beta, gamma, delta, x | right-hand side, units of pi
    rows = [[Fraction(e) for e in s.exponents] + [Fraction(0), Fraction(2)]
            for s in set(signatures)]
    if include_quad_sum:
        rows.append([Fraction(v) for v in (1, 1, 1, 1, -4, 2)])
    if f is not None:
        rows.append([Fraction(v) for v in (0, 0, 0, 0, f, 1)])
    pivots = {}
    for col in (3, 2, 1, 0, 4):
        pivot = next((row for row in rows if row[col] != 0), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        pivot = [v / pivot[col] for v in pivot]
        for row in rows + list(pivots.values()):
            k = row[col]
            row[:] = [v - k * p for v, p in zip(row, pivot)]
        pivots[col] = pivot
    if any(row[5] != 0 for row in rows):
        return "infeasible", (), None, None
    pinned_f = None
    if 4 in pivots:
        if pivots[4][5] == 0:  # x = 0: no finite f
            return "infeasible", (), None, None
        pinned_f = 1 / pivots[4][5]
    free = tuple(c for c in range(4) if c not in pivots)
    relations = {}
    for c, name in enumerate(ANGLE_NAMES):
        if c not in pivots:
            relations[name] = (AngleExpr(), {name: Fraction(1)})
            continue
        row = pivots[c]
        x = -row[4] if 4 not in pivots else Fraction(0)
        relations[name] = (AngleExpr(row[5], x),
                           {ANGLE_NAMES[j]: -row[j] for j in free if row[j]})
    kind = "parametric" if free else "unique"
    return kind, tuple(ANGLE_NAMES[c] for c in free), pinned_f, relations


#: every admissible signature of degree 3..8
ADMISSIBLE_3_8 = [s for k in range(3, 9) for s in _signatures_of_degree(k)]


class TestSolverOracle:
    @given(st.lists(st.sampled_from(ADMISSIBLE_3_8), min_size=1, max_size=8,
                    unique=True),
           st.booleans(),
           st.none() | st.integers(3, 24).map(lambda k: 2 * k))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, support, quad_sum, f):
        # [DERIVED] systems of 1-8 signatures of degree 3-8, beyond the
        # golden sweeps' 1-3-subsets of degree <= 5: kind, free angles,
        # pinned f and relations equal the Fraction Gauss-Jordan oracle's
        sol = solve_angle_system(support, include_quad_sum=quad_sum, f=f)
        kind, free, pinned_f, relations = reference_solve(
            support, quad_sum, f)
        assert (sol.kind, sol.free, sol.pinned_f) == (kind, free, pinned_f)
        assert sol.relations == relations


class TestGoldenDifferential:
    """Full outputs of the exact search and solver, pinned by sha256 digests
    recorded before the search moved to integer arithmetic."""

    SEARCH_DIGESTS = {
        (6, None): "57a45e743397246e07eed4ae25024fdbd7e8b428b7410d6575509dad7b6ce8cd",
        (8, None): "951b3b29a0cdd398bc4e8d906c0faacd60110494a53cd9e74c9e342048578a14",
        (10, None): "fe3d8887bc50ca56ff93b4e7f4e835f7f00c72d6ec38cd1f70310e9e8d3bba70",
        (12, None): "cb0036567e543fe643af8125fb48cd4547f772dac0db592cf750f6f161ce7503",
        (14, None): "5403f0b920a19c23fab6947381cb54f9ea2eb6df390d7feab628d80353554f20",
        (16, None): "febf10ef380be35fa0b6732aadcc554a7d88cc3d8d7f20b364ff2535fa390231",
        (24, 6): "dd4cc189ae5d1f36584a3d68a70c3c7ec788cfb2bbd9a06ebe74f5cc9abc0148",
        # recorded before the count-balance screen was added
        (18, None): "ae2506e5eada7df04184dd77bc9c81ff5991daf1f437cc43e9b7f4de9ca24882",
        (20, None): "2eea7fd65d357208ec7af38cc476fffe2638dfa2f8030cb58323f97c1893478b",
        (22, None): "ae4f11499f358c3d38013e72cbc48c33aa16bf78ee98a81a5f26ff083e13c993",
        (24, None): "c099b611ee478e56037cfc2ec425096c6987fea0fb647734b0b9422d464b24f9",
        (30, 7): "66f06b246d21f9c2526005a15ec2ca1c7560ed1ce7672002120f59c929d74757",
        (32, 6): "c7dd37f7a0117051dc270e1c596920a520d4255928d7d8ce5cc4810cf6218e10",
        # recorded before the node step was merged into one cached pin
        (28, 7): "f30e6b8a6353654deea82e36c3ffb02f7a70bb711a76bd2b04d9e76364e4589a",
        (36, 7): "e154927b8c1c4317bcd0b65d31b72df5d04e99664721fbaaf3eeac5a2c71c71c",
        (40, 7): "3272b04822f198c66ce43bded35f7d267efc9a030d79073fb55d87c3dfb11bcf",
        (48, 7): "2402fecc6b89d503de34918c05f35ba60ba426ad84b3cf4e474c494abc793b9f",
        # recorded before each compatible high signature was stepped once
        (16, 7): "d07f477ede7de7dcb871a49acfcf80d7547aa292446b3ff4a98d9b72654a30ab",
        # recorded before the one-free step
        (26, None): "2f9f17dd87467b83b80b7ac0fc5129ed0e759079b4da891474a3921d71d086d7",
        (28, None): "5b4a588710d98dafa7e2ef3cc9adebe52a57d3b7df7cf89d0e0608cc6f77944f",
        (30, None): "ddbd420f73d9fe9aca236efda25d6e31c8c3eca5090baafeb2d370f50ab911fb",
        (32, None): "8bdaca600b765840b92f83b5f3424088636e019e79a57a0b11ca7a14e06bdf30",
    }
    SOLVER_DIGESTS = {
        (24, True): "9093fcb6cf5547352240ab29972716464b87b5f99d7e20b08d5b7e382bb7b68f",
        (None, True): "91b8d90a606d9322c913db5ac52790fdb92270276cffaf2189b2b0b7e76675d2",
        (None, False): "5650ca16e1d6daecb01925fd8bb999d54aec17247f4947b3268e1e16d6eda609",
        # recorded before the solver moved to one Gauss-Jordan pass
        (24, False): "28a75b9c744718bb953ee172de225e66e221d06c4a085f9212000e8601d4b2fc",
    }

    @pytest.mark.parametrize("f,max_degree", sorted(
        SEARCH_DIGESTS, key=lambda k: k[0]))
    def test_search(self, f, max_degree, request):
        # [DERIVED] candidate lists unchanged: signatures x multiplicities,
        # angle strings and the known-unrealizable flag, in output order;
        # each support is listed once
        if (f, max_degree) == (24, None):
            cands = request.getfixturevalue("search24")
        else:
            cands = search_avcs(f, max_degree=max_degree)
        supports = [frozenset(c.signatures) for c in cands]
        assert len(set(supports)) == len(supports)
        assert _digest(map(_candidate_line, cands)) == \
            self.SEARCH_DIGESTS[(f, max_degree)]

    @pytest.mark.parametrize("f,quad_sum", list(SOLVER_DIGESTS))
    def test_solver_sweep(self, f, quad_sum):
        # [DERIVED] solve_angle_system on every 1-3-subset of the
        # degree-3/4/5 catalog, at f=24 and with f symbolic: kind, pinned f,
        # free angles and relations
        catalog = [s for k in (3, 4, 5) for s in degree_vertex_catalog(k)]
        lines = [
            _solution_line(subset, solve_angle_system(
                subset, include_quad_sum=quad_sum, f=f))
            for r in (1, 2, 3)
            for subset in itertools.combinations(catalog, r)]
        assert len(lines) == 2324
        assert _digest(lines) == self.SOLVER_DIGESTS[(f, quad_sum)]
