"""Combinatorial automorphisms, point-group classification, mirror traces."""

import math

import numpy as np
import pytest

from quadtile.constructors import (
    earth_map,
    family_alphadelta,
    family_beta2delta,
    pq_earth_map,
    quad_subdivide,
)
from quadtile.geometry import closed_form_cube_subdivision, closed_form_family, realize
from quadtile.symmetry import (
    MapAutomorphism,
    automorphisms,
    classify,
    vertex_bisecting_cycles,
)


class TestGroupStructure:
    def test_closure_and_inverses(self):
        # [TRIVIAL] the automorphism set is a group
        group = automorphisms(pq_earth_map(16))
        keys = {(g.perm, g.reversing) for g in group}
        for g in group:
            assert (g.inverse().perm, g.inverse().reversing) in keys
            for h in group:
                gh = g.compose(h)
                assert (gh.perm, gh.reversing) in keys

    def test_identity_present(self):
        # [TRIVIAL]
        group = automorphisms(earth_map(8))
        assert any(g.is_identity for g in group)

    def test_orders_divide_group_order(self):
        # [TRIVIAL] Lagrange
        group = automorphisms(quad_subdivide("cube"))
        for g in group:
            assert len(group) % g.order() == 0

    @pytest.mark.parametrize("m", [
        quad_subdivide("cube"), pq_earth_map(16), earth_map(8),
        family_alphadelta(24), family_beta2delta(24)],
        ids=["cube", "pq16", "em8", "alphadelta24", "beta2delta24"])
    def test_order_by_definition(self, m):
        # [DERIVED] order() is the least k >= 1 with g^k the identity
        for g in automorphisms(m):
            k, power = 1, g
            while not power.is_identity:
                power = power.compose(g)
                k += 1
            assert g.order() == k


class TestClassification:
    @pytest.mark.parametrize("f", [8, 10, 12, 50])
    def test_earth_map(self, f):
        # [PAPER] earth map tiling: D_{f/2}, order f, no reversing elements
        sc = classify(earth_map(f))
        assert sc.name == f"D_{f // 2}"
        assert sc.order == f
        assert sc.mirror_count == 0 and not sc.has_inversion

    def test_cube_subdivision(self):
        # [PAPER] symmetry group T_h, order 24, with inversion
        sc = classify(quad_subdivide("cube"))
        assert sc.name == "T_h" and sc.order == 24
        assert sc.has_inversion
        assert str(sc) == "T_h, order 24"

    def test_prism_subdivision(self):
        # [PAPER] D_3, order 6
        sc = classify(quad_subdivide("triangular_prism"))
        assert sc.name == "D_3" and sc.order == 6

    def test_pq16(self):
        # [PAPER] printed label D_{2v}; standard name D_2d: vertical
        # mirrors, no mirror perpendicular to the principal axis
        sc = classify(pq_earth_map(16))
        assert sc.name == "D_2d"
        assert sc.paper_label == "D_{2v}"
        assert sc.mirror_count > 0
        assert not sc.has_horizontal_mirror

    def test_pq24(self):
        # [DERIVED] same analysis at f=24: D_3d (printed D_{3v}), order 12
        sc = classify(pq_earth_map(24))
        assert sc.name == "D_3d" and sc.order == 12
        assert sc.paper_label == "D_{3v}"

    def test_alphadelta(self):
        # [PAPER] D_2, order 4
        sc = classify(family_alphadelta(24))
        assert sc.name == "D_2" and sc.order == 4

    def test_beta2delta(self):
        # [PAPER] C_2, order 2
        sc = classify(family_beta2delta(24))
        assert sc.name == "C_2" and sc.order == 2
        assert str(sc) == "C_2, order 2"


class TestBisectingCycles:
    def test_pq16_nonempty(self):
        # [PAPER] meridian mirror traces exist through the polar vertices
        cycles = vertex_bisecting_cycles(pq_earth_map(16))
        assert cycles
        # every cycle is a closed loop of at least 4 edges
        assert all(len(c) >= 4 for c in cycles)

    def test_earth_map_empty(self):
        # [PAPER] the earth map tiling has no mirror trace
        assert vertex_bisecting_cycles(earth_map(10)) == []

    def test_prism_empty(self):
        # [PAPER] the prism subdivision has no mirror trace
        assert vertex_bisecting_cycles(quad_subdivide("triangular_prism")) == []

    def test_cycle_count_matches_mirrors(self):
        # [DERIVED] each mirror of the pq maps traces one bisecting cycle
        for f in (16, 24):
            sc = classify(pq_earth_map(f))
            cycles = vertex_bisecting_cycles(pq_earth_map(f))
            assert len(cycles) == sc.mirror_count


class TestGeometricCrossCheck:
    @staticmethod
    def _isometry_for(real, g: MapAutomorphism) -> float:
        """Worst distance between mapped corners and an isometry fit."""
        # fit a rotation/reflection sending tile 0's frame to its image
        pts = []
        imgs = []
        for t in range(real.map.f):
            for corner in range(4):
                pts.append(np.array(real.corner_point(t, corner)))
                imgs.append(np.array(real.corner_point(g.perm[t], corner)))
        P = np.array(pts).T
        Q = np.array(imgs).T
        U, _, Vt = np.linalg.svd(Q @ P.T)
        R = U @ Vt
        return float(np.max(np.linalg.norm(R @ P - Q, axis=0)))

    def test_automorphisms_are_isometries(self):
        # [DERIVED] every combinatorial automorphism is realized by an
        # isometry of the embedded tiling (within 1e-6)
        real = realize(pq_earth_map(16), closed_form_family(16))
        for g in automorphisms(real.map):
            assert self._isometry_for(real, g) < 1e-6
