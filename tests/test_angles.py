"""Exact angle algebra tests.

Oracle labels: [PAPER] printed formula/value, [DERIVED] computed from an
independent oracle, [TRIVIAL] self-evident.
"""

from fractions import Fraction

import pytest

from quadtile.angles import (
    ANGLE_NAMES,
    AngleExpr,
    VertexSignature,
    quad_sum_residual,
    solve_angle_system,
    vertex_sum_residual,
)


def sig(text: str) -> VertexSignature:
    return VertexSignature.parse(text)


class TestAngleExpr:
    def test_arithmetic(self):
        # [TRIVIAL]
        x = AngleExpr.pi(Fraction(1, 2)) + AngleExpr.pi_over_f(4)
        assert x.c0 == Fraction(1, 2) and x.c1 == 4
        assert (2 * x).c1 == 8
        assert x - x == AngleExpr()
        assert (-x).c0 == Fraction(-1, 2)

    def test_eval(self):
        # [TRIVIAL] pi/2 + 4pi/16 = 3pi/4
        x = AngleExpr.pi(Fraction(1, 2)) + AngleExpr.pi_over_f(4)
        assert x.coefficient_of_pi(16) == Fraction(3, 4)

    def test_str(self):
        # [TRIVIAL]
        assert str(AngleExpr.pi(1) - AngleExpr.pi_over_f(8)) == "π - 8π/f"
        assert str(AngleExpr()) == "0"


class TestVertexSignature:
    def test_parse_forms(self):
        # [TRIVIAL] several spellings of the same signature
        want = VertexSignature(1, 2, 0, 0)
        for text in ("αβ²", "ab2", "a1b2", "alpha beta^2", "αβ^2"):
            assert sig(text) == want

    def test_str_round_trip(self):
        # [TRIVIAL]
        s = VertexSignature(2, 0, 0, 2)
        assert str(s) == "α²δ²"
        assert sig(str(s)) == s

    def test_degree(self):
        # [TRIVIAL]
        assert sig("bgd").degree == 3
        assert sig("d6").degree == 6

    @pytest.mark.parametrize("text", ["a0", "b0d0"])
    def test_parse_degree_zero(self, text):
        # [TRIVIAL] no vertex has degree 0
        with pytest.raises(ValueError):
            sig(text)

    def test_tuple_behaviour(self):
        # [TRIVIAL] repr, str, hash and order are those recorded while the
        # signature was a dataclass hashing its exponent tuple; as a named
        # tuple, like every record but CheckReport, it also equals that
        # plain tuple
        sigs = [VertexSignature(1, 2, 0, 0), VertexSignature(0, 0, 0, 0),
                VertexSignature(3, 0, 0, 0), VertexSignature(0, 1, 1, 1),
                VertexSignature(2, 0, 0, 1), VertexSignature(0, 2, 2, 2)]
        assert [repr(s) for s in sigs[:2]] == [
            "VertexSignature(a=1, b=2, c=0, d=0)",
            "VertexSignature(a=0, b=0, c=0, d=0)"]
        assert [str(s) for s in sigs] == [
            "αβ²", "1", "α³", "βγδ", "α²δ", "β²γ²δ²"]
        assert [hash(s) for s in sigs] == [
            -8946484840382887566, -3226225171056353554, 7571275679603839956,
            -7458687224047931163, 8969667005784709223, 2821316584105959858]
        assert [str(s) for s in sorted(sigs)] == [
            "1", "βγδ", "β²γ²δ²", "αβ²", "α²δ", "α³"]
        assert VertexSignature(1, 2, 0, 0) == (1, 2, 0, 0)
        assert sigs[0].exponents == (1, 2, 0, 0)


class TestResiduals:
    def test_prism_angles(self):
        # [PAPER] alpha=beta=2pi/3, gamma=pi/2, delta=pi/3 at f=24
        angles = [
            AngleExpr.pi(Fraction(2, 3)),
            AngleExpr.pi(Fraction(2, 3)),
            AngleExpr.pi(Fraction(1, 2)),
            AngleExpr.pi(Fraction(1, 3)),
        ]
        assert quad_sum_residual(angles, 24) == 0

    def test_flat_square(self):
        # [TRIVIAL] four right angles miss the spherical excess by 4pi/f
        angles = [AngleExpr.pi(Fraction(1, 2))] * 4
        assert quad_sum_residual(angles, 20) == Fraction(-1, 5)  # -4/20

    def test_family_formula(self):
        # [PAPER] alpha=pi-8pi/f, beta=pi/2+4pi/f, gamma=pi/2, delta=8pi/f
        angles = [
            AngleExpr.pi(1) - AngleExpr.pi_over_f(8),
            AngleExpr.pi(Fraction(1, 2)) + AngleExpr.pi_over_f(4),
            AngleExpr.pi(Fraction(1, 2)),
            AngleExpr.pi_over_f(8),
        ]
        assert quad_sum_residual(angles, 16) == 0
        # [PAPER] delta^4 with delta = 8pi/f closes at f=16
        assert vertex_sum_residual(sig("d4"), angles, 16) == 0
        # [PAPER] alpha beta^2 closes for every f
        for f in (16, 24, 32, 80):
            assert vertex_sum_residual(sig("ab2"), angles, f) == 0

    def test_bgd_family(self):
        # [PAPER] beta gamma delta vertex with beta+gamma+delta = 2pi
        angles = [
            AngleExpr.pi_over_f(4),
            AngleExpr.pi(Fraction(2, 3)),
            AngleExpr.pi(Fraction(2, 3)),
            AngleExpr.pi(Fraction(2, 3)),
        ]
        assert vertex_sum_residual(sig("bgd"), angles, 10) == 0
        # [TRIVIAL] alpha^3 with alpha=2pi/3
        a3 = [AngleExpr.pi(Fraction(2, 3))] * 4
        assert vertex_sum_residual(sig("a3"), a3, 24) == 0


class TestSolver:
    def test_pq_family_unique(self):
        # [PAPER] {ab2, a2d2, g4} + quad sum -> unique symbolic-f solution
        sol = solve_angle_system([sig("ab2"), sig("a2d2"), sig("g4")])
        assert sol.kind == "unique"
        a, b, g, d = sol.angles()
        assert a == AngleExpr.pi(1) - AngleExpr.pi_over_f(8)
        assert b == AngleExpr.pi(Fraction(1, 2)) + AngleExpr.pi_over_f(4)
        assert g == AngleExpr.pi(Fraction(1, 2))
        assert d == AngleExpr.pi_over_f(8)
        assert sol.pinned_f is None

    def test_bgd_parametric(self):
        # [PAPER] {bgd} + quad sum -> alpha = 4pi/f, beta+gamma+delta = 2pi
        sol = solve_angle_system([sig("bgd")])
        assert sol.kind == "parametric"
        assert len(sol.free) == 2
        const, coeffs = sol.relations["alpha"]
        assert const == AngleExpr.pi_over_f(4) and not coeffs

    def test_ab2_ad2(self):
        # [PAPER] {ab2, ad2} -> beta = delta = pi - alpha/2, gamma = 4pi/f
        sol = solve_angle_system([sig("ab2"), sig("ad2")])
        assert sol.kind == "parametric"
        assert sol.free == ("alpha",)
        for name in ("beta", "delta"):
            const, coeffs = sol.relations[name]
            assert const == AngleExpr.pi(1)
            assert coeffs == {"alpha": Fraction(-1, 2)}
        const, coeffs = sol.relations["gamma"]
        assert const == AngleExpr.pi_over_f(4) and not coeffs

    def test_pinned_f(self):
        # [PAPER] {ab2, a2d2, g4, d4} forces f=16
        sol = solve_angle_system([sig("ab2"), sig("a2d2"), sig("g4"), sig("d4")])
        assert sol.kind == "unique"
        assert sol.pinned_f == 16
        assert sol.assignment["delta"] == AngleExpr.pi(Fraction(1, 2))

    def test_cube_family_pins_24(self):
        # [PAPER] {a3, g4, b2d2} forces f=24 with beta+delta = pi
        sol = solve_angle_system([sig("a3"), sig("g4"), sig("b2d2")])
        assert sol.pinned_f == 24
        assert sol.kind == "parametric"
        assert sol.free == ("beta",)
        assert sol.relations["alpha"][0] == AngleExpr.pi(Fraction(2, 3))
        assert sol.relations["gamma"][0] == AngleExpr.pi(Fraction(1, 2))
        const, coeffs = sol.relations["delta"]
        assert const == AngleExpr.pi(1)
        assert coeffs == {"beta": Fraction(-1)}

    def test_prism_avc(self):
        # [PAPER] {a3, ab2, a2d2, b2d2, g4} -> f=24 prism angle set
        sol = solve_angle_system(
            [sig("a3"), sig("ab2"), sig("a2d2"), sig("b2d2"), sig("g4")])
        assert sol.kind == "unique"
        assert sol.pinned_f == 24
        vals = [sol.assignment[n].coefficient_of_pi(24) for n in ANGLE_NAMES]
        assert vals == [Fraction(2, 3), Fraction(2, 3),
                        Fraction(1, 2), Fraction(1, 3)]

    def test_infeasible(self):
        # [TRIVIAL] alpha^3 and alpha^4 cannot both close
        sol = solve_angle_system([sig("a3"), sig("a4")],
                                 include_quad_sum=False)
        assert sol.kind == "infeasible"

    def test_concrete_f(self):
        # [DERIVED] evaluating the pq family at f=24 matches the symbolic form
        sol = solve_angle_system([sig("ab2"), sig("a2d2"), sig("g4")], f=24)
        assert sol.kind == "unique"
        assert sol.assignment["alpha"].coefficient_of_pi(24) == Fraction(2, 3)
        assert sol.assignment["delta"].coefficient_of_pi(24) == Fraction(1, 3)
