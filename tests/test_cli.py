"""CLI surface: subcommands, exit codes, determinism."""

import json

import pytest

from quadtile import geometry
from quadtile.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_pq16_summary(self, capsys, tmp_path):
        # [DERIVED] documented AVC summary line
        out_file = tmp_path / "pq16.json"
        code, out, _ = run(capsys, "construct", "pq-emt", "--f", "16",
                           "-o", str(out_file))
        assert code == 0
        assert "αβ²×8 α²δ²×4 γ⁴×4 δ⁴×2" in out
        data = json.loads(out_file.read_text())
        assert data["f"] == 16

    def test_earth_map_f6(self, capsys, tmp_path):
        # [PAPER] f=6 tiling exists
        code, out, _ = run(capsys, "construct", "earth-map", "--f", "6",
                           "-o", str(tmp_path / "m.json"))
        assert code == 0 and "f=6" in out

    def test_subdivision(self, capsys, tmp_path):
        # [PAPER] cube subdivision has f=24
        code, out, _ = run(capsys, "construct", "subdivision", "--base",
                           "cube", "-o", str(tmp_path / "m.json"))
        assert code == 0 and "f=24" in out

    def test_domain_error(self, capsys):
        # [TRIVIAL] constructor domain errors exit 2
        code, _, err = run(capsys, "construct", "earth-map", "--f", "7")
        assert code == 2 and "error" in err

    def test_usage_error(self, capsys):
        # [TRIVIAL] unknown family exits 2
        code, _, _ = run(capsys, "construct", "moebius")
        assert code == 2

    def test_deterministic(self, capsys, tmp_path):
        # [TRIVIAL] identical invocations yield byte-identical files
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "construct", "pq-emt", "--f", "24", "-o", str(f1))
        run(capsys, "construct", "pq-emt", "--f", "24", "-o", str(f2))
        assert f1.read_bytes() == f2.read_bytes()


@pytest.fixture()
def pq24_file(capsys, tmp_path):
    path = tmp_path / "pq24.json"
    assert main(["construct", "pq-emt", "--f", "24", "-o", str(path)]) == 0
    capsys.readouterr()
    return path


@pytest.fixture()
def cube_file(capsys, tmp_path):
    path = tmp_path / "cube24.json"
    assert main(["construct", "subdivision", "--base", "cube",
                 "-o", str(path)]) == 0
    capsys.readouterr()
    return path


class TestVerify:
    def test_pass(self, capsys, pq24_file):
        # [PAPER] (6,4)-earth map tiling of f=24
        code, out, _ = run(capsys, "verify", str(pq24_file),
                           "--expect", "αβ²,α²δ²,γ⁴,δ⁶")
        assert code == 0 and "OK" in out

    def test_wrong_avc(self, capsys, pq24_file):
        # [TRIVIAL]
        code, out, _ = run(capsys, "verify", str(pq24_file),
                           "--expect", "βγδ,α¹²")
        assert code == 1 and "FAIL" in out

    def test_corrupt_json(self, capsys, tmp_path):
        # [TRIVIAL]
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2

    def test_counted_expectation(self, capsys, pq24_file):
        # [DERIVED] multiplicity-aware AVC string
        code, _, _ = run(capsys, "verify", str(pq24_file),
                         "--expect", "αβ²×12,α²δ²×6,γ⁴×6,δ⁶×2")
        assert code == 0


class TestRealize:
    def test_family(self, capsys, pq24_file, tmp_path):
        # [DERIVED] closure gap below 1e-6; writes OBJ and SVG
        obj = tmp_path / "m.obj"
        svg = tmp_path / "m.svg"
        code, out, _ = run(capsys, "realize", str(pq24_file),
                           "--quad", "family",
                           "--obj", str(obj), "--svg", str(svg))
        assert code == 0
        gap = float(next(ln.split(":")[1] for ln in out.splitlines()
                         if ln.startswith("closure gap")))
        assert gap < 1e-6
        assert obj.exists() and svg.exists()

    def test_cube_delta(self, capsys, cube_file):
        # [DERIVED] area sum 4pi
        code, out, _ = run(capsys, "realize", str(cube_file),
                           "--delta", "pi/3")
        assert code == 0 and "area sum" in out

    def test_b_equals_c_exclusion(self, capsys, cube_file):
        # [PAPER] delta = pi/2 exits 1 citing the b=c exclusion
        code, _, err = run(capsys, "realize", str(cube_file),
                           "--delta", "pi/2")
        assert code == 1 and "b = c" in err

    def test_explicit_angles(self, capsys, cube_file):
        # [DERIVED] explicit angle spec matches --delta pi/3
        code, out, _ = run(capsys, "realize", str(cube_file),
                           "--angles", "2pi/3,2pi/3,pi/2,pi/3")
        assert code == 0

    @pytest.mark.parametrize("option,value", [
        ("--delta", "pi/0"), ("--angles", "2pi/3,2pi/3,pi/2,pi/0")])
    def test_zero_denominator(self, capsys, cube_file, option, value):
        # [TRIVIAL] a zero denominator is a parse error, not a traceback
        code, _, err = run(capsys, "realize", str(cube_file), option, value)
        assert code == 2 and err.startswith("error:")

    def test_no_quad_source(self, capsys, cube_file):
        # [TRIVIAL]
        code, _, _ = run(capsys, "realize", str(cube_file))
        assert code == 2

    def test_tolerance_env_is_per_call(self, capsys, pq24_file, monkeypatch):
        # [DERIVED] QUADTILE_TOL_REALIZE applies to that call only: a tiny
        # tolerance fails the realization and leaves the module default
        monkeypatch.setenv("QUADTILE_TOL_REALIZE", "1e-300")
        code, _, err = run(capsys, "realize", str(pq24_file),
                           "--quad", "family")
        assert code == 1 and "realization failed" in err
        assert geometry.TOL_REALIZE == 1e-6
        monkeypatch.delenv("QUADTILE_TOL_REALIZE")
        code, _, _ = run(capsys, "realize", str(pq24_file), "--quad", "family")
        assert code == 0

    def test_bad_tolerance_env(self, capsys, cube_file, monkeypatch):
        # [TRIVIAL] an unparsable tolerance is a usage error
        monkeypatch.setenv("QUADTILE_TOL_REALIZE", "tight")
        code, _, err = run(capsys, "realize", str(cube_file),
                           "--delta", "pi/3")
        assert code == 2 and "QUADTILE_TOL_REALIZE" in err


class TestSymmetry:
    def test_cube(self, capsys, cube_file):
        # [PAPER] "T_h, order 24"
        code, out, _ = run(capsys, "symmetry", str(cube_file))
        assert code == 0 and "T_h, order 24" in out

    def test_beta2delta(self, capsys, tmp_path):
        # [PAPER] "C_2, order 2"
        path = tmp_path / "bd24.json"
        main(["construct", "beta2delta", "--f", "24", "-o", str(path)])
        capsys.readouterr()
        code, out, _ = run(capsys, "symmetry", str(path))
        assert code == 0 and "C_2, order 2" in out

    def test_generators(self, capsys, pq24_file):
        # [TRIVIAL]
        code, out, _ = run(capsys, "symmetry", str(pq24_file),
                           "--generators")
        assert code == 0 and "preserving" in out


class TestAVCSearch:
    def test_f6(self, capsys):
        # [PAPER] f=6 output contains {α³, βγδ}
        code, out, _ = run(capsys, "avc-search", "--f", "6")
        assert code == 0
        assert "α³" in out and "βγδ" in out

    def test_f16_contains_family(self, capsys):
        # [PAPER] f=16 output contains the pq family line
        code, out, _ = run(capsys, "avc-search", "--f", "16",
                           "--max-degree", "6")
        assert code == 0
        assert any("αβ²" in ln and "δ⁴" in ln and "γ⁴" in ln
                   for ln in out.splitlines())

    def test_bad_f(self, capsys):
        # [TRIVIAL]
        code, _, _ = run(capsys, "avc-search", "--f", "7")
        assert code == 2
