"""CLI surface: subcommands, exit codes, determinism."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quadtile
from quadtile import geometry
from quadtile.cli import main


#: map files that are not a map layout: JSON documents, and one raw text
#: (the str), JSON nested too deeply to parse
MALFORMED = [
    [], None, {"f": 2}, {"f": "x", "glue": []}, {"f": 2, "glue": 5},
    {"f": 2, "glue": [[0, "AB", 1, "AB"], [0, "BC", 1, "BC"],
                      [0, "CD", 1, "CD"], [0, "DA", 1, "DA"]],
     "orient": 7},
    # earth_map(6) with orientation bits that are not ints 0/1, one per tile
    *({**json.loads(quadtile.earth_map(6).to_json()), "orient": bits}
      for bits in (["0"] * 6, [], [None] * 6)),
    *({"f": 2, "glue": [entry, [0, "BC", 1, "BC"], [0, "CD", 1, "CD"],
                        [0, "DA", 1, "DA"]], "orient": [0, 1]}
      for entry in ([0, 5, 0, 4], [0.0, "AB", 1, "AB"], [0, "XY", 1, "AB"])),
    "[" * 100000,
    # a JSON boolean as the tile count
    {"f": True, "glue": [[0, "AB", 0, "DA"], [0, "BC", 0, "CD"]]},
    {"f": False, "glue": []},
]

#: the two stderr lines of a realization that does not close
CLOSURE_ERR = (r"error: realization failed: realization does not close: "
               r"vertex (\d+) gap \S+ exceeds \S+\n"
               r"worst vertex: \1  gap: \S+\n")


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

    @pytest.mark.parametrize("argv,option", [
        (["subdivision", "--base", "cube", "--f", "10"], "--f"),
        (["pq-emt", "--f", "16", "--base", "cube"], "--base"),
        (["earth-map", "--f", "8", "--base", "octahedron"], "--base"),
        (["alphadelta", "--f", "24", "--base", "cube"], "--base"),
        (["beta2delta", "--f", "24", "--base", "triangular_prism"],
         "--base"),
    ], ids=["subdivision", "pq-emt", "earth-map", "alphadelta",
            "beta2delta"])
    def test_unused_option(self, capsys, tmp_path, argv, option):
        # [TRIVIAL] an option the family does not take is a usage error,
        # not silently ignored
        out_file = tmp_path / "m.json"
        code, out, err = run(capsys, "construct", *argv, "-o", str(out_file))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and option in err
        assert not out_file.exists()

    def test_octahedron_alias(self, capsys, tmp_path):
        # [DERIVED] --base octahedron is an alias of cube: the same bytes
        cube, octahedron = tmp_path / "cube.json", tmp_path / "oct.json"
        for base, path in (("cube", cube), ("octahedron", octahedron)):
            code, _, _ = run(capsys, "construct", "subdivision", "--base",
                             base, "-o", str(path))
            assert code == 0
        assert octahedron.read_bytes() == cube.read_bytes()

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

    def test_degree_zero_expectation(self, capsys, pq24_file):
        # [TRIVIAL] a signature of degree 0 is malformed input, not an AVC
        # the map fails to match
        code, _, err = run(capsys, "verify", str(pq24_file), "--expect", "a0")
        assert code == 2 and err.startswith("error:")

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

    @pytest.mark.parametrize("command", ["verify", "realize", "symmetry"])
    @pytest.mark.parametrize("data", MALFORMED, ids=[
        "list", "null", "no-glue", "str-f", "int-glue", "int-orient",
        "str-bits", "empty-bits", "null-bits", "slot-5", "float-tile",
        "name-XY", "deep-nesting", "true-f", "false-f"])
    def test_malformed_map(self, capsys, tmp_path, command, data):
        # [TRIVIAL] well-formed JSON that is not a map layout, or JSON too
        # deeply nested to parse, is a usage error, not a traceback
        bad = tmp_path / "bad.json"
        bad.write_text(data if isinstance(data, str) else json.dumps(data))
        extra = ["--delta", "pi/3"] if command == "realize" else []
        code, _, err = run(capsys, command, str(bad), *extra)
        assert code == 2 and err.startswith("error:")

    def test_short_glue_rejected_first(self, capsys, tmp_path):
        # [TRIVIAL] a 26-byte file claiming a million tiles is refused on
        # its glue count, before a table of 4f slots is allocated
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps({"f": 10**6, "glue": []}))
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert "2000000 glue entries" in err and "got 0" in err


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

    def test_negative_edge_samples(self, capsys, cube_file, tmp_path):
        # [TRIVIAL] a negative sample count is a usage error; 0 still writes
        # an OBJ without polylines and an SVG at one sample per edge
        svg = tmp_path / "m.svg"
        code, _, err = run(capsys, "realize", str(cube_file), "--delta",
                           "pi/3", "--edge-samples", "-3", "--svg", str(svg))
        assert code == 2 and err.startswith("error:") and not svg.exists()
        obj = tmp_path / "m.obj"
        code, _, _ = run(capsys, "realize", str(cube_file), "--delta", "pi/3",
                         "--edge-samples", "0", "--obj", str(obj),
                         "--svg", str(svg))
        assert code == 0 and svg.exists()
        assert not any(ln.startswith("l ")
                       for ln in obj.read_text().splitlines())

    def test_no_quad_source(self, capsys, cube_file):
        # [TRIVIAL]
        code, _, _ = run(capsys, "realize", str(cube_file))
        assert code == 2

    def test_two_quad_sources(self, capsys, cube_file):
        # [TRIVIAL] the quad sources exclude each other
        code, out, err = run(capsys, "realize", str(cube_file),
                             "--quad", "family", "--delta", "pi/3")
        assert code == 2 and not out
        assert "not allowed with argument --quad" in err

    def test_tolerance_env_is_per_call(self, capsys, pq24_file, monkeypatch):
        # [DERIVED] realize reads geometry.TOL_REALIZE on each call: a tiny
        # tolerance fails the realization with the closure error and its
        # worst vertex, and the next call with the constant restored closes
        monkeypatch.setattr(geometry, "TOL_REALIZE", 1e-300)
        code, out, err = run(capsys, "realize", str(pq24_file),
                             "--quad", "family")
        assert code == 1 and out == ""
        assert re.fullmatch(CLOSURE_ERR, err), err
        monkeypatch.undo()
        code, _, _ = run(capsys, "realize", str(pq24_file), "--quad", "family")
        assert code == 0

    def test_tolerance_env_ignored(self, capsys, pq24_file, monkeypatch):
        # [DERIVED] the closure tolerance is a constant: the environment
        # variable that once overrode it changes nothing
        want = run(capsys, "realize", str(pq24_file), "--quad", "family")
        monkeypatch.setenv("QUADTILE_TOL_REALIZE", "1e-300")
        got = run(capsys, "realize", str(pq24_file), "--quad", "family")
        assert got[0] == 0 and got[1] == want[1]


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


@pytest.mark.parametrize("argv", [
    ["construct", "pq-emt", "--f", "24", "-o"],
    ["realize", "MAP", "--quad", "family", "--obj"],
    ["realize", "MAP", "--quad", "family", "--svg"],
], ids=["construct-o", "realize-obj", "realize-svg"])
def test_unwritable_output(capsys, pq24_file, tmp_path, argv):
    # [TRIVIAL] an output file in a missing directory is an I/O error: exit
    # 2 with one error line, not a traceback
    argv = [str(pq24_file) if a == "MAP" else a for a in argv]
    code, _, err = run(capsys, *argv, str(tmp_path / "missing" / "x.out"))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["construct", "pq-emt", "--f", "16", "-o", ""],
    ["verify", "MAP", "--expect", ""],
    ["realize", "MAP", "--quad", "family", "--obj", ""],
    ["realize", "MAP", "--quad", "family", "--svg", ""],
], ids=["construct-o", "verify-expect", "realize-obj", "realize-svg"])
def test_empty_option_value(capsys, pq24_file, argv):
    # [TRIVIAL] an empty value is a value, not an absent option: an empty
    # path cannot be opened and an empty AVC string is refused, where they
    # printed the map to stdout, checked it against its own AVC or wrote
    # nothing, and exited 0
    argv = [str(pq24_file) if a == "MAP" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert '"glue"' not in out and "OK" not in out


@pytest.mark.parametrize("argv", [
    ["--obj", "OUT", "--svg", "MISSING"],
    ["--obj", ""],
], ids=["bad-svg", "empty-obj"])
def test_output_checked_before_realizing(capsys, pq24_file, tmp_path,
                                         monkeypatch, argv):
    # [DERIVED] a realize output that cannot be written exits 2 before the
    # realization runs: nothing on stdout, one error line, and no content
    # in the other output
    def refuse(*args, **kwargs):
        raise AssertionError("realize ran")

    monkeypatch.setattr(geometry, "realize", refuse)
    obj = tmp_path / "m.obj"
    subst = {"OUT": str(obj), "MISSING": str(tmp_path / "missing" / "x.svg")}
    code, out, err = run(capsys, "realize", str(pq24_file), "--quad",
                         "family", *(subst.get(a, a) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not obj.exists() or obj.stat().st_size == 0


def test_one_path_for_both_outputs(capsys, pq24_file, tmp_path):
    # [DERIVED] --obj and --svg naming one file leave it holding the SVG,
    # written last, and none of the longer OBJ after it
    path = tmp_path / "m.out"
    code, _, _ = run(capsys, "realize", str(pq24_file), "--quad", "family",
                     "--obj", str(path), "--svg", str(path))
    assert code == 0
    text = path.read_text()
    assert text.startswith("<svg") and text.endswith("</svg>\n")


def test_failed_realization_writes_no_content(capsys, pq24_file, tmp_path,
                                              monkeypatch):
    # [DERIVED] outputs opened before a realization that fails are left
    # without content
    monkeypatch.setattr(geometry, "TOL_REALIZE", 1e-300)
    obj, svg = tmp_path / "m.obj", tmp_path / "m.svg"
    code, out, err = run(capsys, "realize", str(pq24_file), "--quad",
                         "family", "--obj", str(obj), "--svg", str(svg))
    assert code == 1 and out == ""
    assert re.fullmatch(CLOSURE_ERR, err), err
    assert all(not p.exists() or p.stat().st_size == 0 for p in (obj, svg))


@pytest.mark.parametrize("argv,code", [
    (["construct", "earth-map", "--f", "7"], 2),
    (["construct", "subdivision"], 2),
    (["verify", "MISSING"], 2),
    (["verify", "MAP", "--expect", "qq"], 2),
    (["realize", "MISSING", "--quad", "family"], 2),
    (["realize", "MAP", "--delta", "banana"], 2),
    (["realize", "MAP", "--angles", "2pi/3,2pi/3,pi/2"], 2),
    (["realize", "MAP", "--angles", "2pi/3,2pi/3,pi/2,pi/3", "--root", "9"],
     2),
    (["realize", "MAP", "--delta", "pi/2"], 1),
    (["avc-search", "--f", "7"], 2),
    (["symmetry", "MISSING"], 2),
], ids=["construct-domain", "construct-usage", "verify-missing",
        "verify-expect", "realize-missing", "realize-delta",
        "realize-angles", "realize-root", "realize-degenerate",
        "avc-search-f", "symmetry-missing"])
def test_error_exit(capsys, cube_file, tmp_path, argv, code):
    # [TRIVIAL] every input, domain or I/O error exits with its code and
    # one error line, never a traceback; a map file that does not exist is
    # an I/O error like one that is malformed
    subst = {"MAP": str(cube_file), "MISSING": str(tmp_path / "no.json")}
    got, _, err = run(capsys, *(subst.get(a, a) for a in argv))
    assert got == code
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_library_value_error(capsys, cube_file, monkeypatch):
    # [TRIVIAL] a ValueError raised while a subcommand computes is an error
    # line and exit 2 like any other, not a traceback
    import quadtile.symmetry

    def refuse(m):
        raise ValueError("unclassifiable group")

    monkeypatch.setattr(quadtile.symmetry, "classify", refuse)
    code, out, err = run(capsys, "symmetry", str(cube_file))
    assert code == 2 and not out
    assert err == "error: unclassifiable group\n"


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


#: the benchmark's nine-command CLI session plus the other two subdivisions
SESSION = [
    ["construct", "pq-emt", "--f", "24", "-o", "pq24.json"],
    ["construct", "subdivision", "--base", "cube", "-o", "cube.json"],
    ["verify", "pq24.json", "--expect", "αβ²×12,α²δ²×6,γ⁴×6,δ⁶×2"],
    ["verify", "cube.json", "--expect", "α³×8,β²δ²×12,γ⁴×6"],
    ["realize", "pq24.json", "--quad", "family", "--obj", "pq24.obj",
     "--svg", "pq24.svg"],
    ["realize", "cube.json", "--delta", "pi/3"],
    ["symmetry", "pq24.json", "--generators"],
    ["symmetry", "cube.json", "--generators"],
    ["avc-search", "--f", "8", "--max-degree", "5"],
    ["construct", "subdivision", "--base", "octahedron", "-o", "oct.json"],
    ["construct", "subdivision", "--base", "triangular_prism",
     "-o", "prism.json"],
]

#: sha256 of repr((exit code, stdout, stderr)) per SESSION command, then of
#: the bytes of every file the session writes; recorded before the
#: constructors were rewritten to build each map directly, except the two
#: realize entries, pq24.obj and pq24.svg, re-recorded when realize and
#: export moved from NumPy to plain Python, and oct.json, which has
#: cube.json's digest since octahedron is an alias of cube
SESSION_GOLDEN = {
    "construct pq-emt --f 24 -o pq24.json":
        "9dbf31f2681e6d2ad8764708010103ab80bdca4c8f2d6789785b6d4d0a6dc704",
    "construct subdivision --base cube -o cube.json":
        "d43271715bca4063f0dbd54b2c10b0d14aea209bc2ed1f969a119c91dcf39059",
    "verify pq24.json --expect αβ²×12,α²δ²×6,γ⁴×6,δ⁶×2":
        "f8e64cb4a83541b8f5446b1833b544cb5127b399e4e1aef59b3f151201f9962a",
    "verify cube.json --expect α³×8,β²δ²×12,γ⁴×6":
        "d94c5d79736eddeb5755de1c21723dfd680b14090ae1adb0b130d3f886cc5d86",
    "realize pq24.json --quad family --obj pq24.obj --svg pq24.svg":
        "b24601028d56e72f195396b90e41b3fac15ac44e66bdec6740ee0009cd1a557a",
    "realize cube.json --delta pi/3":
        "072aff84376bacfc5f608b0649fc6160b6653ee9f24150e4a8bbd1ed43172703",
    "symmetry pq24.json --generators":
        "142520f253770ca88dd623e4b16bebce1afa56595937d2be2296228db5996c27",
    "symmetry cube.json --generators":
        "83ee6958923ba44b3af1073674ded51c420a0a1064a854ecb01463aae6fe1aed",
    "avc-search --f 8 --max-degree 5":
        "edf7a39a0cdc790d0b307a1ea2e3b16c7a457e82a5b53dd7e1a05179abc24008",
    "construct subdivision --base octahedron -o oct.json":
        "e1eadd17c55a83335dfe2f2300c0a75fd187e265c623ca213f06a2cd45555d41",
    "construct subdivision --base triangular_prism -o prism.json":
        "2dbb121207e07a73a6a4b36b7d8677a5767be99cf3902b819e1957b4142a89dc",
    "cube.json":
        "2d4b25ebaebf19241588beb912b2088677aed18e917f6318528b418a9ba1da2f",
    "oct.json":
        "2d4b25ebaebf19241588beb912b2088677aed18e917f6318528b418a9ba1da2f",
    "pq24.json":
        "3f12191cdbe5a7ab94f29eec5d10b94e8380626e7eba8b606662e8983f7f8210",
    "pq24.obj":
        "d3dba8aa55ced7e851fa2f819187afb1a2ecc7a3e7d7fc751c6c641c682b74c6",
    "pq24.svg":
        "2743b90577cc219201afce71075a351394d0b88937a64d4f201bb41b382f3d37",
    "prism.json":
        "41c4c388760ac1774d4d34c112352fc311ff814cd24a91af727e5b6709f43116",
}


class TestGoldenSession:
    def test_session(self, capsys, tmp_path, monkeypatch):
        # [DERIVED] the whole CLI session reproduces its output byte for byte
        monkeypatch.chdir(tmp_path)
        got = {}
        for argv in SESSION:
            result = run(capsys, *argv)  # (exit code, stdout, stderr)
            got[" ".join(argv)] = hashlib.sha256(
                repr(result).encode()).hexdigest()
        for path in sorted(tmp_path.iterdir()):
            got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert got == SESSION_GOLDEN


class TestImports:
    """Each subcommand loads only its own layer, and none loads NumPy."""

    @staticmethod
    def python(*argv, cwd=None):
        src = str(Path(quadtile.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    def cli_imports(self, cwd, *argv):
        """Run the CLI as ``python -m quadtile.cli`` does, in a fresh
        interpreter, and return the modules loaded when it exits."""
        proc = self.python("-c", f"""
import runpy, sys
sys.argv = ["quadtile", *{list(argv)!r}]
try:
    runpy.run_module("quadtile.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
print(*sorted(sys.modules))
""", cwd=cwd)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.splitlines()[-1].split())

    def test_import_quadtile_loads_no_submodule(self):
        # [TRIVIAL] a bare import loads nothing; a submodule attribute and a
        # package name both resolve on first use, and neither loads NumPy
        proc = self.python("-c", """
import quadtile, sys
print(sorted(m for m in sys.modules if "quadtile" in m))
assert quadtile.geometry.realize is quadtile.realize
print("numpy" in sys.modules)
""")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["['quadtile']", "False"]

    def test_no_numpy_and_geometry_only_for_realize(self, tmp_path):
        # [DERIVED] NumPy is a test dependency, so a stray import would
        # load it; no subcommand does. construct, verify, symmetry and
        # avc-search never touch geometry; realize loads it, exports and
        # succeeds. The records are named tuples, so no subcommand pays for
        # importing dataclasses and the inspect module it loads. Only
        # symmetry loads quadtile.symmetry, which canonical_form imports
        # when it runs
        assert importlib.util.find_spec("numpy") is not None
        slow = {"numpy", "dataclasses", "inspect"}
        for argv in (["construct", "pq-emt", "--f", "16", "-o", "m.json"],
                     ["construct", "alphadelta", "--f", "24", "-o", "a.json"],
                     ["verify", "m.json"], ["symmetry", "m.json"],
                     ["avc-search", "--f", "6"]):
            loaded = self.cli_imports(tmp_path, *argv)
            assert not loaded & (slow | {"quadtile.geometry"}), argv
            assert ("quadtile.symmetry" in loaded) == (argv[0] == "symmetry")
        loaded = self.cli_imports(tmp_path, "realize", "m.json", "--quad",
                                  "family", "--obj", "m.obj", "--svg", "m.svg")
        assert "quadtile.geometry" in loaded and not loaded & slow
        assert "quadtile.symmetry" not in loaded

    def test_solver_and_search_only_where_they_run(self, tmp_path):
        # [DERIVED] the map layers read their vertex records from the leaf
        # quadtile.vertex, so the map commands compile neither the exact
        # angle solver nor the AVC search, nor import fractions; the flip
        # families check each flip's angles with the solver alone, and
        # avc-search is the search
        solver = {"quadtile.angles", "fractions"}
        search = solver | {"quadtile.combinatorics"}
        for argv in (["construct", "pq-emt", "--f", "16", "-o", "m.json"],
                     ["construct", "subdivision", "--base", "cube",
                      "-o", "c.json"],
                     ["verify", "m.json", "--expect",
                      "αβ²×8,α²δ²×4,γ⁴×4,δ⁴×2"],
                     ["symmetry", "c.json", "--generators"],
                     ["realize", "m.json", "--quad", "family"]):
            loaded = self.cli_imports(tmp_path, *argv)
            assert "quadtile.vertex" in loaded and not loaded & search, argv
        loaded = self.cli_imports(tmp_path, "construct", "alphadelta",
                                  "--f", "24")
        assert solver <= loaded and "quadtile.combinatorics" not in loaded
        assert search <= self.cli_imports(tmp_path, "avc-search", "--f", "6")

    def test_importtime_lists_geometry(self, tmp_path):
        # [DERIVED] realize imports geometry by the import statement, not
        # through the package's lazy __getattr__, so -X importtime sees it
        assert self.python("-m", "quadtile.cli", "construct", "pq-emt",
                           "--f", "16", "-o", "pq16.json",
                           cwd=tmp_path).returncode == 0
        proc = self.python("-X", "importtime", "-m", "quadtile.cli",
                           "realize", "pq16.json", "--quad", "family",
                           cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        timed = {line.rsplit("|", 1)[-1].strip()
                 for line in proc.stderr.splitlines()}
        assert "quadtile.geometry" in timed

    def test_moved_names_are_one_object(self):
        # [TRIVIAL] each name that moved to quadtile.vertex is the same
        # object from the leaf, from its old module and from the package
        from quadtile import angles, combinatorics, vertex
        moved = {angles: ("ANGLE_NAMES", "VertexSignature"),
                 combinatorics: ("CheckReport", "DegreeVector",
                                 "catalog_sort_key", "counting_identities",
                                 "parity_admissible")}
        for module, names in moved.items():
            for name in names:
                obj = getattr(vertex, name)
                assert name in module.__all__ and name in vertex.__all__
                assert getattr(module, name) is obj, name
                if name in quadtile.__all__:
                    assert getattr(quadtile, name) is obj, name
                if callable(obj):
                    assert obj.__module__ == "quadtile.vertex", name

    def test_pickle_with_old_module_path_loads(self):
        # [TRIVIAL] a record pickled while its class lived in angles or
        # combinatorics names that module (protocol 2 writes the module
        # path as a text line, so the rewritten bytes are the ones written
        # before the move) and still loads, as the same class
        import pickle

        from quadtile.vertex import CheckReport, DegreeVector, VertexSignature
        report = CheckReport()
        report.add("x", False, "why")
        for old, obj in (("angles", VertexSignature(1, 2, 0, 0)),
                         ("combinatorics", DegreeVector(16, {3: 8, 4: 10})),
                         ("combinatorics", report)):
            data = pickle.dumps(obj, protocol=2)
            stale = data.replace(b"quadtile.vertex\n",
                                 f"quadtile.{old}\n".encode())
            assert stale != data
            back = pickle.loads(stale)
            assert type(back) is type(obj) and back == obj


def test_console_script(tmp_path):
    # [DERIVED] the console-script checks that CI runs on the installed
    # command, here through ``python -m quadtile.cli``: every subcommand,
    # the default f = 24 sweep's 86 candidates, the flip families'
    # symmetry groups and the error exit codes
    script = Path(__file__).with_name("console_script.sh")
    src = str(Path(quadtile.__file__).resolve().parents[1])
    env = dict(os.environ, QUADTILE=f"{sys.executable} -m quadtile.cli",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(["bash", str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
