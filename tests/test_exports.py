"""Every name a module exports exists; every module-level import is read."""

import ast
import importlib
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import quadtile
from quadtile import (
    AngleExpr,
    AngleSolution,
    AVCCandidate,
    CheckReport,
    DegreeVector,
    GeometryError,
    MapAutomorphism,
    Realization,
    SphericalQuad,
    SymmetryClass,
    TilingMap,
    VertexSignature,
    automorphisms,
    classify,
    closed_form_family,
    decompose_time_zones,
    pq_earth_map,
    quad_subdivide,
    search_avcs,
)

MODULES = ["quadtile"] + [
    f"quadtile.{info.name}" for info in pkgutil.iter_modules(quadtile.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    # [TRIVIAL] a name left in __all__ after its definition was deleted
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


#: the package-level names, pinned when the eager imports became lazy
PACKAGE_NAMES = {
    "AVCCandidate", "AffineAngles", "AngleExpr", "AngleSolution",
    "CheckReport", "ClosureError", "DegeneracyError", "DegeneracyWarning",
    "DegreeVector", "DomainError", "FlipInvalidError", "GeometryError",
    "MapAutomorphism", "Realization", "SingularityError", "SphericalQuad",
    "SymmetryClass", "TilingError", "TilingMap", "TimeZoneDisk",
    "VertexSignature", "angles_feasible", "area", "automorphisms",
    "avc_feasibility", "balance_pair_counts", "build", "classify",
    "closed_form_cube_subdivision", "closed_form_family", "convexity_bounds",
    "counting_identities", "decompose_time_zones", "degeneracy_loci",
    "degree_vertex_catalog", "earth_map", "export_obj", "export_svg",
    "extract_avc", "family_alphadelta", "family_beta2delta", "flip_segment",
    "holonomy_residual", "lune_quad", "parity_admissible", "pq_earth_map",
    "quad_subdivide", "realize", "search_avcs", "solve_affine",
    "solve_angle_system", "solve_edges", "verify",
}

SUBMODULES = [name.split(".", 1)[1] for name in MODULES[1:]]


def test_package_names():
    # [TRIVIAL] the export table neither lost nor gained a name
    assert len(quadtile.__all__) == len(PACKAGE_NAMES) == 53
    assert set(quadtile.__all__) == PACKAGE_NAMES


@pytest.mark.parametrize("name", sorted(PACKAGE_NAMES))
def test_package_name_is_the_submodule_object(name):
    # [TRIVIAL] the lazy lookup returns the submodule's own object
    owner = next(m for m in SUBMODULES
                 if name in getattr(importlib.import_module(
                     f"quadtile.{m}"), "__all__", ()))
    assert getattr(quadtile, name) is getattr(
        importlib.import_module(f"quadtile.{owner}"), name)


def test_submodules_are_attributes():
    # [TRIVIAL] quadtile.<submodule> works without importing it by name
    for name in SUBMODULES:
        assert getattr(quadtile, name) is importlib.import_module(
            f"quadtile.{name}")


def test_dir_and_unknown_name():
    # [TRIVIAL]
    listing = dir(quadtile)
    assert "__all__" in listing
    assert PACKAGE_NAMES <= set(listing)
    with pytest.raises(AttributeError, match="no_such_name"):
        quadtile.no_such_name  # noqa: B018


def test_star_import():
    # [TRIVIAL] ``from quadtile import *`` binds every exported name
    namespace = {}
    exec("from quadtile import *", namespace)
    assert PACKAGE_NAMES <= set(namespace)


def _unused_imports(source: str) -> list[str]:
    """Module-level imports of ``source`` whose name is never read, counting
    names in code, in string annotations and in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(sub.value))
                             if isinstance(n, ast.Name)}
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in getattr(node.value, "elts", ())
                     if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(
    Path(quadtile.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    # [TRIVIAL] a module-level import that nothing reads any more
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check():
    # [TRIVIAL] the check sees a dead import, and counts a name read only in
    # a string annotation or exported through __all__
    assert _unused_imports("import os\nimport re as r\n") == [
        "os (line 1)", "r (line 2)"]
    assert _unused_imports(
        "from typing import List\nfrom x import y\n__all__ = ['y']\n"
        "def f(a: 'List[int]') -> None: pass\n") == []


#: record class -> its fields in order; ``==`` and ``hash`` read them all,
#: except for the classes in COMPARED_FIELDS
RECORD_FIELDS = {
    "AngleExpr": ("c0", "c1"),
    "AngleSolution": ("kind", "assignment", "free", "relations", "pinned_f"),
    "DegreeVector": ("f", "v"),
    "AVCCandidate": ("f", "signatures", "multiplicities", "angles",
                     "known_unrealizable"),
    "TilingMap": ("f", "glue", "orient", "vertices", "vertex_of", "tree"),
    "TimeZoneDisk": ("tiles", "boundary", "flipped"),
    "SphericalQuad": ("a", "b", "c", "alpha", "beta", "gamma", "delta"),
    "Realization": ("map", "quad", "coords", "tile_corners", "max_mismatch",
                    "area_sum"),
    "MapAutomorphism": ("perm", "reversing"),
    "SymmetryClass": ("name", "order", "principal_axis_order", "paper_label",
                      "mirror_count", "has_inversion",
                      "has_horizontal_mirror"),
}
COMPARED_FIELDS = {"TilingMap": ("f", "glue", "orient")}
UNHASHABLE = {"DegreeVector"}  # its ``v`` is a dict


@pytest.fixture(scope="module")
def records():
    """Record class name -> (a record, an equal one, a different one)."""
    m, cube = pq_earth_map(16), quad_subdivide("cube")
    q = closed_form_family(16)
    zones = decompose_time_zones(m)
    real = (m, q, ((0.0, 0.0, 1.0),), ((0, 0, 0, 0),), 0.0, 1.0)
    candidate = (6, (VertexSignature(3, 0, 0, 0), VertexSignature(0, 1, 1, 1)),
                 (2, 6), None)
    return {
        "AngleExpr": (AngleExpr(1), AngleExpr(Fraction(1), 0),
                      AngleExpr(1, 1)),
        "AngleSolution": (AngleSolution("infeasible"),
                          AngleSolution("infeasible", None, (), None, None),
                          AngleSolution("infeasible", pinned_f=Fraction(24))),
        "DegreeVector": (m.degree_vector(), DegreeVector(16, {3: 8, 4: 10}),
                         cube.degree_vector()),
        "AVCCandidate": (search_avcs(6)[0], AVCCandidate(*candidate),
                         AVCCandidate(*candidate, known_unrealizable=True)),
        "TilingMap": (m, TilingMap(m.f, m.glue, m.orient, (), (), ()), cube),
        "TimeZoneDisk": (zones[0], decompose_time_zones(m)[0], zones[1]),
        "SphericalQuad": (q, closed_form_family(16), closed_form_family(24)),
        "Realization": (Realization(*real), Realization(*real),
                        Realization(*real[:5], 2.0)),
        "MapAutomorphism": (automorphisms(m)[1],
                            MapAutomorphism(tuple(range(7, -1, -1))
                                            + tuple(range(15, 7, -1)), False),
                            automorphisms(m)[2]),
        "SymmetryClass": (classify(m),
                          SymmetryClass("D_2d", 8, 2, "D_{2v}", 2),
                          classify(cube)),
    }


def test_record_behaviour(records):
    # [TRIVIAL] repr, ==, != and hash of one record of each class, as
    # recorded while the records were dataclasses: equality and hashing
    # read the compared fields as a tuple, and TilingMap compares and hashes
    # (f, glue, orient) alone and leaves vertex_of and tree out of its repr
    reprs = {name: repr(x) for name, (x, _, _) in records.items()}
    m = records["TilingMap"][0]
    assert reprs.pop("TilingMap") == (
        f"TilingMap(f=16, glue={m.glue!r}, orient={m.orient!r}, "
        f"vertices={m.vertices!r})")
    assert reprs.pop("Realization") == (
        f"Realization(map={m!r}, quad={reprs['SphericalQuad']}, "
        "coords=((0.0, 0.0, 1.0),), tile_corners=((0, 0, 0, 0),), "
        "max_mismatch=0.0, area_sum=1.0)")
    assert reprs == {
        "AngleExpr": "AngleExpr(c0=Fraction(1, 1), c1=Fraction(0, 1))",
        "AngleSolution": "AngleSolution(kind='infeasible', assignment=None, "
                         "free=(), relations=None, pinned_f=None)",
        "DegreeVector": "DegreeVector(f=16, v={4: 10, 3: 8})",
        "AVCCandidate": "AVCCandidate(f=6, signatures=(VertexSignature(a=3, "
                        "b=0, c=0, d=0), VertexSignature(a=0, b=1, c=1, d=1)), "
                        "multiplicities=(2, 6), angles=None, "
                        "known_unrealizable=False)",
        "TimeZoneDisk": "TimeZoneDisk(tiles=(0, 1, 2, 3, 4, 5, 6, 7), "
                        "boundary=((0, 'AB'), (2, 'AB'), (2, 'DA'), (6, 'DA'), "
                        "(7, 'DA'), (7, 'AB'), (5, 'AB'), (5, 'DA'), "
                        "(1, 'DA'), (0, 'DA')), flipped=False)",
        "SphericalQuad": "SphericalQuad(a=0.9045568943023814, "
                         "b=0.5073563032171444, c=1.1185178796437059, "
                         "alpha=1.5707963267948966, beta=2.356194490192345, "
                         "gamma=1.5707963267948966, delta=1.5707963267948966)",
        "MapAutomorphism": "MapAutomorphism(perm=(7, 6, 5, 4, 3, 2, 1, 0, 15, "
                           "14, 13, 12, 11, 10, 9, 8), reversing=False)",
        "SymmetryClass": "SymmetryClass(name='D_2d', order=8, "
                         "principal_axis_order=2, paper_label='D_{2v}', "
                         "mirror_count=2, has_inversion=False, "
                         "has_horizontal_mirror=False)",
    }
    for name, (x, same, other) in records.items():
        assert x is not same and x == same and not x != same, name
        assert x != other and not x == other, name
        if name in UNHASHABLE:
            with pytest.raises(TypeError, match="unhashable"):
                hash(x)
            continue
        compared = tuple(getattr(x, f) for f in COMPARED_FIELDS.get(
            name, RECORD_FIELDS[name]))
        assert hash(x) == hash(same) == hash(compared), name
        assert hash(x) != hash(other), name


def test_record_checks(records):
    # [TRIVIAL] a record's construction check also runs on the replace path
    x = AngleExpr(1)
    assert type(x.c0) is type(x.c1) is Fraction
    y = x._replace(c1=2)
    assert type(y.c1) is Fraction and y == AngleExpr(1, 2)
    q = records["SphericalQuad"][0]
    for bad in ({"a": -1.0}, {"delta": 7.0}):
        (name, value), = bad.items()
        message = rf"^{name} = {value!r} outside \(0, 2\*pi\)$"
        with pytest.raises(GeometryError, match=message):
            SphericalQuad(**{**q._asdict(), **bad})
        with pytest.raises(GeometryError, match=message):
            q._replace(**bad)
    first, second = CheckReport(), CheckReport()
    first.add("x", False, "why")
    assert second.checks == [] and second != first
    assert first == CheckReport([("x", False, "why")])
    assert repr(first) == "CheckReport(checks=[('x', False, 'why')])"
    with pytest.raises(TypeError, match="unhashable"):
        hash(first)


def test_records_are_tuples(records):
    # [TRIVIAL] the deliberate change from the dataclasses: each record is a
    # named tuple of its fields, so it iterates and indexes, carries no
    # __dict__, and equals the plain tuple of its fields; a TilingMap
    # equals only a map
    for name, (x, _, _) in records.items():
        fields = tuple(getattr(x, f) for f in RECORD_FIELDS[name])
        assert x._fields == RECORD_FIELDS[name], name
        assert tuple(x) == fields and x[0] is fields[0], name
        assert not hasattr(x, "__dict__"), name
        assert (x == fields) is (name != "TilingMap"), name
