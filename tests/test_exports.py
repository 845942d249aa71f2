"""Every name a module exports exists; every module-level import is read."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import quadtile

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
    "solve_angle_system", "solve_edges", "trig_residuals", "verify",
    "vertex_bisecting_cycles",
}

SUBMODULES = [name.split(".", 1)[1] for name in MODULES[1:]]


def test_package_names():
    # [TRIVIAL] the export table neither lost nor gained a name
    assert len(quadtile.__all__) == len(PACKAGE_NAMES) == 55
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
