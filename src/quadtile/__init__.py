"""Edge-to-edge tilings of the sphere by congruent a2bc quadrilaterals:
exact angle algebra, combinatorial maps, constructors for every tiling
family, numeric spherical realization, and symmetry classification.

``import quadtile`` loads no submodule: each public name (and each
submodule) is imported the first time it is used.  The package needs no
third-party module at run time.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the public names it exports at package level
_EXPORTS = {
    "vertex": (
        "CheckReport", "DegreeVector", "VertexSignature",
        "counting_identities", "parity_admissible"),
    "angles": (
        "AffineAngles", "AngleExpr", "AngleSolution", "angles_feasible",
        "solve_affine", "solve_angle_system"),
    "combinatorics": (
        "AVCCandidate", "avc_feasibility", "degree_vertex_catalog",
        "search_avcs"),
    "constructors": (
        "DomainError", "FlipInvalidError", "TimeZoneDisk",
        "decompose_time_zones", "earth_map", "family_alphadelta",
        "family_beta2delta", "flip_segment", "pq_earth_map",
        "quad_subdivide"),
    "geometry": (
        "ClosureError", "DegeneracyError", "DegeneracyWarning",
        "GeometryError", "Realization", "SingularityError", "SphericalQuad",
        "area", "closed_form_cube_subdivision", "closed_form_family",
        "convexity_bounds", "degeneracy_loci", "export_obj", "export_svg",
        "holonomy_residual", "lune_quad", "realize", "solve_edges"),
    "symmetry": (
        "MapAutomorphism", "SymmetryClass", "automorphisms", "classify"),
    "tilingmap": (
        "TilingError", "TilingMap", "balance_pair_counts", "build",
        "extract_avc", "verify"),
    "cli": (),
}

_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    """Import the submodule that owns ``name`` and cache the value here."""
    if name in _OWNER:
        value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"),
                        name)
    elif name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER, *_EXPORTS})
