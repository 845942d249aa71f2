"""Command-line interface: construct, verify, realize, avc-search, symmetry.

All output is deterministic (sorted collections, floats printed with 17
significant digits).  Exit codes: 0 success, 1 verification or realization
failure, 2 usage/parse/domain error.  The environment variable
``QUADTILE_TOL_REALIZE`` overrides the realization closure tolerance
(default 1e-6).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from collections import Counter
from typing import Sequence

from . import geometry
from .angles import VertexSignature
from .combinatorics import search_avcs
from .constructors import (
    DomainError,
    earth_map,
    family_alphadelta,
    family_beta2delta,
    pq_earth_map,
    quad_subdivide,
)
from .geometry import (
    GeometryError,
    SphericalQuad,
    closed_form_cube_subdivision,
    closed_form_family,
    export_obj,
    export_svg,
    holonomy_residual,
    realize,
    solve_edges,
)
from .symmetry import automorphisms, classify
from .tilingmap import TilingError, TilingMap, extract_avc, format_avc, verify

_FMT = "{:.17g}".format


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _parse_angle(text: str) -> float:
    """Parse an angle: a float, 'pi', 'pi/3', '2pi/3', '0.5pi' (π accepted)."""
    s = text.strip().lower().replace("π", "pi").replace(" ", "")
    try:
        return float(s)
    except ValueError:
        pass
    mobj = re.fullmatch(r"([0-9.]*)\*?pi(?:/([0-9.]+))?", s)
    if not mobj:
        raise ValueError(f"cannot parse angle {text!r}")
    num = float(mobj.group(1)) if mobj.group(1) else 1.0
    den = float(mobj.group(2)) if mobj.group(2) else 1.0
    if den == 0:
        raise ValueError(f"zero denominator in angle {text!r}")
    return num * math.pi / den


def _parse_avc(text: str) -> Counter[VertexSignature] | list[VertexSignature]:
    """Parse 'αβ²,α²δ²,γ⁴,δ⁶' (type set) or 'αβ²×8,γ⁴×4,...' (with counts)."""
    parts = [p for p in re.split(r"[,;]", text) if p.strip()]
    if not parts:
        raise ValueError("empty AVC string")
    with_counts = all(re.search(r"[×x:]\s*\d+\s*$", p) for p in parts)
    if with_counts:
        counts: Counter[VertexSignature] = Counter()
        for p in parts:
            sig_text, n = re.fullmatch(r"(.*?)[×x:]\s*(\d+)\s*", p).groups()
            counts[VertexSignature.parse(sig_text)] += int(n)
        return counts
    return [VertexSignature.parse(p) for p in parts]


def _load_map(path: str) -> TilingMap:
    with open(path, encoding="utf-8") as fh:
        return TilingMap.from_json(fh.read())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_construct(args: argparse.Namespace) -> int:
    try:
        if args.family == "earth-map":
            m = earth_map(_require_f(args))
        elif args.family == "pq-emt":
            m = pq_earth_map(_require_f(args))
        elif args.family == "subdivision":
            if not args.base:
                raise DomainError("subdivision requires --base")
            m = quad_subdivide(args.base)
        elif args.family == "alphadelta":
            m = family_alphadelta(_require_f(args))
        else:  # beta2delta
            m = family_beta2delta(_require_f(args))
    except (DomainError, TilingError, ValueError) as exc:
        return _fail(str(exc), 2)

    print(f"f={m.f}  AVC: {format_avc(extract_avc(m))}")
    text = m.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _require_f(args: argparse.Namespace) -> int:
    if args.f is None:
        raise DomainError(f"{args.family} requires --f")
    return args.f


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        m = _load_map(args.mapfile)
        expected = (_parse_avc(args.expect) if args.expect
                    else list(extract_avc(m)))
    except (OSError, ValueError, TilingError) as exc:
        return _fail(str(exc), 2)
    report = verify(m, expected, f=args.f)
    print(report)
    if report.passed:
        print(f"OK: f={m.f}  AVC: {format_avc(extract_avc(m))}")
        return 0
    print(f"FAILED: {len(report.failures)} check(s)")
    return 1


def _resolve_quad(args: argparse.Namespace, m: TilingMap) -> SphericalQuad:
    sources = [args.quad == "family", args.delta is not None,
               args.angles is not None]
    if sum(sources) != 1:
        raise ValueError(
            "choose exactly one quad source: --quad family, --delta, "
            "or --angles")
    if args.quad == "family":
        return closed_form_family(m.f)
    if args.delta is not None:
        return closed_form_cube_subdivision(_parse_angle(args.delta))
    vals = [_parse_angle(p) for p in args.angles.split(",")]
    if len(vals) != 4:
        raise ValueError("--angles needs alpha,beta,gamma,delta")
    roots = solve_edges(*vals)
    if not roots:
        raise GeometryError("no edge solution for the given angles")
    if not 0 <= args.root < len(roots):
        raise ValueError(f"--root out of range (found {len(roots)} roots)")
    return roots[args.root]


def cmd_realize(args: argparse.Namespace) -> int:
    try:
        tol = float(os.environ.get("QUADTILE_TOL_REALIZE",
                                   geometry.TOL_REALIZE))
    except ValueError as exc:
        return _fail(f"QUADTILE_TOL_REALIZE: {exc}", 2)
    try:
        m = _load_map(args.mapfile)
    except (OSError, ValueError, TilingError) as exc:
        return _fail(str(exc), 2)
    try:
        q = _resolve_quad(args, m)
    except geometry.DegeneracyError as exc:
        return _fail(f"degenerate quadrilateral: {exc}", 1)
    except (GeometryError, ValueError) as exc:
        return _fail(str(exc), 2)
    try:
        real = realize(m, q, tol=tol)
    except geometry.ClosureError as exc:
        print(f"error: realization failed: {exc}", file=sys.stderr)
        print(f"worst vertex: {exc.worst_vertex}  gap: {_FMT(exc.gap)}",
              file=sys.stderr)
        return 1
    except GeometryError as exc:
        return _fail(f"realization failed: {exc}", 1)

    print(f"f={m.f}")
    print(f"edges: a={_FMT(q.a)} b={_FMT(q.b)} c={_FMT(q.c)}")
    print(f"angles: alpha={_FMT(q.alpha)} beta={_FMT(q.beta)} "
          f"gamma={_FMT(q.gamma)} delta={_FMT(q.delta)}")
    print(f"holonomy residual: {_FMT(holonomy_residual(q))}")
    print(f"closure gap: {_FMT(real.max_mismatch)}")
    print(f"area sum: {_FMT(real.area_sum)}  (4*pi = {_FMT(4 * math.pi)})")
    if args.obj:
        with open(args.obj, "w", encoding="utf-8") as fh:
            fh.write(export_obj(real, edge_samples=args.edge_samples))
        print(f"wrote {args.obj}")
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(export_svg(real, edge_samples=max(args.edge_samples, 1)))
        print(f"wrote {args.svg}")
    return 0


def cmd_avc_search(args: argparse.Namespace) -> int:
    try:
        cands = search_avcs(args.f, max_degree=args.max_degree)
    except ValueError as exc:
        return _fail(str(exc), 2)
    print(f"f={args.f}: {len(cands)} feasible AVC(s)")
    for cand in cands:
        line = str(cand)
        if cand.angles is not None:
            line += "   angles: " + ", ".join(str(a) for a in cand.angles)
        print(line)
    return 0


def cmd_symmetry(args: argparse.Namespace) -> int:
    try:
        m = _load_map(args.mapfile)
    except (OSError, ValueError, TilingError) as exc:
        return _fail(str(exc), 2)
    sc = classify(m)
    print(str(sc))
    print(f"paper label: {sc.paper_label}")
    print(f"mirrors: {sc.mirror_count}  inversion: {sc.has_inversion}  "
          f"horizontal mirror: {sc.has_horizontal_mirror}")
    if args.generators:
        for g in automorphisms(m):
            kind = "reversing" if g.reversing else "preserving"
            print(f"{kind} order {g.order()}: {list(g.perm)}")
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quadtile",
        description="Spherical tilings by congruent a2bc quadrilaterals.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("construct", help="build a tiling map")
    p.add_argument("family", choices=[
        "earth-map", "pq-emt", "subdivision", "alphadelta", "beta2delta"])
    p.add_argument("--f", type=int, help="number of tiles")
    p.add_argument("--base", choices=["cube", "octahedron", "triangular_prism"])
    p.add_argument("-o", "--output", help="write TilingMap JSON here")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a tiling map file")
    p.add_argument("mapfile")
    p.add_argument("--expect", help="expected AVC, e.g. 'αβ²,α²δ²,γ⁴,δ⁶' "
                   "or with counts 'αβ²×12,...'")
    p.add_argument("--f", type=int, help="expected tile count")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("realize", help="realize a map with a concrete quad")
    p.add_argument("mapfile")
    p.add_argument("--quad", choices=["family"],
                   help="use the closed-form family quad for the map's f")
    p.add_argument("--delta", help="cube-subdivision quad at this delta "
                   "(e.g. pi/3)")
    p.add_argument("--angles", help="explicit alpha,beta,gamma,delta")
    p.add_argument("--root", type=int, default=0,
                   help="which edge-solution root to use with --angles")
    p.add_argument("--obj", help="write OBJ mesh here")
    p.add_argument("--svg", help="write stereographic SVG here")
    p.add_argument("--edge-samples", type=int, default=16)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("avc-search", help="enumerate feasible AVCs at f")
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(func=cmd_avc_search)

    p = sub.add_parser("symmetry", help="classify the symmetry group")
    p.add_argument("mapfile")
    p.add_argument("--generators", action="store_true",
                   help="also list the automorphisms as tile permutations")
    p.set_defaults(func=cmd_symmetry)
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
