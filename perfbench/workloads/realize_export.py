"""realize_export: numeric realization and OBJ/SVG export.

Most of the time goes to NumPy frame propagation and text export;
``tilingmap`` runs only through the ``verify`` inside ``realize`` and no exact
search runs.  Three kinds of op:

- ``realize`` of a seeded relabelling of ``pq_earth_map(f)`` with the
  closed-form family quad, then ``export_obj`` and ``export_svg`` at 16 edge
  samples;
- ``realize`` of the cube subdivision at a seeded delta in (pi/4, 3pi/4),
  kept away from the family's degeneracies;
- one point of the pi/20 (beta, gamma) grid that fits ``earth_map(8)``'s AVC
  (alpha = pi/2, delta = 2pi - beta - gamma): ``solve_edges`` and ``realize``
  of every root.  Rejections there (``ClosureError``, ``DegeneracyError``,
  ``SingularityError``) are documented answers and are counted, not failed;
  most closure rejections are tiles with a reflex angle, a known defect
  whose fix should move ``geometry.realize.rejected_closure``.

The closure tolerance is the library's default; it is neither set through
the environment nor changed here.
"""

from __future__ import annotations

import math
import random

from quadtile import (
    ClosureError,
    DegeneracyError,
    SingularityError,
    closed_form_cube_subdivision,
    closed_form_family,
    degeneracy_loci,
    earth_map,
    export_obj,
    export_svg,
    pq_earth_map,
    quad_subdivide,
    realize,
    solve_edges,
)
from quadtile.tilingmap import TilingMap

from recorder import Op
from workloads import Base, Relabelling

EDGE_SAMPLES = 16
TOL = 1e-6
#: the sampled delta/pi stays this far from the ends of the interval and
#: from each degeneracy
MARGIN = 0.01


def sample_deltas(rng: random.Random, n: int) -> list[float]:
    loci = degeneracy_loci()
    avoid = (0.25, 0.5, 0.75, loci["cube a=b"], loci["cube a=c"])
    out: list[float] = []
    while len(out) < n:
        x = rng.uniform(0.25, 0.75)
        if all(abs(x - a) > MARGIN for a in avoid):
            out.append(x * math.pi)
    return out


def closure_problems(what: str, real) -> list[str]:
    gap, area = real.max_mismatch, abs(real.area_sum - 4 * math.pi)
    if gap < TOL and area < TOL:
        return []
    return [f"{what}: closure gap {gap:.3e}, area error {area:.3e}"]


class Workload(Base):
    def __init__(self, seed: int, small: bool):
        rng = random.Random(seed)
        self.pq = []
        for f in ((16, 32) if small else (256, 1024)):
            text = Relabelling(f, rng).apply(pq_earth_map(f).to_json())
            self.pq.append(TilingMap.from_json(text))
        self.cube = quad_subdivide("cube")
        self.deltas = sample_deltas(rng, 2 if small else 8)
        self.earth8 = earth_map(8)
        step = 10 if small else 20
        self.grid = [(i, j, step) for i in range(1, 2 * step)
                     for j in range(1, 2 * step - i)]
        rng.shuffle(self.grid)

    def ops(self) -> list[Op]:
        ops = [Op(f"pq{m.f}", self._pq_op(m), self._check_pq)
               for m in self.pq]
        ops += [Op(f"cube{k}", self._cube_op(d), self._check_realization)
                for k, d in enumerate(self.deltas)]
        ops += [Op(f"grid{i},{j}", self._grid_op(i, j, step), self._check_grid)
                for i, j, step in self.grid]
        return ops

    @staticmethod
    def _pq_op(m):
        def run(rec):
            q = closed_form_family(m.f)
            real = rec.call("geometry.realize", realize, m, q)
            rec.count("geometry.realize.accepted")
            obj = rec.call("geometry.export_obj", export_obj, real,
                           edge_samples=EDGE_SAMPLES)
            svg = rec.call("geometry.export_svg", export_svg, real,
                           edge_samples=EDGE_SAMPLES)
            rec.count("geometry.export.bytes", len(obj) + len(svg))
            return real, obj, svg
        return run

    @staticmethod
    def _check_pq(result) -> list[str]:
        real, obj, svg = result
        f, nv = real.map.f, len(real.coords)
        problems = closure_problems(f"pq_earth_map({f})", real)
        lines = [ln.split(" ", 1)[0] for ln in obj.splitlines()]
        want = {"v": nv + 2 * f * (EDGE_SAMPLES + 1), "f": f, "l": 2 * f}
        got = {k: lines.count(k) for k in want}
        if got != want:
            problems.append(f"pq_earth_map({f}) OBJ has {got}, want {want}")
        paths = svg.count("<path ")
        if paths != 2 * f + f // 2:
            problems.append(f"pq_earth_map({f}) SVG has {paths} paths, "
                            f"want {2 * f + f // 2}")
        return problems

    def _cube_op(self, delta: float):
        def run(rec):
            q = closed_form_cube_subdivision(delta)
            real = rec.call("geometry.realize", realize, self.cube, q)
            rec.count("geometry.realize.accepted")
            return real
        return run

    @staticmethod
    def _check_realization(real) -> list[str]:
        return closure_problems(
            f"cube subdivision at delta={real.quad.delta!r}", real)

    def _grid_op(self, i: int, j: int, step: int):
        beta, gamma = i * math.pi / step, j * math.pi / step
        angles = (math.pi / 2, beta, gamma, 2 * math.pi - beta - gamma)

        def run(rec):
            try:
                roots = rec.call("geometry.solve_edges", solve_edges, *angles)
            except DegeneracyError:
                rec.count("geometry.realize.rejected_degenerate")
                return []
            except SingularityError:
                rec.count("geometry.realize.rejected_singular")
                return []
            out = []
            for q in roots:
                try:
                    out.append(rec.call("geometry.realize", realize,
                                        self.earth8, q))
                except ClosureError:
                    rec.count("geometry.realize.rejected_closure")
                    continue
                rec.count("geometry.realize.accepted")
            return out
        return run

    @staticmethod
    def _check_grid(reals) -> list[str]:
        return [p for real in reals
                for p in closure_problems(f"earth_map(8) at {real.quad}", real)]
