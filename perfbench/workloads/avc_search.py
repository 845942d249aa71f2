"""avc_search: exact AVC search and the exact angle solver.

Almost all of the time goes to ``Fraction`` arithmetic in ``combinatorics``
and ``angles``; no map is built and NumPy is not used.  The f = 24 search
runs at degree bound 6 and the f = 16 search at 7, because the unbounded
f = 24 sweep takes minutes.  The seed shuffles the order of the solver's
systems and of the signatures inside each system; the solver sorts its
input, so every result is seed-independent.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

from quadtile import search_avcs, solve_angle_system
from quadtile.angles import quad_sum_residual, vertex_sum_residual
from quadtile.combinatorics import degree_vertex_catalog

from recorder import Op
from workloads import Base

SOLVE_F = 24

#: (f, max_degree) -> (candidate count, known-unrealizable count, digest)
SEARCHES = {
    (16, 7): (20, 6, "aa8395544cdbd068"),
    (24, 6): (73, 8, "e09dd1b88e2ec219"),
    (8, 5): (1, 0, "f5b0d19e025f40b2"),
    (12, 5): (8, 2, "48ede44f4daf302c"),
}

#: largest subset size -> (unique, parametric, infeasible, digest) of the
#: solver on every subset of the degree-3/4/5 catalog up to that size
SWEEPS = {
    3: (1454, 305, 565, "6383dd90a95d2e0a"),
    2: (0, 290, 10, "c296e41f52dd7fc6"),
}


def digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()[:16]


def candidate_line(cand) -> str:
    body = ",".join(sorted(
        f"{s}x{m}" for s, m in zip(cand.signatures, cand.multiplicities)))
    angles = ",".join(map(str, cand.angles)) if cand.angles else "-"
    return f"{body}|{angles}|{cand.known_unrealizable}"


def solution_line(sigs, sol) -> str:
    head = ",".join(sorted(map(str, sigs))) + f"|{sol.kind}|{sol.pinned_f}"
    if sol.kind == "infeasible":
        return head
    rel = ";".join(
        f"{name}={const}" + "".join(
            f"+{k}*{v}" for v, k in sorted(coeffs.items()))
        for name, (const, coeffs) in sorted(sol.relations.items()))
    return f"{head}|{','.join(sol.free)}|{rel}"


class Workload(Base):
    def __init__(self, seed: int, small: bool):
        rng = random.Random(seed)
        self.searches = [(8, 5), (12, 5)] if small else [(24, 6), (16, 7)]
        self.depth = 2 if small else 3
        catalog = [s for k in (3, 4, 5) for s in degree_vertex_catalog(k)]
        systems = []
        for r in range(1, self.depth + 1):
            for subset in itertools.combinations(catalog, r):
                subset = list(subset)
                rng.shuffle(subset)
                systems.append(subset)
        rng.shuffle(systems)
        self.systems = systems
        self.lines: list[str] = []

    def ops(self) -> list[Op]:
        ops = [Op(f"solve:{i}", self._solve_op(sigs), self._check_solution)
               for i, sigs in enumerate(self.systems)]
        for f, d in self.searches:
            ops.append(Op(f"search:f{f}_d{d}", self._search_op(f, d),
                          self._check_search))
        return ops

    def _solve_op(self, sigs):
        def run(rec):
            sol = rec.call("angles.solve_angle_system", solve_angle_system,
                           sigs, include_quad_sum=True, f=SOLVE_F)
            rec.count(f"angles.solve.{sol.kind}")
            return sigs, sol
        return run

    def _check_solution(self, result) -> list[str]:
        sigs, sol = result
        self.lines.append(solution_line(sigs, sol))
        if sol.kind != "unique":
            return []
        angles = sol.angles()
        residuals = [quad_sum_residual(angles, SOLVE_F)]
        residuals += [vertex_sum_residual(s, angles, SOLVE_F) for s in sigs]
        if any(r != Fraction(0) for r in residuals):
            return [f"solution of {[str(s) for s in sigs]} has residuals "
                    f"{[str(r) for r in residuals]}"]
        return []

    def _search_op(self, f: int, d: int):
        def run(rec):
            cands = rec.call(f"combinatorics.search_avcs.f{f}_d{d}",
                             search_avcs, f, max_degree=d)
            rec.count("combinatorics.candidates", len(cands))
            rec.count("combinatorics.known_unrealizable",
                      sum(c.known_unrealizable for c in cands))
            return f, d, cands
        return run

    def _check_search(self, result) -> list[str]:
        f, d, cands = result
        got = (len(cands), sum(c.known_unrealizable for c in cands),
               digest(map(candidate_line, cands)))
        if got != SEARCHES[(f, d)]:
            return [f"search_avcs({f}, max_degree={d}) gave {got}, "
                    f"expected {SEARCHES[(f, d)]}"]
        return []

    def begin_batch(self) -> None:
        self.lines = []

    def end_batch(self, counts) -> list[str]:
        got = (counts["angles.solve.unique"], counts["angles.solve.parametric"],
               counts["angles.solve.infeasible"], digest(self.lines))
        if got != SWEEPS[self.depth]:
            return [f"solver sweep gave {got}, expected {SWEEPS[self.depth]}"]
        return []

