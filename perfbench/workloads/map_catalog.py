"""map_catalog: build, serialise, verify, canonicalise and classify maps.

Each op is one map's path through ``quadtile symmetry --generators``:
construct, ``to_json``, a seeded relabelling of that text, ``from_json``,
``verify``, ``canonical_form`` of the original and of the relabelled map,
``classify`` and ``automorphisms``.  Most of the time goes to the O(f^2)
``canonical_form`` and ``symmetry``; ``combinatorics`` and ``geometry`` do
no work.  The relabelling keeps a canonical-form shortcut from profiting
from the constructor's tile order.
"""

from __future__ import annotations

import random

from quadtile import (
    automorphisms,
    classify,
    earth_map,
    extract_avc,
    family_alphadelta,
    family_beta2delta,
    pq_earth_map,
    quad_subdivide,
    verify,
)
from quadtile.tilingmap import TilingMap

from recorder import Op
from workloads import Base, Relabelling

CONSTRUCTORS = {
    "pq_earth_map": pq_earth_map,
    "earth_map": earth_map,
    "quad_subdivide": quad_subdivide,
    "family_alphadelta": family_alphadelta,
    "family_beta2delta": family_beta2delta,
}

#: (constructor, argument) -> (tiles, symmetry group, group order)
GROUPS = {
    ("pq_earth_map", 64): (64, "D_8d", 32),
    ("pq_earth_map", 256): (256, "D_32d", 128),
    ("earth_map", 128): (128, "D_64", 128),
    ("earth_map", 256): (256, "D_128", 256),
    ("quad_subdivide", "cube"): (24, "T_h", 24),
    ("quad_subdivide", "octahedron"): (24, "T_h", 24),
    ("quad_subdivide", "triangular_prism"): (24, "D_3", 6),
    ("family_alphadelta", 56): (56, "D_2", 4),
    ("family_alphadelta", 120): (120, "D_2", 4),
    ("family_beta2delta", 56): (56, "C_2", 2),
    ("family_beta2delta", 120): (120, "C_2", 2),
    # smallest inputs, one map per constructor
    ("pq_earth_map", 16): (16, "D_2d", 8),
    ("earth_map", 8): (8, "D_4", 8),
    ("family_alphadelta", 24): (24, "D_2", 4),
    ("family_beta2delta", 24): (24, "C_2", 2),
}

FULL = [("pq_earth_map", 64), ("pq_earth_map", 256), ("earth_map", 128),
        ("earth_map", 256), ("quad_subdivide", "cube"),
        ("quad_subdivide", "octahedron"), ("quad_subdivide", "triangular_prism"),
        ("family_alphadelta", 56), ("family_alphadelta", 120),
        ("family_beta2delta", 56), ("family_beta2delta", 120)]
SMALL = [("pq_earth_map", 16), ("earth_map", 8), ("quad_subdivide", "cube"),
         ("family_alphadelta", 24), ("family_beta2delta", 24)]


class Workload(Base):
    def __init__(self, seed: int, small: bool):
        rng = random.Random(seed)
        specs = SMALL if small else FULL
        self.maps = [(name, arg, Relabelling(GROUPS[name, arg][0], rng))
                     for name, arg in specs]

    def ops(self) -> list[Op]:
        return [Op(f"{name}:{arg}", self._op(name, arg, relabel),
                   self._check)
                for name, arg, relabel in self.maps]

    @staticmethod
    def _op(name, arg, relabel):
        def run(rec):
            m = rec.call(f"constructors.{name}", CONSTRUCTORS[name], arg)
            text = rec.call("tilingmap.to_json", m.to_json)
            m2 = rec.call("tilingmap.from_json", TilingMap.from_json,
                          relabel.apply(text))
            avc = rec.call("tilingmap.extract_avc", extract_avc, m)
            report = rec.call("tilingmap.verify", verify, m2, avc, f=m.f)
            same = (rec.call("tilingmap.canonical_form", m.canonical_form)
                    == rec.call("tilingmap.canonical_form", m2.canonical_form))
            group = rec.call("symmetry.classify", classify, m2)
            auts = rec.call("symmetry.automorphisms", automorphisms, m2)
            rec.count("tilingmap.tiles", m2.f)
            rec.count("symmetry.group_order_sum", group.order)
            return (name, arg, report.passed, same,
                    (m2.f, group.name, group.order), len(auts))
        return run

    @staticmethod
    def _check(result) -> list[str]:
        name, arg, passed, same, group, n_auts = result
        problems = []
        if not passed:
            problems.append(f"{name}({arg!r}) relabelled fails verify")
        if not same:
            problems.append(f"{name}({arg!r}) relabelled has another "
                            "canonical form")
        if group != GROUPS[name, arg]:
            problems.append(f"{name}({arg!r}) classified {group}, expected "
                            f"{GROUPS[name, arg]}")
        if n_auts != group[2]:
            problems.append(f"{name}({arg!r}) has {n_auts} automorphisms, "
                            f"group order {group[2]}")
        return problems
