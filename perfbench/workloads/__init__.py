"""The benchmark's workloads, one module each, plus the seeded relabelling
they share.

A workload module defines ``Workload(seed, small)``: its constructor makes
every input from the seed (this is the timed set-up), ``ops()`` lists one
batch of work in order, and ``end_batch(counts)`` returns the golden-check
failures that need a whole batch.  ``small`` selects the smallest inputs,
used only by the self-test.
"""

from __future__ import annotations

import importlib
import json
import random
from pathlib import Path

#: where runs write their trace and scratch files, inside the checkout
OUT_DIR = Path(__file__).resolve().parents[2] / ".perfbench-out"

NAMES = ("avc_search", "map_catalog", "realize_export", "cli_session")


def load(name: str, seed: int, small: bool):
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return importlib.import_module(f"workloads.{name}").Workload(seed, small)


class Base:
    #: ops run child processes: their times are reported raw, and no timer
    #: signal samples the core's speed in this process while they run
    subprocesses = False

    def ops(self) -> list:
        raise NotImplementedError

    def begin_batch(self) -> None:
        pass

    def end_batch(self, counts) -> list[str]:
        return []

    def close(self) -> None:
        pass


class Relabelling:
    """A seeded relabelling of a map with ``f`` tiles, applied to the text of
    ``TilingMap.to_json``: tile ``t`` becomes ``perm[t]`` (its orientation bit
    moves with it), the glue entries are shuffled, and each entry's two ends
    may swap.  The map is unchanged up to isomorphism."""

    def __init__(self, f: int, rng: random.Random):
        self.perm = list(range(f))
        rng.shuffle(self.perm)
        self.order = list(range(2 * f))
        rng.shuffle(self.order)
        self.swap = [rng.random() < 0.5 for _ in range(2 * f)]

    def apply(self, text: str) -> str:
        data = json.loads(text)
        perm = self.perm
        glue = []
        for i in self.order:
            t1, s1, t2, s2 = data["glue"][i]
            end1, end2 = [perm[t1], s1], [perm[t2], s2]
            glue.append(end2 + end1 if self.swap[i] else end1 + end2)
        orient = [0] * data["f"]
        for t, bit in enumerate(data["orient"]):
            orient[perm[t]] = bit
        return json.dumps({"f": data["f"], "glue": glue, "orient": orient})
