"""cli_session: one ``python -m quadtile.cli`` process per op, one at a time.

The only workload where interpreter start-up and ``import quadtile`` (most
of it ``scipy.optimize``) dominate, and the only one that measures the
``cli`` layer.  The session builds two maps, verifies both against their
expected AVC, realizes both (with OBJ and SVG output for one), lists both
symmetry groups with generators and runs a small AVC search.  Files go to a
scratch directory under the checkout, removed when the run ends.  This
module does not import quadtile, so the benchmark process's own memory
stays out of the CLI's peak RSS.
"""

from __future__ import annotations

import math
import re
import shutil
import subprocess
import sys
import tempfile

from recorder import Op
from workloads import OUT_DIR, Base

PQ = "αβ²×12,α²δ²×6,γ⁴×6,δ⁶×2"
CUBE = "α³×8,β²δ²×12,γ⁴×6"

#: (arguments, lines the output must contain, generator lines expected)
SESSION = [
    (["construct", "pq-emt", "--f", "24", "-o", "pq24.json"],
     ["f=24  AVC: αβ²×12 α²δ²×6 γ⁴×6 δ⁶×2", "wrote pq24.json"], 0),
    (["construct", "subdivision", "--base", "cube", "-o", "cube.json"],
     ["f=24  AVC: α³×8 β²δ²×12 γ⁴×6", "wrote cube.json"], 0),
    (["verify", "pq24.json", "--expect", PQ],
     ["OK: f=24  AVC: αβ²×12 α²δ²×6 γ⁴×6 δ⁶×2"], 0),
    (["verify", "cube.json", "--expect", CUBE],
     ["OK: f=24  AVC: α³×8 β²δ²×12 γ⁴×6"], 0),
    (["realize", "pq24.json", "--quad", "family", "--obj", "pq24.obj",
      "--svg", "pq24.svg"], ["f=24", "wrote pq24.obj", "wrote pq24.svg"], 0),
    (["realize", "cube.json", "--delta", "pi/3"], ["f=24"], 0),
    (["symmetry", "pq24.json", "--generators"],
     ["D_3d, order 12", "paper label: D_{3v}"], 12),
    (["symmetry", "cube.json", "--generators"],
     ["T_h, order 24", "paper label: T_h"], 24),
    (["avc-search", "--f", "8", "--max-degree", "5"],
     ["f=8: 1 feasible AVC(s)", "{βγδ×8, α⁴×2}"], 0),
]

#: the smallest session: build, verify and classify one map
SMALL = [0, 2, 6]

TOL = 1e-6
_NUMBER = r"([-+0-9.e]+)"


def output_problems(args: list[str], proc, want: list[str],
                    generators: int) -> list[str]:
    what = " ".join(args[:2])
    if proc.returncode != 0:
        return [f"{what}: exit code {proc.returncode}: {proc.stderr.strip()}"]
    lines = proc.stdout.splitlines()
    problems = [f"{what}: no line {line!r}" for line in want
                if line not in lines]
    found = sum(ln.startswith(("preserving order", "reversing order"))
                for ln in lines)
    if found != generators:
        problems.append(f"{what}: {found} generator lines, want {generators}")
    if args[0] == "realize":
        gap = re.search(r"^closure gap: " + _NUMBER, proc.stdout, re.M)
        area = re.search(r"^area sum: " + _NUMBER, proc.stdout, re.M)
        if not (gap and area and float(gap[1]) < TOL
                and abs(float(area[1]) - 4 * math.pi) < TOL):
            problems.append(f"{what}: realization does not close")
    return problems


class Workload(Base):
    subprocesses = True

    def __init__(self, seed: int, small: bool):
        # The session has no seeded part.
        self.session = [SESSION[i] for i in SMALL] if small else SESSION
        OUT_DIR.mkdir(exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR)

    def ops(self) -> list[Op]:
        return [Op(f"cli{i}", self._op(args, want, gens), self._check)
                for i, (args, want, gens) in enumerate(self.session)]

    def _op(self, args, want, generators):
        cmd = [sys.executable, "-m", "quadtile.cli", *args]

        def run(rec):
            proc = rec.call(f"cli.{args[0]}", subprocess.run, cmd,
                            cwd=self.dir, capture_output=True,
                            text=True, encoding="utf-8", timeout=120)
            rec.count("cli.calls")
            return args, proc, want, generators
        return run

    @staticmethod
    def _check(result) -> list[str]:
        return output_problems(*result)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
