"""Self-test of the benchmark, at each workload's smallest inputs.

    python3 perfbench/selftest.py

Checks ``BENCHMARK.json`` against the benchmark's contract, the schema and
metric names of the result line of every workload, traced and untraced,
that per-layer counts repeat exactly for one seed, that the layer spans'
self times account for the traced wall time, and that the benchmark fails
without printing a result where the library's sources are missing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import NAMES, OUT_DIR  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
EXACT_UNITS = ("count", "bytes")


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result(workload: str, trace: int, seed: int = 3) -> dict:
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--small")
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}: "
                             f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Spec(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(NAMES))
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        names = []
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertLessEqual(len(json.dumps(SPEC)), 64 * 1024)


class Workloads(unittest.TestCase):
    def check_line(self, out: dict, kind: str) -> None:
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        self.assertEqual(
            {k: v["unit"] for k, v in out["metrics"].items()}, want)
        for value in out["metrics"].values():
            self.assertIsInstance(value["value"], (int, float))

    def test_untraced(self):
        for name in NAMES:
            with self.subTest(workload=name):
                out = result(name, trace=0)
                self.check_line(out, "end_to_end")
                for m in out["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced_counts_repeat(self):
        for name in NAMES:
            with self.subTest(workload=name):
                first, second = result(name, trace=1), result(name, trace=1)
                self.check_line(first, "per_layer")
                exact = [m["name"] for m in SPEC["per_layer"]
                         if m["unit"] in EXACT_UNITS]
                self.assertEqual(
                    {k: first["metrics"][k]["value"] for k in exact},
                    {k: second["metrics"][k]["value"] for k in exact})
                wall = first["metrics"]["trace.wall_s"]["value"]
                self.assertLess(
                    abs(first["metrics"]["trace.unaccounted_s"]["value"]),
                    0.05 * wall + 0.01)


class MissingSources(unittest.TestCase):
    def test_fails_without_result(self):
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("--workload", NAMES[0], "--seed", "1", "--seconds",
                       "1", "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
