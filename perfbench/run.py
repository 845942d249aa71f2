"""quadtile benchmark: run one workload for a fixed time and print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the ``end_to_end`` ones of ``BENCHMARK.json``, with
``--trace 1`` the ``per_layer`` ones; a layer that a workload never calls
reports 0.  The line before it records the seed, the environment, sample
counts, per-layer counts and any failure messages.

Every process runs one at a time (closed loop, single thread), pinned to
one CPU: three set-up probes (fresh interpreter, ``import quadtile``, input
generation), then the measuring process.  Times of in-process ops are
scaled to a reference core speed by ``calibration.py``; their raw seconds
are in the record line.  This file uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from calibration import pin_to_one_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
#: the whole run must end within 180 s
TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONIOENCODING="utf-8",
    )
    return env


def timed(cmd: list[str], env: dict[str, str], timeout: float) -> float:
    """Wall time of one child process, from start to exit; it must succeed."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return elapsed


def median_time(cmd, env, deadline: float) -> float:
    return statistics.median(timed(cmd, env, deadline - time.monotonic())
                             for _ in range(SETUP_PROBES))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true",
                    help="smallest inputs (self-test only)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIMEOUT_S

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "quadtile" / "__init__.py").is_file():
        return fail(f"no quadtile sources under {ROOT / 'src'}")

    machine = environment()
    cpu = pin_to_one_cpu()
    env = child_env()
    py = sys.executable
    worker = [py, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed)] + (["--small"] if args.small else [])
    extra: dict[str, float] = {}
    try:
        if args.trace:
            extra["cli.interpreter_s"] = median_time([py, "-c", "pass"], env,
                                                     deadline)
            extra["cli.import_s"] = median_time(
                [py, "-c", "import quadtile"], env, deadline)
        else:
            extra["setup_s"] = median_time(worker + ["--setup-only"], env,
                                           deadline)
        proc = subprocess.run(
            worker + ["--seconds", str(args.seconds),
                      "--trace", str(args.trace)],
            env=env, capture_output=True, text=True,
            timeout=deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    if proc.returncode != 0:
        return fail(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])

    measured = {**out.pop("metrics"), **extra}
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0),
                           "unit": m["unit"]} for m in wanted}
    attempted, failed = out.pop("attempted"), out.pop("failed")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "small": args.small, "environment": machine,
              "pinned_cpu": cpu,
              "child_env": {k: env[k] for k in (
                  "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "PYTHONHASHSEED")},
              **out}
    print(json.dumps(record, ensure_ascii=False))
    print(json.dumps({"correct": failed == 0 and out["repeatable"],
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
