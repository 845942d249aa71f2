"""Runs one workload in a closed loop and prints its measurements as JSON.

Started by ``run.py`` in a child process whose environment pins BLAS/OpenMP
to one thread and puts the checkout's ``src`` on ``PYTHONPATH``.  With
``--setup-only`` it imports quadtile, makes the inputs and exits, which is
what ``setup_s`` times.

Untraced, ops run in batch order until the next op would end past the
deadline (the first batch always completes), while ``calibration.py``
samples the core's speed.  ``wall_s`` is the sum over one batch of each
op's median time and ``op_p50_s`` the median of those op medians; times of
in-process ops are scaled to the reference speed, times of child processes
are not.  Traced, one untraced batch runs first, then whole traced batches,
with calibration samples only between batches so that no span contains
one; per-layer numbers are per-batch means over the traced batches.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict

from calibration import Calibration
from recorder import Recorder, layer_metrics
from workloads import OUT_DIR, load

#: failure messages kept in the output; the count covers all of them
MAX_MESSAGES = 20


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, problems: list[str]) -> None:
        """Count one op, failed if its check found problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.note(problems)

    def note(self, problems: list[str]) -> None:
        self.messages.extend(problems[:MAX_MESSAGES - len(self.messages)])


def run_op(op, rec: Recorder, tally: Tally) -> tuple[float, float]:
    """Run one op and then its golden check; return when the op started and
    ended, check excluded."""
    start = time.perf_counter()
    try:
        result = op.run(rec)
    except Exception:
        end = time.perf_counter()
        tally.record([f"{op.key}: {traceback.format_exc(limit=3)}"])
        return start, end
    end = time.perf_counter()
    tally.record([f"{op.key}: {p}" for p in op.check(result)])
    return start, end


def end_batch(wl, rec: Recorder, tally: Tally, counts: list) -> None:
    problems = wl.end_batch(rec.counts)
    tally.failed += len(problems)
    tally.note(problems)
    counts.append(dict(rec.counts))


def measure(wl, seconds: float, tally: Tally) -> dict:
    ops = wl.ops()
    rec = Recorder(trace=False)
    cal = Calibration()
    raw: dict[str, list[float]] = defaultdict(list)
    samples: list[tuple[str, float, float]] = []
    counts: list[dict] = []
    deadline = time.perf_counter() + seconds
    cal.mark()
    if not wl.subprocesses:
        cal.start_timer()
    try:
        running = True
        while running:
            wl.begin_batch()
            rec.counts.clear()
            for op in ops:
                if counts and (time.perf_counter()
                               + statistics.median(raw[op.key]) > deadline):
                    running = False
                    break
                start, end = run_op(op, rec, tally)
                raw[op.key].append(end - start - cal.own_time(start, end))
                samples.append((op.key, start, end))
            else:
                end_batch(wl, rec, tally, counts)
    finally:
        cal.stop_timer()
    cal.mark()

    scaled: dict[str, list[float]] = defaultdict(list)
    for key, start, end in samples:
        scaled[key].append(end - start if wl.subprocesses
                           else cal.scaled(start, end))
    per_op = [statistics.median(scaled[op.key]) for op in ops]
    per_op_raw = [statistics.median(raw[op.key]) for op in ops]
    return {
        "metrics": {"wall_s": sum(per_op),
                    "op_p50_s": statistics.median(per_op)},
        "raw": {
            "wall_s": sum(per_op_raw),
            "op_p50_s": statistics.median(per_op_raw),
            "kernel_ms": 1e3 * cal.median_kernel(),
            "kernel_samples": len(cal.kernels),
        },
        "batches": len(counts),
        "op_samples": len(samples),
        "counts": counts[0],
        "repeatable": all(c == counts[0] for c in counts),
    }


def run_batch(wl, ops, rec: Recorder, tally: Tally, counts: list,
              cal: Calibration) -> tuple[float, float]:
    """One whole batch between two calibration points."""
    cal.mark()
    start = time.perf_counter()
    wl.begin_batch()
    rec.counts.clear()
    for op in ops:
        rec.open_op()
        run_op(op, rec, tally)
        rec.close_op()
    end_batch(wl, rec, tally, counts)
    end = time.perf_counter()
    cal.mark()
    return start, end


def measure_traced(wl, seconds: float, tally: Tally, trace_file) -> dict:
    ops = wl.ops()
    cal = Calibration()
    deadline = time.perf_counter() + seconds
    factor = (lambda start, end: 1.0) if wl.subprocesses else cal.factor
    start, end = run_batch(wl, ops, Recorder(trace=False), tally, [], cal)
    untraced = (end - start) * factor(start, end)
    rec = Recorder(trace=True)
    counts: list[dict] = []
    walls: list[float] = []
    while not walls or time.perf_counter() + walls[-1] <= deadline:
        start, end = run_batch(wl, ops, rec, tally, counts, cal)
        walls.append((end - start) * factor(start, end))
    batches = len(walls)
    wall = sum(walls) / batches
    metrics = layer_metrics(rec.spans, batches, factor)
    own = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    metrics.update(counts[0])
    metrics.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced,
        "trace.unaccounted_s": wall - own,
        "trace.spans": len(rec.spans) // batches,
        "calibration.kernel_ms": 1e3 * cal.median_kernel(),
    })
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": rec.spans,
                   "calibration": list(zip(cal.starts, cal.ends,
                                           cal.kernels))}, fh)
    return {"metrics": metrics, "batches": batches, "counts": counts[0],
            "repeatable": all(c == counts[0] for c in counts),
            "trace_file": str(trace_file)}


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if args.setup_only:
        # set-up covers the library import on every workload, including
        # cli_session, whose measuring process never imports it
        import quadtile  # noqa: F401
        load(args.workload, args.seed, args.small).close()
        return 0
    wl = load(args.workload, args.seed, args.small)
    try:
        tally = Tally()
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            out = measure_traced(wl, args.seconds, tally, trace_file)
        else:
            out = measure(wl, args.seconds, tally)
            out["metrics"]["peak_rss_mb"] = peak_rss_mb()
    finally:
        wl.close()
    out.update(attempted=tally.attempted, failed=tally.failed,
               failures=tally.messages)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
