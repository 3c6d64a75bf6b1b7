"""One workload process: import, build the inputs, warm up, run the ops.

    python3 perfbench/worker.py --mode setup|run --workload NAME --seed N
        --seconds S --trace 0|1 [--smoke]

The package is imported first, on its own, so that set-up is charged only
with what the package itself loads; the benchmark's checks import scipy
later, on first use. `setup` stops once the inputs are built and prints the
clock reading at that point; `run.py` subtracts the time it spawned the
process (both read the same monotonic clock). `run` runs the workload's
slots in order, each timed alone and checked after the timer stops, and with
--trace 1 runs them a second time with the tracer installed. Either mode
prints one JSON line.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    import crs_toolkit
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    slots = wl.build(args.seed, args.seconds, args.smoke)
    ready = time.perf_counter()
    if args.mode == "setup":
        print(json.dumps({"ready": ready, "slots": len(slots), "package_file": crs_toolkit.__file__}))
        return 0

    for op in wl.warmup():
        wl.run(op)
    records = run_ops(wl, slots)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"package_file": crs_toolkit.__file__, "peak_rss_mb": peak_rss_mb, "ops": records,
              "env": environment()}
    if args.trace:
        result["trace"] = traced_pass(wl, slots, records, crs_toolkit)
    print(json.dumps(result))
    return 0


def run_ops(wl, slots, tracer=None) -> list[dict]:
    """Run the slots in order and return one record per op, in first-slot order.

    A slot makes up to `op.repeats` back-to-back calls of its op, timed
    together; it stops at the first call that raises. An op listed in several
    slots takes the median of their mean call times as its latency (`ms`) and
    the time of all its calls as `busy_s`. Every slot's output is checked
    after the timer stops; an op fails with the first failure of any slot.
    """
    from workloads import Outcome

    records: dict[int, dict] = {}
    clock = time.perf_counter
    for op in slots:
        if tracer is not None:
            tracer.active = True
        calls = 0
        t0 = clock()
        try:
            while calls < op.repeats:
                calls += 1
                out = wl.run(op)
            error = None
        except Exception as exc:  # an op that raises is a failed op, recorded with its reason
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        dt = clock() - t0
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                outcome = wl.check(op, out)
            except Exception as exc:
                outcome = Outcome(False, f"check raised {type(exc).__name__}: {exc}")
        else:
            outcome = Outcome(False, error)
        rec = records.get(id(op))
        if rec is None:
            rec = records[id(op)] = {"i": len(records), "kind": op.kind, "inputs": op.inputs,
                                     "slot_ms": [], "calls": 0, "busy_s": 0.0, "ok": True, "samples": 0}
        rec["slot_ms"].append(dt / calls * 1e3)
        rec["calls"] += calls
        rec["busy_s"] += dt
        rec["samples"] += outcome.samples
        rec["digest"] = repr(outcome.digest)
        if rec["ok"] and not outcome.ok:
            rec.update(ok=False, reason=outcome.reason, known=wl.known_failure(op, outcome),
                       bar_miss=outcome.bar_miss)
    for rec in records.values():
        rec["ms"] = statistics.median(rec["slot_ms"])
    return list(records.values())


def traced_pass(wl, slots, untraced, package) -> dict:
    """Run the slots again under the tracer; the outputs must not change."""
    from tracer import Tracer, wiring_errors

    tracer = Tracer()
    tracer.install(package)
    records = run_ops(wl, slots, tracer)
    metrics = tracer.layer_metrics()
    metrics["divergences.bar_misses"] = float(sum(r.get("bar_miss", False) for r in records))
    changed = [r["i"] for r, u in zip(records, untraced) if (r["ok"], r["digest"]) != (u["ok"], u["digest"])]
    return {"metrics": metrics, "wall_s": wall_s(records),
            "wiring_errors": wiring_errors(metrics, wl.EXPECT_NONZERO, wl.EXPECT_ZERO),
            "changed_ops": changed}


def wall_s(records: list[dict]) -> float:
    """Time to complete the ops: every timed call of every slot."""
    return sum(r["busy_s"] for r in records)


def environment() -> dict:
    """What the process ran on; run.py adds the thread variables it set."""
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "CRS_TOOLKIT_THREADS": os.environ.get("CRS_TOOLKIT_THREADS", "unset"),
    }


if __name__ == "__main__":
    sys.exit(main())
