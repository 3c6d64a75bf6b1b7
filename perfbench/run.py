"""crs-toolkit benchmark: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload {verify|divergence|sample} --seed N
        --seconds S --trace {0|1} [--smoke]

Run from the root of a source checkout; the package is imported from
`src/` of that checkout and from nowhere else. The run

  1. starts a fresh interpreter 5 times (after one unmeasured start that
     warms the file cache) that imports the package and builds the
     workload's inputs, and reports the median as `setup_s`;
  2. runs the workload in one more fresh interpreter with BLAS/OpenMP pinned
     to one thread and CRS_TOOLKIT_THREADS unset: warm-up ops, then the
     workload's slots, each timed alone and its output checked after the
     timer stops (an op listed in several slots has their median as its
     latency);
  3. with --trace 1, runs the slots again under the layer tracer and
     reports the per-layer metrics instead of the end-to-end ones; the
     `cli.*` import stages come from 3 more fresh interpreters that run
     `import crs_toolkit` under `python -X importtime`.

It prints a table, writes every op's inputs and outcome to
`perfbench/out/<workload>-seed<N>-trace<T>.json`, and ends with one JSON
line {"correct", "attempted", "failed", "metrics"}. `correct` is false when
an op fails in a way its workload's `known_failure` does not recognise as
a failure known when the benchmark was defined (known failures still count
in `failed`). Exit status 1, without the JSON line, when
the checkout has no package, a process fails, the traced run's wiring guard
trips, or tracing changed an output.
"""
from __future__ import annotations

import argparse
import collections
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
IMPORT_PROBES = 3
DEADLINE_S = 170.0  # the whole run, set-up probes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "grs.steps": "count", "grs.us_per_step": "us", "grs.block_steps": "count", "grs.self_s": "s",
    "grs.band_calls": "count",
    "grs.band_refined": "count", "grs.state_calls": "count", "grs.step_budget_errors": "count",
    "width.calls": "count", "width.points": "count", "width.self_s": "s", "width.ns_per_point": "ns",
    "quadrature.gk15_calls": "count", "quadrature.adaptive_calls": "count",
    "quadrature.panels": "count", "quadrature.us_per_panel": "us", "quadrature.unconverged": "count",
    "quadrature.self_s": "s",
    "divergences.calls": "count", "divergences.self_s": "s", "divergences.bar_misses": "count",
    "measures.draw_points": "count", "measures.log_ratio_points": "count",
    "measures.ns_per_draw": "ns", "measures.self_s": "s",
    "streams.generators": "count", "streams.self_s": "s",
    "experiments.pairs": "count", "experiments.self_s": "s",
    "cli.import_numpy_s": "s", "cli.import_scipy_special_s": "s", "cli.import_pkg_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("CRS_TOOLKIT_THREADS", "PYTHONPATH")}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args: argparse.Namespace, mode: str, deadline: float) -> dict:
    """Start the worker in a fresh interpreter and parse its JSON line."""
    started = time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded the {DEADLINE_S:.0f} s budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(out["package_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported crs_toolkit from {out['package_file']}, not from this checkout")
    out["started"] = started
    return out


def import_stages(deadline: float) -> dict[str, float]:
    """Split of `import crs_toolkit` in a fresh interpreter, from `-X importtime`.

    numpy and scipy are charged with every module of theirs that the package
    itself loads, including what they pull in; the package gets the rest of
    its cumulative import time. A module the package stops loading at import
    counts 0.
    """
    cmd = [sys.executable, "-X", "importtime", "-c", "import crs_toolkit"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"import probe exceeded the {DEADLINE_S:.0f} s budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"import probe exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    rows = []  # (indent, module, cumulative s), children before their parent
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(fields[1]) * 1e-6))
    totals = {"numpy": 0.0, "scipy": 0.0, "crs_toolkit": 0.0}
    stack = []  # (indent, "numpy"/"scipy" if the line or an ancestor belongs to it)
    for indent, name, cumulative in reversed(rows):  # parents first
        while stack and stack[-1][0] >= indent:
            stack.pop()
        inherited = stack[-1][1] if stack else None
        top = name.split(".")[0]
        group = top if top in ("numpy", "scipy") else None
        if name == "crs_toolkit" or (group and inherited is None):
            totals[name if name == "crs_toolkit" else group] += cumulative
        stack.append((indent, inherited or group))
    if not totals["crs_toolkit"]:
        raise BenchError("import probe: no crs_toolkit line in the -X importtime output")
    return {"cli.import_numpy_s": totals["numpy"], "cli.import_scipy_special_s": totals["scipy"],
            "cli.import_pkg_s": totals["crs_toolkit"] - totals["numpy"] - totals["scipy"]}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops above): the highest percentile leaving >= 10 ops above it."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0, 0
    return lat[n - 11], math.floor(1000.0 * (n - 10) / n) / 10.0, 10


def measure(args: argparse.Namespace) -> tuple[dict, dict]:
    deadline = time.perf_counter() + DEADLINE_S
    spawn(args, "setup", deadline)  # warms the file cache; not measured
    probes = [spawn(args, "setup", deadline) for _ in range(1 if args.smoke else SETUP_PROBES)]
    run = spawn(args, "run", deadline)
    ops = run["ops"]
    lat = [r["ms"] for r in ops]
    failed = [r for r in ops if not r["ok"]]
    value, pct, above = tail(lat)
    wall_s = sum(r["busy_s"] for r in ops)
    summary = {
        "setup_s": statistics.median(p["ready"] - p["started"] for p in probes),
        "wall_s": wall_s,
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": value,
        "peak_rss_mb": run["peak_rss_mb"],
        "op_tail_percentile": pct,
        "op_tail_ops_above": above,
        "ops": len(ops),
        "failed": len(failed),
        "fail_frac": len(failed) / len(ops),
        "unknown_failures": sum(r["known"] is None for r in failed),
        "failure_classes": dict(collections.Counter(r["known"] or "not known" for r in failed)),
    }
    if args.workload == "sample":
        summary["samples_per_s"] = sum(r["samples"] for r in ops) / wall_s
    if args.trace:
        trace = run["trace"]
        if trace["wiring_errors"]:
            raise BenchError("tracer wiring guard:\n  " + "\n  ".join(trace["wiring_errors"]))
        if trace["changed_ops"]:
            raise BenchError(f"tracing changed the output of ops {trace['changed_ops'][:10]}")
        layer = dict(trace["metrics"])
        stages = [import_stages(deadline) for _ in range(IMPORT_PROBES)]
        for name in stages[0]:
            layer[name] = statistics.median(s[name] for s in stages)
        layer["trace.overhead_frac"] = trace["wall_s"] / wall_s
        summary["layers"] = layer
    detail = {"args": vars(args), "env": {**run["env"], **{k: child_env()[k] for k in THREAD_VARS}},
              "summary": summary, "probes": probes, "ops": ops}
    return summary, detail


def report(args: argparse.Namespace, summary: dict, env: dict) -> dict:
    print(f"workload {args.workload}  seed {args.seed}  ops {summary['ops']}  trace {args.trace}")
    print("  env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    rows = [("setup_s", summary["setup_s"], "s", f"median of {1 if args.smoke else SETUP_PROBES} cold starts"),
            ("wall_s", summary["wall_s"], "s", "sum of timed calls"),
            ("op_p50_ms", summary["op_p50_ms"], "ms", ""),
            ("op_tail_ms", summary["op_tail_ms"], "ms",
             f"p{summary['op_tail_percentile']:g}, {summary['op_tail_ops_above']} of {summary['ops']} ops above"),
            ("fail_frac", summary["fail_frac"], "1",
             f"{summary['failed']} of {summary['ops']}, {summary['unknown_failures']} not known"),
            ("peak_rss_mb", summary["peak_rss_mb"], "MB", "workload process")]
    if "samples_per_s" in summary:
        rows.append(("samples_per_s", summary["samples_per_s"], "1/s", "accepted replicas"))
    for name, value, unit, note in rows:
        print(f"  {name:14s} {value:14.6g} {unit:3s}  {note}")
    for cls, count in sorted(summary["failure_classes"].items()):
        print(f"  failed ops: {count} x {cls}")
    if args.trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:28s} {summary['layers'][name]:14.6g} {unit}")
        metrics = {k: {"value": summary["layers"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": summary[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": summary["unknown_failures"] == 0, "attempted": summary["ops"],
            "failed": summary["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("verify", "divergence", "sample"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="minimal op list, for the self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "crs_toolkit" / "__init__.py").is_file():
        print(f"error: no crs_toolkit package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        summary, detail = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = report(args, summary, detail["env"])
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    print(f"  ops and inputs: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
