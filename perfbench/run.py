"""Benchmark of the spinglass package: one command, three workloads.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all            # every workload, one table

Run from the repository root; the package is imported from ``src/``, so
nothing is installed. Each pass of a workload runs in a fresh process
(worker.py) with BLAS pinned to one thread; passes repeat until
``--seconds`` is used up (at least one). With ``--trace 1`` every untraced
pass is followed by a traced one, and the run reports per-layer metrics
and the tracing overhead instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print the same metrics for people. The full result (every op's answer and
status) goes to ``.bench_out/``, where compare.py can diff two of them.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("solve", "sweep", "mc")
SETUP_PROBES = 4          # extra set-up-only processes, for a steadier setup_s median
RUN_LIMIT_S = 170.0       # hard stop for one workload run, well inside the 180 s budget
OUT_DIR = ".bench_out"


class BenchError(RuntimeError):
    pass


def worker_env(root: str) -> dict:
    """The package comes from the checkout; worker.py pins the threads."""
    return {**os.environ, "PYTHONPATH": os.path.join(root, "src")}


def spawn(args: list, env: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    spawned = time.monotonic()
    if spawned >= deadline:
        raise BenchError("run time limit reached")
    cmd = [sys.executable, WORKER, *args, "--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=deadline - spawned)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run time limit: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    env = worker_env(root)
    workdir = os.path.join(root, OUT_DIR)
    base = ["--workload", workload, "--seed", str(seed), "--workdir", workdir]
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [spawn(base + ["--setup-only"], env, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        plain.append(spawn(base, env, deadline))
        if trace:
            traced.append(spawn(base + ["--trace"], env, deadline))
        elapsed = time.monotonic() - start
        if elapsed + (time.monotonic() - t0) > seconds:
            break

    passes = plain + traced
    statuses = [op["status"] for p in passes for op in p["ops"]]
    probe_problems = [msg for p in passes for msg in p["probe_problems"]]
    attempted = len(statuses)
    failed = statuses.count("fail")
    latencies = [op["latency_s"] for p in plain for op in p["ops"]]
    wall = statistics.median(p["wall_s"] for p in plain)
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(plain),
        "ops_per_pass": len(plain[0]["ops"]),
        "correct": failed == 0 and not probe_problems,
        "attempted": attempted,
        "failed": failed,
        "known_failed": statuses.count("known_fail"),
        "probe_problems": probe_problems,
        "untraced": {
            "setup_s": statistics.median(setups + [p["setup_s"] for p in plain]),
            "wall_s": wall,
            "op_p50_s": statistics.median(latencies),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        },
        "setup_samples": len(setups) + len(plain),
        "fail_share": (attempted - statuses.count("ok")) / attempted,
        "ops": plain[0]["ops"],
    }
    if trace:
        layers = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
        layers["trace.overhead_share"] = statistics.median(p["wall_s"] for p in traced) / wall - 1.0
        layers["fail_share"] = result["fail_share"]
        layers["op_p50_s"] = result["untraced"]["op_p50_s"]
        result["per_layer"] = layers
        result["op_eval_calls"] = traced[0]["op_eval_calls"]
    return result


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def metrics_for(result: dict, spec: dict) -> dict:
    """The metrics BENCHMARK.json lists for this kind of run, with units."""
    key, source = ("per_layer", result["per_layer"]) if result["trace"] else ("end_to_end", result["untraced"])
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in spec[key]}


def describe(result: dict, metrics: dict) -> list:
    lines = [
        f"perfbench {result['workload']} seed={result['seed']}: {result['passes']} untraced pass(es) of "
        f"{result['ops_per_pass']} ops" + (" plus traced passes" if result["trace"] else ""),
    ]
    notes = {
        "setup_s": f"median of {result['setup_samples']} set-ups",
        "op_p50_s": f"median of {result['passes'] * result['ops_per_pass']} op latencies",
    }
    shown = dict(metrics)
    if not result["trace"]:
        shown["op_p50_s"] = {"value": result["untraced"]["op_p50_s"], "unit": "s"}
        shown["fail_share"] = {"value": result["fail_share"], "unit": "ratio"}
        notes["fail_share"] = (
            f"{result['failed'] + result['known_failed']} of {result['attempted']} ops: "
            f"{result['known_failed']} uncertified at the baseline, {result['failed']} regressions"
        )
    for name, m in shown.items():
        lines.append(f"  {name:38s} {m['value']:>16.6g} {m['unit']:6s} {notes.get(name, '')}".rstrip())
    if result.get("op_eval_calls"):
        for op_id, calls in sorted(result["op_eval_calls"].items()):
            if op_id.startswith("cs {2:0.5,4:0.5} beta=2"):
                lines.append(f"  Mixture.eval calls in op '{op_id}': {calls}")
    for msg in result["probe_problems"]:
        lines.append(f"  PROBE FAILED: {msg}")
    for op in result["ops"]:
        if op["status"] == "fail":
            lines.append(f"  OP FAILED: {op['id']}: {op['error'] or op['problems']}")
    return lines


def write_result(root: str, name: str, obj: dict) -> str:
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    path = os.path.join(root, OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spinglass benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spinglass", "__init__.py")):
        print("error: run from the repository root (src/spinglass not found)", file=sys.stderr)
        return 2
    spec = load_spec(root)
    names = WORKLOADS if args.all else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, result in results.items():
        metrics = metrics_for(result, spec)
        result["metrics"] = metrics
        print("\n".join(describe(result, metrics)))
        write_result(root, f"result-{name}-seed{args.seed}-trace{args.trace}.json", result)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{name}." if args.all else ""
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    if args.all:
        write_result(root, f"result-all-seed{args.seed}-trace{args.trace}.json", {"workloads": results})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
