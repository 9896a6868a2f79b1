"""Record the golden answers that every benchmark run is checked against.

Run once at the baseline commit, from the repository root:

    PYTHONPATH=src python3 perfbench/record_goldens.py

It runs every ``solve`` and ``sweep`` op (their inputs do not depend on the
seed, only their order does) and records each answer's summary, or the
error type for an op that does not certify. For ``mc`` it records the
field kernels at fixed probe points for the default seed; chains and
Newton searches are checked by invariants instead.
"""
import json
import time

from worker import GOLDENS  # first: importing worker pins the BLAS threads before numpy loads

import harness
import workloads


def main():
    seed = workloads.DEFAULT_SEED
    ops_golden = {}
    for workload in ("solve", "sweep"):
        ops, cleanup, _ = workloads.build(workload, seed, ".bench_out")
        try:
            outcomes, _ = harness.run_ops(ops, time.perf_counter)
            for o in outcomes:
                if o.error is not None:
                    ops_golden[o.op.id] = {"error": type(o.error).__name__}
                else:
                    problems = o.op.invariants(o.result)
                    if problems:
                        raise SystemExit(f"{o.op.id}: {problems}")
                    ops_golden[o.op.id] = o.op.summarize(o.result)
                print(o.op.id, ops_golden[o.op.id].get("error", "ok"), flush=True)
        finally:
            cleanup()
    fields = workloads.build_fields(seed)
    probes = {
        f"{name}/{k}": workloads.probe_values(field, x)
        for name, field in fields.items()
        for k, x in enumerate(workloads.probe_points(field, seed))
    }
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "ops": dict(sorted(ops_golden.items())), "probes": probes}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
