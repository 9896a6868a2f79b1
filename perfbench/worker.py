"""One benchmark pass in a fresh process.

Imports the package, builds the workload's inputs from the seed, runs its
ops in a closed loop (traced or not), checks the answers and prints one
JSON line. run.py starts a new process for every pass so that no pass can
profit from state an earlier one left behind.

    PYTHONPATH=src python3 perfbench/worker.py --workload solve --seed 1 --spawned <monotonic time>
"""
import os

# pin BLAS to one thread before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["SPINGLASS_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


def load_goldens():
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def run_pass(workload, seed, spawned, traced, workdir, setup_only=False):
    import spinglass  # noqa: F401  (set-up time includes the package import)

    if workload == "solve":
        import spinglass.cli  # noqa: F401  (imported before patching so its names are traced)
    import harness
    import workloads
    from tracer import Tracer, layer_metrics, op_kernel_counts

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
        setup_span = tracer.begin_op("setup", "setup")
    ops, cleanup, fields = workloads.build(workload, seed, workdir)
    if tracer:
        tracer.end_op(setup_span)
    setup_s = time.monotonic() - spawned
    if setup_only:
        cleanup()
        return {"setup_s": setup_s}
    try:
        outcomes, wall_s = harness.run_ops(ops, time.perf_counter, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
        goldens = load_goldens()
        for outcome in outcomes:
            harness.check(outcome, goldens["ops"].get(outcome.op.id))
    finally:
        cleanup()
    probe_problems = []
    if fields is not None:
        probe_golden = goldens["probes"] if seed == goldens["seed"] else None
        probe_problems = workloads.check_probes(fields, seed, probe_golden)

    result = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": [o.record() for o in outcomes],
        "probe_problems": probe_problems,
        "value_dev_max": max(o.value_dev for o in outcomes),
        "cert_resid_max": max(
            [o.summary["cert_resid"] for o in outcomes if o.summary and "cert_resid" in o.summary] or [0.0]
        ),
    }
    if tracer:
        os.makedirs(workdir, exist_ok=True)
        tracer.write_spans(os.path.join(workdir, f"spans-{workload}-seed{seed}.jsonl"))
        layers = layer_metrics(tracer)
        gibbs = [o.summary for o in outcomes if o.op.kind == "gibbs" and o.summary]
        newton = [o.summary for o in outcomes if o.op.kind == "newton" and o.summary]
        gibbs_s = sum(s.end - s.start for s in tracer.spans if s.name == "mclab.gibbs_mcmc")
        layers["mclab.gibbs_steps_per_s"] = sum(s["steps"] for s in gibbs) / gibbs_s if gibbs else 0.0
        layers["mclab.gibbs_accept_ratio"] = (
            sum(s["acceptance"] for s in gibbs) / len(gibbs) if gibbs else 0.0
        )
        layers["mclab.newton_converged_ratio"] = (
            sum(s["points"] for s in newton) / sum(s["restarts"] for s in newton) if newton else 0.0
        )
        layers["rsb.cert_resid_max"] = result["cert_resid_max"]
        layers["rsb.value_dev_max"] = result["value_dev_max"]
        result["layers"] = layers
        result["op_eval_calls"] = op_kernel_counts(tracer)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() at which the parent started this process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", default=".bench_out")
    args = parser.parse_args()
    result = run_pass(args.workload, args.seed, args.spawned, args.trace, args.workdir, args.setup_only)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
