"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import itertools

import numpy as np
import pytest

import harness
import spinglass
import workloads
from harness import ATOM_TOL, CERT_TOL, Op, check, fail_share, run_ops
from spinglass.errors import SolverFailedError
from tracer import Span, Tracer, layer_metrics, self_times


def _span(name, start, end, parent, kernel_s=0.0):
    span = Span(name, start, parent, "op-1")
    span.end = end
    if kernel_s:
        span.kernels["mixtures.eval"] = [3, kernel_s, 3]
    return span


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("c", 5.0, 6.0, 0, kernel_s=0.5),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 0.5])


def test_tracer_books_kernels_on_the_enclosing_span():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Poly:
        def eval(self, t):
            return t

    kernel = tracer.kernel_wrapper(Poly.eval, "mixtures.eval", lambda obj, args: 1)

    def inner():
        kernel(Poly(), 0.5)
        return kernel(Poly(), 0.5)

    inner_span = tracer.span_wrapper(inner, "rsb.cs_minimize")
    root = tracer.begin_op("op-1", "cs")
    inner_span()
    tracer.end_op(root)
    root_span, child = tracer.spans
    assert child.parent == 0 and child.op == "op-1" == root_span.op
    assert child.kernels["mixtures.eval"][0] == 2
    # child: opened at 1, kernels 2-3 and 4-5, closed at 6
    assert self_times(tracer.spans) == pytest.approx([2.0, 3.0])
    metrics = layer_metrics(tracer)
    assert metrics["mixtures.eval_calls"] == 2
    assert metrics["rsb.cs_minimize_calls"] == 1
    assert metrics["rsb.cs_minimize_s"] == pytest.approx(3.0)


def test_install_patches_every_namespace_and_uninstall_restores():
    import spinglass.landscape as landscape
    import spinglass.rsb as rsb

    original = rsb.cs_minimize
    tracer = Tracer()
    tracer.install()
    try:
        assert landscape.cs_minimize is not original
        assert spinglass.cs_minimize is landscape.cs_minimize
    finally:
        tracer.uninstall()
    assert landscape.cs_minimize is original and spinglass.cs_minimize is original


def test_repeated_solver_inputs_are_counted():
    tracer = Tracer()
    m = spinglass.Mixture({2: 1.0})
    for beta in (1.0, 1.0, 2.0):
        tracer.note_inputs("rsb.cs_minimize", (m, beta), {})
    assert (tracer.solver_calls, tracer.repeats) == (3, 1)


def _value_op(value, support=(0.0, 0.5)):
    return Op("op", "cs", lambda: None, lambda _: {"value": value, "support": list(support), "cert_pass": True})


@pytest.mark.parametrize("scale,status", [(0.1, "ok"), (10.0, "fail")])
def test_value_perturbed_beyond_tolerance_fails(scale, status):
    golden = {"value": 1.75, "support": [0.0, 0.5], "cert_pass": True}
    outcome = harness.Outcome(_value_op(1.75 + scale * ATOM_TOL * 1.75), 0.0)
    assert check(outcome, golden).status == status


def test_support_perturbed_beyond_tolerance_fails():
    golden = {"value": 1.75, "support": [0.0, 0.5], "cert_pass": True}
    outcome = harness.Outcome(_value_op(1.75, (0.0, 0.5 + 10 * CERT_TOL)), 0.0)
    assert check(outcome, golden).status == "fail"


def _raise():
    raise SolverFailedError("no passing certificate")


def test_forced_solver_failure_raises_fail_share():
    ops = [_value_op(1.0), _value_op(1.0)]
    golden = {"value": 1.0, "support": [0.0, 0.5]}
    outcomes, _ = run_ops(ops, clock=lambda: 0.0)
    assert fail_share([check(o, golden) for o in outcomes]) == 0.0
    ops[1] = Op("op", "cs", _raise, lambda _: {})
    outcomes, _ = run_ops(ops, clock=lambda: 0.0)
    checked = [check(o, golden) for o in outcomes]
    assert [o.status for o in checked] == ["ok", "fail"]
    assert fail_share(checked) == 0.5
    # the same failure recorded in the golden answer is a known failure
    assert check(outcomes[1], {"error": "SolverFailedError"}).status == "known_fail"


def test_forced_failure_of_a_real_solve_op(monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise SolverFailedError("forced")

    monkeypatch.setattr(spinglass, "cs_minimize", fail)
    ops, cleanup, _ = workloads.build("solve", 1, str(tmp_path))
    cleanup()
    pinned = [op for op in ops if op.id == "cs {2:0.5,4:0.5} beta=2"]
    outcomes, _ = run_ops(pinned, clock=lambda: 0.0)
    assert check(outcomes[0], {"value": 1.7}).status == "fail"


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    def ids(workload, seed):
        ops, cleanup, _ = workloads.build(workload, seed, str(tmp_path))
        cleanup()
        return [op.id for op in ops]

    for workload in ("solve", "sweep"):
        assert ids(workload, 1) == ids(workload, 1)
        assert ids(workload, 1) != ids(workload, 2)
        assert sorted(ids(workload, 1)) == sorted(ids(workload, 2))
    a, b, c = (workloads.build_fields(s) for s in (1, 1, 2))
    for name in a:
        assert all(np.array_equal(a[name].tensors[p], b[name].tensors[p]) for p in a[name].tensors)
        assert not any(np.array_equal(a[name].tensors[p], c[name].tensors[p]) for p in a[name].tensors)
        assert np.array_equal(workloads.probe_points(a[name], 1)[0], workloads.probe_points(b[name], 1)[0])


def test_kernel_probes_match_reference_and_catch_a_bad_golden():
    fields = workloads.build_fields(3)
    assert workloads.check_probes(fields, 3, None) == []
    x = workloads.probe_points(fields["mixed24"], 3)[0]
    golden = workloads.probe_values(fields["mixed24"], x)
    assert workloads.check_probes({"mixed24": fields["mixed24"]}, 3, {"mixed24/0": golden}) == []
    golden["energy"] *= 1.0 + 1e-9
    assert workloads.check_probes({"mixed24": fields["mixed24"]}, 3, {"mixed24/0": golden})
