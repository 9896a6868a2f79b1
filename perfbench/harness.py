"""Closed-loop op runner and answer checks.

An op is one library call (or one composite call) on generated inputs.
``run_ops`` issues the next op only after the previous one returned, times
each, and keeps every result in memory; checks run afterwards, outside
the timed region, so verification work never counts as workload time.

Every answer is compared with the golden answer recorded for the op's id
at the baseline commit, with tolerances no looser than the solver's own
``atom_tol`` (values) and ``cert_tol`` (positions, slopes). An op with no
golden entry must instead come back with a passing certificate.

Op outcomes:

* ``ok``: the answer passed its checks.
* ``known_fail``: the op raised ``SolverFailedError`` and its golden entry
  records that exact failure at the baseline (a mixture the atomic ansatz
  does not certify today). It counts toward ``fail_share``, not toward the
  benchmark's ``failed`` count, which is reserved for regressions.
* ``fail``: any other error, a wrong answer, or a broken invariant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from spinglass.errors import BadInputError, CapacityExceededError, SolverFailedError
from spinglass.rsb import SolverConfig

# spinglass raises these (and their subclasses) for every failure it reports
LIBRARY_ERRORS = (BadInputError, SolverFailedError, CapacityExceededError)

ATOM_TOL = SolverConfig().atom_tol
CERT_TOL = SolverConfig().cert_tol
KERNEL_RTOL = 1e-10

# summary field -> tolerance, applied as |x - golden| <= tol * max(1, |golden|)
FIELD_TOLS = {
    "value": ATOM_TOL,
    "values": ATOM_TOL,
    "terms": ATOM_TOL,
    "fd": ATOM_TOL,
    "deviation": ATOM_TOL,
    "e_dev": ATOM_TOL,
    "support": CERT_TOL,
    "rho_star": CERT_TOL,
    "slope": CERT_TOL,
    "slopes": CERT_TOL,
    "r_dev_next": CERT_TOL,
}
VALUE_FIELDS = ("value", "values")


@dataclass
class Op:
    id: str
    kind: str
    call: Callable[[], Any]
    # result -> JSON-ready summary (the fields the goldens record)
    summarize: Callable[[Any], dict]
    # result -> list of broken invariants, for answers with no golden form
    invariants: Callable[[Any], list] = field(default=lambda result: [])


@dataclass
class Outcome:
    op: Op
    latency_s: float
    result: Any = None
    error: BaseException | None = None
    status: str = ""
    summary: dict | None = None
    problems: list = field(default_factory=list)
    value_dev: float = 0.0

    def record(self) -> dict:
        return {
            "id": self.op.id,
            "kind": self.op.kind,
            "latency_s": self.latency_s,
            "status": self.status,
            "error": None if self.error is None else f"{type(self.error).__name__}: {self.error}",
            "summary": self.summary,
            "problems": self.problems,
        }


def run_ops(ops, clock, tracer=None):
    """Run ops back to back; return (outcomes, wall seconds)."""
    outcomes = []
    start = clock()
    for op in ops:
        root = tracer.begin_op(op.id, op.kind) if tracer else None
        t0 = clock()
        try:
            result, error = op.call(), None
        except LIBRARY_ERRORS as exc:
            result, error = None, exc
        latency = clock() - t0
        if tracer:
            tracer.end_op(root)
        outcomes.append(Outcome(op, latency, result, error))
    return outcomes, clock() - start


def _numbers(x):
    return list(x) if isinstance(x, (list, tuple)) else [x]


def compare(summary: dict, golden: dict) -> tuple[list, float]:
    """Problems found comparing a summary with its golden entry, and the
    largest absolute deviation of a value field."""
    problems = []
    value_dev = 0.0
    for key, tol in FIELD_TOLS.items():
        if key not in golden:
            continue
        got, want = _numbers(summary.get(key)), _numbers(golden[key])
        if len(got) != len(want):
            problems.append(f"{key}: {len(got)} entries, golden has {len(want)}")
            continue
        for g, w in zip(got, want):
            dev = abs(g - w) if g is not None and w is not None else math.inf
            if key in VALUE_FIELDS:
                value_dev = max(value_dev, dev)
            if not dev <= tol * max(1.0, abs(w)):
                problems.append(f"{key}: {g!r} vs golden {w!r} (tolerance {tol:g})")
    if golden.get("cert_pass") and not summary.get("cert_pass", True):
        problems.append("certificate no longer passes")
    return problems, value_dev


def check(outcome: Outcome, golden: dict | None) -> Outcome:
    """Fill in status, summary and problems of a finished op."""
    if outcome.error is not None:
        known = golden is not None and golden.get("error") == type(outcome.error).__name__
        outcome.status = "known_fail" if known and isinstance(outcome.error, SolverFailedError) else "fail"
        return outcome
    summary = outcome.op.summarize(outcome.result)
    outcome.summary = summary
    problems = list(outcome.op.invariants(outcome.result))
    if golden is not None and "error" not in golden:
        more, outcome.value_dev = compare(summary, golden)
        problems += more
    elif summary.get("cert_pass") is False:
        problems.append("no golden answer and the certificate does not pass")
    outcome.problems = problems
    outcome.status = "fail" if problems else "ok"
    return outcome


def fail_share(outcomes) -> float:
    """Failed ops (raised or wrong) over attempted ops."""
    return sum(o.status != "ok" for o in outcomes) / len(outcomes)
