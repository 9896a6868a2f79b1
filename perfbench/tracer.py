"""In-memory span tracer for the benchmark's traced pass.

The tracer wraps the public functions of each ``spinglass`` module from the
outside: the package source is never edited. Every wrapped call opens a
span (name, start, end, parent span, op id). The hot kernels
(``Mixture.eval`` and the ``FieldSample`` contractions) are far too
frequent for a span each (one ``fp_low`` call makes over a million
``Mixture.eval`` calls), so they only bump counters and accumulate their
time on the innermost open span.

A span's self time is its duration minus the durations of its child spans
and minus the kernel time accumulated on it; the kernel time is booked to
the kernel's own layer instead.
"""
from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# (module, function) pairs wrapped as spans. The span is named
# "<layer>.<function>", where the layer is the module's short name.
SPAN_FUNCTIONS = (
    ("spinglass.rsb", "cs_minimize"),
    ("spinglass.rsb", "zt_minimize"),
    ("spinglass.rsb", "beta_c"),
    ("spinglass.rsb", "talagrand_certificate"),
    ("spinglass.rsb", "zero_temp_certificate"),
    ("spinglass.landscape", "ground_state_point"),
    ("spinglass.landscape", "ground_state_curve"),
    ("spinglass.landscape", "identity_esrs"),
    ("spinglass.landscape", "fprime_identity"),
    ("spinglass.landscape", "chain_bound"),
    ("spinglass.franz_parisi", "fp_low"),
    ("spinglass.conditioning", "fp_conditioning"),
    ("spinglass.mclab", "sample_field"),
    ("spinglass.mclab", "gibbs_mcmc"),
    ("spinglass.mclab", "find_critical_points"),
    ("spinglass.mclab", "overlap_statistics"),
)

# Mixture transforms, wrapped as spans on the class.
TRANSFORMS = ("shift_restrict", "band_section", "fp_mixtures", "scale_domain", "level_mixtures")

# Solver entry points whose inputs are keyed to detect repeated solves.
SOLVERS = ("rsb.cs_minimize", "rsb.zt_minimize", "rsb.beta_c")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "tag", "kernels")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.tag = None
        # kernel name -> [calls, seconds, size] where size is evaluation
        # points for Mixture.eval and tensor bytes for the field kernels
        self.kernels = {}

    def as_dict(self, index):
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "tag": self.tag,
            "kernels": self.kernels,
        }


def _input_key(name, args, kwargs):
    def canon(v):
        if hasattr(v, "to_json"):
            return (type(v).__name__, v.to_json())
        return repr(v)

    return (name, tuple(canon(a) for a in args), tuple(sorted((k, canon(v)) for k, v in kwargs.items())))


def _tensor_bytes(field, min_degree):
    return sum(t.nbytes for p, t in field.tensors.items() if p >= min_degree and isinstance(t, np.ndarray))


class Tracer:
    """Collects spans and kernel counters; ``install`` patches the package."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = None
        self.seen_inputs = set()
        self.solver_calls = 0
        self.repeats = 0
        self._in_kernel = False
        self._undo = []

    # ------------------------------------------------------------ spans

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, self.clock(), parent, self.op))
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span.end = self.clock()
        self.stack.pop()

    def begin_op(self, op_id, kind):
        """Start an op: its root span is named ``bench.<kind>``."""
        self.op = op_id
        return self.open(f"bench.{kind}")

    def end_op(self, span):
        self.close(span)
        self.op = None

    def note_inputs(self, name, args, kwargs):
        if name not in SOLVERS:
            return
        key = _input_key(name, args, kwargs)
        self.solver_calls += 1
        if key in self.seen_inputs:
            self.repeats += 1
        else:
            self.seen_inputs.add(key)

    def add_kernel(self, name, seconds, size):
        span = self.spans[self.stack[-1]]
        acc = span.kernels.setdefault(name, [0, 0.0, 0])
        acc[0] += 1
        acc[1] += seconds
        acc[2] += size

    # ---------------------------------------------------------- wrappers

    def span_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.note_inputs(name, args, kwargs)
            span = tracer.open(name)
            if kwargs.get("allow_field"):
                span.tag = "field"
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            passes = getattr(result, "passes", None)
            if passes is not None:
                span.tag = "pass" if passes else "fail"
            return result

        return wrapper

    def kernel_wrapper(self, fn, name, size_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            if tracer._in_kernel or not tracer.stack:
                return fn(obj, *args, **kwargs)
            tracer._in_kernel = True
            t0 = tracer.clock()
            try:
                return fn(obj, *args, **kwargs)
            finally:
                tracer._in_kernel = False
                tracer.add_kernel(name, tracer.clock() - t0, size_of(obj, args))

        return wrapper

    # ---------------------------------------------------------- patching

    def install(self):
        """Wrap every target in every loaded ``spinglass`` namespace that
        holds it (modules import solver functions by name)."""
        from spinglass.mclab import FieldSample
        from spinglass.mixtures import Mixture

        modules = [m for n, m in sorted(sys.modules.items()) if n == "spinglass" or n.startswith("spinglass.")]
        for mod_name, attr in SPAN_FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self.span_wrapper(original, f"{mod_name.rsplit('.', 1)[1]}.{attr}")
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        for attr in TRANSFORMS:
            self._patch(Mixture, attr, self.span_wrapper(getattr(Mixture, attr), f"mixtures.{attr}"))
        self._patch(
            Mixture, "eval",
            self.kernel_wrapper(Mixture.eval, "mixtures.eval", lambda m, args: int(np.size(args[0])) if args else 1),
        )
        for attr, min_degree in (("energy", 1), ("gradient", 1), ("hessian", 2)):
            self._patch(
                FieldSample, attr,
                self.kernel_wrapper(
                    getattr(FieldSample, attr), f"mclab.{attr}",
                    lambda f, args, d=min_degree: _tensor_bytes(f, d),
                ),
            )

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_dict(i)) + "\n")


# ------------------------------------------------------------- analysis


def self_times(spans):
    """Self time of each span: duration minus child spans minus kernel time."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    return [
        (s.end - s.start) - child[i] - sum(k[1] for k in s.kernels.values())
        for i, s in enumerate(spans)
    ]


def _has_ancestor(spans, index, name):
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


# span name -> metric group; a group reports <group>_calls and <group>_s
SPAN_GROUPS = {
    "rsb.cs_minimize": "rsb.cs_minimize",
    "rsb.zt_minimize": "rsb.zt_minimize",
    "rsb.beta_c": "rsb.beta_c",
    "rsb.talagrand_certificate": "rsb.certificate",
    "rsb.zero_temp_certificate": "rsb.certificate",
    "landscape.ground_state_point": "landscape.ground_state_point",
    "landscape.ground_state_curve": "landscape.ground_state_curve",
    "landscape.identity_esrs": "landscape.identity",
    "landscape.fprime_identity": "landscape.identity",
    "landscape.chain_bound": "landscape.chain_bound",
    "franz_parisi.fp_low": "franz_parisi.fp_low",
    "conditioning.fp_conditioning": "conditioning.fp_conditioning",
    "mclab.sample_field": "mclab.sample_field",
    "mclab.gibbs_mcmc": "mclab.gibbs_mcmc",
    "mclab.find_critical_points": "mclab.find_critical_points",
    "mclab.overlap_statistics": "mclab.overlap_statistics",
    **{f"mixtures.{t}": "mixtures.transform" for t in TRANSFORMS},
}


def layer_metrics(tracer):
    """Per-layer counts and self times from a finished traced pass."""
    spans = tracer.spans
    selfs = self_times(spans)
    out = {}
    for group in set(SPAN_GROUPS.values()):
        out[f"{group}_calls"] = 0
        out[f"{group}_s"] = 0.0
    for kernel in ("mixtures.eval", "mclab.energy", "mclab.gradient", "mclab.hessian"):
        out[f"{kernel}_calls"] = 0
        out[f"{kernel}_s"] = 0.0
    out["mixtures.eval_points"] = 0
    out["mclab.tensor_bytes_computed"] = 0
    passing = sections = 0
    out["cli.replay_s"] = out["cli.overhead_s"] = 0.0
    for i, span in enumerate(spans):
        group = SPAN_GROUPS.get(span.name)
        if group is not None:
            out[f"{group}_calls"] += 1
            out[f"{group}_s"] += selfs[i]
        for kernel, (calls, seconds, size) in span.kernels.items():
            out[f"{kernel}_calls"] += calls
            out[f"{kernel}_s"] += seconds
            if kernel == "mixtures.eval":
                out["mixtures.eval_points"] += size
            else:
                out["mclab.tensor_bytes_computed"] += size
        if group == "rsb.certificate":
            passing += span.tag == "pass"
        elif span.name == "rsb.cs_minimize" and span.tag == "field" and _has_ancestor(spans, i, "franz_parisi.fp_low"):
            sections += 1
        elif span.name == "bench.cli":
            # the CLI op's root span: its self time is the CLI's own work
            out["cli.replay_s"] += span.end - span.start
            out["cli.overhead_s"] += selfs[i]
    certs, fps = out["rsb.certificate_calls"], out["franz_parisi.fp_low_calls"]
    out["rsb.cert_pass_ratio"] = passing / certs if certs else 0.0
    out["rsb.repeat_share"] = tracer.repeats / tracer.solver_calls if tracer.solver_calls else 0.0
    out["franz_parisi.section_solves_per_fp"] = sections / fps if fps else 0.0
    return out


def op_kernel_counts(tracer):
    """Mixture.eval calls per op id, for exact per-op count comparisons."""
    counts = {}
    for span in tracer.spans:
        if span.op is None:
            continue
        calls = span.kernels.get("mixtures.eval", (0,))[0]
        counts[span.op] = counts.get(span.op, 0) + calls
    return counts
