"""Workload inputs, generated from the seed, and per-op answer summaries.

``solve`` and ``sweep`` run fixed pools of the paper's pinned cases (so
every op has a golden answer); the seed fixes the order in which the pool
is issued. ``mc`` draws its random fields and chains from the seed. See
DESIGN.md for why each workload exists and which layers it loads.
"""
from __future__ import annotations

import json
import math
import os
import random

import numpy as np

import spinglass as sg
from harness import KERNEL_RTOL, Op
from spinglass.mixtures import Mixture

DEFAULT_SEED = 1


def mixture_label(m: Mixture) -> str:
    return "{" + ",".join(f"{p}:{g:g}" for p, g in sorted(m.coeffs.items())) + "}"


def _cert_resid(cert) -> float:
    parts = [abs(r) for r in cert.residuals_at_support]
    parts.append(cert.max_offsupport_violation)
    if cert.edge_residual is not None:
        parts.append(cert.edge_residual)
    return float(max(parts))


def _cert_fields(cert) -> dict:
    return {"cert_pass": bool(cert.passes), "cert_resid": _cert_resid(cert)}


# ================================================================== solve

# {2:.5,4:.5} at beta=2 is the pinned single-solve case; the two-degree
# family runs at 1.3 * beta_c (rounded), where every member breaks symmetry.
PINNED = ({2: 0.5, 4: 0.5}, 2.0)
FAMILY_BETAS = {
    (3, 0.2): 1.473, (3, 0.5): 1.276, (3, 0.8): 1.028,
    (4, 0.2): 1.712, (4, 0.5): 1.3, (4, 0.8): 1.028,
}
# keeps the points that do not certify today: {2:.8,4:.2} at q >= 0.3 and
# {2:.5,4:.5} at q in {.3, .4}
GS_GRID = (0.3, 0.4, 1.0)
CLI_MIXTURE = {2: 0.3, 3: 0.7}  # used by no other op


def _family():
    return [(p, a, Mixture({2: a, p: 1.0 - a})) for p, a in FAMILY_BETAS]


def _cs_summary(res) -> dict:
    return {"value": res.value, "support": list(res.x_star.support()), **_cert_fields(res.certificate)}


def _gs_summary(out) -> dict:
    e, r, res = out
    return {"value": e, "slope": r, "support": list(res.order.support()), **_cert_fields(res.certificate)}


def cs_op(coeffs, beta) -> Op:
    m = Mixture(coeffs)
    return Op(f"cs {mixture_label(m)} beta={beta:g}", "cs",
              lambda: sg.cs_minimize(m, beta), _cs_summary)


def gs_op(m: Mixture, q: float) -> Op:
    return Op(f"gs {mixture_label(m)} q={q:g}", "gs",
              lambda: sg.ground_state_point(m, q), _gs_summary)


class CliReplay:
    """``spinglass run --config``, in-process. The check replays the config
    once more, outside the timed region, and requires the same bytes."""

    def __init__(self, workdir: str):
        from click.testing import CliRunner

        self.runner = CliRunner()
        m = Mixture(CLI_MIXTURE)
        params = {"beta": None, "zero_temp": True, "k_max": None, "starts": None, "solver_seed": None}
        config = {"command": "parisi", "mixture": json.loads(m.to_json()), "params": params,
                  "seed": 0, "out": None, "format": "json"}
        os.makedirs(workdir, exist_ok=True)
        self.path = os.path.join(workdir, f"cli-config-{os.getpid()}.json")
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, sort_keys=True)
        self.label = f"cli run parisi --zero-temp {mixture_label(m)}"

    def __call__(self):
        from spinglass.cli import main

        return self.runner.invoke(main, ["run", "--config", self.path])

    def close(self):
        if os.path.exists(self.path):
            os.remove(self.path)

    @staticmethod
    def summarize(first) -> dict:
        text = first.stdout
        report = json.loads(text[text.index("\n{") + 1:])
        cert = report["certificate"]
        resid = [abs(r) for r in cert["residuals_at_support"]]
        resid += [cert["max_offsupport_violation"], cert["edge_residual"]]
        tol = cert["tolerance"]
        return {"value": report["gs_energy"], "support": list(cert["support"]),
                "cert_pass": max(resid) <= tol, "cert_resid": max(resid)}

    def invariants(self, first) -> list:
        from spinglass.cli import main

        replay = self.runner.invoke(main, ["run", "--config", self.path])
        problems = [f"exit code {r.exit_code}" for r in (first, replay) if r.exit_code != 0]
        if first.stdout_bytes != replay.stdout_bytes:
            problems.append("replayed artifact differs from the first run")
        return problems


def build_solve(seed: int, workdir: str):
    ops = [cs_op(*PINNED)]
    ops += [cs_op({2: a, p: 1.0 - a}, FAMILY_BETAS[p, a]) for p, a, _ in _family()]
    ops += [gs_op(m, q) for _, _, m in _family() for q in GS_GRID]
    cli = CliReplay(workdir)
    ops.append(Op(cli.label, "cli", cli, cli.summarize, cli.invariants))
    random.Random(seed).shuffle(ops)
    return ops, cli.close


# ================================================================== sweep

SWEEP_MIXTURE = {3: 1.0, 4: 0.3}
SWEEP_BETA = 1.432  # 1.3 * beta_c of {3:1,4:.3}, rounded
FP_R = 0.3
# fp_potential's low-regime path with a reduced scan, golden-search
# tolerance and start count, so the op fits one benchmark run
FP_SCAN_POINTS = 3
FP_XTOL = 1e-2
FP_STARTS = 1
CURVE_MIXTURE = {2: 0.5, 3: 0.5}
CURVE_GRID = (0.1, 0.4, 0.7, 1.0)


def _fp_call(m, beta, r):
    query = sg.FPQuery.detect(m, beta, beta, r)
    if query.regime != "low":
        raise sg.RegimeMismatchError(f"expected the low regime, got {query.regime}")
    return sg.fp_low(m, beta, beta, r, config=sg.SolverConfig(starts=FP_STARTS),
                     scan_points=FP_SCAN_POINTS, xtol=FP_XTOL)


def build_sweep(seed: int, workdir: str):
    m = Mixture(SWEEP_MIXTURE)
    b = SWEEP_BETA
    label = f"{mixture_label(m)} beta={b:g}"
    curve_m = Mixture(CURVE_MIXTURE)
    ops = [
        Op(f"fp_low {label} r={FP_R:g}", "fp", lambda: _fp_call(m, b, FP_R),
           lambda res: {"value": res.value, "rho_star": res.rho_star, "terms": list(res.terms)}),
        Op(f"identity_esrs {label}", "identity", lambda: sg.identity_esrs(m, b),
           lambda rep: {"value": rep.base.value, "support": list(rep.ladder),
                        "e_dev": [row.e_dev for row in rep.rows],
                        "r_dev_next": [row.r_dev_next for row in rep.rows],
                        **_cert_fields(rep.base.certificate)}),
        Op(f"fprime_identity {label}", "identity", lambda: sg.fprime_identity(m, b),
           lambda rep: {"value": rep.closed_form, "fd": rep.fd_derivative,
                        "deviation": rep.deviation, "support": [rep.q_top]}),
        Op(f"chain_bound {label}", "chain_bound", lambda: sg.chain_bound(m, b),
           lambda total: {"value": total}),
        Op(f"ground_state_curve {mixture_label(curve_m)} q={','.join(f'{q:g}' for q in CURVE_GRID)}",
           "curve", lambda: sg.ground_state_curve(curve_m, CURVE_GRID, workers=1),
           lambda c: {"values": list(c.e_star), "slopes": list(c.r_star)}),
    ]
    random.Random(seed).shuffle(ops)
    return ops, lambda: None


# ===================================================================== mc

CHAIN_FIELD = (3, 64)              # pure 3-spin, dimension 64
NEWTON_FIELD = ({2: 0.5, 4: 0.5}, 24)
CHAINS = 12
CHAIN_BETA = 1.0
CHAIN_CONFIG = dict(steps=200, burn_in=50, thin=5)
NEWTON_QS = (1.0, 0.9, 0.8, 0.7)
RESTARTS = {"pure3": 6, "mixed24": 3}
# A restart that does not converge runs to max_iter. At the default of 80
# that made the Newton share of a pass vary 3x between seeds; capping it
# keeps the work per seed nearly fixed.
NEWTON_MAX_ITER = 20


def build_fields(seed: int):
    p, n = CHAIN_FIELD
    coeffs, n_b = NEWTON_FIELD
    return {
        "pure3": sg.sample_field(sg.pure(p), n, seed, 0),
        "mixed24": sg.sample_field(Mixture(coeffs), n_b, seed, 1),
    }


def _sphere_dev(points, radius_sq):
    return float(np.max(np.abs(np.sum(points * points, axis=1) / radius_sq - 1.0)))


def _chain_invariants(field, run, partner, hist) -> list:
    problems = []
    if not 0.0 < run.acceptance_rate < 1.0:
        problems.append(f"acceptance {run.acceptance_rate} outside (0,1)")
    if _sphere_dev(run.samples, field.n) > 1e-12:
        problems.append("a sample left the sphere")
    for x, e in zip(run.samples, run.energies):
        if abs(field.energy(x) - e) > KERNEL_RTOL * max(1.0, abs(e)):
            problems.append("recorded energy differs from energy(sample)")
            break
    if hist is not None:
        pairs = len(run.samples) * len(partner.samples)
        if int(hist.counts.sum()) != pairs or np.max(np.abs(hist.overlaps)) > 1.0 + 1e-12:
            problems.append("overlap histogram inconsistent with the chains")
    return problems


def _newton_invariants(field, q, records) -> list:
    n = field.n
    tol = 1e-8 * math.sqrt(n)
    problems = []
    for rec in records:
        x = rec.location
        grad = field.gradient(x)
        pg = grad - (float(x @ grad) / (n * q)) * x
        if float(np.linalg.norm(pg)) / math.sqrt(n) > tol:
            problems.append("tangential residual above the finder tolerance")
        if abs(rec.energy_density - field.energy(x) / n) > KERNEL_RTOL * max(1.0, abs(rec.energy_density)):
            problems.append("energy_density differs from energy(x)/n")
        if abs(float(x @ x) / (n * q) - 1.0) > 1e-12:
            problems.append("critical point off the sphere of squared radius n*q")
    return problems


def build_mc(seed: int, workdir: str):
    fields = build_fields(seed)
    chain_field = fields["pure3"]
    runs = {}
    ops = []

    def chain(i):
        def call():
            run = sg.gibbs_mcmc(chain_field, CHAIN_BETA, sg.MCConfig(chain_index=i, **CHAIN_CONFIG))
            runs[i] = run
            # odd chains close a pair: histogram their overlaps with the previous chain
            hist = sg.overlap_statistics(runs[i - 1], run) if i % 2 else None
            return run, hist
        return call

    def chain_summary(out):
        run, _ = out
        return {"acceptance": run.acceptance_rate, "samples": int(run.samples.shape[0]),
                "steps": run.config.steps + run.config.burn_in}

    for i in range(CHAINS):
        ops.append(Op(f"gibbs pure3 N=64 chain={i}", "gibbs", chain(i), chain_summary,
                      lambda out, i=i: _chain_invariants(chain_field, out[0], runs.get(i - 1), out[1])))
    # the mixed-field searches use one independent field per call: how many
    # restarts converge depends on the field, and four fields average that out
    coeffs, n_b = NEWTON_FIELD
    mixed = [fields["mixed24"]] + [sg.sample_field(Mixture(coeffs), n_b, seed, i) for i in (2, 3, 4)]
    searches = [("pure3", fields["pure3"], q) for q in NEWTON_QS]
    searches += [("mixed24", field, q) for field, q in zip(mixed, NEWTON_QS)]
    for name, field, q in searches:
        restarts = RESTARTS[name]
        ops.append(Op(
            f"find_critical_points {name} field={field.field_index} N={field.n} q={q:g} restarts={restarts}",
            "newton",
            lambda f=field, q=q, r=restarts: sg.find_critical_points(
                f, q=q, restarts=r, max_iter=NEWTON_MAX_ITER),
            lambda recs, r=restarts: {"points": len(recs), "restarts": r},
            lambda recs, f=field, q=q: _newton_invariants(f, q, recs),
        ))
    return ops, lambda: None, fields


def build(workload: str, seed: int, workdir: str):
    """Return (ops, cleanup, fields); fields is None except for mc."""
    if workload == "mc":
        return build_mc(seed, workdir)
    ops, cleanup = {"solve": build_solve, "sweep": build_sweep}[workload](seed, workdir)
    return ops, cleanup, None


# ============================================================ kernel probes


def reference_kernels(field, x):
    """Energy, gradient and Hessian by plain tensordot contractions, an
    implementation independent of the library's einsum kernels."""
    n = field.n
    energy, grad, hess = 0.0, np.zeros(n), np.zeros((n, n))
    for p, tensor in field.tensors.items():
        if p == 0:
            energy += float(tensor)
            continue
        t = tensor
        for _ in range(p):
            t = np.tensordot(t, x, axes=([t.ndim - 1], [0]))
        energy += float(t)
        for slot in range(p):
            g = np.moveaxis(tensor, slot, 0)
            for _ in range(p - 1):
                g = np.tensordot(g, x, axes=([g.ndim - 1], [0]))
            grad += g
        for a in range(p):
            for b in range(p):
                if a == b:
                    continue
                h = np.moveaxis(tensor, (a, b), (0, 1))
                for _ in range(p - 2):
                    h = np.tensordot(h, x, axes=([h.ndim - 1], [0]))
                hess += h
    return energy, grad, hess


def probe_points(field, seed: int, count: int = 2):
    rng = np.random.default_rng([seed, field.n])
    out = []
    for _ in range(count):
        x = rng.standard_normal(field.n)
        out.append(x * (math.sqrt(field.n) / np.linalg.norm(x)))
    return out


def probe_values(field, x) -> dict:
    """What the goldens record of the library kernels at a probe point."""
    h = field.hessian(x)
    return {"energy": field.energy(x), "gradient": field.gradient(x).tolist(),
            "hessian_x": (h @ x).tolist(), "hessian_trace": float(np.trace(h))}


def _close(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want))))
    return got.shape == want.shape and float(np.max(np.abs(got - want))) <= KERNEL_RTOL * scale


def check_probes(fields, seed: int, goldens: dict | None) -> list:
    """Kernel checks at fixed probe points: against the reference
    contractions for every seed, and against the goldens at their seed."""
    problems = []
    for name, field in fields.items():
        for k, x in enumerate(probe_points(field, seed)):
            got = probe_values(field, x)
            e, g, h = reference_kernels(field, x)
            ref = {"energy": e, "gradient": g, "hessian_x": h @ x, "hessian_trace": np.trace(h)}
            for key, want in ref.items():
                if not _close(got[key], want):
                    problems.append(f"{name} probe {k}: {key} differs from the reference contraction")
            if not _close(field.hessian(x), h):
                problems.append(f"{name} probe {k}: hessian differs from the reference contraction")
            golden = (goldens or {}).get(f"{name}/{k}")
            for key, want in (golden or {}).items():
                if not _close(got[key], want):
                    problems.append(f"{name} probe {k}: {key} differs from the golden value")
    return problems
