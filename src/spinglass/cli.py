"""Command-line surface for the spin-glass analytics toolkit.

One binary with subcommands.  Every run resolves to a ``RunConfig`` (command
name, inline mixture, parameters, seed, output path, format); the same config
can be replayed with ``spinglass run --config file.json`` and yields
byte-identical artifacts.  A command's ``--config file.json`` supplies the
defaults of its options, so explicit flags override config-file values.

Exit codes: 0 success, 1 bad input (including click usage errors: unknown
options or commands, mistyped flag or config values), 2 solver failure (or
failed validation / failed sweep rows), 3 capacity exceeded.  When a
``landscape`` grid point fails and ``--out FILE`` was given, the rows solved
before the failure are written to ``FILE.partial``.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field

import click
import numpy as np

from .errors import (
    BadInputError,
    CapacityExceededError,
    KMismatchError,
    MixtureError,
    NotBracketedError,
    RegimeMismatchError,
    SingularBlockError,
    SingularMatrixError,
    SolverFailedError,
)
from .franz_parisi import FPQuery, fp_high, fp_low
from .landscape import (
    chain_bound,
    fprime_identity,
    ground_state_curve,
    identity_esrs,
    theta_surface_csv,
)
from .mclab import (
    MCConfig,
    dump_samples,
    empirical_complexity,
    gibbs_mcmc,
    overlap_statistics,
    sample_field,
    validate_kernels,
)
from .mixtures import Mixture
from .rsb import ZT_K_MAX, SolverConfig, cs_minimize, zt_minimize

_EXIT_BAD_INPUT = 1
_EXIT_SOLVER_FAILED = 2
_EXIT_CAPACITY = 3

_INPUT_ERRORS = (BadInputError, MixtureError, RegimeMismatchError, KMismatchError)
_SOLVER_ERRORS = (
    SolverFailedError,
    NotBracketedError,
    SingularMatrixError,
    SingularBlockError,
)


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


# the JSON types each RunConfig field takes; a bool is never one of them
_FIELD_TYPES = {"command": str, "mixture": (dict, type(None)), "params": dict,
                "seed": int, "out": (str, type(None)), "format": str}


@dataclass(frozen=True)
class RunConfig:
    """Self-contained, replayable description of one CLI run."""

    command: str
    mixture: dict | None = None
    params: dict = field(default_factory=dict)
    seed: int = 0
    out: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.format not in ("json", "csv"):
            raise BadInputError(f"format must be json or csv, got {self.format!r}")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise BadInputError(f"run config parse error: {e}") from e
        if not isinstance(obj, dict) or "command" not in obj:
            raise BadInputError("run config must be an object with a 'command' field")
        kw = {name: obj[name] for name in _FIELD_TYPES if name in obj}
        for name, value in kw.items():
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[name]):
                raise BadInputError(f"run config field {name!r} has the wrong type: {value!r}")
        return cls(**kw)

    def mixture_obj(self) -> Mixture:
        if self.mixture is None:
            raise BadInputError("this command requires a mixture (--mixture FILE)")
        return Mixture.from_json(json.dumps(self.mixture))


def _read(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise BadInputError(f"cannot read {what} file: {e}") from e


def _mixture_dict(path: str | None) -> dict | None:
    if path is None:
        return None
    return json.loads(Mixture.from_json(_read(path, "mixture")).to_json())


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _jsonable(obj):
    """Recursively convert results (namedtuples, dataclasses, arrays) to JSON."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "_asdict"):
        return _jsonable(obj._asdict())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and math.isnan(obj):
        return "nan"
    return obj


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for k in obj:
            rows.extend(_flatten(obj[k], f"{prefix}{k}."))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], obj))
    return rows


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = ["key,value"]
    for key, value in _flatten(report):
        lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        click.echo(f"wrote {out}")


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(body, *args):
    try:
        return body(*args)
    except CapacityExceededError as e:
        _fail(str(e), _EXIT_CAPACITY)
    except _SOLVER_ERRORS as e:
        _fail(str(e), _EXIT_SOLVER_FAILED)
    except _INPUT_ERRORS as e:
        _fail(str(e), _EXIT_BAD_INPUT)


def _grid(spec: str, what: str) -> list[float]:
    """Parse an inclusive lo:hi:step grid spec."""
    parts = str(spec).split(":")
    if len(parts) != 3:
        raise BadInputError(f"{what} must look like lo:hi:step, got {spec!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as e:
        raise BadInputError(f"bad {what} value: {e}") from e
    if step <= 0 or hi < lo:
        raise BadInputError(f"{what} needs hi >= lo and step > 0")
    count = int(round((hi - lo) / step))
    vals = [lo + i * step for i in range(count + 1)]
    return [v for v in vals if v <= hi + 1e-12]


def _pair(spec: str, what: str) -> tuple[float, float]:
    parts = str(spec).split(":")
    if len(parts) != 2:
        raise BadInputError(f"{what} must look like lo:hi, got {spec!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as e:
        raise BadInputError(f"bad {what} value: {e}") from e
    if hi <= lo:
        raise BadInputError(f"{what} needs hi > lo")
    return lo, hi


def _param(params: dict, key: str, default):
    """The value given for key, or default when none was given; an explicit
    0 is a value, not a request for the default."""
    value = params.get(key)
    return default if value is None else value


def _solver_config(params: dict, **defaults) -> SolverConfig:
    """SolverConfig from --k-max, --starts and --solver-seed over the given defaults."""
    names = {"k_max": "k_max", "starts": "starts", "solver_seed": "seed"}  # param: field
    kw = {name: int(params[key]) for key, name in names.items() if params.get(key) is not None}
    return SolverConfig(**{**defaults, **kw})


# ---------------------------------------------------------------------------
# command bodies (shared by flag invocation and `run --config`)
# ---------------------------------------------------------------------------


def _body_parisi(cfg: RunConfig) -> int:
    m = cfg.mixture_obj()
    p = cfg.params
    if p.get("zero_temp"):
        res = zt_minimize(m, config=_solver_config(p, k_max=ZT_K_MAX))
        report = {
            "mode": "zero_temp",
            "order": {"steps": _jsonable(res.order.steps), "c": res.order.c},
            "gs_energy": res.gs_energy,
            "certificate": _jsonable(res.certificate),
        }
        click.echo(f"steps: {_jsonable(res.order.steps)}  c: {res.order.c:.12g}")
        click.echo(f"gs_energy: {res.gs_energy:.12g}")
    else:
        if p.get("beta") is None:
            raise BadInputError("parisi requires --beta X or --zero-temp")
        beta = float(p["beta"])
        res = cs_minimize(m, beta, config=_solver_config(p))
        report = {
            "mode": "finite_beta",
            "beta": beta,
            "atoms": {"qs": list(res.x_star.qs), "levels": list(res.x_star.levels)},
            "value": res.value,
            "certificate": _jsonable(res.certificate),
        }
        click.echo(f"atoms (qs): {list(res.x_star.qs)}")
        click.echo(f"levels: {list(res.x_star.levels)}")
        click.echo(f"value: {res.value:.12g}")
    cert = report["certificate"]
    click.echo(
        "certificate: sup_phi %.3e, worst support residual %.3e"
        % (cert["sup_phi"], max(abs(r) for r in cert["residuals_at_support"]))
    )
    report["config"] = json.loads(cfg.to_json())
    _emit(_render(report, cfg.format), cfg.out)
    return 0


def _body_landscape(cfg: RunConfig) -> int:
    m = cfg.mixture_obj()
    p = cfg.params
    modes = [name for name in ("theta", "identities", "gs") if p.get(name)]
    if len(modes) != 1:
        raise BadInputError("landscape needs exactly one of --theta, --identities, --gs")
    mode = modes[0]

    if mode == "identities":
        if p.get("beta") is None:
            raise BadInputError("landscape --identities requires --beta X")
        beta = float(p["beta"])
        solver = _solver_config(p)
        esrs = identity_esrs(m, beta, config=solver)
        fpr = fprime_identity(m, beta, config=solver)
        bound = chain_bound(m, beta, config=solver)
        report = {
            "beta": beta,
            "energy_radial_identities": _jsonable(esrs),
            "free_energy_derivative": _jsonable(fpr),
            "chain_bound": bound,
            "worst_energy_dev": max(abs(row.e_dev) for row in esrs.rows),
            "worst_radial_dev_next": max(abs(row.r_dev_next) for row in esrs.rows),
            "config": json.loads(cfg.to_json()),
        }
        click.echo(
            "identities: worst energy dev %.3e, derivative dev %.3e, chain bound %.6g"
            % (report["worst_energy_dev"], fpr.deviation, bound)
        )
        _emit(_render(report, cfg.format), cfg.out)
        return 0

    # grid modes emit CSV tables regardless of --format json default
    if mode == "theta":
        grid = int(_param(p, "grid", 41))
        if grid < 2:
            raise BadInputError("--grid must be at least 2")
        e_lo, e_hi = _pair(p.get("e_range") or "-2:2", "--e-range")
        r_lo, r_hi = _pair(p.get("r_range") or "-4:4", "--r-range")
        e_grid = [e_lo + (e_hi - e_lo) * i / (grid - 1) for i in range(grid)]
        r_grid = [r_lo + (r_hi - r_lo) * i / (grid - 1) for i in range(grid)]
        try:
            table = theta_surface_csv(m, e_grid, r_grid)
        except _SOLVER_ERRORS as e:
            # theta fails only on a singular sigma, a property of the
            # mixture alone: the first point fails or none does
            return _partial(["E,R,theta"], cfg.out, str(e))
        _emit(table, cfg.out)
        return 0

    qgrid = _grid(p.get("qgrid") or "0.1:1:0.1", "--qgrid")
    try:
        curve = ground_state_curve(m, qgrid, config=_solver_config(p, k_max=ZT_K_MAX))
    except SolverFailedError as e:
        rows = [f"{q:.12g},{e_star:.12g},{r_star:.12g}" for q, e_star, r_star in e.rows]
        return _partial(["q,E_star,R_star", *rows], cfg.out, str(e))
    _emit(curve.to_csv(), cfg.out)
    return 0


def _partial(lines: list[str], out: str | None, message: str) -> int:
    if out is not None:
        partial = out + ".partial"
        with open(partial, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        click.echo(f"wrote {partial}")
    _fail(f"grid point failed: {message}", _EXIT_SOLVER_FAILED)


def _body_fp(cfg: RunConfig) -> int:
    m = cfg.mixture_obj()
    p = cfg.params
    if p.get("beta") is None or p.get("beta_prime") is None:
        raise BadInputError("fp requires --beta X and --beta-prime X")
    beta = float(p["beta"])
    beta_prime = float(p["beta_prime"])
    r_values = _grid(p.get("r_grid") or "-0.8:0.8:0.2", "--r-grid")
    rows = [r for r in r_values if abs(r) < 1.0]
    solver = dataclasses.replace(_solver_config(p), starts=2)
    scan_points = int(_param(p, "scan_points", 32))
    if scan_points < 3:
        raise BadInputError("fp needs --scan-points >= 3")
    both = bool(p.get("both_regimes"))
    failures = 0

    if both:
        lines = ["r,value_high,value_low,rho_star_low"]
    else:
        lines = ["r,regime,value,rho_star,mean,free_energy,volume"]

    regime = FPQuery.detect(m, beta, beta_prime, 0.0).regime
    for r in rows:
        if both:
            hi = fp_high(m, beta, beta_prime, r, config=solver, check_regime=False)
            try:
                lo = fp_low(m, beta, beta_prime, r, config=solver, scan_points=scan_points)
                lines.append(
                    f"{r:.12g},{hi.value:.12g},{lo.value:.12g},{lo.rho_star:.12g}"
                )
            except _SOLVER_ERRORS + _INPUT_ERRORS as e:
                failures += 1
                click.echo(f"r={r:g}: {e}", err=True)
                lines.append(f"{r:.12g},{hi.value:.12g},nan,nan")
            continue
        try:
            if regime == "high":
                res = fp_high(m, beta, beta_prime, r, config=solver)
                rho = float("nan")
            else:
                res = fp_low(m, beta, beta_prime, r, config=solver, scan_points=scan_points)
                rho = res.rho_star
            t = res.terms
            lines.append(
                f"{r:.12g},{regime},{res.value:.12g},{rho:.12g},"
                f"{t.mean:.12g},{t.free_energy:.12g},{t.volume:.12g}"
            )
        except _SOLVER_ERRORS + _INPUT_ERRORS as e:
            failures += 1
            click.echo(f"r={r:g}: {e}", err=True)
            lines.append(f"{r:.12g},{regime},nan,nan,nan,nan,nan")
    _emit("\n".join(lines) + "\n", cfg.out)
    if failures:
        _fail(f"{failures} of {len(rows)} sweep rows failed", _EXIT_SOLVER_FAILED)
    return 0


# ----------------------------------------------------------------- mc bodies


def _body_mc_validate(cfg: RunConfig) -> int:
    tests = validate_kernels(cfg.seed)
    for t in tests:
        click.echo(
            f"{'PASS' if t['pass'] else 'FAIL'}  {t['name']}: "
            f"{t['statistic']:.6g} (gate {t['gate']:g})"
        )
    report = {
        "tests": tests,
        "all_pass": all(t["pass"] for t in tests),
        "config": json.loads(cfg.to_json()),
    }
    _emit(_render(report, cfg.format), cfg.out)
    if not report["all_pass"]:
        _fail("one or more kernel validations failed", _EXIT_SOLVER_FAILED)
    return 0


def _body_mc_complexity(cfg: RunConfig) -> int:
    m = cfg.mixture_obj()
    p = cfg.params
    n = int(p.get("n") or 0)
    n_fields = int(p.get("fields") or 0)
    if n < 2 or n_fields < 1:
        raise BadInputError("mc complexity requires --N >= 2 and --fields >= 1")
    e_lo, e_hi, e_count = _edges(p.get("e_grid") or "-2:2:17", "--e-grid")
    r_lo, r_hi, r_count = _edges(p.get("r_grid") or "-6:6:13", "--r-grid")
    est = empirical_complexity(
        m,
        n,
        float(_param(p, "q", 1.0)),
        np.linspace(e_lo, e_hi, e_count),
        np.linspace(r_lo, r_hi, r_count),
        n_fields=n_fields,
        seed=cfg.seed,
        restarts=int(_param(p, "restarts", 32)),
        bootstrap=int(_param(p, "bootstrap", 200)),
    )
    ei, ri = est.argmax_bin()
    click.echo(
        "argmax bin: E in [%.6g, %.6g), R in [%.6g, %.6g), mean count %.6g"
        % (est.e_edges[ei], est.e_edges[ei + 1], est.r_edges[ri], est.r_edges[ri + 1], est.mean_counts[ei, ri])
    )
    _emit(est.to_csv(), cfg.out)
    return 0


def _edges(spec: str, what: str) -> tuple[float, float, int]:
    parts = str(spec).split(":")
    if len(parts) != 3:
        raise BadInputError(f"{what} must look like lo:hi:count, got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as e:
        raise BadInputError(f"bad {what} value: {e}") from e
    if hi <= lo or count < 2:
        raise BadInputError(f"{what} needs hi > lo and count >= 2")
    return lo, hi, count


def _body_mc_gibbs(cfg: RunConfig) -> int:
    m = cfg.mixture_obj()
    p = cfg.params
    n = int(p.get("n") or 0)
    if n < 2:
        raise BadInputError("mc gibbs requires --N >= 2")
    if p.get("beta") is None:
        raise BadInputError("mc gibbs requires --beta X")
    beta = float(p["beta"])
    mc = MCConfig(
        steps=int(_param(p, "steps", 4000)),
        burn_in=int(_param(p, "burn_in", 1000)),
        thin=int(_param(p, "thin", 10)),
        step_size=float(_param(p, "step_size", 0.3)),
        chain_index=int(_param(p, "chain_index", 0)),
    )
    f = sample_field(m, n, seed=cfg.seed, field_index=int(_param(p, "field_index", 0)))
    run = gibbs_mcmc(f, beta, mc)
    norm_dev = float(np.max(np.abs(np.sum(run.samples**2, axis=1) - n)))
    report = {
        "manifest": run.manifest(),
        "energy_mean_density": float(run.energies.mean() / n),
        "energy_std_density": float(run.energies.std(ddof=1) / n) if len(run.energies) > 1 else 0.0,
        "max_norm_dev": norm_dev,
        "config": json.loads(cfg.to_json()),
    }
    if run.samples.shape[0] >= 2:
        hist = overlap_statistics(run, run)
        report["overlap_mean"] = hist.mean
        report["overlap_std"] = hist.std
    click.echo(
        "acceptance %.4f, energy density %.6g, max norm dev %.2e"
        % (run.acceptance_rate, report["energy_mean_density"], norm_dev)
    )
    if p.get("dump"):
        dump_samples(p["dump"], run.samples)
        click.echo(f"wrote {p['dump']}")
    _emit(_render(report, cfg.format), cfg.out)
    return 0


_BODIES = {
    "parisi": _body_parisi,
    "landscape": _body_landscape,
    "fp": _body_fp,
    "mc.validate-conditioning": _body_mc_validate,
    "mc.complexity": _body_mc_complexity,
    "mc.gibbs": _body_mc_gibbs,
}


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------


def _load_config(ctx, param, path):
    """Eager --config callback: the file's values become the command's option
    defaults, so explicit flags beat them. Returns the config, for its mixture."""
    if path is None:
        return None
    base = _guarded(lambda: RunConfig.from_json(_read(path, "config")))
    ctx.default_map = {**base.params, "seed": base.seed, "out": base.out, "fmt": base.format}
    return base


def _common(fn):
    fn = click.option("--config", "config", type=click.Path(), default=None, is_eager=True, callback=_load_config, help="RunConfig JSON file; flags override its values.")(fn)
    fn = click.option("--seed", type=int, default=0, show_default=True)(fn)
    fn = click.option("--out", type=click.Path(), default=None, help="Artifact path (stdout if omitted).")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)(fn)
    return fn


def _run(command, config, seed, out, fmt, mixture_path=None, **params):
    """Build the RunConfig of one flag invocation and run its command body.
    An inline --mixture file beats the config file's mixture."""

    def body():
        mixture = _mixture_dict(mixture_path)
        if mixture is None and config is not None:
            mixture = config.mixture
        cfg = RunConfig(command, mixture, params, seed, out, fmt)
        return _BODIES[command](cfg)

    sys.exit(_guarded(body))


def _as_bad_input(fn, *args):
    try:
        return fn(*args)
    except click.UsageError as e:
        e.exit_code = _EXIT_BAD_INPUT
        raise


class _Group(click.Group):
    """Usage errors exit with the bad-input code; click's 2 is a solver failure here."""

    def parse_args(self, ctx, args):
        return _as_bad_input(super().parse_args, ctx, args)

    def invoke(self, ctx):
        return _as_bad_input(super().invoke, ctx)


@click.group(cls=_Group)
def main():
    """Analytics and Monte Carlo laboratory for spherical mixed p-spin models."""


@main.command("parisi")
@click.option("--mixture", "mixture_path", type=click.Path(), default=None, help="Mixture JSON file.")
@click.option("--beta", type=float, default=None)
@click.option("--zero-temp", "zero_temp", is_flag=True, default=False)
@click.option("--k-max", "k_max", type=int, default=None)
@click.option("--starts", type=int, default=None)
@click.option("--solver-seed", "solver_seed", type=int, default=None)
@_common
def cmd_parisi(**kw):
    """Minimize the free-energy functional; print atoms, value, certificate."""
    _run("parisi", **kw)


@main.command("landscape")
@click.option("--mixture", "mixture_path", type=click.Path(), default=None)
@click.option("--theta", is_flag=True, default=False, help="Emit the complexity surface CSV.")
@click.option("--identities", is_flag=True, default=False, help="Report ladder identity deviations.")
@click.option("--gs", is_flag=True, default=False, help="Emit the ground-state curve CSV.")
@click.option("--beta", type=float, default=None)
@click.option("--grid", type=int, default=None)
@click.option("--e-range", "e_range", type=str, default=None, help="lo:hi for the energy axis.")
@click.option("--r-range", "r_range", type=str, default=None, help="lo:hi for the radial axis.")
@click.option("--qgrid", type=str, default=None, help="lo:hi:step for radius-squared values.")
@click.option("--k-max", "k_max", type=int, default=None)
@_common
def cmd_landscape(**kw):
    """Complexity surface, ground-state curve, and ladder identity reports."""
    _run("landscape", **kw)


@main.command("fp")
@click.option("--mixture", "mixture_path", type=click.Path(), default=None)
@click.option("--beta", type=float, default=None)
@click.option("--beta-prime", "beta_prime", type=float, default=None)
@click.option("--r-grid", "r_grid", type=str, default=None, help="lo:hi:step overlap sweep.")
@click.option("--both-regimes", "both_regimes", is_flag=True, default=False)
@click.option("--k-max", "k_max", type=int, default=None, help="Atom cap of every solve of the sweep (default 3).")
@click.option("--scan-points", "scan_points", type=int, default=None)
@click.option("--solver-seed", "solver_seed", type=int, default=None)
@_common
def cmd_fp(**kw):
    """Sweep the constrained-overlap potential over r; auto-selects the regime."""
    _run("fp", **kw)


@main.group("mc")
def cmd_mc():
    """Small-dimension Monte Carlo laboratory."""


@cmd_mc.command("validate-conditioning")
@_common
def cmd_mc_validate(**kw):
    """Run the sampled-kernel validation battery; pass/fail per test."""
    _run("mc.validate-conditioning", **kw)


@cmd_mc.command("complexity")
@click.option("--mixture", "mixture_path", type=click.Path(), default=None)
@click.option("--N", "n", type=int, default=None)
@click.option("--fields", type=int, default=None)
@click.option("--q", type=float, default=None)
@click.option("--restarts", type=int, default=None)
@click.option("--bootstrap", type=int, default=None)
@click.option("--e-grid", "e_grid", type=str, default=None, help="lo:hi:count bin edges.")
@click.option("--r-grid", "r_grid", type=str, default=None, help="lo:hi:count bin edges.")
@_common
def cmd_mc_complexity(**kw):
    """Exploratory critical-point census over (energy, radial-derivative) bins."""
    _run("mc.complexity", **kw)


@cmd_mc.command("gibbs")
@click.option("--mixture", "mixture_path", type=click.Path(), default=None)
@click.option("--N", "n", type=int, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--steps", type=int, default=None)
@click.option("--burn-in", "burn_in", type=int, default=None)
@click.option("--thin", type=int, default=None)
@click.option("--step-size", "step_size", type=float, default=None)
@click.option("--chain-index", "chain_index", type=int, default=None)
@click.option("--field-index", "field_index", type=int, default=None)
@click.option("--dump", type=click.Path(), default=None, help="Write samples to a binary dump.")
@_common
def cmd_mc_gibbs(**kw):
    """Run one Metropolis chain and report chain diagnostics."""
    _run("mc.gibbs", **kw)


@main.command("run")
@click.option("--config", "config_path", type=click.Path(), required=True)
def cmd_run(config_path):
    """Replay a RunConfig file; artifacts are byte-identical to the flag run."""
    def body():
        cfg = RunConfig.from_json(_read(config_path, "config"))
        if cfg.command not in _BODIES:
            raise BadInputError(
                f"unknown command {cfg.command!r}; expected one of {sorted(_BODIES)}"
            )
        return _BODIES[cfg.command](cfg)

    sys.exit(_guarded(body))


if __name__ == "__main__":  # pragma: no cover
    main()
