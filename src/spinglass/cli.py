"""Command-line surface for the spin-glass analytics toolkit.

One binary with subcommands.  Every run resolves to a ``RunConfig`` (command
name, inline mixture, parameters, seed, output path, format); the same config
can be replayed with ``spinglass run --config file.json`` and yields
byte-identical artifacts.  A command's ``--config file.json`` supplies the
defaults of its options, so explicit flags override config-file values.  A
replay is the config's command run with ``--config file.json``, so click types
every value on both paths.  Options left unset keep the library's defaults.

Artifacts: this is the only module that knows an artifact format.  A command
body returns what it computed, a report (a dict) or a table (columns, rows of
numbers or labels, an optional note), and the failure if there was one; one
writer renders and writes it.  ``--format`` left unset resolves to json for a
report and csv for a table, and the run config records the resolved format.
A JSON report carries the run config under ``config``, a CSV report as
``config.*`` rows.  A table in JSON is ``{"columns", "rows", "config"}``, plus
``"note"`` when it has one; in CSV it is the note line (``# note``), the header
and the rows, with numbers written as ``{:.12g}``, and no config.  NaN and
infinities are written as ``nan``, ``inf`` and ``-inf``.  Every JSON artifact
embeds its config, so ``run --config`` replays it.

Exit codes: 0 success, 1 bad input (including click usage errors: unknown
options or commands, unknown config fields, mistyped flag or config values),
2 solver failure (or failed validation / failed sweep rows), 3 capacity
exceeded.  One boundary, around the command group, maps errors to these codes.
When a ``landscape`` grid point fails and ``--out FILE`` was given, the rows
solved before the failure are written to ``FILE.partial``.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import click
import numpy as np

from .errors import (
    BadInputError,
    CapacityExceededError,
    SingularMatrixError,
    SolverFailedError,
)
from .franz_parisi import FPQuery, fp_high, fp_low
from .landscape import (
    chain_bound,
    fprime_identity,
    ground_state_curve,
    identity_esrs,
    theta,
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

# subclasses map with their bases; _exit_codes tries the solver errors first,
# so a SingularMatrixError (a BadInputError) exits as a solver failure
_INPUT_ERRORS = (BadInputError,)
_SOLVER_ERRORS = (SolverFailedError, SingularMatrixError)


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
    format: str | None = None  # unset: json for a report, csv for a table

    def __post_init__(self):
        if self.format not in (None, "json", "csv"):
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
        unknown = sorted(set(obj) - set(_FIELD_TYPES))
        if kw["command"] in _BODIES:
            options = _command_options(kw["command"])
            params = kw.get("params", {})
            unknown += [f"params.{name}" for name in sorted(params.keys() - options.keys())]
            for name in sorted(params.keys() & options.keys()):
                value, types = params[name], _PARAM_TYPES.get(options[name].type.name, str)
                # null leaves the option unset; a bool is only ever a flag
                if value is not None and (
                    isinstance(value, bool) != (types is bool) or not isinstance(value, types)
                ):
                    raise BadInputError(
                        f"run config param {name!r} ({options[name].opts[0]}) has the wrong type: {value!r}"
                    )
        if unknown:
            raise BadInputError(f"run config has unknown fields: {', '.join(unknown)}")
        return cls(**kw)

    def mixture_obj(self) -> Mixture:
        if self.mixture is None:
            raise BadInputError("this command requires a mixture (--mixture FILE)")
        return Mixture.from_json(json.dumps(self.mixture))


# the JSON types a config param takes, by its option's click type name (the
# rest take a string); click itself would truncate a float for an integer
_PARAM_TYPES = {"boolean": bool, "integer": int, "float": (int, float)}

# options every command shares; the config records them outside params
_SHARED_OPTIONS = {"config", "seed", "out", "fmt", "mixture_path"}


def _command_options(command: str) -> dict[str, click.Parameter]:
    """The params keys a config of command may carry, with their options:
    the options of its click command other than the shared ones."""
    cmd = main
    for part in command.split("."):
        cmd = cmd.commands[part]
    return {p.name: p for p in cmd.params if p.name not in _SHARED_OPTIONS}


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
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)  # "nan", "inf" or "-inf": JSON has no such numbers
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


class _Table(NamedTuple):
    """A table artifact: column names, rows of numbers or labels, and an
    optional note that leads its CSV form."""

    columns: tuple[str, ...]
    rows: list[tuple]
    note: str | None = None


class _Failure(NamedTuple):
    """Why a command exits 2 after writing its artifact; a partial artifact
    holds only the rows solved before the failure."""

    message: str
    partial: bool = False


def _cell(value) -> str:
    return value if isinstance(value, str) else f"{value:.12g}"


def _render(artifact: dict | _Table, fmt: str, config: dict) -> str:
    """The text of a report or table in fmt, with the run config attached."""
    if isinstance(artifact, _Table):
        if fmt == "csv":
            lines = [] if artifact.note is None else [f"# {artifact.note}"]
            lines.append(",".join(artifact.columns))
            lines += [",".join(map(_cell, row)) for row in artifact.rows]
            return "\n".join(lines) + "\n"
        note = {} if artifact.note is None else {"note": artifact.note}
        artifact = {"columns": artifact.columns, "rows": artifact.rows, **note}
    report = {**artifact, "config": config}
    if fmt == "json":
        return json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    lines = ["key,value"]
    for key, value in _flatten(report):
        lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _colon_spec(spec: str, what: str, shape: str) -> list:
    """The finite numbers of a colon spec of the given shape, such as
    lo:hi:step; a part named count is an integer."""
    names = shape.split(":")
    parts = spec.split(":")
    if len(parts) != len(names):
        raise BadInputError(f"{what} must look like {shape}, got {spec!r}")
    try:
        values = [int(v) if name == "count" else float(v) for name, v in zip(names, parts)]
    except ValueError as e:
        raise BadInputError(f"bad {what} value: {e}") from e
    if not all(math.isfinite(v) for v in values):
        raise BadInputError(f"{what} needs finite numbers, got {spec!r}")
    return values


def _grid(spec: str, what: str) -> list[float]:
    """Parse an inclusive lo:hi:step grid spec."""
    lo, hi, step = _colon_spec(spec, what, "lo:hi:step")
    if step <= 0 or hi < lo:
        raise BadInputError(f"{what} needs hi >= lo and step > 0")
    count = int(round((hi - lo) / step))
    vals = [lo + i * step for i in range(count + 1)]
    return [v for v in vals if v <= hi + 1e-12]


def _pair(spec: str, what: str) -> tuple[float, float]:
    lo, hi = _colon_spec(spec, what, "lo:hi")
    if hi <= lo:
        raise BadInputError(f"{what} needs hi > lo")
    return lo, hi


def _edges(spec: str, what: str) -> tuple[float, float, int]:
    lo, hi, count = _colon_spec(spec, what, "lo:hi:count")
    if hi <= lo or count < 2:
        raise BadInputError(f"{what} needs hi > lo and count >= 2")
    return lo, hi, count


def _param(params: dict, key: str, default):
    """The value given for key, or default when none was given; an explicit
    0 is a value, not a request for the default."""
    value = params.get(key)
    return default if value is None else value


def _given(params: dict, *keys: str, **renamed: str) -> dict:
    """Keyword arguments from the options among keys that were given, so that
    the library's own defaults fill in the rest; renamed maps an option to a
    keyword of another name."""
    pairs = [(key, key) for key in keys] + list(renamed.items())
    return {name: params[key] for key, name in pairs if params.get(key) is not None}


def _solver_config(params: dict, **defaults) -> SolverConfig:
    """SolverConfig from --k-max, --starts and --solver-seed over the given defaults."""
    return SolverConfig(**{**defaults, **_given(params, "k_max", "starts", solver_seed="seed")})


# ---------------------------------------------------------------------------
# command bodies (reached only through their click command); each returns
# (artifact, failure or None), and _run writes the artifact
# ---------------------------------------------------------------------------


def _body_parisi(cfg: RunConfig):
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
        beta = p["beta"]
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
    return report, None


def _body_landscape(cfg: RunConfig):
    m = cfg.mixture_obj()
    p = cfg.params
    modes = [name for name in ("theta", "identities", "gs") if p.get(name)]
    if len(modes) != 1:
        raise BadInputError("landscape needs exactly one of --theta, --identities, --gs")
    mode = modes[0]

    if mode == "identities":
        if p.get("beta") is None:
            raise BadInputError("landscape --identities requires --beta X")
        beta = p["beta"]
        solver = _solver_config(p)
        esrs = identity_esrs(m, beta, config=solver)
        fpr = fprime_identity(m, beta, config=solver)
        bound = chain_bound(m, beta, config=solver)
        report = {
            "beta": beta,
            "energy_radial_identities": _jsonable(esrs),
            "free_energy_derivative": _jsonable(fpr),
            "chain_bound": bound,
            "worst_energy_dev": esrs.max_e_dev,
            "worst_radial_dev_next": max(abs(row.r_dev_next) for row in esrs.rows),
        }
        click.echo(
            "identities: worst energy dev %.3e, derivative dev %.3e, chain bound %.6g"
            % (report["worst_energy_dev"], fpr.deviation, bound)
        )
        return report, None

    if mode == "theta":
        grid = _param(p, "grid", 41)
        if grid < 2:
            raise BadInputError("--grid must be at least 2")
        e_lo, e_hi = _pair(p.get("e_range") or "-2:2", "--e-range")
        r_lo, r_hi = _pair(p.get("r_range") or "-4:4", "--r-range")
        e_grid = [e_lo + (e_hi - e_lo) * i / (grid - 1) for i in range(grid)]
        r_grid = [r_lo + (r_hi - r_lo) * i / (grid - 1) for i in range(grid)]
        table = _Table(("E", "R", "theta"), [])
        try:
            for e in e_grid:
                for r in r_grid:
                    table.rows.append((e, r, theta(m, e, r).theta))
        except _SOLVER_ERRORS as e:
            # theta fails only on a singular sigma, a property of the
            # mixture alone: the first point fails or none does
            return table, _Failure(f"grid point failed: {e}", partial=True)
        return table, None

    qgrid = _grid(p.get("qgrid") or "0.1:1:0.1", "--qgrid")
    columns = ("q", "E_star", "R_star")
    try:
        curve = ground_state_curve(m, qgrid, config=_solver_config(p, k_max=ZT_K_MAX))
    except SolverFailedError as e:
        return _Table(columns, list(e.rows)), _Failure(f"grid point failed: {e}", partial=True)
    return _Table(columns, list(zip(curve.q_grid, curve.e_star, curve.r_star))), None


def _body_fp(cfg: RunConfig):
    m = cfg.mixture_obj()
    p = cfg.params
    if p.get("beta") is None or p.get("beta_prime") is None:
        raise BadInputError("fp requires --beta X and --beta-prime X")
    beta, beta_prime = p["beta"], p["beta_prime"]
    r_values = [r for r in _grid(p.get("r_grid") or "-0.8:0.8:0.2", "--r-grid") if abs(r) < 1.0]
    solver = dataclasses.replace(_solver_config(p), starts=2)
    scan_points = _param(p, "scan_points", 32)
    if scan_points < 3:
        raise BadInputError("fp needs --scan-points >= 3")
    both = bool(p.get("both_regimes"))
    failures = 0

    if both:
        table = _Table(("r", "value_high", "value_low", "rho_star_low"), [])
    else:
        table = _Table(("r", "regime", "value", "rho_star", "mean", "free_energy", "volume"), [])

    regime = FPQuery.detect(m, beta, beta_prime, 0.0).regime
    for r in r_values:
        if both:
            hi = fp_high(m, beta, beta_prime, r, config=solver, check_regime=False)
            try:
                lo = fp_low(m, beta, beta_prime, r, config=solver, scan_points=scan_points)
                table.rows.append((r, hi.value, lo.value, lo.rho_star))
            except _SOLVER_ERRORS + _INPUT_ERRORS as e:
                failures += 1
                click.echo(f"r={r:g}: {e}", err=True)
                table.rows.append((r, hi.value, math.nan, math.nan))
            continue
        try:
            if regime == "high":
                res = fp_high(m, beta, beta_prime, r, config=solver)
                rho = math.nan
            else:
                res = fp_low(m, beta, beta_prime, r, config=solver, scan_points=scan_points)
                rho = res.rho_star
            t = res.terms
            table.rows.append((r, regime, res.value, rho, t.mean, t.free_energy, t.volume))
        except _SOLVER_ERRORS + _INPUT_ERRORS as e:
            failures += 1
            click.echo(f"r={r:g}: {e}", err=True)
            table.rows.append((r, regime, *[math.nan] * 5))
    if failures:
        return table, _Failure(f"{failures} of {len(r_values)} sweep rows failed")
    return table, None


# ----------------------------------------------------------------- mc bodies


def _body_mc_validate(cfg: RunConfig):
    tests = validate_kernels(cfg.seed)
    for t in tests:
        click.echo(
            f"{'PASS' if t['pass'] else 'FAIL'}  {t['name']}: "
            f"{t['statistic']:.6g} (gate {t['gate']:g})"
        )
    report = {
        "tests": tests,
        "all_pass": all(t["pass"] for t in tests),
    }
    if not report["all_pass"]:
        return report, _Failure("one or more kernel validations failed")
    return report, None


def _body_mc_complexity(cfg: RunConfig):
    m = cfg.mixture_obj()
    p = cfg.params
    n = p.get("n") or 0
    n_fields = p.get("fields") or 0
    if n < 2 or n_fields < 1:
        raise BadInputError("mc complexity requires --N >= 2 and --fields >= 1")
    e_lo, e_hi, e_count = _edges(p.get("e_grid") or "-2:2:17", "--e-grid")
    r_lo, r_hi, r_count = _edges(p.get("r_grid") or "-6:6:13", "--r-grid")
    est = empirical_complexity(
        m,
        n,
        _param(p, "q", 1.0),
        np.linspace(e_lo, e_hi, e_count),
        np.linspace(r_lo, r_hi, r_count),
        n_fields=n_fields,
        seed=cfg.seed,
        **_given(p, "restarts", "bootstrap"),
    )
    ei, ri = est.argmax_bin()
    click.echo(
        "argmax bin: E in [%.6g, %.6g), R in [%.6g, %.6g), mean count %.6g"
        % (est.e_edges[ei], est.e_edges[ei + 1], est.r_edges[ri], est.r_edges[ri + 1], est.mean_counts[ei, ri])
    )
    e_mid = 0.5 * (est.e_edges[:-1] + est.e_edges[1:])
    r_mid = 0.5 * (est.r_edges[:-1] + est.r_edges[1:])
    rows = [
        (e, r, est.mean_counts[i, j], est.log_counts[i, j], est.ci_low[i, j], est.ci_high[i, j])
        for i, e in enumerate(e_mid)
        for j, r in enumerate(r_mid)
    ]
    columns = ("e_center", "r_center", "mean_count", "log_count", "ci_low", "ci_high")
    return _Table(columns, rows, "exploratory: multi-start finder, counts are lower estimates"), None


def _body_mc_gibbs(cfg: RunConfig):
    m = cfg.mixture_obj()
    p = cfg.params
    n = p.get("n") or 0
    if n < 2:
        raise BadInputError("mc gibbs requires --N >= 2")
    if p.get("beta") is None:
        raise BadInputError("mc gibbs requires --beta X")
    beta = p["beta"]
    mc = MCConfig(**_given(p, "steps", "burn_in", "thin", "step_size", "chain_index"))
    f = sample_field(m, n, seed=cfg.seed, **_given(p, "field_index"))
    run = gibbs_mcmc(f, beta, mc)
    norm_dev = float(np.max(np.abs(np.sum(run.samples**2, axis=1) - n)))
    report = {
        "manifest": run.manifest(),
        "energy_mean_density": float(run.energies.mean() / n),
        "energy_std_density": float(run.energies.std(ddof=1) / n) if len(run.energies) > 1 else 0.0,
        "max_norm_dev": norm_dev,
    }
    # two replicas: a partner chain on the same field and settings
    partner = gibbs_mcmc(f, beta, dataclasses.replace(mc, chain_index=mc.chain_index + 1))
    hist = overlap_statistics(run, partner)
    report["overlap_mean"] = hist.mean
    report["overlap_std"] = hist.std
    click.echo(
        "acceptance %.4f, energy density %.6g, max norm dev %.2e"
        % (run.acceptance_rate, report["energy_mean_density"], norm_dev)
    )
    if p.get("dump"):
        dump_samples(p["dump"], run.samples)
        click.echo(f"wrote {p['dump']}")
    return report, None


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
    base = RunConfig.from_json(_read(path, "config"))
    ctx.default_map = {**base.params, "seed": base.seed, "out": base.out, "fmt": base.format}
    return base


def _common(fn):
    fn = click.option("--config", "config", type=click.Path(), default=None, is_eager=True, callback=_load_config, help="RunConfig JSON file; flags override its values.")(fn)
    fn = click.option("--seed", type=int, default=0, show_default=True)(fn)
    fn = click.option("--out", type=click.Path(), default=None, help="Artifact path (stdout if omitted).")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default=None, help="Artifact format (default json for a report, csv for a table); every JSON artifact embeds its run config.")(fn)
    return fn


def _run(command, config, seed, out, fmt, mixture_path=None, **params):
    """Build the RunConfig of one parsed invocation, run its command body (the
    only call of a body) and write what it returns, the one artifact writer:
    resolve the format, attach the config, write to --out or stdout (a partial
    artifact only to OUT.partial) and exit 2 on a failure. A config file for
    another command is rejected; an inline --mixture beats the config's."""
    if config is not None and config.command != command:
        raise BadInputError(f"the config file is for {config.command!r}, not {command!r}")
    mixture = _mixture_dict(mixture_path)
    if mixture is None and config is not None:
        mixture = config.mixture
    cfg = RunConfig(command, mixture, params, seed, out, fmt)
    artifact, failure = _BODIES[command](cfg)
    cfg = dataclasses.replace(cfg, format=fmt or ("csv" if isinstance(artifact, _Table) else "json"))
    text = _render(artifact, cfg.format, json.loads(cfg.to_json()))
    partial = failure is not None and failure.partial
    if out is not None:
        path = out + ".partial" if partial else out
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        click.echo(f"wrote {path}")
    elif not partial:
        click.echo(text, nl=False)
    if failure is not None:
        _fail(failure.message, _EXIT_SOLVER_FAILED)


def _exit_codes(fn, *args):
    """The error boundary: usage errors and library errors exit with their codes."""
    try:
        return fn(*args)
    except click.UsageError as e:
        e.exit_code = _EXIT_BAD_INPUT
        raise
    except CapacityExceededError as e:
        _fail(str(e), _EXIT_CAPACITY)
    except _SOLVER_ERRORS as e:
        _fail(str(e), _EXIT_SOLVER_FAILED)
    except _INPUT_ERRORS as e:
        _fail(str(e), _EXIT_BAD_INPUT)


class _Group(click.Group):
    """Maps errors to exit codes; click's usage-error 2 is a solver failure here."""

    def parse_args(self, ctx, args):
        return _exit_codes(super().parse_args, ctx, args)

    def invoke(self, ctx):
        return _exit_codes(super().invoke, ctx)


@click.group(cls=_Group)
def main():
    """Analytics and Monte Carlo laboratory for spherical mixed p-spin models."""


@main.command("parisi")
@click.option("--mixture", "mixture_path", type=click.Path(), default=None, help="Mixture JSON file.")
@click.option("--beta", type=float, default=None)
@click.option("--zero-temp", "zero_temp", is_flag=True, default=False)
@click.option("--k-max", "k_max", type=int, default=None)
@click.option(
    "--starts", type=int, default=None,
    help="Cap on the seeded starts per atom level (default 8). A level stops at its first "
    "certified candidate (seeded start 0 plus the previous level's warm split) and runs the "
    "other seeded starts only when that candidate does not certify.",
)
@click.option("--solver-seed", "solver_seed", type=int, default=None)
@_common
def cmd_parisi(**kw):
    """Minimize the free-energy functional; print atoms, value, certificate."""
    _run("parisi", **kw)


@main.command("landscape")
@click.option("--mixture", "mixture_path", type=click.Path(), default=None)
@click.option("--theta", is_flag=True, default=False, help="Emit the complexity surface table.")
@click.option("--identities", is_flag=True, default=False, help="Report ladder identity deviations.")
@click.option("--gs", is_flag=True, default=False, help="Emit the ground-state curve table.")
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
    """Run one Metropolis chain and report its diagnostics, with the overlap
    against a second chain (the next chain index) on the same field."""
    _run("mc.gibbs", **kw)


@main.command("run")
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.pass_context
def cmd_run(ctx, config_path):
    """Replay a RunConfig file: run its command with --config FILE, so that
    artifacts and exit codes are those of the flag run."""
    command = RunConfig.from_json(_read(config_path, "config")).command
    if command not in _BODIES:
        raise BadInputError(f"unknown command {command!r}; expected one of {sorted(_BODIES)}")
    main.main([*command.split("."), "--config", config_path], prog_name=ctx.find_root().info_name)


if __name__ == "__main__":  # pragma: no cover
    main()
