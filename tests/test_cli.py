"""CLI contract: flags reach the library with the values the artifact records."""

import csv
import dataclasses
import inspect
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

import spinglass.cli as cli
from spinglass import errors, rsb
from spinglass.errors import BadInputError, SolverFailedError
from spinglass.franz_parisi import FPResult, FPTerms
from spinglass.landscape import ground_state_curve, theta
from spinglass.mclab import MCConfig, gibbs_mcmc, load_samples, overlap_statistics, sample_field
from spinglass.mixtures import Mixture, pure
from spinglass.rsb import SolverConfig


@pytest.fixture
def pure3(tmp_path):
    path = tmp_path / "pure3.json"
    path.write_text(json.dumps({"coeffs": {"3": 1.0}}))
    return str(path)


def _clear_solver_caches():
    """Forget memoised solves, so that a replay recomputes them."""
    rsb._solve.cache_clear()
    rsb._beta_c.cache_clear()


def _run(args, tmp_path):
    out = tmp_path / "artifact.json"
    result = CliRunner().invoke(cli.main, [*args, "--out", str(out)])
    return result, (json.loads(out.read_text()) if out.exists() else None)


def test_gibbs_burn_in_zero_is_honoured(pure3, tmp_path):
    result, artifact = _run(
        ["mc", "gibbs", "--mixture", pure3, "--N", "4", "--beta", "1", "--steps", "20",
         "--burn-in", "0", "--thin", "1", "--format", "json"],
        tmp_path,
    )
    assert result.exit_code == 0, result.output
    assert artifact["config"]["params"]["burn_in"] == 0
    assert artifact["manifest"]["chain"]["burn_in"] == 0


def test_parisi_zero_temp_k_max_zero_is_honoured(pure3, tmp_path, monkeypatch):
    seen = []
    real = cli.zt_minimize

    def spy(m, config=None, allow_field=False):
        seen.append(config.k_max)
        return real(m, config=config, allow_field=allow_field)

    monkeypatch.setattr(cli, "zt_minimize", spy)
    result, artifact = _run(["parisi", "--mixture", pure3, "--zero-temp", "--k-max", "0"], tmp_path)
    assert result.exit_code == 0, result.output
    assert seen == [0]
    assert len(artifact["order"]["steps"]) == 1
    assert artifact["certificate"]["kind"] == "zero_temp"


def _spy_fp(monkeypatch):
    """Replace fp_high and fp_low by stubs that record the config of each call."""
    seen = {"high": [], "low": []}

    def stub(regime):
        def fake(m, beta, beta_prime, r, config=None, **kw):
            seen[regime].append(config)
            terms = FPTerms(mean=0.0, free_energy=0.0, volume=0.0)
            return FPResult(value=0.0, rho_star=0.0, terms=terms)

        return fake

    monkeypatch.setattr(cli, "fp_high", stub("high"))
    monkeypatch.setattr(cli, "fp_low", stub("low"))
    return seen


@pytest.mark.parametrize("solver_seed", [0, 5, None])
def test_fp_high_rows_receive_the_solver_config(pure3, tmp_path, monkeypatch, solver_seed):
    seen = _spy_fp(monkeypatch)
    seed_flags = [] if solver_seed is None else ["--solver-seed", str(solver_seed)]
    result = CliRunner().invoke(
        cli.main,
        ["fp", "--mixture", pure3, "--beta", "0.5", "--beta-prime", "1.0",
         "--r-grid", "0:0.2:0.1", "--both-regimes", *seed_flags],
    )
    assert result.exit_code == 0, result.output
    assert len(seen["high"]) == len(seen["low"]) == 3
    want = SolverConfig().seed if solver_seed is None else solver_seed
    configs = seen["high"] + seen["low"]
    assert all(cfg == configs[0] for cfg in configs)
    assert configs[0].seed == want and configs[0].starts == 2


def test_fp_k_max_caps_both_regimes(pure3, monkeypatch):
    seen = _spy_fp(monkeypatch)
    result = CliRunner().invoke(
        cli.main,
        ["fp", "--mixture", pure3, "--beta", "0.5", "--beta-prime", "1.0",
         "--r-grid", "0:0.2:0.1", "--both-regimes", "--k-max", "1"],
    )
    assert result.exit_code == 0, result.output
    assert [cfg.k_max for cfg in seen["high"] + seen["low"]] == [1] * 6


def test_mc_complexity_rejects_q_zero(pure3):
    result = CliRunner().invoke(
        cli.main,
        ["mc", "complexity", "--mixture", pure3, "--N", "3", "--fields", "1", "--q", "0",
         "--restarts", "2", "--bootstrap", "2"],
    )
    assert result.exit_code == cli._EXIT_BAD_INPUT, result.output


def test_mc_complexity_rejects_a_negative_bootstrap(pure3, tmp_path):
    out = tmp_path / "artifact.json"
    result = CliRunner().invoke(
        cli.main,
        ["mc", "complexity", "--mixture", pure3, "--N", "6", "--fields", "2", "--restarts", "2",
         "--bootstrap", "-1", "--out", str(out)],
    )
    assert result.exit_code == cli._EXIT_BAD_INPUT, result.output
    assert result.stderr.startswith("error: ")
    assert not out.exists()


# exit code of every class in errors.py at the CLI boundary
_EXIT_CODE_OF = {
    "BadInputError": 1,
    "MixtureError": 1,
    "RegimeMismatchError": 1,
    "KMismatchError": 1,
    "SingularMatrixError": 2,
    "SingularBlockError": 2,
    "SolverFailedError": 2,
    "NotBracketedError": 2,
    "CapacityExceededError": 3,
}


@pytest.mark.parametrize(
    "error",
    [cls for cls in vars(errors).values() if inspect.isclass(cls) and cls.__module__ == errors.__name__],
    ids=lambda cls: cls.__name__,
)
def test_every_error_class_exits_with_its_code(error, capsys):
    def body():
        raise error("boom")

    with pytest.raises(SystemExit) as exit_info:
        cli._exit_codes(body)
    assert exit_info.value.code == _EXIT_CODE_OF[error.__name__]
    assert capsys.readouterr().err == "error: boom\n"


def test_run_config_replays_parisi_zero_temp_byte_for_byte(tmp_path):
    mixture = tmp_path / "mix.json"
    mixture.write_text(json.dumps({"coeffs": {"2": 0.3, "3": 0.7}}))
    result, artifact = _run(["parisi", "--mixture", str(mixture), "--zero-temp"], tmp_path)
    assert result.exit_code == 0, result.output
    out = tmp_path / "artifact.json"
    first = out.read_bytes()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(artifact["config"]))
    _clear_solver_caches()
    replay = CliRunner().invoke(cli.main, ["run", "--config", str(config)])
    assert replay.exit_code == 0, replay.output
    assert replay.output == result.output
    assert out.read_bytes() == first


def test_run_config_replays_mc_gibbs_byte_for_byte(pure3, tmp_path):
    result, artifact = _run(
        ["mc", "gibbs", "--mixture", pure3, "--N", "8", "--beta", "1", "--steps", "40",
         "--burn-in", "10"],
        tmp_path,
    )
    assert result.exit_code == 0, result.output
    out = tmp_path / "artifact.json"
    first = out.read_bytes()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(artifact["config"]))
    replay = CliRunner().invoke(cli.main, ["run", "--config", str(config)])
    assert replay.exit_code == 0, replay.output
    assert replay.output == result.output
    assert out.read_bytes() == first


def test_run_config_rejects_unknown_fields(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"command": "parisi", "mixture": {"coeffs": {"3": 1.0}},
                                  "params": {"beta": 1.8, "kmax": 0}, "sed": 5}))
    result = CliRunner().invoke(cli.main, ["run", "--config", str(config)])
    assert result.exit_code == cli._EXIT_BAD_INPUT, result.output
    assert "sed" in result.stderr and "kmax" in result.stderr


def test_mc_gibbs_overlap_is_between_two_replicas(pure3, tmp_path):
    result, artifact = _run(
        ["mc", "gibbs", "--mixture", pure3, "--N", "8", "--beta", "1", "--steps", "40",
         "--burn-in", "10", "--thin", "2", "--chain-index", "2", "--field-index", "1",
         "--seed", "3"],
        tmp_path,
    )
    assert result.exit_code == 0, result.output
    field = sample_field(pure(3), 8, seed=3, field_index=1)
    chain = MCConfig(steps=40, burn_in=10, thin=2, chain_index=2)
    run = gibbs_mcmc(field, 1.0, chain)
    partner = gibbs_mcmc(field, 1.0, dataclasses.replace(chain, chain_index=3))
    assert artifact["overlap_mean"] == overlap_statistics(run, partner).mean


def test_mc_gibbs_rejects_a_field_index_of_2_to_the_32(pure3, tmp_path):
    # SeedSequence would split it into 32-bit words that alias a smaller key
    result, _ = _run(
        ["mc", "gibbs", "--mixture", pure3, "--N", "4", "--beta", "1", "--steps", "20",
         "--field-index", "4294967296"],
        tmp_path,
    )
    assert result.exit_code == cli._EXIT_BAD_INPUT, result.output


def _mixture(tmp_path, coeffs):
    path = tmp_path / "mixture.json"
    path.write_text(json.dumps({"coeffs": coeffs}))
    return str(path)


def test_landscape_theta_on_a_pure_mixture_writes_a_header_only_partial(pure3, tmp_path):
    out = tmp_path / "theta.csv"
    result = CliRunner().invoke(
        cli.main, ["landscape", "--mixture", pure3, "--theta", "--grid", "3", "--out", str(out)]
    )
    assert result.exit_code == cli._EXIT_SOLVER_FAILED, result.output
    assert not out.exists()
    assert (tmp_path / "theta.csv.partial").read_text() == "E,R,theta\n"


def test_landscape_gs_failure_keeps_the_rows_solved_before_it(tmp_path):
    out = tmp_path / "gs.csv"
    result = CliRunner().invoke(
        cli.main, ["landscape", "--mixture", _mixture(tmp_path, {"2": 0.5, "4": 0.5}), "--gs",
                   "--out", str(out)]
    )
    assert result.exit_code == cli._EXIT_SOLVER_FAILED, result.output
    assert not out.exists()
    rows = (tmp_path / "gs.csv.partial").read_text().splitlines()
    assert rows[0] == "q,E_star,R_star"
    assert [row.split(",")[0] for row in rows[1:]] == ["0.1", "0.2"]


def test_run_config_replays_landscape_gs_byte_for_byte(tmp_path):
    out = tmp_path / "gs.csv"
    coeffs = {"3": 1.0, "4": 0.3}
    result = CliRunner().invoke(
        cli.main, ["landscape", "--mixture", _mixture(tmp_path, coeffs), "--gs",
                   "--qgrid", "0.5:1:0.5", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    first = out.read_bytes()
    assert first.decode().splitlines()[0] == "q,E_star,R_star"
    out.unlink()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "command": "landscape", "mixture": {"coeffs": coeffs},
        "params": {"gs": True, "qgrid": "0.5:1:0.5"}, "out": str(out),
    }))
    _clear_solver_caches()
    replay = CliRunner().invoke(cli.main, ["run", "--config", str(config)])
    assert replay.exit_code == 0, replay.output
    assert replay.output == result.output
    assert out.read_bytes() == first


def test_curve_csv_round_trip(pure3, tmp_path):
    out = tmp_path / "gs.csv"
    result = CliRunner().invoke(
        cli.main, ["landscape", "--mixture", pure3, "--gs", "--qgrid", "0.5:1:0.5", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["q", "E_star", "R_star"]
    assert len(rows) == 3
    curve = ground_state_curve(pure(3), (0.5, 1.0))
    assert float(rows[2][1]) == pytest.approx(curve.e_star[1], rel=1e-11)


def test_theta_surface_csv_shape(tmp_path):
    coeffs = {"3": 1.0, "4": 0.2}
    out = tmp_path / "theta.csv"
    result = CliRunner().invoke(
        cli.main, ["landscape", "--mixture", _mixture(tmp_path, coeffs), "--theta", "--grid", "3",
                   "--e-range", "0:1", "--r-range", "0:4", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["E", "R", "theta"]
    assert len(rows) == 1 + 3 * 3
    # energy is the outer loop
    assert [row[:2] for row in rows[1:4]] == [["0", "0"], ["0", "2"], ["0", "4"]]
    m = Mixture({3: 1.0, 4: 0.2})
    assert rows[-1][2] == f"{theta(m, 1.0, 4.0).theta:.12g}"


def test_complexity_csv_emission(pure3, tmp_path):
    out = tmp_path / "complexity.csv"
    result = CliRunner().invoke(
        cli.main, ["mc", "complexity", "--mixture", pure3, "--N", "6", "--fields", "2",
                   "--restarts", "4", "--bootstrap", "10", "--e-grid", "-1.8:1.8:7",
                   "--r-grid", "-5:5:5", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# exploratory")
    assert lines[1].split(",") == [
        "e_center",
        "r_center",
        "mean_count",
        "log_count",
        "ci_low",
        "ci_high",
    ]
    assert len(lines) == 2 + 6 * 4


def _not_json(constant):
    raise AssertionError(f"{constant} is not a JSON number")


@pytest.mark.parametrize(
    "args, coeffs",
    [
        (["fp", "--beta", "0.5", "--beta-prime", "1", "--r-grid", "0:0.2:0.2"], {"3": 1.0}),
        (["landscape", "--gs", "--qgrid", "0.5:1:0.5"], {"3": 1.0}),
        (["landscape", "--theta", "--grid", "3"], {"2": 0.5, "3": 0.5}),
        (["mc", "complexity", "--N", "4", "--fields", "1", "--restarts", "2", "--bootstrap", "2"],
         {"3": 1.0}),
    ],
    ids=["fp", "landscape-gs", "landscape-theta", "mc-complexity"],
)
def test_table_commands_honour_format_json_and_replay_it(tmp_path, args, coeffs):
    mixture = _mixture(tmp_path, coeffs)
    csv_out = tmp_path / "table.csv"
    result = CliRunner().invoke(cli.main, [*args, "--mixture", mixture, "--out", str(csv_out)])
    assert result.exit_code == 0, result.output
    lines = csv_out.read_text().splitlines()
    note = lines.pop(0)[2:] if lines[0].startswith("# ") else None
    out = tmp_path / "table.json"
    result = CliRunner().invoke(
        cli.main, [*args, "--mixture", mixture, "--format", "json", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    first = out.read_bytes()
    artifact = json.loads(first, parse_constant=_not_json)
    assert set(artifact) == {"columns", "rows", "config"} | ({"note"} if note else set())
    assert artifact.get("note") == note
    assert ",".join(artifact["columns"]) == lines[0]
    cells = [[v if isinstance(v, str) else f"{v:.12g}" for v in row] for row in artifact["rows"]]
    assert cells == [line.split(",") for line in lines[1:]]
    assert artifact["config"]["format"] == "json"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(artifact["config"]))
    out.unlink()
    _clear_solver_caches()
    replay = CliRunner().invoke(cli.main, ["run", "--config", str(config)])
    assert replay.exit_code == 0, replay.output
    assert replay.output == result.output
    assert out.read_bytes() == first


def test_mc_gibbs_over_the_tensor_capacity_exits_3(tmp_path):
    result = CliRunner().invoke(
        cli.main, ["mc", "gibbs", "--mixture", _mixture(tmp_path, {"4": 1.0}), "--N", "100",
                   "--beta", "1"]
    )
    assert result.exit_code == cli._EXIT_CAPACITY, result.output


def test_config_file_values_yield_to_explicit_flags(pure3, tmp_path):
    out = tmp_path / "artifact.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "command": "parisi", "mixture": {"coeffs": {"3": 1.0}},
        "params": {"beta": 1.2, "starts": 2, "solver_seed": 5},
        "seed": 7, "out": str(out), "format": "csv",
    }))
    result = CliRunner().invoke(cli.main, ["parisi", "--config", str(config), "--beta", "1.5"])
    assert result.exit_code == 0, result.output
    recorded = dict(line.split(",", 1) for line in out.read_text().splitlines()[1:])
    assert recorded["beta"] == "1.5"
    assert recorded["config.params.beta"] == "1.5"
    assert recorded["config.params.starts"] == "2"
    assert recorded["config.params.solver_seed"] == "5"
    assert recorded["config.seed"] == "7"
    assert recorded["config.format"] == "csv"
    assert recorded["config.out"] == str(out)


@pytest.mark.parametrize(
    "args", [["parisi", "--beta", "x"], ["parisi", "--bogus"], ["nosuch"], ["mc", "nosuch"]]
)
def test_usage_errors_exit_with_the_bad_input_code(args):
    result = CliRunner().invoke(cli.main, args)
    assert result.exit_code == cli._EXIT_BAD_INPUT, result.output


@pytest.mark.parametrize("mixture", [{"coeffs": {"3": 1.0}, "const": "x"}, {"coeffs": {"3": True}}])
def test_a_malformed_mixture_file_is_bad_input_without_a_traceback(tmp_path, mixture):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mixture))
    result = CliRunner().invoke(cli.main, ["parisi", "--mixture", str(path), "--beta", "2"])
    assert result.exit_code == cli._EXIT_BAD_INPUT, result.output
    assert isinstance(result.exception, SystemExit)
    assert "JSON numbers" in result.stderr


def test_a_mistyped_config_value_is_a_usage_error(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"command": "parisi", "mixture": {"coeffs": {"3": 1.0}},
                                  "params": {"beta": "x"}}))
    for command in ("parisi", "run"):
        result = CliRunner().invoke(cli.main, [command, "--config", str(config)])
        assert result.exit_code == cli._EXIT_BAD_INPUT, result.output
        assert "--beta" in result.stderr


@pytest.mark.parametrize(
    "command, params, name",
    [
        ("parisi", {"k_max": 2.7}, "--k-max"),
        ("fp", {"beta": 1.5, "beta_prime": 1.5, "r_grid": "0.3:0.3:0.1", "scan_points": 3.5}, "--scan-points"),
        ("mc.gibbs", {"n": 8, "beta": 1.0, "dump": 3}, "--dump"),
    ],
)
def test_a_config_param_that_is_not_its_options_json_type_is_bad_input(tmp_path, command, params, name):
    # click's INT would truncate 2.7 to 2 and run
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"command": command, "mixture": {"coeffs": {"3": 1.0}}, "params": params}))
    for args in (command.split("."), ["run"]):
        result = CliRunner().invoke(cli.main, [*args, "--config", str(config)])
        assert result.exit_code == cli._EXIT_BAD_INPUT, result.output
        assert name in result.stderr


def test_a_float_option_takes_a_json_integer_and_null_leaves_it_unset():
    params = {"beta": 2, "k_max": None, "zero_temp": False}
    assert cli.RunConfig.from_json(json.dumps({"command": "parisi", "params": params})).params == params


def test_run_config_and_command_config_write_the_same_artifact(tmp_path):
    config = tmp_path / "config.json"
    out = tmp_path / "artifact.json"
    config.write_text(json.dumps({"command": "parisi", "mixture": {"coeffs": {"3": 1.0}},
                                  "params": {"beta": 1.8}, "out": str(out)}))
    artifacts = []
    for command in ("run", "parisi"):
        result = CliRunner().invoke(cli.main, [command, "--config", str(config)])
        assert result.exit_code == 0, result.output
        artifacts.append(json.loads(out.read_text()))
        out.unlink()
    assert artifacts[0] == artifacts[1]
    assert artifacts[0]["config"]["params"]["zero_temp"] is False


def test_a_config_for_another_command_is_rejected(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"command": "fp", "mixture": {"coeffs": {"3": 1.0}},
                                  "params": {"beta": 0.5, "beta_prime": 1.0}}))
    result = CliRunner().invoke(cli.main, ["parisi", "--config", str(config)])
    assert result.exit_code == cli._EXIT_BAD_INPUT, result.output
    assert "'fp'" in result.stderr and "'parisi'" in result.stderr


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize(
    "args",
    [
        ["landscape", "--gs", "--qgrid", "0.1:{}:0.1"],
        ["fp", "--beta", "0.5", "--beta-prime", "1.0", "--r-grid", "0:{}:0.1"],
        ["landscape", "--theta", "--e-range", "0:{}"],
        ["landscape", "--theta", "--r-range", "0:{}"],
        ["mc", "complexity", "--N", "4", "--fields", "1", "--e-grid", "0:{}:3"],
        ["mc", "complexity", "--N", "4", "--fields", "1", "--r-grid", "0:{}:3"],
    ],
)
def test_a_non_finite_colon_spec_is_bad_input(tmp_path, args, bad):
    mixture = _mixture(tmp_path, {"2": 0.5, "3": 0.5})
    result = CliRunner().invoke(cli.main, [*args[:-1], args[-1].format(bad), "--mixture", mixture])
    assert result.exit_code == cli._EXIT_BAD_INPUT, result.output
    assert result.stderr.startswith(f"error: {args[-2]} needs finite numbers")


@pytest.mark.parametrize(
    "command, coeffs, params, code",
    [
        ("parisi", {"3": 1.0}, {"zero_temp": True}, 0),
        ("parisi", {"3": 1.0}, {"beta": "x"}, cli._EXIT_BAD_INPUT),
        ("landscape", {"2": 0.5, "4": 0.5}, {"gs": True}, cli._EXIT_SOLVER_FAILED),
        ("mc.gibbs", {"3": 1.0}, {"n": 500, "beta": 1.0}, cli._EXIT_CAPACITY),
    ],
)
def test_run_config_exit_codes_reach_the_process(tmp_path, command, coeffs, params, code):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"command": command, "mixture": {"coeffs": coeffs},
                                  "params": params, "out": str(tmp_path / "artifact")}))
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "spinglass.cli", "run", "--config", str(config)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == code, proc.stderr


@pytest.mark.parametrize(
    "fields",
    [
        {"params": 3},
        {"params": None},
        {"seed": "x"},
        {"seed": True},
        {"seed": 1.5},
        {"mixture": 3},
        {"mixture": [1.0]},
        {"out": 3},
        {"command": 3},
        {"format": 3},
        {"params": {"k_max": 2.0}},
        {"params": {"k_max": True}},
        {"params": {"starts": "8"}},
        {"params": {"beta": True}},
        {"params": {"beta": "1.5"}},
        {"params": {"zero_temp": 1}},
    ],
)
def test_run_config_from_json_rejects_mistyped_fields(fields, tmp_path):
    text = json.dumps({"command": "parisi", **fields})
    with pytest.raises(BadInputError):
        cli.RunConfig.from_json(text)
    config = tmp_path / "config.json"
    config.write_text(text)
    result = CliRunner().invoke(cli.main, ["run", "--config", str(config)])
    assert result.exit_code == cli._EXIT_BAD_INPUT, result.output


@pytest.mark.parametrize("flags", [["--k-max", "-1"], ["--starts", "0"]])
def test_parisi_zero_temp_rejects_unrunnable_solver_settings(pure3, flags):
    result = CliRunner().invoke(cli.main, ["parisi", "--mixture", pure3, "--zero-temp", *flags])
    assert result.exit_code == cli._EXIT_BAD_INPUT, result.output
    assert result.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [
        ["gibbs", "--N", "8", "--beta", "1", "--steps", "40", "--seed", "-1"],
        ["gibbs", "--N", "8", "--beta", "1", "--steps", "40", "--field-index", "-2"],
        ["gibbs", "--N", "8", "--beta", "1", "--steps", "40", "--chain-index", "-1"],
        ["complexity", "--N", "4", "--fields", "1", "--restarts", "2", "--bootstrap", "2",
         "--seed", "-3"],
    ],
)
def test_negative_rng_keys_exit_with_the_bad_input_code(pure3, args):
    result = CliRunner().invoke(cli.main, ["mc", args[0], "--mixture", pure3, *args[1:]])
    assert result.exit_code == cli._EXIT_BAD_INPUT, result.output
    assert result.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "flags",
    [["--beta", "nan"], ["--beta", "inf"], ["--step-size", "inf"], ["--steps", "5", "--thin", "10"]],
)
def test_mc_gibbs_rejects_a_chain_it_cannot_run(pure3, flags):
    result = CliRunner().invoke(
        cli.main,
        ["mc", "gibbs", "--mixture", pure3, "--N", "8", "--beta", "1", "--steps", "100",
         "--burn-in", "20", "--thin", "5", *flags],
    )
    assert result.exit_code == cli._EXIT_BAD_INPUT, result.output
    assert result.stderr.startswith("error: ")


def test_mc_complexity_ignores_the_environment(pure3, monkeypatch, tmp_path):
    # the run is fixed by its flags alone: no environment variable reaches
    # the library, so the artifact is the same with or without one
    args = ["mc", "complexity", "--mixture", pure3, "--N", "4", "--fields", "2",
            "--restarts", "2", "--bootstrap", "2", "--format", "json"]
    out = tmp_path / "complexity.json"
    result = CliRunner().invoke(cli.main, [*args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    plain = out.read_bytes()
    out.unlink()
    monkeypatch.setenv("SPINGLASS_THREADS", "abc")
    result = CliRunner().invoke(cli.main, [*args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == plain


@pytest.mark.parametrize("flags", [["--scan-points", "2"], ["--k-max", "-1"]])
def test_fp_rejects_unrunnable_settings_before_any_solve(pure3, monkeypatch, flags):
    def unreachable(*args, **kwargs):
        raise AssertionError("solved a row")

    monkeypatch.setattr(cli, "fp_high", unreachable)
    monkeypatch.setattr(cli, "fp_low", unreachable)
    result = CliRunner().invoke(
        cli.main, ["fp", "--mixture", pure3, "--beta", "0.5", "--beta-prime", "1.0", *flags]
    )
    assert result.exit_code == cli._EXIT_BAD_INPUT, result.output
    assert result.stderr.startswith("error: ")


def test_fp_failure_count_covers_only_the_table_rows(pure3, monkeypatch):
    def fake_fp_high(m, beta, beta_prime, r, config=None, check_regime=True):
        terms = FPTerms(mean=0.0, free_energy=0.0, volume=0.0)
        return FPResult(value=0.0, rho_star=None, terms=terms)

    def failing_fp_low(*args, **kwargs):
        raise SolverFailedError("no certificate")

    monkeypatch.setattr(cli, "fp_high", fake_fp_high)
    monkeypatch.setattr(cli, "fp_low", failing_fp_low)
    result = CliRunner().invoke(
        cli.main, ["fp", "--mixture", pure3, "--beta", "0.5", "--beta-prime", "1.0",
                   "--r-grid", "-0.2:1.2:0.4", "--both-regimes"]
    )
    assert result.exit_code == cli._EXIT_SOLVER_FAILED, result.output
    assert len(result.stdout.splitlines()) == 1 + 3
    assert "3 of 3 sweep rows failed" in result.stderr


def _replays_byte_for_byte(result, artifact, tmp_path):
    """run --config on the artifact's own config rewrites it byte for byte."""
    out = tmp_path / "artifact.json"
    first = out.read_bytes()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(artifact["config"]))
    out.unlink()
    _clear_solver_caches()
    replay = CliRunner().invoke(cli.main, ["run", "--config", str(config)])
    assert replay.exit_code == 0, replay.output
    assert replay.output == result.output
    assert out.read_bytes() == first


def test_landscape_identities_reports_every_identity_and_replays(tmp_path):
    mixture = _mixture(tmp_path, {"3": 1.0, "4": 0.3})
    result, artifact = _run(["landscape", "--mixture", mixture, "--identities", "--beta", "1.432"], tmp_path)
    assert result.exit_code == 0, result.output
    assert artifact["beta"] == 1.432
    rows = artifact["energy_radial_identities"]["rows"]
    assert len(rows) == 2 and rows[0]["q_lo"] == 0.0 and rows[-1]["q_hi"] == 1.0
    assert artifact["worst_energy_dev"] == max(abs(row["e_dev"]) for row in rows)
    assert artifact["free_energy_derivative"]["deviation"] < 1e-8
    assert artifact["chain_bound"] > 0.0
    _replays_byte_for_byte(result, artifact, tmp_path)


def test_fp_above_the_critical_point_runs_the_low_regime_and_replays(pure3, tmp_path):
    result, artifact = _run(
        ["fp", "--mixture", pure3, "--beta", "1.5", "--beta-prime", "1.5", "--r-grid", "0.3:0.3:0.1",
         "--scan-points", "3", "--format", "json"],
        tmp_path,
    )
    assert result.exit_code == 0, result.output
    (row,) = [dict(zip(artifact["columns"], row)) for row in artifact["rows"]]
    assert row["r"] == 0.3 and row["regime"] == "low"
    assert 0.0 < row["rho_star"] < 0.3
    assert row["value"] == pytest.approx(row["mean"] + row["free_energy"] + row["volume"], abs=1e-12)
    _replays_byte_for_byte(result, artifact, tmp_path)


def test_mc_validate_conditioning_reports_every_record_and_replays(tmp_path):
    result, artifact = _run(["mc", "validate-conditioning"], tmp_path)
    assert result.exit_code == 0, result.output
    assert len(artifact["tests"]) == 8 and artifact["all_pass"] is True
    assert all(record["pass"] for record in artifact["tests"])
    _replays_byte_for_byte(result, artifact, tmp_path)


def test_mc_gibbs_dump_holds_the_manifests_samples(pure3, tmp_path):
    dump = tmp_path / "samples.bin"
    result, artifact = _run(
        ["mc", "gibbs", "--mixture", pure3, "--N", "8", "--beta", "1", "--steps", "40",
         "--burn-in", "10", "--thin", "5", "--dump", str(dump)],
        tmp_path,
    )
    assert result.exit_code == 0, result.output
    samples = load_samples(dump)
    assert samples.shape == (artifact["manifest"]["samples"], 8) == (8, 8)
    assert artifact["config"]["params"]["dump"] == str(dump)
    first = dump.read_bytes()
    dump.unlink()
    _replays_byte_for_byte(result, artifact, tmp_path)
    assert dump.read_bytes() == first
