"""CLI contract: flags reach the library with the values the artifact records."""

import json

import pytest
from click.testing import CliRunner

import spinglass.cli as cli
from spinglass import rsb
from spinglass.errors import BadInputError, SolverFailedError
from spinglass.franz_parisi import FPResult, FPTerms
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
            return FPResult(value=0.0, rho_star=0.0, terms=terms, field_mode=False)

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


def test_a_mistyped_config_value_is_a_usage_error(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"command": "parisi", "mixture": {"coeffs": {"3": 1.0}},
                                  "params": {"beta": "x"}}))
    result = CliRunner().invoke(cli.main, ["parisi", "--config", str(config)])
    assert result.exit_code == cli._EXIT_BAD_INPUT, result.output
    assert "--beta" in result.stderr


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


@pytest.mark.parametrize("threads", ["abc", "0", "-2"])
def test_mc_complexity_rejects_a_bad_thread_count(pure3, monkeypatch, threads):
    monkeypatch.setenv("SPINGLASS_THREADS", threads)
    result = CliRunner().invoke(
        cli.main,
        ["mc", "complexity", "--mixture", pure3, "--N", "4", "--fields", "1", "--restarts", "2",
         "--bootstrap", "2"],
    )
    assert result.exit_code == cli._EXIT_BAD_INPUT, result.output
    assert result.stderr.startswith("error: ") and "SPINGLASS_THREADS" in result.stderr


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
        return FPResult(value=0.0, rho_star=None, terms=terms, field_mode=False)

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
