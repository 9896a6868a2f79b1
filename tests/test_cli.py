"""CLI contract: flags reach the library with the values the artifact records."""

import json

import pytest
from click.testing import CliRunner

import spinglass.cli as cli
from spinglass.franz_parisi import FPResult, FPTerms


@pytest.fixture
def pure3(tmp_path):
    path = tmp_path / "pure3.json"
    path.write_text(json.dumps({"coeffs": {"3": 1.0}}))
    return str(path)


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

    def spy(m, k_max=2, config=None, allow_field=False):
        seen.append(k_max)
        return real(m, k_max=k_max, config=config, allow_field=allow_field)

    monkeypatch.setattr(cli, "zt_minimize", spy)
    result, artifact = _run(["parisi", "--mixture", pure3, "--zero-temp", "--k-max", "0"], tmp_path)
    assert result.exit_code == 0, result.output
    assert seen == [0]
    assert len(artifact["order"]["steps"]) == 1
    assert artifact["certificate"]["kind"] == "zero_temp"


@pytest.mark.parametrize("solver_seed", [0, 5])
def test_fp_high_rows_receive_the_solver_config(pure3, tmp_path, monkeypatch, solver_seed):
    seen = []

    def fake_fp_high(m, beta, beta_prime, r, config=None, check_regime=True):
        seen.append(config)
        terms = FPTerms(mean=0.0, free_energy=0.0, volume=0.0)
        return FPResult(value=0.0, rho_star=None, terms=terms, field_mode=False)

    monkeypatch.setattr(cli, "fp_high", fake_fp_high)
    result = CliRunner().invoke(
        cli.main,
        ["fp", "--mixture", pure3, "--beta", "0.5", "--beta-prime", "1.0",
         "--r-grid", "0:0.2:0.1", "--solver-seed", str(solver_seed)],
    )
    assert result.exit_code == 0, result.output
    assert len(seen) == 3
    assert all(cfg is not None and cfg.seed == solver_seed for cfg in seen)


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
