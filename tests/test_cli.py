import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from normprod.cli import cli


@pytest.fixture
def runner():
    return CliRunner()


def run_json(runner, args):
    result = runner.invoke(cli, args + ["--json"])
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestEnvelope:
    def test_schema_fields(self, runner):
        env = run_json(runner, ["pdf", "--mu-x", "1", "--mu-y", "2",
                                "--rho", "0.3", "--x", "1.5"])
        assert env["schema_version"] == "1.0"
        assert env["command"] == "pdf"
        assert env["params_echo"] == {"mu_x": 1.0, "mu_y": 2.0,
                                      "sigma_x": 1.0, "sigma_y": 1.0,
                                      "rho": 0.3, "n": 1}
        assert "timing_ms" in env
        point = env["results"]["points"][0]
        assert point["converged"] is True
        assert point["pdf"] == pytest.approx(0.1703534287575043, rel=1e-12)

    def test_timing_is_sub_millisecond_float(self, runner):
        # an integer timing_ms read 0 for fast commands
        env = run_json(runner, ["ode-check", "--n", "2", "--rho", "0.4",
                                "--x", "50", "--x", "-50"])
        assert isinstance(env["timing_ms"], float)
        assert env["timing_ms"] > 0

    def test_rationals_encoded_as_num_den(self, runner):
        env = run_json(runner, ["moments", "--mu-x", "1", "--kmax", "4",
                                "--exact"])
        assert env["results"]["values"][2] == {"num": "2", "den": "1"}

    def test_json_envelope_is_one_write(self, monkeypatch):
        # json.dump's many small writes each reached the pipe under
        # PYTHONUNBUFFERED=1, so `normprod cf --t 0 --json | grep -q ...`
        # under pipefail failed about half the time with BrokenPipeError
        class Sink:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        with pytest.raises(SystemExit) as exit_info:
            cli(["cf", "--t", "0", "--json"])
        assert exit_info.value.code == 0
        assert len(sink.writes) == 1
        assert json.loads(sink.writes[0])["results"]["points"][0]["re"] == 1.0

    def test_params_json_file(self, runner, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"mu_x": 1, "mu_y": 2, "rho": 0.3}))
        env = run_json(runner, ["pdf", "--params-json", str(params),
                                "--x", "1.5"])
        assert env["params_echo"]["mu_y"] == 2.0
        assert env["results"]["points"][0]["pdf"] == pytest.approx(
            0.1703534287575043, rel=1e-12)


class TestSubcommands:
    def test_cdf(self, runner):
        env = run_json(runner, ["cdf", "--x", "0"])
        assert env["results"]["cdf"] == pytest.approx(0.5, abs=1e-6)

    def test_cdf_series_method(self, runner):
        conditional = run_json(runner, ["cdf", "--x", "0.5"])
        series = run_json(runner, ["cdf", "--x", "0.5", "--method", "series"])
        assert series["results"]["cdf"] == pytest.approx(
            conditional["results"]["cdf"], abs=1e-9)

    def test_moments_closed_form(self, runner):
        env = run_json(runner, ["moments", "--mu-x", "1", "--mu-y", "1",
                                "--closed-form", "--kmax", "4"])
        cf = env["results"]["closed_form"]
        assert cf["raw"][0] == pytest.approx(1.0)
        assert env["results"]["values"][1] == pytest.approx(1.0)

    def test_operator_table(self, runner):
        env = run_json(runner, ["operator", "--mu-x", "1", "--mu-y", "2",
                                "--which", "a6"])
        coeffs = env["results"]["coeffs"]
        assert env["results"]["order"] == 4
        assert coeffs[0] == {"j": 0, "a0": -2.0, "a1": 1.0}

    def test_stein_apply(self, runner):
        env = run_json(runner, ["stein-apply", "--mu-x", "1", "--mu-y", "2",
                                "--rho", "0.3", "--which", "a1",
                                "--f", "poly:3", "--x", "0.7"])
        assert env["results"]["f"] == "x^3"
        assert isinstance(env["results"]["value"], float)

    def test_stein_apply_identity_residual(self, runner):
        env = run_json(runner, ["stein-apply", "--mu-x", "1", "--mu-y", "1",
                                "--rho", "0.2", "--f", "poly:3", "--x", "0.7",
                                "--identity", "a1a2"])
        assert env["results"]["identity"] == "a1a2"
        assert env["results"]["residual"] <= 1e-9

    def test_stein_apply_requires_which_or_identity(self, runner):
        result = runner.invoke(cli, ["stein-apply", "--f", "poly:2",
                                     "--x", "1.0"])
        assert result.exit_code != 0

    def test_stein_check_z_score(self, runner):
        env = run_json(runner, ["stein-check", "--mu-x", "1", "--rho", "0.2",
                                "--which", "a1", "--f", "gauss:0.5",
                                "--count", "200000", "--seed", "7"])
        assert abs(env["results"]["z_score"]) < 5

    def test_cf_with_ode(self, runner):
        env = run_json(runner, ["cf", "--mu-x", "1", "--mu-y", "2",
                                "--rho", "0.25", "--t", "0.8", "--check-ode"])
        point = env["results"]["points"][0]
        assert point["abs"] <= 1.0
        assert abs(point["ode_residual"]) < 1e-10

    def test_ode_check(self, runner):
        env = run_json(runner, ["ode-check", "--n", "3", "--rho", "0.2",
                                "--x", "0.5"])
        point = env["results"]["points"][0]
        assert point["derivatives"] == "closed_form"
        assert abs(point["residual"]) < 1e-8

    def test_ode_check_general(self, runner):
        env = run_json(runner, ["ode-check", "--mu-x", "1", "--mu-y", "0.5",
                                "--rho", "0.2", "--x", "0.7"])
        point = env["results"]["points"][0]
        assert point["derivatives"] == "integral"
        assert abs(point["residual"]) < 1e-8

    def test_opsearch_reports_determinant(self, runner):
        env = run_json(runner, ["opsearch", "--mu-x", "1", "--order", "3",
                                "--rows", "8", "--det"])
        assert env["results"]["exists"] is False
        assert env["results"]["determinant"] == {"num": "125411328000",
                                                 "den": "1"}

    def test_besselk(self, runner):
        env = run_json(runner, ["besselk", "--nu", "0", "--x", "1.0"])
        assert env["results"]["value"] == pytest.approx(0.4210244382407083,
                                                        rel=1e-12)

    def test_sample_csv_reproducible(self, runner):
        a = runner.invoke(cli, ["sample", "--count", "10", "--seed", "42"])
        b = runner.invoke(cli, ["sample", "--count", "10", "--seed", "42"])
        assert a.exit_code == 0 and a.output == b.output
        rows = list(csv.reader(io.StringIO(a.output)))
        assert rows[0] == ["index", "value"]
        assert len(rows) == 11

    def test_sample_csv_matches_row_format(self, runner):
        # written a batch at a time; the bytes are those of one
        # "index,%.17g" row per sample, across a batch boundary
        from normprod import (MeanParams, SamplerConfig,
                              sample_mean_of_products, validate)
        count = SamplerConfig.batch + 5
        result = runner.invoke(cli, ["sample", "--mu-x", "1", "--rho", "0.3",
                                     "--count", str(count), "--seed", "9"])
        assert result.exit_code == 0
        mp = MeanParams(validate(1.0, 0.0, 1.0, 1.0, 0.3), 1)
        values = np.concatenate(list(sample_mean_of_products(
            mp, SamplerConfig(9, count))))
        expected = "index,value\n" + "".join(
            f"{i},{float(v):.17g}\n" for i, v in enumerate(values))
        assert result.output == expected

    def test_pdf_grid_csv(self, runner):
        result = runner.invoke(cli, ["pdf", "--grid", "0.5:2:4", "--csv"])
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.output)))
        assert rows[0] == ["x", "log_pdf", "pdf", "terms_used", "converged"]
        assert len(rows) == 5
        # 17 significant digits requested
        assert len(rows[1][2].replace("-", "").replace(".", "")
                   .replace("e", "")) >= 16


class TestExitCodes:
    def test_validation_error_is_2(self, runner):
        result = runner.invoke(cli, ["pdf", "--sigma-x", "-1", "--x", "1"])
        assert result.exit_code == 2

    def test_correlation_error_is_2(self, runner):
        result = runner.invoke(cli, ["moments", "--rho", "1.5"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_mean_is_2(self, runner, value):
        result = runner.invoke(cli, ["moments", "--mu-x", value, "--json"])
        assert result.exit_code == 2
        assert "finite" in result.output

    def test_zero_copy_count_is_2(self, runner):
        result = runner.invoke(cli, ["moments", "--n", "0", "--json"])
        assert result.exit_code == 2

    def test_fractional_copy_count_in_params_json_is_2(self, runner, tmp_path):
        # used to be truncated to n = 2 without a word
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"mu_x": 1, "n": 2.5}))
        result = runner.invoke(cli, ["moments", "--params-json", str(params)])
        assert result.exit_code == 2

    def test_not_converged_is_3(self, runner):
        # the series runs out of blocks and the integral out of nodes
        result = runner.invoke(cli, ["pdf", "--mu-x", "1", "--mu-y", "-2",
                                     "--sigma-x", "1.3", "--sigma-y", "0.7",
                                     "--rho", "0.9999", "--x", "3",
                                     "--method", "double",
                                     "--max-outer", "3"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("method", ["conditional", "series"])
    def test_cdf_at_nan_is_2(self, runner, method):
        # used to exit 0 with a CDF of 0.5
        result = runner.invoke(cli, ["cdf", "--x", "nan", "--method", method,
                                     "--json"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [["--n", "3", "--x", "inf", "--json"],
                                      ["--x", "nan"]])
    def test_pdf_at_non_finite_x_is_2(self, runner, args):
        # used to exit 0 with a NaN log-density, or with a traceback
        result = runner.invoke(cli, ["pdf", *args])
        assert result.exit_code == 2
        assert "finite" in result.output

    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_negative_kmax_is_2(self, runner, exact):
        # used to exit 1 with a traceback, or 0 with --exact
        result = runner.invoke(cli, ["moments", "--kmax", "-1", *exact])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [["--n", "3", "--x", "nan"],
                                      ["--mu-x", "1", "--x", "nan"]])
    def test_ode_check_at_nan_is_2(self, runner, args):
        # used to exit 0 with a NaN residual
        result = runner.invoke(cli, ["ode-check", *args, "--json"])
        assert result.exit_code == 2
        assert "finite" in result.output

    def test_ode_check_of_mean_with_means_is_case_mismatch(self, runner):
        # used to check the n = 1 density against the n = 3 ODE and exit 0
        result = runner.invoke(cli, ["ode-check", "--mu-x", "1", "--mu-y",
                                     "0.5", "--rho", "0.2", "--n", "3",
                                     "--x", "0.7", "--json"])
        assert result.exit_code == 2

    def test_cdf_of_mean_is_case_mismatch(self, runner):
        # used to print the n = 1 value under an echoed n = 3
        result = runner.invoke(cli, ["cdf", "--n", "3", "--x", "0.5",
                                     "--json"])
        assert result.exit_code == 2

    def test_case_mismatch_is_2(self, runner):
        result = runner.invoke(cli, ["operator", "--mu-x", "1", "--mu-y", "2",
                                     "--which", "a2"])
        assert result.exit_code == 2

    def test_unknown_subcommand_is_64(self):
        proc = subprocess.run(
            [sys.executable, "-m", "normprod.cli", "frobnicate"],
            capture_output=True, text=True)
        assert proc.returncode == 64


class TestTableOutput:
    def test_human_readable_default(self, runner):
        result = runner.invoke(cli, ["besselk", "--nu", "1/2", "--x", "2"])
        assert result.exit_code == 0
        assert result.output.startswith("# besselk")
        assert "value" in result.output
