import csv
import io
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from normprod import cdf_product, pdf_product, validate
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

    @pytest.mark.parametrize("args, key, text", [
        (["cdf", "--x", "inf"], "x", "inf"),
        (["cdf", "--x", "-inf"], "x", "-inf"),
        (["besselk", "--nu", "0", "--x", "inf"], "log_value", "-inf")])
    def test_infinities_are_strict_json(self, runner, args, key, text):
        # Infinity and -Infinity are not JSON; strict parsers refuse them
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")
        result = runner.invoke(cli, args + ["--json"])
        assert result.exit_code == 0, result.output
        env = json.loads(result.output, parse_constant=refuse)
        assert env["results"][key] == text

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

    def test_moments_csv(self, runner):
        result = runner.invoke(cli, ["moments", "--mu-x", "1", "--kmax", "2",
                                     "--csv"])
        assert result.exit_code == 0
        assert result.output == "k,raw\n0,1\n1,0\n2,2\n"

    def test_moments_text_output(self, runner):
        # the exact values are Fractions, printed as such inside the list
        # (they used to print as {'num': ..., 'den': ...} dicts); the
        # closed forms a nested block
        exact = runner.invoke(cli, ["moments", "--mu-x", "1", "--mu-y", "0.5",
                                    "--kmax", "2", "--exact"])
        assert exact.exit_code == 0
        assert "\nkind             raw\n" in exact.output
        assert "\nvalues           [1, 1/2, 5/2]\n" in exact.output
        closed = runner.invoke(cli, ["moments", "--mu-x", "1", "--kmax", "2",
                                     "--closed-form"])
        assert closed.exit_code == 0
        assert "\nclosed_form:\n  raw " in closed.output
        assert "\n  kurtosis         7.5\n" in closed.output

    @pytest.mark.parametrize("n, text", [("1", "125411328000"),
                                         ("3", "57344000/19683")])
    def test_determinant_text_row(self, runner, n, text):
        result = runner.invoke(cli, ["opsearch", "--mu-x", "1", "--n", n,
                                     "--order", "3", "--rows", "8", "--det"])
        assert result.exit_code == 0
        assert f"\ndeterminant      {text}\n" in result.output

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

    @pytest.mark.parametrize("args, message", [
        (["pdf"], "provide --x or --grid"),
        (["cf"], "provide --t or --grid"),
        (["stein-apply", "--which", "a1", "--f", "tanh:1", "--x", "1"],
         "unknown test function 'tanh:1'")])
    def test_usage_errors_are_2(self, runner, args, message):
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert message in result.stderr

    def test_stein_check_z_score(self, runner):
        env = run_json(runner, ["stein-check", "--mu-x", "1", "--rho", "0.2",
                                "--which", "a1", "--f", "gauss:0.5",
                                "--count", "200000", "--seed", "7"])
        assert abs(env["results"]["z_score"]) < 5

    def test_cf_grid_with_ode_in_one_call(self, runner, monkeypatch):
        # the residuals of a grid come from one array call, each within
        # rounding of its own scalar call
        from normprod import MeanParams, charfn
        residual, calls = charfn.cf_ode_residual, []

        def counted(mp, t):
            calls.append(np.shape(t))
            return residual(mp, t)
        monkeypatch.setattr(charfn, "cf_ode_residual", counted)
        env = run_json(runner, ["cf", "--mu-x", "1", "--mu-y", "2", "--rho",
                                "0.25", "--grid", "-5:5:11", "--check-ode"])
        assert calls == [(11,)]
        mp = MeanParams(validate(1, 2, 1, 1, 0.25), 1)
        for point in env["results"]["points"]:
            assert isinstance(point["ode_residual"], float)
            assert point["ode_residual"] == pytest.approx(
                residual(mp, point["t"]), abs=1e-14)

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

    def test_opsearch_builds_the_displayed_system_once(self, runner,
                                                       monkeypatch):
        # the square system is the top of the displayed one; it used to be
        # built as a third system
        from normprod import opsearch
        sizes, build = [], opsearch.moment_system

        def counted(mp, ansatz, num_equations):
            sizes.append(num_equations)
            return build(mp, ansatz, num_equations)
        monkeypatch.setattr(opsearch, "moment_system", counted)
        results = run_json(runner, ["opsearch", "--mu-x", "1", "--order",
                                    "3", "--det", "--print-system"])["results"]
        assert sizes == [12, 12]  # operator_exists's and the displayed one
        assert len(results["system"]) == 12
        assert results["determinant"] == {"num": "125411328000", "den": "1"}

    def test_besselk(self, runner):
        env = run_json(runner, ["besselk", "--nu", "0", "--x", "1.0"])
        assert env["results"]["value"] == pytest.approx(0.4210244382407083,
                                                        rel=1e-12)

    @pytest.mark.parametrize("args, key", [
        (["besselk", "--nu", "0", "--x", "2e9"], "log_value"),
        (["pdf", "--n", "3", "--x", "1e9"], "points")])
    def test_past_scipy_kve_range_is_finite(self, runner, args, key):
        # scipy's kve is NaN past x = 2^30; these printed NaN with exit 0
        value = run_json(runner, args)["results"][key]
        value = value if key == "log_value" else value[0]["log_pdf"]
        assert math.isfinite(value) and value < -1e9

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
        from normprod.mc import BATCH
        count = BATCH + 5
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

    def test_pdf_grid_through_singular_point(self, runner):
        # the row at x = 0 says the density diverges; the others print
        args = ["--mu-x", "1", "--mu-y", "-0.5", "--sigma-x", "1.3",
                "--rho", "0.4"]
        result = runner.invoke(cli, ["pdf", *args, "--grid", "-6:6:241",
                                     "--csv"])
        assert result.exit_code == 0, result.output
        rows = list(csv.reader(io.StringIO(result.output)))[1:]
        assert len(rows) == 241
        assert rows.pop(120) == ["0", "inf", "inf", "0", "True"]
        p = validate(1, -0.5, 1.3, 1, 0.4)
        for x, log_pdf, _, terms, _ in rows:
            dv = pdf_product(p, float(x))
            assert (float(log_pdf), int(terms)) == (dv.log_abs, dv.terms_used)

    @pytest.mark.parametrize("method", ["auto", "double", "single"])
    def test_pdf_at_singular_point(self, runner, method):
        env = run_json(runner, ["pdf", "--mu-x", "1", "--x", "0",
                                "--method", method])
        assert env["results"]["points"] == [
            {"x": 0.0, "log_pdf": "inf", "pdf": "inf", "terms_used": 0,
             "converged": True}]


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

    @pytest.mark.parametrize("args, expected", [
        (["--mu-x", "-1.2363", "--sigma-x", "0.345", "--sigma-y", "0.966",
          "--rho", "0.5", "--x", "5e-324"],
         cdf_product(validate(-1.2363, 0, 0.345, 0.966, 0.5), 0.0)),
        (["--sigma-x", "1e170", "--sigma-y", "1e170", "--x", "1"], 0.5),
        (["--sigma-x", "1e170", "--rho", "0.5", "--x", "0.7"], 1 / 3),
        (["--sigma-x", "1e-170", "--sigma-y", "1e170", "--rho", "0.5",
          "--x", "0.7"], cdf_product(validate(0, 0, 1, 1, 0.5), 0.7)),
        (["--sigma-x", "1e170", "--sigma-y", "1e-170", "--rho", "0.5",
          "--x", "0.7"], cdf_product(validate(0, 0, 1, 1, 0.5), 0.7)),
        (["--sigma-x", "1e-170", "--sigma-y", "1e170", "--rho", "0.5",
          "--x", "-5e-324"], 1 / 3)],
        ids=["subnormal-x", "scales-1e170", "sigma-x-1e170",
             "slope-overflows", "slope-underflows", "slope-overflows-at-0"])
    def test_cdf_past_the_double_range_of_its_substitution(
            self, runner, args, expected):
        # the first three used to end in a traceback (exit 1): a math domain
        # error at a subnormal x or scale ratio, an overflowing sigma_x^2.
        # At x = 5e-324 the CDF is the CDF at 0 to far below an ulp; at
        # scales 1e170 the point is 0 in units of sigma_x sigma_y.  Where
        # the slope rho sigma_y / sigma_x overflows (which exited 3) or
        # underflows to 0 (which printed 0.8658628373721639), the CDF is
        # that of the unit-variance problem at 0.7
        cdf = run_json(runner, ["cdf", *args])["results"]["cdf"]
        assert cdf == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("args", [
        ["operator", "--which", "a1", "--sigma-x", "1e-170",
         "--sigma-y", "1e-170"],
        ["operator", "--which", "a1", "--sigma-y", "1e100"],
        ["stein-apply", "--which", "a1", "--f", "poly:2", "--x", "1",
         "--sigma-y", "1e100"],
        ["stein-check", "--f", "poly:2", "--sigma-y", "1e100"],
        ["cf", "--t", "1", "--check-ode", "--sigma-y", "1e100"],
        ["cdf", "--mu-x", "1e200", "--sigma-x", "1e-170", "--sigma-y",
         "1e170", "--rho", "0.5", "--x", "0.7"]])
    def test_out_of_range_coefficients_are_3(self, runner, args):
        # used to exit 1: a coefficient's fourth power overflowed, or the
        # top coefficient pair underflowed to (0, 0) (exit 1 with a
        # ValueError); the CDF's slope rho sigma_y / sigma_x overflows, and
        # so does the mean-to-sd ratio of its unit-variance problem
        result = runner.invoke(cli, args)
        assert result.exit_code == 3, result.output
        assert "leaves the double range" in result.output

    @pytest.mark.parametrize("args", [
        ["pdf", "--n", "3", "--mu-x", "1", "--x", "0.5", "--method", "double"],
        ["pdf", "--n", "3", "--mu-x", "1", "--x", "0.5", "--method", "single"],
        ["cdf", "--n", "2", "--x", "0.5"],
        ["ode-check", "--n", "2", "--mu-x", "1", "--x", "0.5"]])
    def test_product_paths_need_one_copy(self, runner, args):
        # the two pdf methods used to print the n = 1 density under n = 3
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert re.fullmatch(r"error: .* is implemented for n = 1, not "
                            r"n = \d\n", result.stderr)

    @pytest.mark.parametrize("args", [
        ["pdf", "--x", "0.5", "--grid", "-1:1:3"],
        ["cf", "--t", "0.5", "--grid", "-1:1:3"]])
    def test_point_and_grid_together_are_2(self, runner, args):
        # each used to print the grid and drop the point
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert re.fullmatch(r"error: provide --[xt] or --grid, not both\n",
                            result.stderr)

    def test_moments_past_the_range_of_their_table(self, runner):
        # s_n^4 overflows in the fourth-order table, but mu_2 = 1e200 fits:
        # the moments come from the exact table, rounded once
        env = run_json(runner, ["moments", "--sigma-y", "1e100",
                                "--kmax", "2"])
        assert env["results"]["values"] == [1.0, 0.0, 1e200]

    def test_not_converged_is_3(self, runner):
        # the series runs out of blocks and the integral out of nodes
        result = runner.invoke(cli, ["pdf", "--mu-x", "1", "--mu-y", "-2",
                                     "--sigma-x", "1.3", "--sigma-y", "0.7",
                                     "--rho", "0.9999", "--x", "3",
                                     "--method", "double"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("args", [
        ["opsearch", "--order", "0"],
        ["opsearch", "--order", "3", "--rows", "2"],
        ["pdf", "--grid", "abc"],
        ["cf", "--grid", "1:2"],
        ["pdf", "--grid", "0:1:-3"],
        ["pdf", "--grid", "1:2:1e9"],
        ["pdf", "--grid", "0:1:2.5"]])
    def test_bad_order_rows_and_grid_are_2(self, runner, args):
        # each used to end in a ValueError traceback with exit 1
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("flag, value", [("--rel-tol", "1e-12"),
                                             ("--max-outer", "3")])
    def test_removed_series_flags_are_unknown(self, runner, flag, value):
        result = runner.invoke(cli, ["pdf", "--x", "1", flag, value])
        assert result.exit_code == 2
        assert f"No such option '{flag}'" in result.output

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

    @pytest.mark.parametrize("args", [
        ["--mu-x", "1e200", "--mu-y", "1e200", "--closed-form"],
        ["--sigma-x", "1e5", "--sigma-y", "1e5", "--kmax", "40"],
        ["--mu-x", "1e100", "--mu-y", "1e100"]])
    def test_moments_past_double_range_are_3(self, runner, args):
        # used to exit 1 with an OverflowError traceback (the first two)
        result = runner.invoke(cli, ["moments", *args, "--json"])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("args", [
        # valid parameters whose results leave the double range: K_200(0.1)
        # overflows, and the variance underflows to 0
        ["besselk", "--nu", "200", "--x", "0.1"],
        ["moments", "--closed-form", "--sigma-x", "1e-170",
         "--sigma-y", "1e-170"],
        # the zero-mean derivatives cancel to their rounding (a residual
        # of 0.99999993 used to exit 0), and N1 is lost next to 1e80 (four
        # zeros used to exit 0)
        ["ode-check", "--n", "4", "--rho", "0.3", "--x", "1e-7", "--json"],
        ["sample", "--mu-x", "1e80", "--mu-y", "1", "--count", "4"],
        # the sampler's scale sigma_x sigma_y / 4 overflows
        ["sample", "--sigma-x", "1e200", "--sigma-y", "1e200", "--count",
         "3"],
        # the series CDF's tail cutoff underflows to 0 (a CDF of 0 used to
        # exit 0, where the default method gives 1), or overflows (an
        # OverflowError traceback)
        ["cdf", "--method", "series", "--sigma-x", "1e-170", "--sigma-y",
         "1e-170", "--x", "1"],
        ["cdf", "--method", "series", "--mu-x", "1e200", "--x", "1"]])
    def test_result_out_of_reach_is_3(self, runner, args):
        result = runner.invoke(cli, args)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("args", [["--n", "3", "--x", "nan"],
                                      ["--mu-x", "1", "--x", "nan"]])
    def test_ode_check_at_nan_is_2(self, runner, args):
        # used to exit 0 with a NaN residual
        result = runner.invoke(cli, ["ode-check", *args, "--json"])
        assert result.exit_code == 2
        assert "finite" in result.output

    @pytest.mark.parametrize("args", [["--n", "1", "--rho", "0.3"],
                                      ["--mu-x", "1", "--mu-y", "0.5"]])
    def test_ode_check_past_derivative_range_is_3(self, runner, args):
        # the fourth derivative ~ x^-4 overflows; used to exit 0 with a
        # NaN residual
        result = runner.invoke(cli, ["ode-check", *args, "--x", "1e-100",
                                     "--json"])
        assert result.exit_code == 3
        assert "not finite" in result.output

    @pytest.mark.parametrize("x", ["-74", "-72.5"])
    def test_ode_check_from_subnormal_derivatives_is_3(self, runner, x):
        # used to exit 0 with residuals 9.0e-5 and 3.2e-11
        result = runner.invoke(cli, ["ode-check", "--rho", "0.9", "--x", x,
                                     "--json"])
        assert result.exit_code == 3
        assert "subnormal" in result.output

    @pytest.mark.parametrize("x", ["5e-324", "-5e-324", "1e-320"])
    def test_pdf_at_subnormal_x_is_3(self, runner, x):
        # 5e-324 used to end in a ValueError traceback
        result = runner.invoke(cli, ["pdf", "--mu-x", "1", "--mu-y", "0.5",
                                     "--rho", "0.2", "--x", x])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)

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

    @pytest.mark.parametrize("command", ["stein-check", "stein-apply"])
    @pytest.mark.parametrize("fspec", ["cos:nan", "sin:nan", "gauss:nan",
                                       "gauss:inf", "exp:nan", "poly:9",
                                       "poly:abc", "gauss:-1", "exp:1e200",
                                       "cos:1e308"])
    def test_bad_test_function_is_2(self, runner, command, fspec):
        # the NaN ones used to exit 0 with a NaN estimate, the others with
        # a ValueError or OverflowError traceback
        extra = (["--count", "1000"] if command == "stein-check"
                 else ["--which", "a1", "--x", "0.7"])
        result = runner.invoke(cli, [command, "--f", fspec, *extra, "--json"])
        assert result.exit_code == 2
        assert "error:" in result.output

    @pytest.mark.parametrize("args", [["sample", "--seed", "-1"],
                                      ["stein-check", "--seed", "-3",
                                       "--count", "1000"],
                                      ["stein-check", "--count", "1"]])
    def test_bad_seed_or_count_is_2(self, runner, args):
        # a negative seed used to end in numpy's traceback, and one sample
        # in an infinite z-score with exit 0
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert "error:" in result.output

    def test_single_sample_is_printed(self, runner):
        result = runner.invoke(cli, ["sample", "--count", "1"])
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 2

    @pytest.mark.parametrize("t,code", [("nan", 2), ("1e308", 3)])
    def test_cf_at_bad_t(self, runner, t, code):
        # both used to exit 0 with a NaN value
        result = runner.invoke(cli, ["cf", "--t", t, "--json"])
        assert result.exit_code == code
        assert "error:" in result.output

    def test_unknown_subcommand_is_64(self):
        proc = subprocess.run(
            [sys.executable, "-m", "normprod.cli", "frobnicate"],
            capture_output=True, text=True)
        assert proc.returncode == 64

    HUGE_X = [["--mu-x", "-2", "--mu-y", "3", "--sigma-x", "0.5",
               "--sigma-y", "2", "--rho", "0.999", "--x", x]
              for x in ("1.7e308", "-1.7e308")] + [
        ["--mu-x", "1e150", "--mu-y", "1e150", "--rho", "0.5",
         "--x", "-1.7e308"],
        ["--mu-x", "1", "--mu-y", "0.5", "--sigma-x", "1e-150",
         "--sigma-y", "1e150", "--rho", "-0.3", "--x", "1.7e308"]]

    @pytest.mark.parametrize("args", HUGE_X)
    def test_pdf_at_huge_x_is_3(self, runner, args):
        # used to exit 1 with a ValueError traceback, the first after an
        # overflow warning (which the suite now raises)
        result = runner.invoke(cli, ["pdf", *args])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error:")

    @pytest.mark.parametrize("nu", ["abc", "1/0", "0.25", "inf"])
    def test_besselk_bad_order_is_2(self, runner, nu):
        # used to exit 1 with a ValueError or ZeroDivisionError traceback
        result = runner.invoke(cli, ["besselk", "--nu", nu, "--x", "1"])
        assert result.exit_code == 2
        assert result.stderr == (
            f"error: order {nu} is not an integer or half-integer\n")

    def test_besselk_overflowing_order_is_2(self, runner):
        # passed from_nu, then raised OverflowError in BesselOrder.nu
        result = runner.invoke(cli, ["besselk", "--nu", "1e400", "--x", "1"])
        assert result.exit_code == 2
        assert result.stderr == "error: order 1e400 overflows a float\n"

    @pytest.mark.parametrize("nu", ["0", "1/2", "1", "3/2"])
    @pytest.mark.parametrize("scaled", [[], ["--scaled"]],
                             ids=["unscaled", "scaled"])
    def test_besselk_at_infinite_x_is_0(self, runner, nu, scaled):
        # orders past 1/2 ended in a ValueError traceback, and --scaled
        # exited 3 on a NaN for every order
        env = run_json(runner, ["besselk", "--nu", nu, "--x", "inf", *scaled])
        assert env["results"]["value"] == 0
        assert env["results"]["log_value"] == "-inf"  # strict JSON

    @pytest.mark.parametrize("args", [
        ["pdf", *HUGE_X[0]],
        ["sample", "--mu-x", "1e200", "--mu-y", "1e200", "--count", "3"]])
    def test_overflow_is_3_without_warning(self, args):
        # sample used to print three inf rows and exit 0, after numpy's
        # overflow warning; a child process shows any warning on stderr
        proc = subprocess.run([sys.executable, "-m", "normprod.cli", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1

    def test_cdf_at_rho_0_past_the_ratio_range_without_warning(self):
        # x / u over s = 1e-170 overflowed: a RuntimeWarning on stderr
        proc = subprocess.run(
            [sys.executable, "-m", "normprod.cli", "cdf", "--sigma-x",
             "1e170", "--sigma-y", "1e-170", "--x", "1e300"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert re.search(r"^cdf +1$", proc.stdout, re.M)
        assert proc.stderr == ""

    def test_cdf_far_past_the_conditional_sd_without_warning(self):
        # sigma_y / sigma_x = 1e-300 is in range, but x / u over s = 1e-300
        # overflowed: a RuntimeWarning on stderr before "cdf 1"
        proc = subprocess.run(
            [sys.executable, "-m", "normprod.cli", "cdf", "--sigma-y",
             "1e-300", "--x", "1e300"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert re.search(r"^cdf +1$", proc.stdout, re.M)
        assert proc.stderr == ""

    @pytest.mark.parametrize("args", [
        ["stein-apply", "--which", "a1", "--f", "exp:100", "--x", "10",
         "--json"],
        ["stein-check", "--f", "exp:300", "--count", "100000", "--json"],
        ["sample", "--mu-x", "1e200", "--count", "3"]])
    def test_nan_result_is_3(self, args):
        # exp(a x) or the sampled product overflows; these used to exit 0
        # with NaN output.  A child process keeps numpy's overflow
        # warnings on its own stderr
        proc = subprocess.run([sys.executable, "-m", "normprod.cli", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "error:" in proc.stderr


class TestTableOutput:
    def test_human_readable_default(self, runner):
        result = runner.invoke(cli, ["besselk", "--nu", "1/2", "--x", "2"])
        assert result.exit_code == 0
        assert result.output.startswith("# besselk")
        assert "value" in result.output


#: Every subcommand's options other than the parameter flags, each with
#: its default ("required" where it has none).
PARAM_FLAGS = {"--mu-x": 0.0, "--mu-y": 0.0, "--sigma-x": 1.0,
               "--sigma-y": 1.0, "--rho": 0.0, "--n": 1, "--params-json": None}
SURFACE = {
    "besselk": {"--nu": "required", "--x": "required", "--scaled": False,
                "--json": False},
    "pdf": {"--x": None, "--grid": None, "--json": False, "--csv": False,
            "--out": None, "--method": "auto"},
    "cdf": {"--x": "required", "--json": False, "--method": "conditional"},
    "moments": {"--kmax": 8, "--central": False, "--closed-form": False,
                "--exact": False, "--json": False, "--csv": False,
                "--out": None},
    "operator": {"--which": "required", "--json": False},
    "stein-apply": {"--which": None, "--f": "required", "--x": "required",
                    "--identity": None, "--json": False},
    "stein-check": {"--which": "a1", "--f": "poly:2", "--count": 1000000,
                    "--seed": 0, "--json": False},
    "cf": {"--t": None, "--grid": None, "--check-ode": False,
           "--json": False},
    "ode-check": {"--x": "required", "--json": False},
    "opsearch": {"--order": 3, "--rows": None, "--det": False,
                 "--print-system": False, "--json": False},
    "sample": {"--count": 1000, "--seed": 0, "--out": None},
}

#: One cheap --json invocation of each subcommand but sample (CSV only).
JSON_RUNS = {
    "besselk": ["--nu", "1", "--x", "0.5"],
    "pdf": ["--x", "0.5"],
    "cdf": ["--x", "0.5"],
    "moments": ["--kmax", "3"],
    "operator": ["--which", "a1"],
    "stein-apply": ["--which", "a1", "--f", "poly:2", "--x", "0.5"],
    "stein-check": ["--count", "1000"],
    "cf": ["--t", "0.5"],
    "ode-check": ["--x", "0.5"],
    "opsearch": ["--order", "2"],
}


class TestSurface:
    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_options_and_defaults(self, command):
        params = cli.commands[command].params
        got = {p.opts[0]: "required" if p.required else p.default
               for p in params}
        want = dict(SURFACE[command])
        if command != "besselk":
            want.update(PARAM_FLAGS)
        assert got == want
        assert len(params) == len(want)

    def test_every_subcommand_is_pinned(self):
        assert sorted(cli.commands) == sorted(SURFACE)

    @pytest.mark.parametrize("command", sorted(JSON_RUNS))
    def test_json_envelope(self, runner, command):
        flags = [] if command == "besselk" else ["--rho", "0.25"]
        env = run_json(runner, [command, *flags, *JSON_RUNS[command]])
        assert sorted(env) == ["command", "params_echo", "results",
                               "schema_version", "timing_ms"]
        assert env["command"] == command
        assert env["results"]
        assert env["params_echo"] == ({} if command == "besselk" else {
            "mu_x": 0.0, "mu_y": 0.0, "sigma_x": 1.0, "sigma_y": 1.0,
            "rho": 0.25, "n": 1})


def _readme_commands():
    """The arguments of every ``normprod`` line in README's sh blocks, with
    continuation lines joined and comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            args = shlex.split(line, comments=True)
            if args[:1] == ["normprod"]:
                yield args[1:]


README_COMMANDS = list(_readme_commands())


def test_readme_lists_its_examples():
    assert len(README_COMMANDS) >= 15


@pytest.mark.parametrize("args", README_COMMANDS, ids=" ".join)
def test_readme_example_runs(runner, args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # for the files that --out writes
    result = runner.invoke(cli, args)
    assert result.exit_code == 0, result.output
    if "--json" in args:
        json.loads(result.output)
