"""End-to-end exercise of the command-line interface via subprocesses."""

import json
import re
import subprocess

import pytest

from conftest import CLI


def run_cli(*args, **kwargs):
    return subprocess.run(
        [*CLI, *args], capture_output=True, text=True, timeout=120, **kwargs
    )


class TestEstimate:
    def test_default_estimate(self):
        result = run_cli("estimate")
        assert result.returncode == 0
        assert "1.62387994816e-12" in result.stdout
        assert "A^2 s^4 / (kg m^3)" in result.stdout

    def test_sphere_reports_refined_count(self):
        result = run_cli("estimate", "--gap-ratio", "2", "--convention", "sphere")
        assert result.returncode == 0
        assert "9.02803913634e+01" in result.stdout

    def test_zero_gap_ratio_is_usage_error(self):
        result = run_cli("estimate", "--gap-ratio", "0")
        assert result.returncode == 2
        assert "--gap-ratio" in result.stderr

    def test_probe_field_outputs(self):
        result = run_cli("estimate", "--probe-field", "1 V/m")
        assert result.returncode == 0
        assert "probe_displacement" in result.stdout
        assert "7.29546412152e-32" in result.stdout

    def test_strong_probe_field_is_model_error(self):
        result = run_cli("estimate", "--probe-field", "2e18 V/m")
        assert result.returncode == 1
        assert "critical field" in result.stderr

    def test_wrong_probe_dimension_is_usage_error(self):
        result = run_cli("estimate", "--probe-field", "1 kg")
        assert result.returncode == 2
        assert "--probe-field" in result.stderr

    def test_unparseable_probe_unit_is_usage_error(self):
        result = run_cli("estimate", "--probe-field", "1 bogus")
        assert result.returncode == 2

    def test_json_single_row(self):
        result = run_cli("estimate", "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert len(payload) == 1
        assert payload[0]["kappa"] == 2.0

    def test_gaussian_units_note_and_value(self):
        result = run_cli("estimate", "--units", "gaussian", "--format", "json")
        assert result.returncode == 0
        assert "gaussian" in result.stderr
        payload = json.loads(result.stdout)
        assert payload[0]["eps_tilde"] == pytest.approx(1.45947051306e-02, rel=1e-10)

    def test_discrepancy_notes_on_stderr(self):
        result = run_cli("estimate", "--gap-ratio", "2")
        assert "one-tenth" in result.stderr
        assert "gap ratio 1" in result.stderr
        assert "one-tenth" not in result.stdout

    def test_unknown_flag(self):
        result = run_cli("estimate", "--frobnicate")
        assert result.returncode == 2

    def test_overflowing_g_factor_is_model_error(self):
        # A magnitude that overflows, or underflows to zero and is then divided by.
        for argv in (
            ["estimate", "--g-factor", "1e-300"],
            ["estimate", "--g-factor", "1e200"],
            ["estimate", "--g-factor", "1e300"],
            ["estimate", "--g-factor", "1e-300", "--convention", "cube-compton"],
            ["sweep", "--g-factors", "1e200", "--points", "2"],
            ["sweep", "--g-factors", "2,1e200", "--points", "2"],
            ["estimate", "--gap-ratio", "1e90", "--g-factor", "0.5"],
        ):
            result = run_cli(*argv)
            assert result.returncode == 1, argv
            assert "Traceback" not in result.stderr
            lines = result.stderr.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), argv
            # The message names the grid point whose evaluation failed.
            assert re.match(r"error: kappa \S+, convention \S+, g \S+: ", lines[0]), argv


class TestSweep:
    def test_csv_two_rows(self):
        result = run_cli("sweep", "--kappa-min", "1", "--kappa-max", "2", "--points", "2")
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0].startswith("kappa,convention,g,")
        assert len(lines) == 3
        assert "9.17012368889e-02" in lines[1]
        assert "1.83402473778e-01" in lines[2]

    def test_empty_conventions_usage_error(self):
        result = run_cli("sweep", "--conventions", "")
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--kappa-max", "inf"), ("--kappa-min", "nan"), ("--g-factors", "inf")],
    )
    def test_non_finite_bound_is_usage_error(self, flag, value):
        result = run_cli("sweep", flag, value)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "must be finite" in result.stderr

    def test_unwritable_output_path(self):
        result = run_cli("sweep", "--points", "2", "--out", "/nonexistent/dir/sweep.csv")
        assert result.returncode == 1
        assert "/nonexistent/dir/sweep.csv" in result.stderr

    def test_svg_output(self, tmp_path):
        out = tmp_path / "chart.svg"
        result = run_cli(
            "sweep", "--points", "4", "--conventions", "cube,sphere",
            "--format", "svg", "--out", str(out),
        )
        assert result.returncode == 0
        text = out.read_text(encoding="utf-8")
        assert text.count("<polyline") == 2
        assert 'version="1.1"' in text

    def test_json_output(self):
        result = run_cli("sweep", "--points", "3", "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert len(payload) == 3


class TestSpecies:
    def test_bundled_table_report(self):
        result = run_cli("species", "--gap-ratio", "2")
        assert result.returncode == 0
        assert "charge_weighted_sum 8 " in result.stdout
        assert "1.29910395853e-11" in result.stdout

    def test_empty_table_warns(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("# no species\n", encoding="utf-8")
        result = run_cli("species", "--species", str(empty))
        assert result.returncode == 0
        assert "NoSpecies" in result.stderr
        assert "charge_weighted_sum 0 " in result.stdout

    def test_single_electron_table(self, tmp_path):
        single = tmp_path / "electron.tsv"
        single.write_text("electron\t-1\t1\n", encoding="utf-8")
        result = run_cli("species", "--species", str(single), "--gap-ratio", "2")
        assert result.returncode == 0
        assert "1.62387994816e-12" in result.stdout

    def test_missing_file_is_runtime_error(self):
        result = run_cli("species", "--species", "/nonexistent/species.tsv")
        assert result.returncode == 1

    def test_zero_gap_ratio_is_usage_error(self):
        result = run_cli("species", "--gap-ratio", "0")
        assert result.returncode == 2
        assert "--gap-ratio" in result.stderr

    def test_malformed_file_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("no tabs here\n", encoding="utf-8")
        result = run_cli("species", "--species", str(bad))
        assert result.returncode == 1


class TestCheckDimensions:
    def test_shipped_model_passes(self):
        result = run_cli("check-dimensions")
        assert result.returncode == 0
        assert "24/24 dimension checks passed" in result.stdout

    def test_corrupted_constants_fail(self, corrupted_constants):
        result = run_cli("check-dimensions", "--constants", str(corrupted_constants))
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == (
            f"error: cannot load constants from {corrupted_constants}: "
            "the constants give eps0 [kg m / (A s^3)], not [A^2 s^4 / (kg m^3)]\n"
        )


class TestConstants:
    def test_base_listing(self):
        result = run_cli("constants")
        assert result.returncode == 0
        assert "eps0\t8.85418781280e-12" in result.stdout
        assert "alpha" not in result.stdout

    def test_derived_listing(self):
        result = run_cli("constants", "--derived")
        assert result.returncode == 0
        assert "alpha\t7.29735256925e-03" in result.stdout
        assert "E_S\t1.32328547413e+18" in result.stdout
        assert "lambda_c\t3.86159267962e-13" in result.stdout

    def test_missing_constants_file(self):
        result = run_cli("constants", "--constants", "/nonexistent/constants.tsv")
        assert result.returncode == 1
        assert "/nonexistent/constants.tsv" in result.stderr
