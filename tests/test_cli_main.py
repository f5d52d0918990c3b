"""In-process checks of ``cli.main``: output routing and process state."""

import subprocess
import warnings

import pytest

from vacuumresponse.cli import main
from vacuumresponse.model import WeakFieldWarning

from conftest import CLI


def test_estimate_text_rejects_out_before_any_output(tmp_path, capsys):
    out = tmp_path / "estimate.txt"
    with pytest.raises(SystemExit) as exit_info:
        main(["estimate", "--out", str(out)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--out requires --format csv or json" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["species", "--gap-ratio", "2"], ["check-dimensions"], ["constants", "--derived"]],
    ids=lambda argv: argv[0],
)
def test_out_writes_what_stdout_would_show(tmp_path, capsys, argv):
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert printed

    out = tmp_path / "report.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("utf-8")


def test_check_dimensions_out_keeps_failure_exit(tmp_path, capsys, corrupted_constants):
    argv = ["check-dimensions", "--constants", str(corrupted_constants)]
    assert main(argv) == 1
    printed = capsys.readouterr().out

    out = tmp_path / "checks.txt"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == printed
    assert "FAIL electric-displacement" in printed


def test_main_leaves_warning_filters_unchanged():
    argv = ["estimate", "--probe-field", "1e17 V/m"]
    # record=True captures what main warns without adding a filter itself.
    with warnings.catch_warnings(record=True) as caught:
        before = list(warnings.filters)
        assert main(argv) == 0
        assert warnings.filters == before
    assert any(issubclass(w.category, WeakFieldWarning) for w in caught)

    result = subprocess.run([*CLI, *argv], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0
    assert "WeakFieldWarning: field 1.000e+17 V/m exceeds 0.01 of the critical field" in result.stderr
