"""In-process checks of ``cli.main``: output routing and process state."""

import errno
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import vacuumresponse
from vacuumresponse import checks, kernels, model
from vacuumresponse.cli import COUNT_NOTE, GAUSSIAN_NOTE, main
from vacuumresponse.commands.estimate import DEVIATION_NOTE
from vacuumresponse.constants import bundled_constants_path
from vacuumresponse.species import bundled_species_path
from vacuumresponse.units import UNIT_SYSTEMS

from conftest import CLI


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate"],
        ["estimate", "--probe-field", "1 V/m"],
        ["species", "--gap-ratio", "2"],
        ["check-dimensions"],
        ["constants", "--derived"],
        # One gap ratio: the chart's x axis spans no width.
        ["sweep", "--kappa-min", "1", "--kappa-max", "1", "--points", "2", "--format", "svg"],
    ],
    ids=["estimate", "estimate-probe", "species", "check-dimensions", "constants", "svg-one-kappa"],
)
def test_out_writes_what_stdout_would_show(tmp_path, capsys, argv):
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert printed

    out = tmp_path / "report.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("utf-8")


def test_unwritable_out_names_its_path_once(tmp_path, capsys):
    out = str(tmp_path / "missing" / "sweep.csv")
    assert main(["sweep", "--points", "2", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].count(out) == 1


class _FullStdout(io.StringIO):
    """A stdout on a full device: every write fails as it would on /dev/full."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


# Every subcommand's payload leaves in one write; sweep's is a CSV, estimate's text.
@pytest.mark.parametrize("argv", [["sweep", "--points", "2"], ["estimate"]])
def test_a_failed_write_to_stdout_names_stdout(monkeypatch, argv):
    stderr = io.StringIO()
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(argv) == 1
    # A failed run writes its error line and none of its notes.
    assert stderr.getvalue() == "error: [Errno 28] No space left on device (<stdout>)\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "command", ["estimate", "sweep", "species", "check-dimensions", "constants"]
)
def test_a_full_device_on_a_buffered_stdout_is_one_error_line(command):
    # Without PYTHONUNBUFFERED a short payload waits in stdout's buffer; the
    # write must still fail inside the command, not at the interpreter's exit.
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [*CLI, command], stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120
        )
    assert result.returncode == 1, result.stderr
    # No note, no codata comment and no "Exception ignored" at exit.
    assert result.stderr == "error: [Errno 28] No space left on device (<stdout>)\n"


def test_check_dimensions_out_keeps_failure_exit(tmp_path, capsys, monkeypatch, registry):
    # A dimensional slip in a kernel, as in test_checks: a stray factor of c.
    original, c = model._gyromagnetic_ratio, registry.quantity("c")
    for module in (kernels, model, checks):
        monkeypatch.setattr(module, "_gyromagnetic_ratio", lambda *args: original(*args) * c)
    argv = ["check-dimensions"]
    assert main(argv) == 1
    printed = capsys.readouterr().out

    out = tmp_path / "checks.txt"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == printed
    assert "FAIL gyromagnetic-relation" in printed


@pytest.fixture(scope="module")
def hbar_in_joules(tmp_path_factory):
    """The bundled constants with the unit of hbar replaced by J."""
    text = bundled_constants_path().read_text(encoding="utf-8")
    path = tmp_path_factory.mktemp("hbar") / "constants.tsv"
    path.write_text(text.replace("\tJ s\t", "\tJ\t"), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    ("constants", "named"),
    [
        ("corrupted_constants", "eps0 [kg m / (A s^3)], not [A^2 s^4 / (kg m^3)]"),
        ("hbar_in_joules", "hbar [kg m^2 / s^2], not [kg m^2 / s]"),
    ],
    ids=["eps0-in-V-per-m", "hbar-in-J"],
)
def test_constants_of_wrong_dimension_are_rejected_before_output(
    request, capsys, constants, named
):
    path = str(request.getfixturevalue(constants))
    for argv in (
        ["sweep"],
        ["sweep", "--units", "gaussian"],
        ["sweep", "--format", "json"],
        ["estimate"],
        ["estimate", "--format", "csv"],
        ["species"],
        ["check-dimensions"],
        ["constants"],
    ):
        assert main([*argv, "--constants", path]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == (
            f"error: cannot load constants from {path}: the constants give {named}\n"
        ), argv


def test_check_dimensions_names_the_constant_that_stops_its_relations(capsys, hbar_in_joules):
    # With hbar in J the radius is no length, and a model guard would refuse
    # it before any relation is compared; the load names the constant first.
    assert main(["check-dimensions", "--constants", str(hbar_in_joules)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot load constants from {hbar_in_joules}: "
        "the constants give hbar [kg m^2 / s^2], not [kg m^2 / s]\n"
    )


def _replace_field(text, key, column, value):
    """``text`` with field ``column`` of the row named ``key`` set to ``value``."""
    lines = text.splitlines()
    for index, line in enumerate(lines):
        fields = line.split("\t")
        if fields[0] == key:
            fields[column] = value
            lines[index] = "\t".join(fields)
            return "\n".join(lines) + "\n", index + 1
    raise AssertionError(f"no row {key!r}")


# A byte-order mark, a comment line and a byte that is not UTF-8, at offset 13.
BOM_THEN_BAD_BYTE = b"\xef\xbb\xbf#codata x\n\xff"


@pytest.mark.parametrize(
    ("table", "key", "column", "value", "reason"),
    [
        ("constants", None, None, b"\xff", "'utf-8' codec can't decode byte 0xff"),
        # The position is the bad byte's offset in the file, byte-order mark included.
        (
            "constants", None, None, BOM_THEN_BAD_BYTE,
            "'utf-8' codec can't decode byte 0xff in position 13: invalid start byte",
        ),
        ("constants", "c", 1, "nan", "malformed constants line {line}: nan m / s is not a finite value"),
        ("constants", "c", 1, "inf", "malformed constants line {line}: inf m / s is not a finite value"),
        ("constants", "c", 1, "1e400", "malformed constants line {line}: 1e400 m / s is not a finite"),
        ("constants", "c", 2, "foo", "malformed constants line {line}: unknown unit 'foo' at position 0"),
        ("constants", "hbar", 1, "0", "malformed constants line {line}: 0 J s is not positive"),
        ("constants", "e", 1, "1e200", "cannot derive alpha, lambda_c, E_S: quantity magnitude overflow"),
        (
            "constants", "eps0", 1, "-8.8541878128e-12",
            "malformed constants line {line}: -8.8541878128e-12 A s / (V m) is not positive",
        ),
        ("constants", "m_e", 1, "1e-400", "malformed constants line {line}: 1e-400 kg is not positive"),
        ("species", None, None, b"\xff", "cannot load species from {path}: 'utf-8' codec can't decode byte 0xff"),
        (
            "species", None, None, BOM_THEN_BAD_BYTE,
            "cannot load species from {path}: 'utf-8' codec can't decode byte 0xff in position 13: "
            "invalid start byte",
        ),
        ("species", "electron", 3, "nan", "malformed species row at line {line}: mass must be positive"),
        ("species", "electron", 3, "inf", "malformed species row at line {line}: mass must be positive"),
        ("constants", "c", 0, "", "malformed constants line {line}: empty key"),
        ("species", "electron", 0, "", "malformed species row at line {line}: empty name"),
        ("species", "electron", 2, "x", "malformed species row at line {line}: bad multiplicity 'x'"),
        ("species", "electron", 3, "heavy", "malformed species row at line {line}: bad mass 'heavy'"),
    ],
    ids=[
        "constants-not-utf8", "constants-bom-not-utf8", "constants-nan", "constants-inf",
        "constants-1e400", "constants-bad-unit", "hbar-zero", "e-overflows-alpha", "eps0-negative",
        "m_e-underflows", "species-not-utf8", "species-bom-not-utf8", "species-mass-nan",
        "species-mass-inf",
        "constants-empty-key", "species-empty-name", "species-bad-multiplicity", "species-bad-mass",
    ],
)
def test_a_table_that_cannot_be_used_is_one_error_line(
    tmp_path, capsys, table, key, column, value, reason
):
    if table == "constants":
        text = bundled_constants_path().read_text(encoding="utf-8")
        argvs = (["estimate"], ["constants"], ["species"])
        prefix = "error: cannot load constants from {path}: "
    else:
        text = bundled_species_path().read_text(encoding="utf-8")
        argvs, prefix = (["species"],), "error: "
    if key is None:
        data, line = value + text.encode("utf-8"), None
    else:
        text, line = _replace_field(text, key, column, value)
        data = text.encode("utf-8")
    path = tmp_path / f"{table}.tsv"
    path.write_bytes(data)
    for argv in argvs:
        assert main([*argv, f"--{table}", str(path)]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        expected = prefix.format(path=path) + reason.format(line=line, path=path)
        assert captured.err.startswith(expected) and captured.err.count("\n") == 1, captured.err


WEAK_FIELD_LINE = (
    "warning: WeakFieldWarning: field 1.000e+17 V/m exceeds 0.01 of the critical field; "
    "linear response is marginal"
)


def test_main_leaves_warning_filters_unchanged(monkeypatch):
    argv = ["estimate", "--probe-field", "1e17 V/m"]
    # main records its guard warnings itself and prints them on its stderr,
    # in process as in a subprocess.
    stderr = io.StringIO()
    monkeypatch.setattr(sys, "stderr", stderr)
    before = list(warnings.filters)
    assert main(argv) == 0
    assert warnings.filters == before
    assert WEAK_FIELD_LINE in stderr.getvalue().splitlines()

    result = subprocess.run([*CLI, *argv], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0
    assert "WeakFieldWarning: field 1.000e+17 V/m exceeds 0.01 of the critical field" in result.stderr


def test_warning_prints_as_one_line_without_source(capsys):
    before = warnings.formatwarning
    assert main(["estimate", "--probe-field", "1e17 V/m"]) == 0
    err = capsys.readouterr().err
    warned = [line for line in err.splitlines() if line.startswith("warning: ")]
    assert warned == [WEAK_FIELD_LINE]
    assert ".py:" not in err
    assert warnings.formatwarning is before


def test_stderr_follows_the_payload_warnings_before_notes():
    # With stderr merged into stdout, the order of the two streams shows.
    def merged(*argv):
        result = subprocess.run(
            [*CLI, *argv], stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=120
        )
        assert result.returncode == 0, result.stdout
        return result.stdout.splitlines()

    lines = merged("estimate", "--units", "gaussian", "--probe-field", "5e16 V/m")
    assert lines[-5].startswith("probe_polarization ")
    assert lines[-4:] == [
        "warning: WeakFieldWarning: field 5.000e+16 V/m exceeds 0.01 of the critical field; "
        "linear response is marginal",
        GAUSSIAN_NOTE,
        DEVIATION_NOTE,
        COUNT_NOTE,
    ]
    # species writes its notes in the order estimate writes them.
    assert merged("species", "--units", "gaussian")[-2:] == [GAUSSIAN_NOTE, COUNT_NOTE]


@pytest.mark.parametrize(
    ("argv", "error"),
    [
        (
            ["species", "--gap-ratio", "1e-322"],
            "error: gap ratio 1e-322 takes the total permittivity out of the float range",
        ),
        (
            ["species", "--gap-ratio", "1e-322", "--units", "gaussian"],
            "error: gap ratio 1e-322 takes the total permittivity out of the float range",
        ),
        (["estimate", "--out", "{dir}"], "error: [Errno 21] Is a directory: '{dir}'"),
        (["constants", "--out", "{dir}"], "error: [Errno 21] Is a directory: '{dir}'"),
    ],
    ids=["species", "species-gaussian", "estimate-out-dir", "constants-out-dir"],
)
def test_a_failed_run_writes_one_error_line_and_no_note(tmp_path, capsys, argv, error):
    # Each of these runs decides its notes before it fails.
    argv = [word.format(dir=tmp_path) for word in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == error.format(dir=tmp_path) + "\n"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["sweep", "--g-factors", "2,x"], "--g-factors: bad value 'x'"),
        (["sweep", "--points", "10000000"], "10000000 rows exceeds the limit of 100000"),
        (["estimate", "--probe-field", "1 V/m^"], "--probe-field: syntax error"),
        (["estimate", "--probe-field", "1 Ym^20"], "beyond the float range"),
        (["estimate", "--probe-field", "1 m/ym^20"], "beyond the float range"),
        (["estimate", "--probe-field", "1 m^\u00b2"], "--probe-field: syntax error at position 2"),
        (
            ["estimate", "--probe-field", "1 m^" + "9" * 5000],
            "--probe-field: syntax error at position 2: expected exponent of at most",
        ),
        (
            ["estimate", "--probe-field", "1 V/m^1/" + "9" * 5000],
            "--probe-field: syntax error at position 6: expected exponent of at most",
        ),
        (["estimate", "--probe-field", "1e300 YV/m"], "is not a finite value"),
        (["estimate", "--probe-field", "1e-300 yV/Ym"], "'1e-300 yV/Ym' underflows to zero"),
        (["estimate", "--probe-field", "1e-400 V/m"], "--probe-field: '1e-400 V/m' underflows to zero"),
        (
            ["estimate", "--probe-field", "\u0661e-400 V/m"],
            "--probe-field: '\u0661e-400 V/m' underflows to zero",
        ),
        (["estimate", "--probe-field", "x V/m"], "--probe-field: bad magnitude 'x'"),
        (
            ["estimate", "--probe-field", "1 " + "(" * 400 + "V/m" + ")" * 400],
            "--probe-field: syntax error at position 100: expected at most 100 nested groups",
        ),
        (["estimate", "--probe-field", "-1 V/m"], "--probe-field must be non-negative"),
        (
            ["estimate", "--gap-ratio", "1e-300", "--probe-field", "1 m"],
            "--probe-field must be an electric field (V/m)",
        ),
        (["estimate", "--species", "/nonexistent"], "unrecognized arguments: --species"),
        (["constants", "--units", "gaussian"], "unrecognized arguments: --units"),
        (["check-dimensions", "--units", "si"], "unrecognized arguments: --units"),
        (["sweep", "--conventions", "cube,cube", "--points", "2"], "'cube' is given more"),
        (["sweep", "--points", "2", "--g-factors", "2,2.0"], "g-factor 2 is given more than once"),
        (["estimate", "--constants", ""], "argument --constants: PATH must not be empty"),
        (["species", "--species", ""], "argument --species: PATH must not be empty"),
        (["estimate", "--format", "csv", "--out", ""], "argument --out: PATH must not be empty"),
        (["check-dimensions", "--out", ""], "argument --out: PATH must not be empty"),
    ],
    ids=[
        "g-factors", "too-many-rows", "probe-field", "scale-overflow", "scale-underflow",
        "superscript-digit", "long-exponent-numerator", "long-exponent-denominator",
        "non-finite-field", "underflowing-field", "underflowing-literal",
        "underflowing-arabic-indic-literal", "bad-magnitude",
        "deep-groups", "negative-field",
        "field-before-model", "species-on-estimate", "units-on-constants",
        "units-on-check-dimensions", "repeated-convention", "repeated-g-factor",
        "empty-constants", "empty-species", "empty-out", "empty-out-on-check-dimensions",
    ],
)
def test_usage_error_returns_two(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert sum(line.startswith("usage:") for line in captured.err.splitlines()) == 1


# float() reads digits of every script; each of these literals is a zero.
@pytest.mark.parametrize(
    "field",
    ["0 V/m", "-0 V/m", "0e5 V/m", "\u0660 V/m", "\uff10 V/m", "-\u0660 V/m", "\u0660e5 V/m"],
    ids=["zero", "minus-zero", "zero-e5", "arabic-indic", "fullwidth", "minus-arabic-indic",
         "arabic-indic-e5"],
)
def test_a_zero_probe_field_in_any_digits_is_accepted(capsys, field):
    # Byte for byte as "0 V/m" prints: a "-0" prints no sign on any probe line.
    for units in UNIT_SYSTEMS:
        printed = []
        for text in (field, "0 V/m"):
            assert main(["estimate", "--units", units, "--probe-field", text]) == 0
            lines = capsys.readouterr().out.splitlines()
            printed.append([line for line in lines if line.startswith("probe_")])
        assert len(printed[0]) == 4
        assert printed[0] == printed[1], units


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--g-factors", "2,x"], ["estimate", "--species", "/nonexistent"]],
    ids=["found-by-the-command", "unknown-flag"],
)
def test_usage_error_prints_the_subcommand_usage(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"usage: vacuumresponse {argv[0]} ")


@pytest.mark.parametrize(
    ("flag", "listed", "same_as"),
    [("--g-factors", "1,,2", "1,2"), ("--conventions", " cube,, sphere,", "cube,sphere")],
    ids=["g-factors", "conventions"],
)
def test_empty_pieces_of_a_list_flag_are_skipped(capsys, flag, listed, same_as):
    printed = []
    for value in (listed, same_as):
        assert main(["sweep", "--points", "2", flag, value]) == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]


def test_gaussian_estimate_labels_every_value_in_cgs(capsys):
    assert main(["estimate", "--units", "gaussian", "--probe-field", "1 V/m"]) == 0
    lines = capsys.readouterr().out.splitlines()
    labels = {line.split()[0]: line.split(None, 2)[2] for line in lines if len(line.split()) > 2}
    assert labels == {
        "mu_tilde": "s^2 / cm^2",
        "radius": "cm",
        "implied_light_speed": "cm / s",
        "probe_field": "g^1/2 / (s cm^1/2)",
        "probe_displacement": "cm",
        "probe_dipole_moment": "g^1/2 cm^5/2 / s",
        "probe_polarization": "g^1/2 / (s cm^1/2)",
    }
    assert "implied_light_speed  2.99792458000e+10 cm / s" in lines


@pytest.mark.parametrize(
    ("units", "light_speed"),
    [("si", "2.99792458000e+08 m / s"), ("gaussian", "2.99792458000e+10 cm / s")],
    ids=["si", "gaussian"],
)
@pytest.mark.parametrize("convention", ["cube", "cube-compton", "cube-half-compton", "sphere"])
def test_every_convention_closes_on_the_light_speed(capsys, convention, units, light_speed):
    assert main(["estimate", "--convention", convention, "--units", units]) == 0
    assert f"implied_light_speed  {light_speed}" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(("fmt", "noted"), [("csv", True), ("svg", False)])
def test_gaussian_sweep_note_only_for_dimensioned_payloads(capsys, fmt, noted):
    # The SVG plots only eps_ratio, a pure number in every unit system.
    argv = ["sweep", "--units", "gaussian", "--points", "2", "--format", fmt]
    assert main(argv) == 0
    assert (GAUSSIAN_NOTE in capsys.readouterr().err) is noted


def test_gaussian_species_energy_in_erg(capsys):
    assert main(["species", "--units", "gaussian"]) == 0
    matches = [line for line in capsys.readouterr().out.splitlines() if "match_gap_" in line]
    assert len(matches) == 2
    assert all(line.endswith(" g cm^2 / s^2") for line in matches)


def test_help_prints_and_returns_zero(capsys):
    assert main(["estimate", "--help"]) == 0
    assert "--probe-field" in capsys.readouterr().out


def test_species_names_the_bundled_table_not_its_path(tmp_path, capsys):
    assert main(["species"]) == 0
    printed = capsys.readouterr().out
    assert "species_file        bundled:species.tsv\n" in printed
    assert str(Path(vacuumresponse.__file__).parent) not in printed

    table = tmp_path / "electron.tsv"
    table.write_text("electron\t-1\t1\n", encoding="utf-8")
    assert main(["species", "--species", str(table)]) == 0
    assert f"species_file        {table}\n" in capsys.readouterr().out


def test_a_table_of_no_charged_species_warns_and_matches_no_gap(tmp_path, capsys):
    table = tmp_path / "empty.tsv"
    table.write_text("# no species\n", encoding="utf-8")
    assert main(["species", "--species", str(table)]) == 0
    captured = capsys.readouterr()
    assert "warning: NoSpecies: the table contains no charged species\n" in captured.err
    assert "rows                0\n" in captured.out
    assert "charge_weighted_sum 0 (0.00000000000e+00)\n" in captured.out
    assert "total_permittivity  0.00000000000e+00 A^2 s^4 / (kg m^3)\n" in captured.out
    assert "match_gap_" not in captured.out


@pytest.mark.parametrize(
    ("gap_ratio", "rows", "result"),
    [("1e-320", None, "total permittivity"), ("1e-307", None, "species count"),
     ("5e-324", None, "total permittivity"), ("1e10", "big\t1e150\t1\n", "total permittivity")],
)
def test_species_result_out_of_float_range_is_an_error(tmp_path, capsys, gap_ratio, rows, result):
    # The totals underflow to 0 or overflow to inf, or the counts overflow to
    # inf (or divide by 0).
    argv = ["species", "--gap-ratio", gap_ratio]
    if rows is not None:
        table = tmp_path / "species.tsv"
        table.write_text(rows, encoding="utf-8")
        argv += ["--species", str(table)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    shown = repr(float(gap_ratio))
    assert errors == [f"error: gap ratio {shown} takes the {result} out of the float range"]


def test_a_failed_closure_row_names_the_requested_convention(capsys):
    # The cube-half-compton row is in range; the cube row that closes it is not.
    argv = ["estimate", "--gap-ratio", "9.390948650762251e+85", "--convention",
            "cube-half-compton", "--g-factor", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the light-speed closure of convention cube-half-compton failed: "
        "kappa 9.39095e+85, convention cube, g 1: mu_tilde 0 is outside (0, inf)\n"
    )


@pytest.fixture(scope="module")
def eps0_doubled(tmp_path_factory):
    """The bundled constants with eps0 doubled, which halves alpha."""
    text = bundled_constants_path().read_text(encoding="utf-8")
    path = tmp_path_factory.mktemp("eps0") / "constants.tsv"
    doubled = text.replace("eps0\t8.8541878128e-12", "eps0\t1.77083756256e-11")
    path.write_text(doubled, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    ("convention", "constants", "noted"),
    [
        pytest.param("cube", None, True, id="cube-True"),
        pytest.param("cube-compton", None, True, id="cube-compton-True"),
        pytest.param("cube-half-compton", None, True, id="cube-half-compton-True"),
        pytest.param("sphere", None, False, id="sphere-False"),
        # The note quotes the bundled constants' figures, which another file changes.
        pytest.param("cube", "eps0_doubled", False, id="cube-eps0-doubled-False"),
    ],
)
def test_deviation_note_only_for_cube_conventions(request, capsys, convention, constants, noted):
    flags = [] if constants is None else ["--constants", str(request.getfixturevalue(constants))]
    assert main(["estimate", "--convention", convention, *flags]) == 0
    assert (DEVIATION_NOTE in capsys.readouterr().err) is noted


@pytest.mark.parametrize(
    ("argv", "name", "value"),
    [
        (["estimate", "--gap-ratio", "1"], "deviation_factor", "4.58506184444e-02"),
        (["species", "--gap-ratio", "1"], "count_simple", "2.18099566359e+01"),
    ],
    ids=["estimate", "species"],
)
def test_a_constants_file_mutes_the_notes_that_quote_the_bundled_figures(
    capsys, eps0_doubled, argv, name, value
):
    assert main([*argv, "--constants", str(eps0_doubled)]) == 0
    captured = capsys.readouterr()
    assert [name, value] in (line.split() for line in captured.out.splitlines())
    assert DEVIATION_NOTE not in captured.err
    assert COUNT_NOTE not in captured.err
    # The bundled file named by path prints the same payload, without the notes.
    assert main(argv) == 0
    bundled = capsys.readouterr()
    assert main([*argv, "--constants", str(bundled_constants_path())]) == 0
    named = capsys.readouterr()
    assert named.out == bundled.out
    assert COUNT_NOTE in bundled.err
    muted = bundled.err
    for note in (DEVIATION_NOTE, COUNT_NOTE):
        muted = muted.replace(note + "\n", "")
    assert named.err == muted


@pytest.mark.parametrize(
    ("convention", "calls"),
    [("cube", 1), ("sphere", 1), ("cube-compton", 2), ("cube-half-compton", 2)],
)
def test_estimate_evaluates_the_model_once_per_response(capsys, omega0_calls, convention, calls):
    # A pinned radius needs its light-speed closure as a second evaluation.
    assert main(["estimate", "--convention", convention]) == 0
    assert len(omega0_calls) == calls


def test_check_dimensions_evaluates_omega0_at_most_seven_times(capsys, omega0_calls):
    assert main(["check-dimensions"]) == 0
    assert len(omega0_calls) <= 7
