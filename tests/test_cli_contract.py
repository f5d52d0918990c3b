"""Every argv ends in exit 0, 1 or 2 with a clean stdout and a readable stderr.

``cli.main`` runs in process on argvs drawn from the five subcommand names,
each parser's own flags and choices, the flags of the other subcommands, and
hostile values: extreme and non-finite floats, empty strings, digits of
other scripts, and the unit expressions of
``tests/data/unit_parse_corpus.json``.  An argv that ends in a traceback,
writes a payload and then fails, exits 1 with more on stderr than one
``error:`` line, or leaves on stderr a line that is not a diagnostic or
usage breaks the contract, and so does an empty PATH of the subcommand's own
flags that is not a usage error.  A corrupt copy of a bundled table passed
as ``--constants`` or ``--species`` (a unit cell from
``tests/data/unit_parse_errors.json``, a magnitude of ``nan``, ``1e999`` or
``''``, a species charge ratio of ``1e999``, ``1e-999`` or ``1e200``, a
required constant deleted or given a unit of another dimension, a row given
twice, a constant the loader derives, a byte that is not UTF-8) must fail with exit 1, one ``error:`` line and
nothing on stdout.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vacuumresponse.cli import main
from vacuumresponse.constants import DERIVED_KEYS, REQUIRED_DIMENSIONS, bundled_constants_path
from vacuumresponse.species import bundled_species_path
from vacuumresponse.units import parse_unit

DATA = Path(__file__).resolve().parent / "data"
UNITS = [text for text, _, _ in json.loads((DATA / "unit_parse_corpus.json").read_text("utf-8"))]

SUBCOMMANDS = ("estimate", "sweep", "species", "check-dimensions", "constants")
CONVENTIONS = ("cube", "cube-compton", "cube-half-compton", "sphere")

# What stderr may hold: diagnostics, the codata comment, and argparse usage.
STDERR_LINE = re.compile(r"(error|warning|note): |# |usage: | |vacuumresponse( [\w-]+)?: error: ")

# Placeholders for paths under the test's own directory.
OUT_DIR, OUT_FILE, OUT_MISSING = "{dir}", "{dir}/payload.txt", "{dir}/missing/payload.txt"

hostile_words = st.sampled_from(
    ["", " ", "-", "--", "x", "été", "est", "ESTIMATE", "-1", "1e400"]
)
# float() and int() accept digits of every script: Arabic-Indic, Devanagari, fullwidth.
other_digits = st.sampled_from(["٣", "२", "３", "١٠", "١.٥"])
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(
        ["0", "-0.0", "1", "2", "0.5", "1e308", "1.7976931348623157e308", "5e-324", "1e-320",
         "1e-307", "-1", "nan", "-inf", "1_000", " 2 ", "0x10"]
    ),
    other_digits,
    hostile_words,
)
ints = st.one_of(
    st.integers(-3, 300).map(str),
    st.sampled_from(["100000", "100001", "25001", "1e3", "2.0"]),
    other_digits,
    hostile_words,
)
units_text = st.one_of(st.sampled_from(UNITS), st.sampled_from(["V/m", "kV/cm", "V", "", "1"]))
# Every path lies under the test's directory; "" names no file.
paths = st.sampled_from([OUT_DIR, OUT_FILE, OUT_MISSING, ""])
PATH_FLAGS = ("--constants", "--species", "--out")


def listed(items):
    """Comma-joined lists of ``items``, with empty and repeated pieces."""
    return st.lists(items, max_size=4).map(",".join)


# Each flag of every subcommand, and one of none, with the values drawn for
# it; None marks a flag that takes no value.
FLAGS = {
    "--constants": st.one_of(st.just(str(bundled_constants_path())), paths),
    "--species": st.one_of(st.just(str(bundled_species_path())), paths),
    "--out": paths,
    "--units": st.one_of(st.sampled_from(["si", "gaussian"]), hostile_words),
    "--gap-ratio": floats,
    "--g-factor": floats,
    "--convention": st.one_of(st.sampled_from(CONVENTIONS), hostile_words),
    "--probe-field": st.one_of(
        st.tuples(floats, units_text).map(" ".join), units_text, hostile_words
    ),
    "--format": st.one_of(st.sampled_from(["text", "csv", "json", "svg"]), hostile_words),
    "--kappa-min": floats,
    "--kappa-max": floats,
    "--points": ints,
    "--conventions": listed(st.one_of(st.sampled_from(CONVENTIONS), hostile_words)),
    "--g-factors": listed(floats),
    "--derived": None,
    "-h": None,
    "--bogus": None,
}


COMMON = ("--constants", "--out", "-h")
OWN_FLAGS = {
    "estimate": (
        *COMMON, "--units", "--gap-ratio", "--convention", "--g-factor", "--probe-field", "--format"
    ),
    "sweep": (
        *COMMON, "--units", "--kappa-min", "--kappa-max", "--points", "--conventions",
        "--g-factors", "--format",
    ),
    "species": (*COMMON, "--units", "--species", "--gap-ratio"),
    "check-dimensions": COMMON,
    "constants": (*COMMON, "--derived"),
}


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(SUBCOMMANDS))
    flags = draw(st.lists(st.sampled_from(OWN_FLAGS[name]), max_size=5))
    # One in four argvs has a hostile command word, and one in four a flag
    # of another subcommand or of none.
    if draw(st.integers(0, 3)) == 0:
        name = draw(hostile_words)
    if draw(st.integers(0, 3)) == 0:
        flags.insert(draw(st.integers(0, len(flags))), draw(st.sampled_from(sorted(FLAGS))))
    argv = [name]
    for flag in flags:
        argv.append(flag)
        values = FLAGS[flag]
        # A flag that takes a value is sometimes left without one.
        if values is not None and draw(st.integers(0, 9)):
            argv.append(draw(values))
    return argv


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def run(argv):
    """``main(argv)`` in process: the exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=300, deadline=None)
@given(argv=argvs())
# estimate has no --species, so it is an unknown flag, reported only after -h.
@example(argv=["estimate", "--species", "", "-h"])
@example(argv=["species", "--species", "", "-h"])
def test_every_argv_ends_in_a_clean_exit(out_dir, argv):
    argv = [word.replace(OUT_DIR, str(out_dir)) for word in argv]
    code, out, err = run(argv)
    assert code in (0, 1, 2), (code, err)
    if code != 0:
        assert out == "", err
    # A failed run writes its error line alone: no warning or note before it.
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err
    strays = [line for line in err.splitlines() if not STDERR_LINE.match(line)]
    assert not strays, err
    # An empty PATH of the subcommand's own flags is refused as it is read,
    # so only an earlier -h exits 0.
    own = OWN_FLAGS.get(argv[0], PATH_FLAGS)
    for flag, value in zip(argv, argv[1:]):
        if flag == "-h":
            break
        if flag in PATH_FLAGS and flag in own and value == "":
            assert code == 2, (argv, err)


BAD_UNITS = [row[0] for row in json.loads((DATA / "unit_parse_errors.json").read_text("utf-8"))]
# Units that parse; each required constant is given one whose dimension is not its own.
OTHER_UNITS = ("V/m", "J", "J s", "A", "C", "m", "m/s", "kg", "1", "H/m")
# Each bundled table: its flag, the subcommands that take the flag, and the
# bad values of each corruptible field, by index: a magnitude, and a species
# charge ratio whose float, or whose square, is zero or infinite.  A species
# row may leave its mass empty, so "" is no corruption there.
TABLES = {
    "--constants": (bundled_constants_path(), SUBCOMMANDS, {1: ["nan", "1e999", ""]}),
    "--species": (
        bundled_species_path(), ("species",), {3: ["nan", "1e999"], 1: ["1e999", "1e-999", "1e200"]}
    ),
}


@st.composite
def corrupt_tables(draw):
    """(argv without the path, file bytes): a bundled table with one corruption."""
    flag = draw(st.sampled_from(sorted(TABLES)))
    path, commands, bad_fields = TABLES[flag]
    argv = [draw(st.sampled_from(commands)), flag]
    lines = path.read_text("utf-8").splitlines(keepends=True)
    rows = [i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")]
    kinds = ["field", "byte", "repeat"]
    if flag == "--constants":
        kinds += ["unit", "required", "dimension"]
    kind = draw(st.sampled_from(kinds))
    required = [i for i in rows if lines[i].split("\t")[0] in REQUIRED_DIMENSIONS]
    if kind == "required":
        del lines[draw(st.sampled_from(required))]
    elif kind == "dimension":
        row = draw(st.sampled_from(required))
        fields = lines[row].split("\t")
        want = REQUIRED_DIMENSIONS[fields[0]]
        fields[2] = draw(st.sampled_from([u for u in OTHER_UNITS if parse_unit(u)[1] != want]))
        lines[row] = "\t".join(fields)
    elif kind == "repeat":
        # A row given again, or given as a constant that the loader derives.
        fields = lines[draw(st.sampled_from(rows))].split("\t")
        if flag == "--constants" and draw(st.booleans()):
            fields[0] = draw(st.sampled_from(DERIVED_KEYS))
        lines.append("\t".join(fields))
    elif kind != "byte":
        row = draw(st.sampled_from(rows))
        fields = lines[row].rstrip("\n").split("\t")
        if kind == "unit":
            fields[2] = draw(st.sampled_from(BAD_UNITS))
        else:
            field = draw(st.sampled_from(sorted(bad_fields)))
            fields[field] = draw(st.sampled_from(bad_fields[field]))
        lines[row] = "\t".join(fields) + "\n"
    data = "".join(lines).encode("utf-8")
    if kind == "byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return argv, data


BUNDLED_CONSTANTS = bundled_constants_path().read_bytes()
EPS0_IN_V_PER_M = BUNDLED_CONSTANTS.replace(b"A s / (V m)", b"V/m")


@settings(max_examples=200, deadline=None)
@given(case=corrupt_tables())
@example(case=(["constants", "--constants"], BUNDLED_CONSTANTS + b"c\t3e8\tm/s\ttest\n"))
@example(case=(["constants", "--constants"], BUNDLED_CONSTANTS + b"alpha\t0.5\t1\ttest\n"))
@example(case=(["check-dimensions", "--constants"], EPS0_IN_V_PER_M))
@example(case=(["constants", "--constants"], EPS0_IN_V_PER_M))
def test_a_corrupt_table_fails_with_one_error_line(out_dir, case):
    argv, data = case
    table = out_dir / "corrupt.tsv"
    table.write_bytes(data)
    code, out, err = run([*argv, str(table)])
    assert code == 1, (argv, code, err)
    assert out == "", err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
