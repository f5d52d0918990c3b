"""Cold start: importing the CLI loads only what every subcommand runs.

Each invocation of ``vacuumresponse`` is a fresh interpreter, so every module
imported at the top of the CLI is paid for on every start.  The set compared
is what ``import vacuumresponse.cli`` adds on top of a bare interpreter, so
modules that site hooks import in both are left out.  Under ``python -S``
nothing is pre-loaded, so a run there shows every module it needs.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Stdlib packages that pull in the network and email stack.
FORBIDDEN_PACKAGES = ("xml", "http", "email", "ssl", "socket")
# dataclasses loads inspect, ast, dis and tokenize: about 9 ms of every start.
SLOW_STDLIB = {"dataclasses", "inspect"}
FORBIDDEN_MODULES = {
    "csv",
    "urllib.request",
    "hashlib",
    "vacuumresponse.checks",
    "vacuumresponse.report",
    "vacuumresponse.svgchart",
    *SLOW_STDLIB,
}

# One run of each subcommand; checks and svgchart load only when these run.
SUBCOMMAND_ARGVS = [
    ["estimate", "--probe-field", "1 V/m"],
    ["sweep", "--points", "4", "--conventions", "cube,sphere"],
    ["sweep", "--points", "4", "--format", "svg"],
    ["species"],
    ["check-dimensions"],
    ["constants", "--derived"],
]


def loaded_modules(statement, *options):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"
    result = subprocess.run(
        [sys.executable, *options, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def _run_statement(argv):
    """A statement that runs ``argv`` in process and checks that it exits 0."""
    return (
        "import io, sys\n"
        "from vacuumresponse.cli import main\n"
        "stdout, sys.stdout = sys.stdout, io.StringIO()\n"
        f"code = main({argv!r})\n"
        "sys.stdout = stdout\n"
        "assert code == 0, code"
    )


def test_cli_import_skips_network_stack_and_unused_modules():
    added = loaded_modules("import vacuumresponse.cli") - loaded_modules("pass")
    assert "vacuumresponse.cli" in added
    forbidden = {
        name
        for name in added
        if name in FORBIDDEN_MODULES
        or any(name == p or name.startswith(p + ".") for p in FORBIDDEN_PACKAGES)
    }
    assert not forbidden, f"import vacuumresponse.cli loads {sorted(forbidden)}"


def test_running_every_subcommand_skips_dataclasses_and_inspect():
    statement = (
        "import io, sys\n"
        "from vacuumresponse.cli import main\n"
        "stdout, sys.stdout = sys.stdout, io.StringIO()\n"
        f"codes = [main(argv) for argv in {SUBCOMMAND_ARGVS!r}]\n"
        "sys.stdout = stdout\n"
        "assert codes == [0] * len(codes), codes"
    )
    loaded = loaded_modules(statement) & SLOW_STDLIB
    assert not loaded, f"running the subcommands loads {sorted(loaded)}"


def test_check_dimensions_reads_no_species_file():
    # Every species file is read by load_species, which the child replaces
    # with a recorder before the run, so a module that imports the name
    # after that point gets the recorder too.
    statement = (
        "import vacuumresponse.species as species\n"
        "reads = []\n"
        "species.load_species = lambda *args, **kwargs: reads.append(args)\n"
        + _run_statement(["check-dimensions"])
        + "\nassert not reads, f'check-dimensions loads species from {reads}'"
    )
    # Nor does it print a digest, the one use of hashlib in this package.
    assert "hashlib" not in loaded_modules(statement)


def test_species_prints_its_digest_with_hashlib():
    assert "hashlib" in loaded_modules(_run_statement(["species"]))


def test_reading_a_loaded_tables_digest_imports_hashlib():
    # With test_loading_the_bundled_tables_skips_hashlib_and_report[no-site]:
    # a load imports hashlib only when its digest is read.
    statement = (
        "from vacuumresponse.constants import default_registry\n"
        "from vacuumresponse.species import bundled_species_path, load_species\n"
        "load_species(bundled_species_path(), default_registry()).sha256"
    )
    assert "hashlib" in loaded_modules(statement, "-S")


def _setup_code():
    """``SETUP_CODE`` of ``perfbench/run.py``: the start that the benchmark times."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "SETUP_CODE" for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py assigns no SETUP_CODE")


# Loading both bundled tables reads no digest, builds no report row and
# decodes no byte-order mark with a codec of its own.
NOT_ON_A_TABLE_LOAD = {"hashlib", "vacuumresponse.report", "encodings.utf_8_sig"}


@pytest.mark.parametrize("options", [(), ("-S",)], ids=["site", "no-site"])
def test_loading_the_bundled_tables_skips_hashlib_and_report(options):
    added = loaded_modules(_setup_code(), *options) - loaded_modules("pass", *options)
    assert "vacuumresponse.cli" in added
    loaded = added & NOT_ON_A_TABLE_LOAD
    assert not loaded, f"the benchmark's set-up loads {sorted(loaded)}"


# What every subcommand's start loads of the package: the CLI, the constants,
# the units that show each value and the paper's kernels.
PACKAGE_ON_EVERY_START = {
    "vacuumresponse", "vacuumresponse.cli", "vacuumresponse.commands",
    "vacuumresponse.constants", "vacuumresponse.dimensions", "vacuumresponse.kernels",
    "vacuumresponse.units",
}
# What each subcommand adds: its own command module, and no other one, and
# the modules that module runs.  Only estimate and sweep build report rows.
# Both compute them on floats with the kernels, so only an estimate's probe
# loads the Quantity-level ``model``.
PACKAGE_BY_SUBCOMMAND = [
    (["estimate"], {"commands.estimate", "report"}),
    (
        ["estimate", "--probe-field", "1 V/m", "--format", "json"],
        {"commands.estimate", "model", "report"},
    ),
    (["sweep", "--points", "4"], {"commands.sweep", "report"}),
    (["sweep", "--points", "4", "--format", "json"], {"commands.sweep", "report"}),
    (["sweep", "--points", "4", "--format", "svg"], {"commands.sweep", "report", "svgchart"}),
    (["species"], {"commands.species", "species"}),
    (["check-dimensions"], {"commands.check_dimensions", "checks", "species", "model"}),
    (["constants", "--derived"], {"commands.constants"}),
]


@pytest.mark.parametrize(
    ("argv", "added"), PACKAGE_BY_SUBCOMMAND, ids=[" ".join(a) for a, _ in PACKAGE_BY_SUBCOMMAND]
)
def test_each_subcommand_loads_only_its_own_package_modules(argv, added):
    loaded = {
        name for name in loaded_modules(_run_statement(argv))
        if name == "vacuumresponse" or name.startswith("vacuumresponse.")
    }
    expected = PACKAGE_ON_EVERY_START | {f"vacuumresponse.{name}" for name in added}
    assert loaded == expected, (
        f"{' '.join(argv)} also loads {sorted(loaded - expected)} "
        f"and does not load {sorted(expected - loaded)}"
    )


# What estimate, sweep and constants never use: exact rationals (fractions
# loads decimal and numbers), the species tables, and hashlib, which only
# reading a species file needs.
NOT_ON_THE_SHORT_PATH = {"fractions", "decimal", "numbers", "vacuumresponse.species", "hashlib"}

SHORT_PATH_ARGVS = [
    ["estimate"],
    ["estimate", "--format", "csv"],
    ["estimate", "--format", "json", "--units", "gaussian"],
    ["estimate", "--units", "gaussian", "--probe-field", "1 V/m"],
    ["estimate", "--convention", "sphere", "--probe-field", "3 kV/cm"],
    ["sweep", "--points", "4", "--conventions", "cube,cube-compton,cube-half-compton,sphere"],
    ["sweep", "--points", "4", "--format", "json", "--units", "gaussian"],
    ["sweep", "--points", "4", "--format", "svg", "--g-factors", "1,2"],
    ["constants", "--derived"],
]


@pytest.mark.parametrize("argv", SHORT_PATH_ARGVS, ids=" ".join)
def test_short_subcommands_skip_fractions_and_species(argv):
    # One fresh interpreter per argv, as each CLI start is.
    added = loaded_modules(_run_statement(argv)) - loaded_modules("pass")
    loaded = added & NOT_ON_THE_SHORT_PATH
    assert not loaded, f"{' '.join(argv)} loads {sorted(loaded)}"


# What a site hook may pre-load: what locating the bundled tables through
# importlib.resources used to load (the package finds them beside its
# modules), and typing (its records are collections.namedtuple classes).
NOT_ON_A_CLEAN_START = {"importlib.resources", "tempfile", "zipfile", "typing"}
CLEAN_START_ARGVS = [*SHORT_PATH_ARGVS, ["species"], ["check-dimensions"]]


@pytest.mark.parametrize("argv", CLEAN_START_ARGVS, ids=" ".join)
def test_a_clean_start_skips_the_resource_readers(argv):
    # -S starts without site, so nothing is pre-loaded that a run could reuse.
    loaded = loaded_modules(_run_statement(argv), "-S") & NOT_ON_A_CLEAN_START
    assert not loaded, f"{' '.join(argv)} under python -S loads {sorted(loaded)}"


def test_every_public_name_resolves():
    # The package loads its public names on first use, so a stale entry in
    # its export table shows only when the name is read.
    import vacuumresponse

    missing = [name for name in vacuumresponse.__all__ if not hasattr(vacuumresponse, name)]
    assert not missing, f"vacuumresponse.__all__ names {missing}, which do not resolve"
