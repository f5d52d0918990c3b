"""The parser's own text: help, usage errors and their exit codes.

``tests/data/cli_usage_goldens.json`` holds, for each argv, the exit code and
the full stdout and stderr of ``cli.main``, recorded while every subcommand
parser was built with its flags on each call.  They pin the top-level help,
each subcommand's help and every kind of usage error, so a parser that
builds only the flags of the subcommand it runs must print the same text.

To re-record after a deliberate change of the help text:

    PYTHONPATH=src python tests/test_cli_usage_goldens.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from vacuumresponse.cli import main

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "cli_usage_goldens.json"

SUBCOMMANDS = ("estimate", "sweep", "species", "check-dimensions", "constants")

ARGVS = [
    ["-h"],
    *([name, "-h"] for name in SUBCOMMANDS),
    [],
    ["est"],
    ["bogus"],
    ["--", "estimate"],
    ["--constants", "x", "estimate"],
    ["--constants=x", "estimate"],
    ["-q", "sweep", "--points", "2"],
    *([name, "--bogus"] for name in SUBCOMMANDS),
    ["estimate", "--convention", "tetrahedron"],
    ["estimate", "--format", "svg"],
    ["sweep", "--format", "text"],
    ["species", "--units", "cgs"],
    ["estimate", "--gap-ratio", "two"],
    ["species", "--gap-ratio", "two"],
    ["sweep", "--points", "2.5"],
    ["estimate", "--gap-ratio"],
]


def run(argv):
    """``main(argv)``'s exit code, stdout and stderr at a fixed help width."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


@pytest.mark.parametrize(
    "golden",
    json.loads(GOLDEN_PATH.read_text(encoding="utf-8")),
    ids=lambda g: " ".join(g["argv"]) or "(empty)",
)
def test_parser_text_matches_golden(monkeypatch, golden):
    # argparse wraps help to the terminal width, which COLUMNS sets.
    monkeypatch.setenv("COLUMNS", "80")
    assert run(golden["argv"]) == golden


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    records = [run(argv) for argv in ARGVS]
    GOLDEN_PATH.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
