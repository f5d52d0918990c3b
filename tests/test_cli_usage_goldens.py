"""The parser's own text: help, usage errors and their exit codes.

``tests/data/cli_usage_goldens.json`` holds, for each argv of
``payload_corpus.USAGE_ARGVS``, the exit code and the full stdout and stderr
of ``cli.main``, recorded while every subcommand parser was built with its
flags on each call.  They pin the top-level help, each subcommand's help and
every kind of usage error, so a parser that builds only the flags of the
subcommand it runs must print the same text.  ``tests/payload_corpus.py``
re-records the file and, with ``--check``, replays it in a child process.
"""

import json

import pytest

from payload_corpus import USAGE_GOLDENS, run


@pytest.mark.parametrize(
    "golden",
    json.loads(USAGE_GOLDENS.read_text(encoding="utf-8")),
    ids=lambda g: " ".join(g["argv"]) or "(empty)",
)
def test_parser_text_matches_golden(monkeypatch, golden):
    # argparse wraps help to the terminal width, which COLUMNS sets.
    monkeypatch.setenv("COLUMNS", "80")
    code, stdout, stderr = run(golden["argv"])
    assert {"argv": golden["argv"], "exit": code, "stdout": stdout, "stderr": stderr} == golden
