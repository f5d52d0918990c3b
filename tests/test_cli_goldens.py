"""CLI stdout must stay byte-identical to the recorded digests.

The digests in ``tests/data/cli_goldens.json`` were recorded before the model
API was narrowed to ``vacuum_response``/``probe_response``; they pin every
estimate format, convention and unit system, and ``check-dimensions`` with
the bundled and with corrupted constants.  The sweep digests were
recorded before the serializers wrote each row with one format string: the
Gaussian CSV and JSON of all four conventions, and an SI JSON sweep over six
decades of the gap ratio.  The ``species`` digests were recorded before the
counts and the summed permittivity ran on the model's kernels.  With eps0
in V/m the constants file is refused at load, before any check runs, so that
entry pins exit 1 and an empty stdout.  The ``constants`` and ``constants
--derived`` digests were recorded before the constants file required only the
six electromagnetic keys; the bundled file keeps its optional mass records,
so their listing must not change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from vacuumresponse.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "data" / "cli_goldens.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("golden", GOLDEN["outputs"], ids=lambda g: " ".join(g["argv"]))
def test_stdout_matches_golden(capsys, corrupted_constants, golden):
    argv = [str(corrupted_constants) if a == "{corrupted_constants}" else a for a in golden["argv"]]
    assert main(argv) == golden["exit"]
    stdout = capsys.readouterr().out.encode("utf-8")
    assert len(stdout) == golden["bytes"]
    assert hashlib.sha256(stdout).hexdigest() == golden["sha256"]
