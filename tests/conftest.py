import os
import sys
from pathlib import Path

import pytest

from vacuumresponse import kernels, model
from vacuumresponse.constants import default_registry

from payload_corpus import write_corrupted_constants

CLI = [sys.executable, "-m", "vacuumresponse"]

# The CLI subprocesses import the package of this checkout, as the tests do.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def corrupted_constants(tmp_path_factory):
    """The bundled constants with the permittivity unit replaced by V/m."""
    return write_corrupted_constants(tmp_path_factory.mktemp("bad") / "constants.tsv")


@pytest.fixture
def omega0_calls(monkeypatch):
    """The energy gap of every w0 the model computes during the test.

    ``OscillatorParams.omega0`` and the pair kernel, on Quantities and on
    floats alike, compute w0 in ``kernels._omega0``, which ``model`` holds
    too, so the count does not depend on which path a report row takes.
    """
    calls = []
    real = kernels._omega0

    def counting(gap, hbar):
        calls.append(gap)
        return real(gap, hbar)

    for module in (kernels, model):
        monkeypatch.setattr(module, "_omega0", counting)
    return calls
