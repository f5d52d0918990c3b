import os
import sys
from pathlib import Path

import pytest

from vacuumresponse.constants import bundled_constants_path, default_registry
from vacuumresponse.model import OscillatorParams

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
    text = bundled_constants_path().read_text(encoding="utf-8")
    path = tmp_path_factory.mktemp("bad") / "constants.tsv"
    path.write_text(text.replace("A s / (V m)", "V/m"), encoding="utf-8")
    return path


@pytest.fixture
def omega0_calls(monkeypatch):
    """The params of every ``OscillatorParams.omega0`` call made during the test."""
    calls = []
    real = OscillatorParams.omega0

    def counting(self, registry=None):
        calls.append(self)
        return real(self, registry)

    monkeypatch.setattr(OscillatorParams, "omega0", counting)
    return calls
