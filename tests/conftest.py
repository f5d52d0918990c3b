import sys

import pytest

from vacuumresponse.constants import bundled_constants_path, default_registry

CLI = [sys.executable, "-m", "vacuumresponse"]


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
