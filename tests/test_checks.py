"""``check-dimensions`` runs the code each relation names, not a copy of it."""

import pytest

from vacuumresponse import checks, constants, kernels, model, species
from vacuumresponse.checks import run_dimension_checks
from vacuumresponse.dimensions import ELECTRIC_FIELD, LENGTH, SPEED
from vacuumresponse.model import OscillatorParams, VolumeConvention


@pytest.mark.parametrize(
    ("name", "check"),
    [
        ("_count_simple", "species-count-inversion"),
        ("_count_sphere", "refined-species-count"),
        ("_deviation", "charge-weighted-total"),
        ("_gyromagnetic_ratio", "gyromagnetic-relation"),
        ("critical_field", "critical-field"),
        ("_critical_field", "critical-field"),
    ],
)
def test_a_stray_factor_of_c_fails_the_check_that_names_the_code(
    monkeypatch, registry, name, check
):
    # A dimensional slip in the code itself, as an edit of its source would
    # make it: every module that holds the function sees the slipped one.
    holders = [m for m in (kernels, constants, model, species, checks) if hasattr(m, name)]
    original = getattr(holders[0], name)
    c = registry.quantity("c")

    def slipped(*args):
        return original(*args) * c

    for module in holders:
        monkeypatch.setattr(module, name, slipped)
    failed = {result.name for result in run_dimension_checks(registry) if not result.ok}
    assert check in failed


def test_every_caller_runs_the_constants_kernels(monkeypatch, registry):
    # The Compton length and the critical field are written once, in
    # kernels; a slip there reaches the derived records, the pinned cube
    # radii and the critical field alike.
    c = registry.quantity("c")
    for name in ("_compton", "_critical_field"):
        original = getattr(constants, name)
        for module in (kernels, constants, model):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *args, f=original: f(*args) * c)

    slipped = constants.load_constants(constants.bundled_constants_path())
    assert slipped.quantity("lambda_c").dimension == LENGTH * SPEED
    assert slipped.quantity("E_S").dimension == ELECTRIC_FIELD * SPEED
    for conv in (VolumeConvention.CUBE_COMPTON, VolumeConvention.CUBE_HALF_COMPTON):
        params = OscillatorParams.for_electron(2.0, 2.0, conv, registry)
        assert model.effective_radius(params, registry).dimension == LENGTH * SPEED
    cube = OscillatorParams.for_electron(2.0, 2.0, VolumeConvention.CUBE, registry)
    assert model.critical_field(cube, registry).dimension == ELECTRIC_FIELD * SPEED
