"""``check-dimensions`` runs the code each relation names, not a copy of it."""

import pytest

from vacuumresponse import checks, model, species
from vacuumresponse.checks import run_dimension_checks


@pytest.mark.parametrize(
    ("name", "check"),
    [
        ("_count_simple", "species-count-inversion"),
        ("_count_sphere", "refined-species-count"),
        ("_deviation", "charge-weighted-total"),
        ("critical_field", "critical-field"),
    ],
)
def test_a_stray_factor_of_c_fails_the_check_that_names_the_code(
    monkeypatch, registry, name, check
):
    # A dimensional slip in the code itself, as an edit of its source would
    # make it: every module that holds the function sees the slipped one.
    original = getattr(model, name)
    c = registry.quantity("c")

    def slipped(*args):
        return original(*args) * c

    for module in (model, species, checks):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, slipped)
    failed = {result.name for result in run_dimension_checks(registry) if not result.ok}
    assert check in failed
