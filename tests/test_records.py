"""The record classes: construction, defaults, equality, immutability and checks.

Each record is built by position and by keyword, compared, hashed, shown and
pickled, and refuses assignment; every check it makes keeps its exception
type and message, whether the record is built or made from another by
``_replace`` or ``copy.replace``.  Field names and defaults are spelled out here, so the
test holds whatever the records are built from.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from vacuumresponse.checks import CheckResult
from vacuumresponse.constants import ConstantRecord
from vacuumresponse.dimensions import CHARGE, ENERGY, LENGTH, MASS, TIME, Quantity
from vacuumresponse.model import (
    OscillatorParams,
    VacuumResponse,
    VolumeConvention,
)
from vacuumresponse.report import MAX_SWEEP_ROWS, ReportRow, SweepConfig
from vacuumresponse.species import DuplicateNameError, ParticleSpecies, SpeciesTable
from vacuumresponse.svgchart import Series

METRE = Quantity(1e-13, LENGTH)
MASS_Q = Quantity(9.1e-31, MASS)
CHARGE_Q = Quantity(1.6e-19, CHARGE)
ENERGY_Q = Quantity(1.6e-13, ENERGY)
MUON = ParticleSpecies("mu", Fraction(-1), 1)
ELECTRON = ParticleSpecies("e", Fraction(-1))

# class: (field names, one value per field, defaults of the trailing fields,
#         checks as (fields to change, exception type, message)).
RECORDS = {
    ConstantRecord: (
        ("key", "quantity", "unit_text", "source", "definition"),
        ("c", Quantity(299792458.0, LENGTH / TIME), "m/s", "CODATA 2018", "exact"),
        {"definition": None},
        [],
    ),
    ReportRow: (
        ("kappa", "convention", "g", "eps_tilde", "mu_tilde", "radius", "eps_ratio",
         "mu_ratio", "count_simple", "count_sphere"),
        (2.0, "cube", 2.0, Quantity(1.0), Quantity(2.0), METRE, 0.18, 0.18, 5.45, 7.2),
        {},
        [],
    ),
    CheckResult: (
        ("name", "description", "lhs", "rhs"),
        ("force", "m a is a force", MASS * LENGTH, MASS * LENGTH),
        {},
        [],
    ),
    Series: (
        ("label", "points"),
        ("cube", ((0.5, 0.05), (1.0, 0.09))),
        {},
        [],
    ),
    OscillatorParams: (
        ("mass", "charge", "energy_gap", "g_factor", "volume_convention"),
        (MASS_Q, CHARGE_Q, ENERGY_Q, 1.0, VolumeConvention.SPHERE),
        {"g_factor": 2.0, "volume_convention": VolumeConvention.CUBE},
        [
            ({"mass": CHARGE_Q}, ValueError, "mass must be a positive mass quantity"),
            ({"mass": Quantity(0.0, MASS)}, ValueError, "mass must be a positive mass quantity"),
            ({"charge": MASS_Q}, ValueError, "charge must be a nonzero charge quantity"),
            ({"charge": Quantity(0.0, CHARGE)}, ValueError,
             "charge must be a nonzero charge quantity"),
            ({"energy_gap": MASS_Q}, ValueError, "energy gap must be a positive energy"),
            ({"energy_gap": Quantity(-1.0, ENERGY)}, ValueError,
             "energy gap must be a positive energy"),
            ({"g_factor": 0.0}, ValueError, "g-factor must be positive and finite"),
            ({"g_factor": float("inf")}, ValueError, "g-factor must be positive and finite"),
            ({"g_factor": float("nan")}, ValueError, "g-factor must be positive and finite"),
            ({"volume_convention": "cube-compton"}, TypeError,
             "volume_convention must be a VolumeConvention, got 'cube-compton'"),
        ],
    ),
    VacuumResponse: (
        ("eps_tilde", "mu_tilde", "radius", "eps_ratio", "mu_ratio"),
        (Quantity(1.0), Quantity(2.0), METRE, 0.18, 0.19),
        {},
        [
            ({"eps_tilde": Quantity(0.0)}, ValueError, "eps_tilde must be positive"),
            ({"mu_tilde": Quantity(-1.0)}, ValueError, "mu_tilde must be positive"),
            ({"radius": Quantity(0.0, LENGTH)}, ValueError, "radius must be positive"),
            ({"eps_ratio": 0.0}, ValueError, "deviation ratios must be positive"),
            ({"mu_ratio": -1.0}, ValueError, "deviation ratios must be positive"),
        ],
    ),
    SweepConfig: (
        ("kappa_min", "kappa_max", "points", "conventions", "g_factors"),
        (1.0, 2.0, 8, ("cube", "sphere"), (1.0, 2.0)),
        {"kappa_min": 0.5, "kappa_max": 4.0, "points": 64, "conventions": ("cube",),
         "g_factors": (2.0,)},
        [
            ({"kappa_min": float("nan")}, ValueError, "kappa_min and kappa_max must be finite"),
            ({"kappa_max": float("inf")}, ValueError, "kappa_min and kappa_max must be finite"),
            ({"kappa_min": 0.0}, ValueError, "kappa_min must be > 0"),
            ({"kappa_max": 0.5}, ValueError, "kappa_max must be >= kappa_min"),
            ({"points": 1}, ValueError, "a sweep needs at least 2 points"),
            ({"conventions": ()}, ValueError, "at least one convention is required"),
            ({"conventions": ("cube", "ball")}, ValueError,
             "unknown convention 'ball'; choose from cube, cube-compton, cube-half-compton, "
             "sphere"),
            ({"g_factors": ()}, ValueError, "at least one g-factor is required"),
            ({"g_factors": (2.0, -1.0)}, ValueError, "g-factors must be finite and > 0, got -1.0"),
            ({"g_factors": (Fraction(2),)}, TypeError,
             "g-factors must be int or float, got Fraction(2, 1)"),
            ({"points": MAX_SWEEP_ROWS}, ValueError,
             f"a sweep of {4 * MAX_SWEEP_ROWS} rows exceeds the limit of {MAX_SWEEP_ROWS}"),
        ],
    ),
    ParticleSpecies: (
        ("name", "charge_ratio", "multiplicity"),
        ("up", Fraction(2, 3), 3),
        {"multiplicity": 1},
        [
            ({"charge_ratio": Fraction(0)}, ValueError, "species 'up' must carry charge"),
            ({"multiplicity": 0}, ValueError, "species 'up' multiplicity must be >= 1"),
        ],
    ),
    SpeciesTable: (
        ("species", "raw"),
        ((MUON, ParticleSpecies("e", Fraction(-1))), b"mu\t-1\t1\ne\t-1\t1\n"),
        {"raw": None},
        [
            ({"species": (MUON, ParticleSpecies("e", Fraction(-1)), MUON)}, DuplicateNameError,
             "duplicate species name 'mu'"),
            # The first name in table order that repeats, not the first repeat.
            ({"species": (MUON, ELECTRON, ELECTRON, MUON)}, DuplicateNameError,
             "duplicate species name 'mu'"),
        ],
    ),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaviour(cls):
    names, values, defaults, checks = RECORDS[cls]
    by_keyword = dict(zip(names, values))

    record = cls(*values)
    assert [getattr(record, name) for name in names] == list(values)
    assert cls(**by_keyword) == record
    assert hash(cls(**by_keyword)) == hash(record)
    shown = ", ".join(f"{name}={value!r}" for name, value in by_keyword.items())
    assert repr(record) == f"{cls.__name__}({shown})"
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.copy(record) == record

    required = names[: len(names) - len(defaults)]
    minimal = cls(*values[: len(required)])
    assert {name: getattr(minimal, name) for name in defaults} == defaults
    assert cls(**{name: by_keyword[name] for name in required}) == minimal

    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        assert getattr(record, name) == by_keyword[name]

    for changes, error, message in checks:
        makers = [lambda: cls(**{**by_keyword, **changes}), lambda: record._replace(**changes)]
        if hasattr(copy, "replace"):
            makers.append(lambda: copy.replace(record, **changes))
        for make in makers:
            with pytest.raises(error) as caught:
                make()
            assert type(caught.value) is error
            assert str(caught.value) == message
