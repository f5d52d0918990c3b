"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them all);
the assertion follows the print so a failure still reports its verdict.
"""

import math
import random
import subprocess
from fractions import Fraction

import numpy as np
import pytest

from vacuumresponse.checks import run_dimension_checks
from vacuumresponse.constants import default_registry
from vacuumresponse.dimensions import (
    DIMENSIONLESS,
    LENGTH,
    Dimension,
    Quantity,
)
from vacuumresponse.model import (
    FieldTooStrongError,
    OscillatorParams,
    VolumeConvention,
    WeakFieldWarning,
    fine_structure_form,
    maxwell_closure,
    mean_square_orbit_radius,
    probe_response,
)
from vacuumresponse.species import (
    SpeciesModel,
    charge_weighted_sum,
    default_species_table,
    gap_for_exact_match,
    required_species_count,
    total_permittivity,
)
from vacuumresponse.units import parse_unit, render_quantity

from conftest import CLI


def run_cli(*args):
    return subprocess.run([*CLI, *args], capture_output=True, text=True, timeout=120)


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] criterion {number:02d}: {description}"
    if detail:
        line += f"  [{detail}]"
    print(line)


@pytest.fixture(scope="module")
def reg():
    return default_registry()


def test_criterion_01_single_pair_permittivity(reg):
    resp = maxwell_closure(OscillatorParams.for_electron(2.0, 2.0, VolumeConvention.CUBE, reg), reg)
    value = resp.eps_tilde.magnitude
    closed_form = (2 * reg.quantity("e") ** 2 / (reg.quantity("hbar") * reg.quantity("c"))).magnitude
    ok = abs(value - 1.62e-12) <= 0.01 * 1.62e-12 and math.isclose(
        value, closed_form, rel_tol=1e-12
    )
    report(1, "single-pair permittivity at gap ratio 2 is 2 e^2/(hbar c) = 1.62e-12 "
              "within 1%", ok, f"computed {value:.4e}")
    assert ok


def test_criterion_02_deviation_factor(reg):
    _, ratio = fine_structure_form(
        OscillatorParams.for_electron(2.0, 2.0, VolumeConvention.CUBE, reg), reg
    )
    identity_ok = math.isclose(ratio, 8 * math.pi * reg.value("alpha"), rel_tol=1e-12)
    window_ok = abs(ratio - 0.18344) <= 1e-4
    cli = run_cli("estimate", "--gap-ratio", "2")
    note_ok = "one-tenth" in cli.stderr
    ok = identity_ok and window_ok and note_ok
    report(2, "deviation factor at gap ratio 2 is 8*pi*alpha = 0.18344 +/- 1e-4, "
              "with the one-tenth phrasing flagged", ok, f"computed {ratio:.6f}")
    assert ok


def test_criterion_03_closure_radius(reg):
    resp = maxwell_closure(OscillatorParams.for_electron(2.0, 2.0, VolumeConvention.CUBE, reg), reg)
    half_compton = reg.value("lambda_c") / 2
    rel = abs(resp.radius.magnitude - half_compton) / half_compton
    ok = rel <= 1e-12
    report(3, "closed radius at gap ratio 2 equals half the reduced Compton "
              "wavelength within 1e-12", ok, f"rel dev {rel:.2e}")
    assert ok


def test_criterion_04_closure_identity_property(reg):
    rng = random.Random(20260809)
    c2 = reg.quantity("c") ** 2
    worst = 0.0
    for _ in range(100):
        mass = reg.quantity("m_e") * 10 ** rng.uniform(-2, 4)
        charge = reg.quantity("e") * rng.uniform(0.1, 3.0)
        kappa = rng.uniform(0.1, 10.0)
        g = rng.choice((1.0, 2.0))
        conv = rng.choice((VolumeConvention.CUBE, VolumeConvention.SPHERE))
        p = OscillatorParams.from_gap_ratio(kappa, mass, charge, g, conv, reg)
        resp = maxwell_closure(p, reg)
        identity = (resp.eps_tilde * resp.mu_tilde * c2).magnitude
        worst = max(worst, abs(identity - 1.0))
    ok = worst <= 1e-12
    report(4, "closure identity eps*mu*c^2 = 1 within 1e-12 over 100 random "
              "parameter sets", ok, f"worst dev {worst:.2e}")
    assert ok


def test_criterion_05_species_count_simple(reg):
    n1 = 1.0 / (4 * math.pi * reg.value("alpha"))
    n2 = n1 / 2
    library_ok = all(
        math.isclose(required_species_count(kappa, SpeciesModel.SIMPLE, reg), n,
                     rel_tol=1e-12)
        for kappa, n in ((1.0, n1), (2.0, n2))
    )
    cli = run_cli("species", "--gap-ratio", "1")
    cli_n1 = next(
        (float(line.split()[1]) for line in cli.stdout.splitlines()
         if line.startswith("count_simple")),
        math.nan,
    )
    note_ok = "near ten" in cli.stderr and "gap ratio 1" in cli.stderr
    # The old centre 10.906 was twice the already-rounded 5.453; the stated value is
    # that of the defining formula, 1/(4 pi alpha) = 10.904978 (10.905 at 3 decimals).
    ok_k1 = abs(n1 - 10.905) <= 0.001
    ok_k2 = abs(n2 - 5.452) <= 0.001
    cli_ok = abs(cli_n1 - 10.905) <= 0.001
    report(5, "simple-model species count is 1/(4 pi alpha) = 10.905 +/- 0.001 at gap "
              "ratio 1 and 5.452 +/- 0.001 at gap ratio 2, in the library and the "
              "species report, with the near-ten phrasing flagged",
           ok_k1 and ok_k2 and library_ok and cli_ok and note_ok,
           f"computed {n1:.6f} and {n2:.6f}, species report {cli_n1:.6f}")
    assert ok_k1, f"count at gap ratio 1 is {n1:.6f}, outside 10.905 +/- 0.001"
    assert ok_k2, f"count at gap ratio 2 is {n2:.6f}, outside 5.452 +/- 0.001"
    assert library_ok, "required_species_count differs from 1/(4 pi alpha kappa)"
    assert cli_ok, f"species report count at gap ratio 1 is {cli_n1:.6f}, outside 10.905 +/- 0.001"
    assert note_ok, "species report does not flag the near-ten phrasing at gap ratio 1"


def test_criterion_06_species_count_sphere(reg):
    n = 1.0 / (3 * reg.value("alpha")) * 2.5**1.5 / 2.0
    ok = abs(n - 90.3) <= 0.5
    report(6, "sphere-model species count at gap ratio 2 is 90.3 +/- 0.5", ok,
           f"computed {n:.4f}")
    assert ok


def test_criterion_07_uniform_sphere_geometry():
    exact = mean_square_orbit_radius(Quantity(1.0, LENGTH)).magnitude
    exact_ok = exact == 0.4
    rng = np.random.default_rng(20260809)
    n = 10**6
    direction = rng.standard_normal((n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = rng.random(n) ** (1 / 3)
    points = direction * radius[:, None]
    estimate = float((points[:, 0] ** 2 + points[:, 1] ** 2).mean())
    mc_ok = abs(estimate - 0.4) <= 0.002
    ok = exact_ok and mc_ok
    report(7, "mean-square orbit radius over the unit ball is 0.400 exactly and "
              "by seeded Monte Carlo within 0.002", ok, f"MC estimate {estimate:.5f}")
    assert ok


def test_criterion_08_schwinger_field_and_guard(reg):
    field = reg.quantity("E_S")
    value_ok = abs(field.magnitude - 1.32e18) <= 0.005e18
    magnitude_ok = 1e18 <= field.magnitude < 1e19
    dim_ok = field.dimension == parse_unit("V/m")[1]
    params = OscillatorParams.for_electron(2.0, 2.0, VolumeConvention.CUBE, reg)
    try:
        probe_response(params, field, registry=reg)[0]
        guard_ok = False
    except FieldTooStrongError:
        guard_ok = True
    with pytest.warns(WeakFieldWarning):
        probe_response(params, 0.5 * field, registry=reg)[0]
    ok = value_ok and magnitude_ok and dim_ok and guard_ok
    report(8, "critical field derives to 1.32e18 V/m and the weak-field guard "
              "rejects fields at or above it", ok, f"computed {field.magnitude:.4e}")
    assert ok


def test_criterion_09_standard_model_sum(reg):
    table = default_species_table()
    weight = charge_weighted_sum(table)
    exact_ok = weight == Fraction(8)
    match = gap_for_exact_match(table, SpeciesModel.SIMPLE, reg)
    total = total_permittivity(table, match.gap_ratio, reg)
    rel = abs(total.magnitude - reg.value("eps0")) / reg.value("eps0")
    back_ok = rel <= 1e-12
    ok = exact_ok and back_ok
    report(9, "bundled charge-weighted sum is exactly 8 and back-substitution "
              "reproduces the measured permittivity within 1e-12", ok,
           f"sum {weight}, back-substitution rel dev {rel:.2e}")
    assert ok


def test_criterion_10_mass_independence(reg):
    ratios = []
    for mass_key in ("m_e", "m_mu"):
        p = OscillatorParams.from_gap_ratio(
            2.0, reg.quantity(mass_key), reg.quantity("e"), 2.0, VolumeConvention.CUBE, reg
        )
        ratios.append(maxwell_closure(p, reg).eps_ratio)
    rel = abs(ratios[0] - ratios[1]) / ratios[0]
    ok = rel <= 1e-12
    report(10, "deviation ratio is identical for electron- and muon-mass "
               "parameters at equal gap ratio", ok, f"rel dev {rel:.2e}")
    assert ok


# Stable identifiers of every checked relation, in report order.
EQUATION_NAMES = (
    "polarization-density",
    "electric-displacement",
    "oscillator-force-balance",
    "induced-dipole-moment",
    "vacuum-polarization",
    "permittivity-estimate",
    "magnetic-h-field",
    "magnetization-density",
    "induced-vortex-field",
    "angular-momentum-kick",
    "gyromagnetic-relation",
    "pair-magnetic-moment",
    "permeability-estimate",
    "light-speed-closure",
    "consistency-radius",
    "gap-scaled-permittivity",
    "fine-structure-form",
    "charge-weighted-total",
    "species-count-inversion",
    "orbit-mean-square-radius",
    "sphere-consistency-radius",
    "refined-permittivity",
    "refined-species-count",
    "critical-field",
)


def test_criterion_11_dimensional_soundness(reg, tmp_path):
    results = run_dimension_checks(reg)
    names_ok = tuple(r.name for r in results) == EQUATION_NAMES
    all_ok = all(r.ok for r in results)
    cli_ok = run_cli("check-dimensions").returncode == 0

    from vacuumresponse.constants import bundled_constants_path

    corrupted = tmp_path / "constants.tsv"
    corrupted.write_text(
        bundled_constants_path().read_text(encoding="utf-8").replace("A s / (V m)", "V/m"),
        encoding="utf-8",
    )
    fault = run_cli("check-dimensions", "--constants", str(corrupted))
    fault_ok = (
        fault.returncode == 1
        and fault.stdout == ""
        and len(fault.stderr.splitlines()) == 1
        and "the constants give eps0 [" in fault.stderr
    )
    ok = names_ok and all_ok and cli_ok and fault_ok
    report(11, "every model relation passes the dimension check and a "
               "wrong-unit constant fails the run", ok,
           f"{sum(r.ok for r in results)}/{len(results)} checks pass")
    assert ok


def test_criterion_12_parser_and_algebra_properties(reg):
    from vacuumresponse.units import format_dimension as fmt, parse_unit as parse

    rng = random.Random(1859)
    round_trip_ok = True
    for _ in range(1000):
        d = Dimension(
            *(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4))) for _ in range(7))
        )
        scale, parsed = parse(fmt(d))
        if scale != 1.0 or parsed != d:
            round_trip_ok = False
            break

    group_ok = True
    for _ in range(200):
        a, b, c = (
            Dimension(
                *(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(7))
            )
            for _ in range(3)
        )
        if (a * b) * c != a * (b * c) or a * a.inverse() != DIMENSIONLESS:
            group_ok = False
            break

    alpha_si = reg.value("alpha")
    e_gauss = render_quantity(reg.quantity("e"), "gaussian")[0]
    erg_per_joule = render_quantity(Quantity(1.0, parse_unit("J")[1]), "gaussian")[0]
    cm_per_metre = render_quantity(Quantity(1.0, LENGTH), "gaussian")[0]
    alpha_gauss = e_gauss**2 / (
        (reg.value("hbar") * erg_per_joule) * (reg.value("c") * cm_per_metre)
    )
    alpha_rel = abs(alpha_gauss - alpha_si) / alpha_si
    alpha_ok = alpha_rel <= 1e-9

    ok = round_trip_ok and group_ok and alpha_ok
    report(12, "1000-case parse/format round trip, dimension group laws, and "
               "cross-system fine-structure agreement within 1e-9", ok,
           f"alpha rel dev {alpha_rel:.2e}")
    assert ok


def test_criterion_13_determinism(tmp_path):
    outputs = {}
    for fmt, suffix in (("csv", "csv"), ("svg", "svg")):
        paths = []
        for attempt in (1, 2):
            out = tmp_path / f"sweep-{attempt}.{suffix}"
            result = run_cli(
                "sweep", "--kappa-min", "0.5", "--kappa-max", "4", "--points", "16",
                "--conventions", "cube,sphere", "--format", fmt, "--out", str(out),
            )
            assert result.returncode == 0
            paths.append(out.read_bytes())
        outputs[fmt] = paths[0] == paths[1]
    ok = outputs["csv"] and outputs["svg"]
    report(13, "repeated identical sweeps produce byte-identical CSV and SVG", ok,
           f"csv identical: {outputs['csv']}, svg identical: {outputs['svg']}")
    assert ok
