"""Mechanical dimension checking of every model equation.

Each check evaluates both sides of one implemented relation through the
quantity algebra, pulling real values from the loaded constant registry, and
compares the resulting dimensions.  The side that names a relation runs the
code that computes it, a public model function (the light-speed closure runs
``maxwell_closure``) or a plain-value kernel of ``kernels``, so a dimensional
slip in that code fails its check.  The registry quantities carry the
dimensions parsed from the data file, and a file whose unit gives a required
constant the wrong dimension is refused when it is loaded, so a FAIL line
names a slip in the code, not in the data.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .constants import ConstantRegistry
from .dimensions import Dimension, Quantity
from .kernels import (
    VolumeConvention,
    _count_simple,
    _count_sphere,
    _deviation,
    _gyromagnetic_ratio,
)
from .model import (
    OscillatorParams,
    angular_momentum_kick,
    critical_field,
    effective_volume,
    fine_structure_form,
    induced_vortex_field,
    maxwell_closure,
    mean_square_orbit_radius,
    pair_magnetic_moment,
    probe_response,
    vacuum_response,
)
from .species import ParticleSpecies, SpeciesTable, total_permittivity
from .units import format_dimension, parse_unit


class CheckResult(namedtuple("CheckResult", "name description lhs rhs")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


# The dimension of the summed estimate does not depend on the species, so the
# check sums over one in memory rather than read and hash the bundled table.
_ELECTRON_ONLY = SpeciesTable((ParticleSpecies("electron", Fraction(-1)),))


def _dim(unit: str) -> Dimension:
    return parse_unit(unit)[1]


def run_dimension_checks(registry: ConstantRegistry) -> list[CheckResult]:
    """Evaluate every implemented relation and compare left/right dimensions."""
    c = registry.quantity("c")
    e = registry.quantity("e")
    m = registry.quantity("m_e")
    eps0 = registry.quantity("eps0")
    mu0 = registry.quantity("mu0")
    alpha = registry.quantity("alpha")

    cube = OscillatorParams.for_electron(2.0, 2.0, VolumeConvention.CUBE, registry)
    sphere = OscillatorParams.for_electron(2.0, 2.0, VolumeConvention.SPHERE, registry)
    w0 = cube.omega0(registry)
    kappa = cube.energy_gap / (m * c**2)

    E = Quantity(1.0, _dim("V/m"))
    B = Quantity(1.0, _dim("T"))
    Bdot = Quantity(1.0, _dim("T/s"))

    response = maxwell_closure(cube, registry)
    r, eps_t, mu_t = response.radius, response.eps_tilde, response.mu_tilde
    sphere_response = vacuum_response(sphere, registry)
    volume = effective_volume(cube, registry)
    x, dipole, pol = probe_response(cube, E, registry=registry)
    kick = angular_momentum_kick(cube, B, registry)
    moment = pair_magnetic_moment(cube, B, registry)
    magnetization = moment / volume

    one = Quantity(1.0).dimension

    checks = [
        CheckResult(
            "polarization-density",
            "dipole moment per effective volume is a polarization",
            (dipole / volume).dimension,
            _dim("C/m^2"),
        ),
        CheckResult(
            "electric-displacement",
            "eps0 E and P share the displacement dimension",
            (eps0 * E).dimension,
            pol.dimension,
        ),
        CheckResult(
            "oscillator-force-balance",
            "restoring force m w0^2 x balances the drive q E",
            (m * w0**2 * x).dimension,
            (e * E).dimension,
        ),
        CheckResult(
            "induced-dipole-moment",
            "q^2 E / (m w0^2) is an electric dipole moment",
            dipole.dimension,
            _dim("C m"),
        ),
        CheckResult(
            "vacuum-polarization",
            "q^2 E / (m w0^2 V) is a polarization",
            pol.dimension,
            _dim("C/m^2"),
        ),
        CheckResult(
            "permittivity-estimate",
            "q^2 / (m w0^2 V) carries the permittivity dimension",
            eps_t.dimension,
            _dim("A s / (V m)"),
        ),
        CheckResult(
            "magnetic-h-field",
            "B/mu0 and M share the H-field dimension",
            (B / mu0).dimension,
            magnetization.dimension,
        ),
        CheckResult(
            "magnetization-density",
            "magnetic moment per effective volume is a magnetization",
            magnetization.dimension,
            _dim("A/m"),
        ),
        CheckResult(
            "induced-vortex-field",
            "(r/2) dB/dt is an electric field",
            induced_vortex_field(r, Bdot).dimension,
            _dim("V/m"),
        ),
        CheckResult(
            "angular-momentum-kick",
            "q r^2 B / 2 is an angular momentum",
            kick.dimension,
            _dim("J s"),
        ),
        CheckResult(
            "gyromagnetic-relation",
            "(g q / 2m) J is a magnetic moment",
            (_gyromagnetic_ratio(cube.g_factor, e, m) * kick).dimension,
            _dim("A m^2"),
        ),
        CheckResult(
            "pair-magnetic-moment",
            "q^2 r^2 B / m is a magnetic moment",
            moment.dimension,
            _dim("A m^2"),
        ),
        CheckResult(
            "permeability-estimate",
            "m r / q^2 carries the permeability dimension",
            mu_t.dimension,
            _dim("V s / (A m)"),
        ),
        CheckResult(
            "light-speed-closure",
            "1/(eps mu) is a squared speed",
            (eps_t * mu_t).dimension,
            (c**-2).dimension,
        ),
        CheckResult(
            "consistency-radius",
            "c / w0 is a length",
            r.dimension,
            _dim("m"),
        ),
        CheckResult(
            "gap-scaled-permittivity",
            "kappa q^2 / (hbar c) matches the permittivity estimate",
            fine_structure_form(cube, registry)[0].dimension,
            eps_t.dimension,
        ),
        CheckResult(
            "fine-structure-form",
            "4 pi alpha kappa eps0 matches the measured-permittivity dimension",
            (_deviation(alpha, kappa) * eps0).dimension,
            eps0.dimension,
        ),
        CheckResult(
            "charge-weighted-total",
            "the summed species estimate matches the oscillator permittivity",
            total_permittivity(_ELECTRON_ONLY, 2.0, registry).dimension,
            eps_t.dimension,
        ),
        CheckResult(
            "species-count-inversion",
            "(1/4 pi alpha)(m c^2 / gap) is dimensionless",
            _count_simple(alpha, kappa).dimension,
            one,
        ),
        CheckResult(
            "orbit-mean-square-radius",
            "2/5 R^2 is an area",
            mean_square_orbit_radius(r).dimension,
            _dim("m^2"),
        ),
        CheckResult(
            "sphere-consistency-radius",
            "sqrt(5/2) hbar c / gap is a length",
            sphere_response.radius.dimension,
            _dim("m"),
        ),
        CheckResult(
            "refined-permittivity",
            "3 alpha (2/5)^(3/2) kappa eps0 keeps the permittivity dimension",
            (eps0 / _count_sphere(alpha, kappa)).dimension,
            sphere_response.eps_tilde.dimension,
        ),
        CheckResult(
            "refined-species-count",
            "(1/3 alpha)(5/2)^(3/2)(1/kappa) is dimensionless",
            _count_sphere(alpha, kappa).dimension,
            one,
        ),
        CheckResult(
            "critical-field",
            "m^2 c^3 / (q hbar) is an electric field",
            critical_field(cube, registry).dimension,
            _dim("V/m"),
        ),
    ]
    return checks


def render_report(results: list[CheckResult]) -> str:
    lines = []
    for result in results:
        verdict = "ok" if result.ok else "FAIL"
        lines.append(f"{verdict:4s} {result.name}: {result.description}")
        if not result.ok:
            lines.append(
                f"     left [{format_dimension(result.lhs)}] != right [{format_dimension(result.rhs)}]"
            )
    passed = sum(1 for r in results if r.ok)
    lines.append(f"{passed}/{len(results)} dimension checks passed")
    return "\n".join(lines)
