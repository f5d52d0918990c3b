"""Semi-classical virtual-pair model of the vacuum's linear response.

A virtual charged pair is treated as a driven harmonic oscillator whose
resonance is set by the transition energy to the real bound pair.  In the
static, weak-field limit its induced electric dipole per effective
volume gives a vacuum permittivity estimate, and the gyromagnetic response
of the same pair gives a permeability estimate.  Requiring the product of
the two estimates to reproduce the measured light speed fixes the pair's
effective radius, which collapses both estimates onto a single dimensionless
deviation factor (4 pi alpha times the gap ratio for the cubic volume).

The four volume conventions are the members of ``VolumeConvention``: a cube
of side r, whose radius is closed on the light speed (``CUBE``) or pinned to
the reduced Compton wavelength or half of it (``CUBE_COMPTON``,
``CUBE_HALF_COMPTON``), and a uniformly charged solid sphere closed on the
light speed (``SPHERE``), for which the orbital mean-square radius 2/5 R^2
replaces r^2 in the magnetic chain and the volume is 4/3 pi R^3.

All estimator outputs are reported as positive magnitudes; only the induced
vortex field keeps its sign convention (it opposes the driving change).
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple

from .constants import ConstantRegistry
from .dimensions import (
    CHARGE,
    ELECTRIC_FIELD,
    ENERGY,
    LENGTH,
    MAGNETIC_FIELD,
    MASS,
    TIME,
    DimensionMismatchError,
    Quantity,
    _checked_make,
)
from .kernels import (
    VolumeConvention,
    _critical_field,
    _deviation,
    _gap,
    _gap_ratio,
    _gyromagnetic_ratio,
    _omega0,
    _orbit_mean_square,
    _pair,
    _radius,
    _volume,
)

# The paired antiparticle responds with the same sign as the particle, so the
# magnetic moment of the pair is twice the single-particle one.
PAIR_FACTOR = 2.0

# The weak-field guard: the model only states that the probe field is far
# below the critical field.  A field at or above it is refused, and one above
# this fraction of it is warned about.
WEAK_FIELD_WARN_FRACTION = 1e-2


class FieldTooStrongError(ValueError):
    """Probe field at or above the critical field strength."""


class ConventionMismatchError(ValueError):
    """Operation called with a volume convention it is not defined for."""


class WeakFieldWarning(UserWarning):
    """Probe field within two decades of the critical field."""


class OscillatorParams(
    namedtuple(
        "OscillatorParams",
        "mass charge energy_gap g_factor volume_convention",
        defaults=(2.0, VolumeConvention.CUBE),
    )
):
    """Inputs of the virtual-pair oscillator.

    ``mass``, ``charge`` and ``energy_gap`` are Quantities.  ``energy_gap``
    is the transition energy to the real pair state; the resonance frequency
    follows as gap/hbar.  ``g_factor`` selects the gyromagnetic response (1
    orbital, 2 spin; 2 is the default).
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, *args, **kwargs) -> OscillatorParams:
        self = super().__new__(cls, *args, **kwargs)
        if self.mass.dimension != MASS or self.mass.magnitude <= 0:
            raise ValueError("mass must be a positive mass quantity")
        if self.charge.dimension != CHARGE or self.charge.magnitude == 0:
            raise ValueError("charge must be a nonzero charge quantity")
        if self.energy_gap.dimension != ENERGY or self.energy_gap.magnitude <= 0:
            raise ValueError("energy gap must be a positive energy")
        if not (self.g_factor > 0 and math.isfinite(self.g_factor)):
            raise ValueError("g-factor must be positive and finite")
        if not isinstance(self.volume_convention, VolumeConvention):
            raise TypeError(
                f"volume_convention must be a VolumeConvention, got {self.volume_convention!r}"
            )
        return self

    def omega0(self, registry: ConstantRegistry) -> Quantity:
        return _omega0(self.energy_gap, registry.quantity("hbar"))

    def gap_ratio(self, registry: ConstantRegistry) -> float:
        """Gap energy in units of the particle's rest energy."""
        return _gap_ratio(self.energy_gap, self.mass, registry.quantity("c")).magnitude

    @classmethod
    def from_gap_ratio(
        cls,
        gap_ratio: float,
        mass: Quantity,
        charge: Quantity,
        g_factor: float,
        volume_convention: VolumeConvention,
        registry: ConstantRegistry,
    ) -> OscillatorParams:
        gap = _gap(gap_ratio, mass, registry.quantity("c"))
        return cls(mass, charge, gap, g_factor, volume_convention)

    @classmethod
    def for_electron(
        cls,
        gap_ratio: float,
        g_factor: float,
        volume_convention: VolumeConvention,
        registry: ConstantRegistry,
    ) -> OscillatorParams:
        m_e, e = registry.quantity("m_e"), registry.quantity("e")
        return cls.from_gap_ratio(gap_ratio, m_e, e, g_factor, volume_convention, registry)


class VacuumResponse(namedtuple("VacuumResponse", "eps_tilde mu_tilde radius eps_ratio mu_ratio")):
    """One evaluation of the model: both estimates, the radius, and deviation ratios."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, *args, **kwargs) -> VacuumResponse:
        self = super().__new__(cls, *args, **kwargs)
        for name in ("eps_tilde", "mu_tilde", "radius"):
            if getattr(self, name).magnitude <= 0:
                raise ValueError(f"{name} must be positive")
        if self.eps_ratio <= 0 or self.mu_ratio <= 0:
            raise ValueError("deviation ratios must be positive")
        return self


def critical_field(p: OscillatorParams, registry: ConstantRegistry) -> Quantity:
    """Critical field m^2 c^3 / (|q| hbar) for the params' own species."""
    return _critical_field(p.mass, abs(p.charge), registry.quantity("hbar"), registry.quantity("c"))


def probe_response(
    p: OscillatorParams,
    field: Quantity,
    registry: ConstantRegistry,
) -> tuple[Quantity, Quantity, Quantity]:
    """Response to one probe field: displacement x, dipole moment q x, polarization q x / V.

    The guard runs once, so each warning it raises is shown once.
    """
    if field.dimension != ELECTRIC_FIELD:
        raise DimensionMismatchError(
            f"probe field must have electric-field dimension, got [{field.dimension}]"
        )
    if field.magnitude < 0:
        raise ValueError("probe field amplitude must be non-negative")
    e_crit = critical_field(p, registry).magnitude
    if field.magnitude >= e_crit:
        raise FieldTooStrongError(
            f"field {field.magnitude:.3e} V/m is at or above the critical field "
            f"{e_crit:.3e} V/m; the linear weak-field model does not apply"
        )
    if field.magnitude > WEAK_FIELD_WARN_FRACTION * e_crit:
        warnings.warn(
            f"field {field.magnitude:.3e} V/m exceeds {WEAK_FIELD_WARN_FRACTION:g} of the "
            "critical field; linear response is marginal",
            WeakFieldWarning,
            stacklevel=2,
        )
    w0 = p.omega0(registry)
    displacement = abs(p.charge) * field / (p.mass * w0**2)
    dipole = abs(p.charge) * displacement
    conv = p.volume_convention
    hbar, c = registry.quantity("hbar"), registry.quantity("c")
    radius = _radius(conv, p.mass, p.g_factor, w0, hbar, c)
    return displacement, dipole, dipole / _volume(conv, radius)


def effective_radius(p: OscillatorParams, registry: ConstantRegistry) -> Quantity:
    """Radius selected by the volume convention.

    The consistent rule solves the light-speed closure for the radius:
    sqrt(2/g) c/w0 for the cube and sqrt(5/g) c/w0 for the sphere, which
    reduce to c/w0 and sqrt(5/2) c/w0 at the default spin response g = 2.
    """
    conv = p.volume_convention
    w0 = p.omega0(registry) if conv is conv.closed else None
    hbar, c = registry.quantity("hbar"), registry.quantity("c")
    return _radius(conv, p.mass, p.g_factor, w0, hbar, c)


def effective_volume(p: OscillatorParams, registry: ConstantRegistry) -> Quantity:
    """Volume per pair: r^3 for the cube, 4/3 pi R^3 for the uniform sphere."""
    return _volume(p.volume_convention, effective_radius(p, registry))


def _check_orbit_radius(radius: Quantity) -> None:
    if radius.dimension != LENGTH or radius.magnitude <= 0:
        raise ValueError("orbit radius must be a positive length")


def mean_square_orbit_radius(radius: Quantity) -> Quantity:
    """Mean squared distance to a central axis over a uniform solid ball: 2/5 R^2."""
    _check_orbit_radius(radius)
    return _orbit_mean_square(VolumeConvention.SPHERE, radius)


def induced_vortex_field(radius: Quantity, b_rate: Quantity) -> Quantity:
    """Azimuthal electric field -(r/2) dB/dt on a circular orbit (signed)."""
    _check_orbit_radius(radius)
    if b_rate.dimension != MAGNETIC_FIELD / TIME:
        raise DimensionMismatchError(
            f"expected a magnetic-field rate of change, got [{b_rate.dimension}]"
        )
    return -0.5 * radius * b_rate


def angular_momentum_kick(
    p: OscillatorParams, b_field: Quantity, registry: ConstantRegistry
) -> Quantity:
    """Angular momentum q <rho^2> B / 2 gained while the field is switched on."""
    if b_field.dimension != MAGNETIC_FIELD or b_field.magnitude < 0:
        raise ValueError("magnetic field must be a non-negative field amplitude")
    r = effective_radius(p, registry)
    conv = p.volume_convention
    if conv is VolumeConvention.SPHERE:
        _check_orbit_radius(r)
    return abs(p.charge) * _orbit_mean_square(conv, r) * b_field / 2


def pair_magnetic_moment(
    p: OscillatorParams, b_field: Quantity, registry: ConstantRegistry
) -> Quantity:
    """Induced magnetic moment of the pair.

    The gyromagnetic relation (g q / 2m) J applied to the angular-momentum
    kick, doubled for the antiparticle; at g = 2 and the cubic convention
    this reduces exactly to q^2 r^2 B / m.
    """
    kick = angular_momentum_kick(p, b_field, registry)
    return PAIR_FACTOR * _gyromagnetic_ratio(p.g_factor, abs(p.charge), p.mass) * kick


def vacuum_response(
    p: OscillatorParams, registry: ConstantRegistry
) -> VacuumResponse:
    """Evaluate the model once for the params' own convention.

    The permittivity estimate is the induced dipole per unit field over the
    volume, q^2 / (m w0^2 V).  The permeability estimate is the applied B
    over the induced magnetization; inverting the moment-per-volume chain
    gives 2 m V / (g q^2 <rho^2>), which is m r / q^2 for the cube at g = 2.
    w0, the radius and the volume are each computed once.
    """
    conv = p.volume_convention
    hbar, c = registry.quantity("hbar"), registry.quantity("c")
    _, radius, _, _, eps, mu = _pair(p.mass, p.charge, p.energy_gap, p.g_factor, conv, hbar, c)
    # The kernel also runs on floats, so the sphere's radius is checked here,
    # as mean_square_orbit_radius checks it.
    if conv is VolumeConvention.SPHERE:
        _check_orbit_radius(radius)
    return VacuumResponse(
        eps_tilde=eps,
        mu_tilde=mu,
        radius=radius,
        eps_ratio=(eps / registry.quantity("eps0")).magnitude,
        mu_ratio=(mu / registry.quantity("mu0")).magnitude,
    )


def maxwell_closure(
    p: OscillatorParams, registry: ConstantRegistry
) -> VacuumResponse:
    """Close the model on the light-speed constraint and return all outputs.

    The product of the two estimates is volume-independent, so requiring it
    to equal 1/c^2 fixes the radius within the chosen convention family.
    The implied light speed then reproduces the registry value identically.
    """
    return vacuum_response(p._replace(volume_convention=p.volume_convention.closed), registry)


def fine_structure_form(
    p: OscillatorParams, registry: ConstantRegistry
) -> tuple[Quantity, float]:
    """Gap-ratio form of the closed cubic estimate.

    Returns the permittivity estimate written as (gap ratio) q^2/(hbar c)
    together with the dimensionless deviation factor 4 pi alpha times the
    gap ratio.  Only defined for the cube with the consistent radius at the
    spin response g = 2, the regime in which the closure takes this form.
    """
    conv = p.volume_convention
    if conv is VolumeConvention.SPHERE:
        raise ConventionMismatchError("the gap-ratio form is defined for the cubic convention")
    if conv is not VolumeConvention.CUBE:
        raise ConventionMismatchError("the gap-ratio form requires the consistent radius rule")
    if p.g_factor != 2.0:
        raise ConventionMismatchError("the gap-ratio form is derived for the spin response g = 2")
    kappa = p.gap_ratio(registry)
    eps = kappa * p.charge**2 / (registry.quantity("hbar") * registry.quantity("c"))
    return eps, _deviation(registry.value("alpha"), kappa)
