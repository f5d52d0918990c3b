"""The paper's relations on plain values, and the volume conventions they dispatch on.

Every formula of the model is written once, here: the transition energy
and the gap ratio, the resonance frequency, each convention's radius,
volume and orbital mean-square radius, the pair's two estimates, the
deviation factor, the gyromagnetic ratio, the two species counts, and the
two relations that the derived constants share with the model (the reduced
Compton wavelength and the critical field).  These formulas touch their
operands only with *, /, ** and math.sqrt, so they run on Quantities,
where every dimension is checked, and on the Quantities' float magnitudes,
whose results they then give bit for bit.  Reusing a value keeps the bits;
reordering an operation does not.

This module imports nothing from the package, so a sweep, which runs the
kernels on floats, starts without the Quantity-level API of ``model``.
"""

from __future__ import annotations

import math
from enum import Enum


class VolumeConvention(Enum):
    """Rule assigning an effective volume (and orbit radius) to a pair.

    The value of each member is its CLI token.  ``CUBE`` and ``SPHERE`` close
    the radius on the light speed; the other cubes pin it to the reduced
    Compton wavelength or to half of it.
    """

    CUBE = "cube"
    CUBE_COMPTON = "cube-compton"
    CUBE_HALF_COMPTON = "cube-half-compton"
    SPHERE = "sphere"

    @property
    def closed(self) -> VolumeConvention:
        """The same shape with its radius closed on the light speed."""
        return self if self is VolumeConvention.SPHERE else VolumeConvention.CUBE


# CLI-facing convention tokens: the values of the VolumeConvention members.
CONVENTION_TOKENS = tuple(c.value for c in VolumeConvention)


def _compton(mass, hbar, c):
    """Reduced Compton wavelength hbar / (m c)."""
    return hbar / (mass * c)


def _critical_field(mass, charge, hbar, c):
    """Critical field m^2 c^3 / (q hbar) of a particle of charge magnitude ``q``."""
    return mass**2 * c**3 / (charge * hbar)


def _gap(gap_ratio, mass, c):
    """Transition energy: the gap ratio times the rest energy m c^2."""
    return gap_ratio * mass * c**2


def _gap_ratio(gap, mass, c):
    """Gap ratio: the transition energy in units of the rest energy m c^2."""
    return gap / (mass * c**2)


def _omega0(gap, hbar):
    """Resonance frequency gap/hbar; every w0 of the model is computed here."""
    return gap / hbar


def _radius(conv: VolumeConvention, mass, g, w0, hbar, c):
    """The convention's radius; only a closed convention reads w0 and g."""
    if conv is VolumeConvention.CUBE_COMPTON:
        return _compton(mass, hbar, c)
    if conv is VolumeConvention.CUBE_HALF_COMPTON:
        return _compton(2 * mass, hbar, c)
    closure = 5.0 if conv is VolumeConvention.SPHERE else 2.0
    return math.sqrt(closure / g) * c / w0


def _volume(conv: VolumeConvention, radius):
    if conv is VolumeConvention.SPHERE:
        return (4.0 * math.pi / 3.0) * radius**3
    return radius**3


# Mean squared distance to a central axis over a uniform solid ball, in R^2.
_BALL_MEAN_SQUARE = 2 / 5


def _orbit_mean_square(conv: VolumeConvention, radius):
    if conv is VolumeConvention.SPHERE:
        return _BALL_MEAN_SQUARE * radius**2
    return radius**2


def _pair(mass, charge, gap, g, conv: VolumeConvention, hbar, c):
    """w0, radius, volume, <rho^2>, eps and mu of one pair (see model.vacuum_response)."""
    w0 = _omega0(gap, hbar)
    radius = _radius(conv, mass, g, w0, hbar, c)
    volume = _volume(conv, radius)
    eps = charge**2 / (mass * w0**2 * volume)
    rho2 = _orbit_mean_square(conv, radius)
    mu = 2 * mass * volume / (g * charge**2 * rho2)
    return w0, radius, volume, rho2, eps, mu


def _deviation(alpha, kappa):
    """Deviation factor 4 pi alpha kappa: the closed cube's eps over eps0 at g = 2."""
    return 4 * math.pi * alpha * kappa


def _gyromagnetic_ratio(g, charge, mass):
    """Gyromagnetic ratio g q / 2m: magnetic moment per unit angular momentum."""
    return g * charge / (2 * mass)


def _count_simple(alpha, kappa):
    """Charge-weighted species count 1/(4 pi alpha kappa) that closes the cube on eps0."""
    return 1.0 / _deviation(alpha, kappa)


# Geometry constant of the uniform-sphere refinement: (5/2)^(3/2).
_SPHERE_GEOMETRY = (5.0 / 2.0) ** 1.5


def _count_sphere(alpha, kappa):
    """Charge-weighted species count (5/2)^(3/2) / (3 alpha kappa) for the sphere."""
    return _SPHERE_GEOMETRY / (3 * alpha * kappa)
