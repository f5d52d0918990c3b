"""Report rows, sweep grids, and deterministic CSV/JSON serialization.

Output is byte-reproducible: floats are always rendered in scientific
notation with 12 significant digits, rows are ordered gap-ratio major then
convention then g-factor, and nothing in the payload depends on wall-clock
or environment state.

Rows hold plain SI floats.  The dimensions of the eps_tilde, mu_tilde and
radius columns belong to the schema, ``COLUMN_DIMENSIONS`` beside
``CSV_HEADER``, and depend on neither the row nor the convention: they
follow from the dimensions of the constants, which the registry checks when
it is loaded and a row maker requires once.  Every row runs the model code
on the constants' float magnitudes; a row whose float chain fails runs again
on Quantities, to raise or return exactly what they do.  The serializers
look up the render factor of each schema column once per payload and write
each row with one format string.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .constants import ConstantRegistry, default_registry
from .dimensions import LENGTH, PERMEABILITY, PERMITTIVITY, Quantity, _checked_make
from .model import (
    OscillatorParams,
    RadiusRule,
    SpeciesModel,
    VolumeConvention,
    _gap,
    _pair,
    required_species_count,
    vacuum_response,
)
from .units import render_quantity

# Annotations only: ``typing`` is never loaded at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable

# CLI-facing convention tokens.  "cube" and "sphere" use the radius closed on
# the light-speed constraint; the remaining cubes pin the radius length scale.
CONVENTION_TOKENS: dict[str, VolumeConvention] = {
    "cube": VolumeConvention.cube(RadiusRule.MAXWELL_CONSISTENT),
    "cube-compton": VolumeConvention.cube(RadiusRule.COMPTON),
    "cube-half-compton": VolumeConvention.cube(RadiusRule.HALF_COMPTON),
    "sphere": VolumeConvention.sphere(),
}

# The most rows one sweep may have; the grid is held in memory.
MAX_SWEEP_ROWS = 100_000

CSV_HEADER = (
    "kappa",
    "convention",
    "g",
    "eps_tilde",
    "mu_tilde",
    "radius_m",
    "eps_ratio",
    "mu_ratio",
    "count_simple",
    "count_sphere",
)

# The SI dimensions of the eps_tilde, mu_tilde and radius columns; every
# other numeric column is a pure number.
COLUMN_DIMENSIONS = (PERMITTIVITY, PERMEABILITY, LENGTH)


ReportRow = namedtuple(
    "ReportRow",
    "kappa convention g eps_tilde mu_tilde radius eps_ratio mu_ratio count_simple count_sphere",
)


class SweepConfig(
    namedtuple(
        "SweepConfig",
        "kappa_min kappa_max points conventions g_factors",
        defaults=(0.5, 4.0, 64, ("cube",), (2.0,)),
    )
):
    __slots__ = ()
    _make = _checked_make

    def __new__(cls, *args, **kwargs) -> SweepConfig:
        self = super().__new__(cls, *args, **kwargs)
        # NaN fails every comparison, so finiteness is checked first.
        if not (math.isfinite(self.kappa_min) and math.isfinite(self.kappa_max)):
            raise ValueError("kappa_min and kappa_max must be finite")
        if self.kappa_min <= 0:
            raise ValueError("kappa_min must be > 0")
        if self.kappa_max < self.kappa_min:
            raise ValueError("kappa_max must be >= kappa_min")
        if isinstance(self.points, bool) or not isinstance(self.points, int):
            raise ValueError(f"points must be an int, got {self.points!r}")
        if self.points < 2:
            raise ValueError("a sweep needs at least 2 points")
        if not self.conventions:
            raise ValueError("at least one convention is required")
        for index, token in enumerate(self.conventions):
            if token not in CONVENTION_TOKENS:
                raise ValueError(
                    f"unknown convention {token!r}; choose from {', '.join(CONVENTION_TOKENS)}"
                )
            if token in self.conventions[:index]:
                raise ValueError(f"convention {token!r} is given more than once")
        if not self.g_factors:
            raise ValueError("at least one g-factor is required")
        for index, g in enumerate(self.g_factors):
            if not (math.isfinite(g) and g > 0):
                raise ValueError(f"g-factors must be finite and > 0, got {g!r}")
            if g in self.g_factors[:index]:
                raise ValueError(f"g-factor {g:g} is given more than once")
        rows = self.points * len(self.conventions) * len(self.g_factors)
        if rows > MAX_SWEEP_ROWS:
            raise ValueError(f"a sweep of {rows} rows exceeds the limit of {MAX_SWEEP_ROWS}")
        return self

    def kappas(self) -> list[float]:
        span = self.kappa_max - self.kappa_min
        step = span / (self.points - 1)
        return [self.kappa_min + i * step for i in range(self.points)]


# The constants a row reads, in the order of ``_float_columns``' arguments.
_READS = ("m_e", "e", "c", "hbar", "eps0", "mu0")


def _float_columns(
    kappa: float,
    g: float,
    conv: VolumeConvention,
    m: float,
    q: float,
    c: float,
    hbar: float,
    eps0: float,
    mu0: float,
) -> tuple[float, ...] | None:
    """eps, mu, radius and the two ratios of a row, computed on the constants' magnitudes.

    None where the row must run on Quantities to raise or return what they
    do: an error on floats, or a value of the chain that is not positive and
    finite (a float chain can turn an overflow back into 0, as 1/inf).
    """
    # Quantity arithmetic takes an int or float operand as float(x) and
    # rejects any other type.
    if not (isinstance(kappa, (int, float)) and isinstance(g, (int, float))):
        return None
    try:
        kappa, g = float(kappa), float(g)
        gap = _gap(kappa, m, c)
        w0, radius, volume, rho2, eps, mu = _pair(m, q, gap, g, conv, hbar, c)
        eps_ratio = eps / eps0
        mu_ratio = mu / mu0
    except (ArithmeticError, ValueError):
        return None
    for value in (gap, w0, radius, volume, rho2, eps, mu, eps_ratio, mu_ratio):
        if not 0.0 < value < math.inf:
            return None
    return eps, mu, radius, eps_ratio, mu_ratio


def _row_maker(convention: str, reg: ConstantRegistry) -> Callable[[float, float], ReportRow]:
    """The function of (kappa, g) that builds the rows of one convention.

    The constants' dimensions are required, and their magnitudes read, once,
    here.
    """
    reg.require_dimensions()
    conv = CONVENTION_TOKENS[convention]
    magnitudes = [reg.value(key) for key in _READS]

    def row(kappa: float, g: float) -> ReportRow:
        columns = _float_columns(kappa, g, conv, *magnitudes)
        if columns is None:
            # Quantities raise, or return, what the row must give.
            try:
                params = OscillatorParams.for_electron(kappa, g, conv, reg)
                response = vacuum_response(params, reg)
            except (ArithmeticError, ValueError) as exc:
                raise ValueError(
                    f"kappa {kappa:g}, convention {convention}, g {g:g}: {exc}"
                ) from exc
            eps, mu, radius = response.eps_tilde, response.mu_tilde, response.radius
            columns = (
                eps.magnitude, mu.magnitude, radius.magnitude, response.eps_ratio, response.mu_ratio
            )
        simple = required_species_count(kappa, SpeciesModel.SIMPLE, reg)
        sphere = required_species_count(kappa, SpeciesModel.SPHERE, reg)
        return ReportRow(kappa, convention, g, *columns, simple, sphere)

    return row


def build_row(
    kappa: float,
    convention: str,
    g: float,
    registry: ConstantRegistry | None = None,
) -> ReportRow:
    """Compute one grid point with electron-scale oscillator parameters.

    An input that takes the model out of the float range raises
    ``ValueError`` naming the grid point.
    """
    return _row_maker(convention, registry or default_registry())(kappa, g)


def sweep_rows(config: SweepConfig, registry: ConstantRegistry | None = None) -> list[ReportRow]:
    """Evaluate the full grid in deterministic row order.

    Grid points are independent pure computations; the sequential evaluation
    below is the reference order any parallel evaluation must reproduce.
    """
    reg = registry or default_registry()
    makers = [_row_maker(convention, reg) for convention in config.conventions]
    return [make(k, g) for k in config.kappas() for make in makers for g in config.g_factors]


# The one float format, and the format of each cell in CSV_HEADER order.
_FLOAT = "%.11e"
_CELLS = (_FLOAT, "%s", "%g", *(_FLOAT,) * 7)


def format_float(value: float) -> str:
    """Scientific notation with 12 significant digits; the one float format."""
    return _FLOAT % value


def _header(units: str) -> tuple[str, ...]:
    """``CSV_HEADER`` with the radius column named for the unit it is shown in."""
    if units == "gaussian":
        return (*CSV_HEADER[:5], "radius_cm", *CSV_HEADER[6:])
    return CSV_HEADER


def _lines(rows: list[ReportRow], units: str, template: str) -> list[str]:
    """Each row as ``template`` filled with its cells, dimensioned ones shown in ``units``."""
    eps_f, mu_f, radius_f = [
        render_quantity(Quantity(1.0, dim), units)[0] for dim in COLUMN_DIMENSIONS
    ]
    return [
        template % (
            kappa, convention, g, eps * eps_f, mu * mu_f, radius * radius_f,
            eps_ratio, mu_ratio, count_simple, count_sphere,
        )
        for kappa, convention, g, eps, mu, radius, eps_ratio, mu_ratio, count_simple, count_sphere
        in rows
    ]


def rows_to_csv(rows: list[ReportRow], units: str = "si") -> str:
    # Convention tokens and numeric cells never need CSV quoting.
    return "\r\n".join([",".join(_header(units)), *_lines(rows, units, ",".join(_CELLS)), ""])


def rows_to_json(rows: list[ReportRow], units: str = "si") -> str:
    # Assembled by hand so numeric cells keep the fixed 12-digit rendering.
    pairs = (
        f'"{name}": ' + ('"%s"' if name == "convention" else cell)
        for name, cell in zip(_header(units), _CELLS)
    )
    body = ",\n".join(_lines(rows, units, "  {" + ", ".join(pairs) + "}"))
    return f"[\n{body}\n]\n" if rows else "[\n]\n"
