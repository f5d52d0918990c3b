"""Report rows, sweep grids, and deterministic CSV/JSON serialization.

Output is byte-reproducible: floats are always rendered in scientific
notation with 12 significant digits, rows are ordered gap-ratio major then
convention then g-factor, and nothing in the payload depends on wall-clock
or environment state.

Rows hold plain SI floats.  The dimensions of the eps_tilde, mu_tilde and
radius columns belong to the schema, ``COLUMN_DIMENSIONS`` beside
``CSV_HEADER``, and depend on neither the row nor the convention: they
follow from the dimensions of the constants, which the registry checks when
it is loaded and each convention requires once.  A row is one float chain
of the model code on the constants' magnitudes.  Its values are checked
against (0, inf) once per point of ``build_row``, and once per corner of a
sweep's grid before any of its rows is computed; a value that leaves the
range raises one ``ValueError`` naming the point.  The serializers take
the factor and label of each schema column from ``units._unit``, the one
render step, once per payload, and write each row with one format string.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import units as _units
from .constants import ConstantRegistry
from .dimensions import LENGTH, PERMEABILITY, PERMITTIVITY, _checked_make
from .kernels import CONVENTION_TOKENS, VolumeConvention, _count_simple, _count_sphere, _gap, _pair


def _convention(token: str) -> VolumeConvention:
    """The member whose value is ``token``; a member itself is not a token."""
    if token not in CONVENTION_TOKENS:
        choices = ", ".join(CONVENTION_TOKENS)
        raise ValueError(f"unknown convention {token!r}; choose from {choices}")
    return VolumeConvention(token)


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
            _convention(token)
            if token in self.conventions[:index]:
                raise ValueError(f"convention {token!r} is given more than once")
        if not self.g_factors:
            raise ValueError("at least one g-factor is required")
        for index, g in enumerate(self.g_factors):
            # Only the grid's corners reach the row check, which rejects other types.
            if not isinstance(g, (int, float)):
                raise TypeError(f"g-factors must be int or float, got {g!r}")
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


# The constants a row reads, in the order of ``_chain``'s arguments after the convention.
_READS = ("m_e", "e", "c", "hbar", "eps0", "mu0", "alpha")

# The values of ``_chain``: four intermediates, then a row's numeric columns.
_CHAIN = ("gap", "w0", "volume", "rho2", *ReportRow._fields[3:])


def _chain(kappa, g, conv, m, q, c, hbar, eps0, mu0, alpha):
    """The model on floats at one point: the values named in ``_CHAIN``."""
    gap = _gap(kappa, m, c)
    w0, radius, volume, rho2, eps, mu = _pair(m, q, gap, g, conv, hbar, c)
    return (
        gap, w0, volume, rho2, eps, mu, radius,
        eps / eps0, mu / mu0, _count_simple(alpha, kappa), _count_sphere(alpha, kappa),
    )


def _constants(convention: str, reg: ConstantRegistry) -> tuple:
    """The arguments of ``_chain`` after (kappa, g), read once per sweep or row."""
    return (_convention(convention), *[reg.value(key) for key in _READS])


def _checked(kappa: float, convention: str, g: float, constants: tuple) -> tuple:
    """``_chain`` at one point, or one ``ValueError`` naming the point if it leaves (0, inf)."""
    if not (isinstance(kappa, (int, float)) and isinstance(g, (int, float))):
        raise TypeError(f"kappa and g must be int or float, got {kappa!r} and {g!r}")
    try:
        values = _chain(float(kappa), float(g), *constants)
    except (ArithmeticError, ValueError):
        reason = "the model leaves the float range"
    else:
        out = [(name, v) for name, v in zip(_CHAIN, values) if not 0.0 < v < math.inf]
        if not out:
            return values
        reason = "%s %g is outside (0, inf)" % out[0]
    raise ValueError(f"kappa {kappa:g}, convention {convention}, g {g:g}: {reason}")


def build_row(
    kappa: float,
    convention: str,
    g: float,
    registry: ConstantRegistry,
) -> ReportRow:
    """Compute one grid point with electron-scale oscillator parameters.

    An input that takes the model out of the float range raises
    ``ValueError`` naming the grid point; one that is not an int or a float
    raises ``TypeError``.
    """
    constants = _constants(convention, registry)
    return ReportRow(kappa, convention, g, *_checked(kappa, convention, g, constants)[4:])


def sweep_rows(config: SweepConfig, registry: ConstantRegistry) -> list[ReportRow]:
    """Evaluate the full grid in deterministic row order.

    A grid that leaves the float range raises before any row is computed.
    """
    kappas, gs = config.kappas(), config.g_factors
    # The corners decide the grid.  Every value of the chain is a product,
    # quotient, power or square root of positive floats in kappa and g, each
    # monotone in each operand under round-to-nearest.  So each value is
    # monotone in kappa and in g and is least and greatest at corners, and an
    # overflow or zero divisor that makes the chain raise anywhere does so at
    # a corner: if no corner leaves (0, inf), no row does.  (``**`` is the C
    # library's pow: an argument, not a proof, which a Hypothesis property
    # tests.)  kappas() is nondecreasing; its last entry, not kappa_max, is a corner.
    corners = [(k, g) for k in (kappas[0], kappas[-1]) for g in (min(gs), max(gs))]
    plans = []
    for convention in config.conventions:
        constants = _constants(convention, registry)
        for k, g in corners:
            _checked(k, convention, g, constants)
        plans.append((convention, constants))
    return [
        ReportRow(k, convention, g, *_chain(k, float(g), *constants)[4:])
        for k in kappas for convention, constants in plans for g in gs
    ]


# The format of each cell in CSV_HEADER order; every float cell has the one float format.
_CELLS = (_units._FLOAT, "%s", "%g", *(_units._FLOAT,) * 7)


# ``_units._unit`` is read from the module at each call, so a patched render
# step is the one a payload runs.
def _header(units: str) -> tuple[str, ...]:
    """``CSV_HEADER`` with the radius column named for the length unit of ``units``."""
    return (*CSV_HEADER[:5], "radius_" + _units._unit(LENGTH, units)[1], *CSV_HEADER[6:])


def _lines(rows: list[ReportRow], units: str, template: str) -> list[str]:
    """Each row as ``template`` filled with its cells, dimensioned ones shown in ``units``."""
    eps_f, mu_f, radius_f = [_units._unit(dim, units)[0] for dim in COLUMN_DIMENSIONS]
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
