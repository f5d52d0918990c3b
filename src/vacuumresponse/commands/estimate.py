"""``estimate``: one grid point, its light-speed closure and an optional probe."""

from __future__ import annotations

import argparse
import math
from itertools import zip_longest

from ..cli import COUNT_NOTE, GAUSSIAN_NOTE, _positive_float, _qty_text
from ..constants import ConstantRegistry
from ..dimensions import (
    DIMENSIONLESS, ELECTRIC_FIELD, PERMEABILITY, PERMITTIVITY, Quantity, _quantity_power,
)
from ..kernels import VolumeConvention, _deviation, _gap, _gap_ratio
from ..report import COLUMN_DIMENSIONS, ReportRow, build_row, rows_to_csv, rows_to_json
from ..units import UnitParseError, format_float, parse_unit

# Quotes figures of the bundled constants, as COUNT_NOTE does, so it prints
# only when no --constants file is given.
DEVIATION_NOTE = (
    "note: the cubic-model deviation factor is 0.0917 per unit gap ratio: "
    "about one-tenth at gap ratio 1, but 0.1834 at gap ratio 2"
)


def _parse_quantity_flag(parser: argparse.ArgumentParser, flag: str, text: str) -> Quantity:
    parts = text.strip().split(None, 1)
    if len(parts) != 2:
        parser.error(f"{flag} expects '<magnitude> <unit-expression>'")
    try:
        magnitude = float(parts[0])
    except ValueError:
        parser.error(f"{flag}: bad magnitude {parts[0]!r}")
    try:
        scale, dimension = parse_unit(parts[1])
    except UnitParseError as exc:
        parser.error(f"{flag}: {exc}")
    value = magnitude * scale
    if not math.isfinite(value):
        parser.error(f"{flag}: {text.strip()!r} is not a finite value")
    # float() reads a nonzero literal such as 1e-400 as 0.0 too, so the float of
    # the literal's mantissa, in any script's digits, tells a zero from an underflow.
    mantissa = parts[0].lower().partition("e")[0]
    if value == 0.0 and float(mantissa) != 0.0:
        parser.error(f"{flag}: {text.strip()!r} underflows to zero")
    # A zero is +0.0, so that "-0" prints as "0" does, with no sign.
    return Quantity(value or 0.0, dimension)


def _row_text(row: ReportRow, extra: list[tuple[str, str]], units: str) -> str:
    # The grid point, then the row's SI values: the first ones have the
    # schema's dimensions, and the others are pure numbers.
    kappa, convention, g, *values = row
    cells = [f"{kappa:g}", convention, f"{g:g}", *[
        _qty_text(Quantity(value, dim), units)
        for value, dim in zip_longest(values, COLUMN_DIMENSIONS, fillvalue=DIMENSIONLESS)
    ]]
    pairs = [*zip(ReportRow._fields, cells), *extra]
    width = max(len(name) for name, _ in pairs)
    return "".join(f"{name:<{width}}  {value}\n" for name, value in pairs)


def run(args: argparse.Namespace, registry: ConstantRegistry) -> tuple[int, str, list[str]]:
    kappa = _positive_float(args.parser, "--gap-ratio", args.gap_ratio)
    g = _positive_float(args.parser, "--g-factor", args.g_factor)
    convention = args.convention
    field = None
    if args.probe_field is not None:
        field = _parse_quantity_flag(args.parser, "--probe-field", args.probe_field)
        if field.dimension != ELECTRIC_FIELD:
            args.parser.error("--probe-field must be an electric field (V/m)")
        if field.magnitude < 0:
            args.parser.error("--probe-field must be non-negative")

    row = build_row(kappa, convention, g, registry)
    conv = VolumeConvention(convention)
    # Only text prints the light-speed closure and the deviation factor.
    extra: list[tuple[str, str]] = []
    if args.format == "text":
        # A closed convention's row is its own light-speed closure; a pinned
        # radius (a cube) is closed by the closed cube's row at the same point.
        closed = row
        if conv is not conv.closed:
            try:
                closed = build_row(kappa, conv.closed.value, g, registry)
            except ValueError as exc:
                raise ValueError(
                    f"the light-speed closure of convention {convention} failed: {exc}"
                ) from exc
        eps_mu = Quantity(closed.eps_tilde, PERMITTIVITY) * Quantity(closed.mu_tilde, PERMEABILITY)
        light_speed = _quantity_power(eps_mu, -1, 2)  # 1/sqrt(eps mu)
        extra.append(("implied_light_speed", _qty_text(light_speed, args.units)))
        if conv is VolumeConvention.CUBE and g == 2.0:
            m_e, c = registry.value("m_e"), registry.value("c")
            deviation = _deviation(registry.value("alpha"), _gap_ratio(_gap(kappa, m_e, c), m_e, c))
            extra.append(("deviation_factor", format_float(deviation)))

    if field is not None:
        from ..model import OscillatorParams, probe_response

        params = OscillatorParams.for_electron(kappa, g, conv, registry)
        names = ("probe_field", "probe_displacement", "probe_dipole_moment", "probe_polarization")
        responses = (field, *probe_response(params, field, registry=registry))
        extra.extend((name, _qty_text(value, args.units)) for name, value in zip(names, responses))

    notes = [GAUSSIAN_NOTE] if args.units == "gaussian" else []
    if args.constants is None:
        if conv is not VolumeConvention.SPHERE:
            notes.append(DEVIATION_NOTE)
        notes.append(COUNT_NOTE)

    if args.format == "text":
        return 0, _row_text(row, extra, args.units), notes
    if args.format == "csv":
        return 0, rows_to_csv([row], args.units), notes
    return 0, rows_to_json([row], args.units), notes
