"""Command-line front end.

Subcommands: estimate | sweep | species | check-dimensions | constants.
Exit codes: 0 success, 1 runtime or model error, 2 usage error.  ``_run`` alone
writes: the payload, and then, only if that succeeded, every warning and note
on stderr; a run that fails writes one ``error:`` line and nothing else.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from pathlib import Path

from .constants import ConstantRegistry, default_registry, load_constants
from .dimensions import ELECTRIC_FIELD, Quantity, _quantity_power
from .model import OscillatorParams, VolumeConvention, fine_structure_form, probe_response
from .report import (
    COLUMN_DIMENSIONS,
    CONVENTION_TOKENS,
    ReportRow,
    SweepConfig,
    build_row,
    format_float,
    rows_to_csv,
    rows_to_json,
    sweep_rows,
)
from .units import UNIT_SYSTEMS, UnitParseError, parse_unit, render_quantity

# Report rows hold SI floats; text output labels them by the schema's dimensions.
_EPS, _MU, _RADIUS = COLUMN_DIMENSIONS

GAUSSIAN_NOTE = (
    "note: gaussian output selected; permittivity-like values are dimensionless "
    "in this convention (the measured vacuum permittivity maps to 1/(4*pi)), "
    "and lengths are in cm"
)

# These two notes quote figures of the bundled constants, so they print only
# when no --constants file is given.
DEVIATION_NOTE = (
    "note: the cubic-model deviation factor is 0.0917 per unit gap ratio: "
    "about one-tenth at gap ratio 1, but 0.1834 at gap ratio 2"
)

COUNT_NOTE = (
    "note: a charge-weighted species count near ten corresponds to gap ratio 1 "
    "(10.905); at gap ratio 2 the simple model needs 5.452"
)


def _positive_float(parser: argparse.ArgumentParser, flag: str, value: float) -> float:
    if not (value > 0 and math.isfinite(value)):
        parser.error(f"{flag} must be > 0")
    return value


def _path(text: str) -> str:
    """The value of a PATH flag; an empty one names no file, so it is a usage error."""
    if not text:
        raise argparse.ArgumentTypeError("PATH must not be empty")
    return text


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
    return Quantity(value, dimension)


def _qty_text(q: Quantity, units: str) -> str:
    magnitude, unit = render_quantity(q, units)
    if unit == "1":
        return format_float(magnitude)
    return f"{format_float(magnitude)} {unit}"


def _row_text(row: ReportRow, extra: list[tuple[str, str]], units: str) -> str:
    pairs: list[tuple[str, str]] = [
        ("kappa", f"{row.kappa:g}"),
        ("convention", row.convention),
        ("g", f"{row.g:g}"),
        ("eps_tilde", _qty_text(Quantity(row.eps_tilde, _EPS), units)),
        ("mu_tilde", _qty_text(Quantity(row.mu_tilde, _MU), units)),
        ("radius", _qty_text(Quantity(row.radius, _RADIUS), units)),
        ("eps_ratio", format_float(row.eps_ratio)),
        ("mu_ratio", format_float(row.mu_ratio)),
        ("count_simple", format_float(row.count_simple)),
        ("count_sphere", format_float(row.count_sphere)),
    ]
    pairs.extend(extra)
    width = max(len(name) for name, _ in pairs)
    return "".join(f"{name:<{width}}  {value}\n" for name, value in pairs)


def cmd_estimate(
    args: argparse.Namespace, parser: argparse.ArgumentParser, registry: ConstantRegistry
) -> tuple[int, str, list[str]]:
    kappa = _positive_float(parser, "--gap-ratio", args.gap_ratio)
    g = _positive_float(parser, "--g-factor", args.g_factor)
    convention = args.convention
    field = None
    if args.probe_field is not None:
        field = _parse_quantity_flag(parser, "--probe-field", args.probe_field)
        if field.dimension != ELECTRIC_FIELD:
            parser.error("--probe-field must be an electric field (V/m)")
        if field.magnitude < 0:
            parser.error("--probe-field must be non-negative")

    row = build_row(kappa, convention, g, registry)
    conv = VolumeConvention(convention)
    params = OscillatorParams.for_electron(kappa, g, conv, registry)
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
    eps_mu = Quantity(closed.eps_tilde, _EPS) * Quantity(closed.mu_tilde, _MU)
    light_speed = _quantity_power(eps_mu, -1, 2)  # 1/sqrt(eps mu)

    extra: list[tuple[str, str]] = [("implied_light_speed", _qty_text(light_speed, args.units))]
    if conv is VolumeConvention.CUBE and g == 2.0:
        _, deviation = fine_structure_form(params, registry)
        extra.append(("deviation_factor", format_float(deviation)))

    if field is not None:
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


def cmd_sweep(
    args: argparse.Namespace, parser: argparse.ArgumentParser, registry: ConstantRegistry
) -> tuple[int, str, list[str]]:
    conventions = tuple(t for t in (s.strip() for s in args.conventions.split(",")) if t)
    g_factors = []
    for piece in args.g_factors.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            g_factors.append(float(piece))
        except ValueError:
            parser.error(f"--g-factors: bad value {piece!r}")
    try:
        config = SweepConfig(
            kappa_min=args.kappa_min,
            kappa_max=args.kappa_max,
            points=args.points,
            conventions=conventions,
            g_factors=tuple(g_factors),
        )
    except ValueError as exc:
        parser.error(str(exc))

    rows = sweep_rows(config, registry)
    # The chart plots the pure-number eps_ratio, which no unit system scales.
    notes = [GAUSSIAN_NOTE] if args.units == "gaussian" and args.format != "svg" else []

    if args.format == "svg":
        # Imported on use, so that csv/json and other subcommands start faster.
        from .svgchart import Series, sweep_chart

        # One list of points per series, in series order; rows fill them in row order.
        points = {(c, g): [] for c in config.conventions for g in config.g_factors}
        for row in rows:
            points[row.convention, row.g].append((row.kappa, row.eps_ratio))
        series = [
            Series(convention if len(config.g_factors) == 1 else f"{convention} g={g:g}", line)
            for (convention, g), line in points.items()
        ]
        payload = sweep_chart(series)
    elif args.format == "json":
        payload = rows_to_json(rows, args.units)
    else:
        payload = rows_to_csv(rows, args.units)
    return 0, payload, notes


def cmd_species(
    args: argparse.Namespace, parser: argparse.ArgumentParser, registry: ConstantRegistry
) -> tuple[int, str, list[str]]:
    # Imported on use: only this subcommand reads a species table.
    from .species import (
        SpeciesModel, bundled_species_path, charge_weighted_sum, gap_for_exact_match,
        load_species, required_species_count, total_permittivity,
    )

    kappa = _positive_float(parser, "--gap-ratio", args.gap_ratio)
    path = bundled_species_path() if args.species is None else args.species
    table = load_species(path, registry)
    weight = charge_weighted_sum(table)

    notes = ["warning: NoSpecies: the table contains no charged species"] if weight == 0 else []
    if args.constants is None:
        notes.append(COUNT_NOTE)

    lines: list[str] = []
    # The bundled table is named, not located, so stdout is the same in every checkout.
    source = "bundled:" + path.name if args.species is None else args.species
    lines.append(f"species_file        {source}")
    lines.append(f"sha256              {table.sha256}")
    lines.append(f"rows                {len(table.species)}")
    lines.append(f"charge_weighted_sum {weight} ({format_float(float(weight))})")
    total = total_permittivity(table, kappa, registry)
    if args.units == "gaussian":
        notes.append(GAUSSIAN_NOTE)
    lines.append(f"gap_ratio           {kappa:g}")
    lines.append(f"total_permittivity  {_qty_text(total, args.units)}")
    lines.append(
        f"count_simple        {format_float(required_species_count(kappa, SpeciesModel.SIMPLE, registry))}"
    )
    lines.append(
        f"count_sphere        {format_float(required_species_count(kappa, SpeciesModel.SPHERE, registry))}"
    )
    if weight != 0:
        for model in (SpeciesModel.SIMPLE, SpeciesModel.SPHERE):
            match = gap_for_exact_match(table, model, registry)
            lines.append(
                f"match_gap_{model.value:<9} ratio {format_float(match.gap_ratio)}  "
                f"energy {_qty_text(match.gap_energy, args.units)}"
            )
    return 0, "\n".join(lines) + "\n", notes


def cmd_check_dimensions(
    args: argparse.Namespace, parser: argparse.ArgumentParser, registry: ConstantRegistry
) -> tuple[int, str, list[str]]:
    # Imported on use, so that the other subcommands start faster.
    from .checks import render_report, run_dimension_checks

    results = run_dimension_checks(registry)
    return (0 if all(r.ok for r in results) else 1), render_report(results) + "\n", []


def cmd_constants(
    args: argparse.Namespace, parser: argparse.ArgumentParser, registry: ConstantRegistry
) -> tuple[int, str, list[str]]:
    release = registry.codata_release or "unspecified"
    lines: list[str] = []
    for record in registry.records():
        if record.source == "derived" and not args.derived:
            continue
        line = f"{record.key}\t{format_float(record.magnitude)}\t{record.unit_text}\t{record.source}"
        if record.definition:
            line += f"\t{record.definition}"
        lines.append(line + "\n")
    return 0, "".join(lines), [f"# codata release: {release}"]


# Each subcommand's function and the summary that top-level help lists.  A
# function returns its exit code, payload and notes; only ``_run`` writes them.
_COMMANDS = {
    "estimate": (cmd_estimate, "single-point model estimate"),
    "sweep": (cmd_sweep, "parameter sweep over the gap ratio"),
    "species": (cmd_species, "charge-weighted species analysis"),
    "check-dimensions": (cmd_check_dimensions, "dimension-check every model relation"),
    "constants": (cmd_constants, "list the loaded constants"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every subcommand's name and summary, and the flags of ``command`` alone."""
    parser = argparse.ArgumentParser(
        prog="vacuumresponse",
        description=(
            "Estimate the vacuum's linear electromagnetic response from a "
            "semi-classical virtual-pair oscillator model."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary) in _COMMANDS.items():
        # Each subcommand hands its own parser to its command, so a usage
        # error prints its own usage.
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func, parser=p)
    if command not in _COMMANDS:
        return parser

    # The flags the subcommand reads, in the order its usage lists them.
    p = sub.choices[command]
    p.add_argument(
        "--constants", type=_path, metavar="PATH", help="constants file (default: bundled)"
    )
    if command in ("estimate", "sweep", "species"):
        p.add_argument("--units", choices=UNIT_SYSTEMS, default="si", help="output unit system")
    p.add_argument("--out", type=_path, metavar="PATH", help="output path (default: stdout)")
    if command == "estimate":
        p.add_argument("--gap-ratio", type=float, default=2.0, help="transition energy / rest energy")
        p.add_argument(
            "--convention", choices=tuple(CONVENTION_TOKENS), default="cube", help="volume convention"
        )
        p.add_argument("--g-factor", type=float, default=2.0, help="gyromagnetic response factor")
        p.add_argument(
            "--probe-field",
            metavar="'MAG UNIT'",
            help="weak probe field, e.g. '1 V/m'; reports the induced response",
        )
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    elif command == "sweep":
        p.add_argument("--kappa-min", type=float, default=0.5)
        p.add_argument("--kappa-max", type=float, default=4.0)
        p.add_argument("--points", type=int, default=64)
        p.add_argument("--conventions", default="cube", help="comma-separated volume conventions")
        p.add_argument("--g-factors", default="2", help="comma-separated g-factors")
        p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    elif command == "species":
        p.add_argument(
            "--species", type=_path, metavar="PATH", help="species table (default: bundled)"
        )
        p.add_argument("--gap-ratio", type=float, default=2.0)
        p.add_argument("--format", choices=("text",), default="text")
    elif command == "constants":
        p.add_argument("--derived", action="store_true", help="include derived records")
    return parser


def main(argv: list[str] | None = None) -> int:
    # argparse ends a usage error (exit 2) and --help (exit 0) with
    # SystemExit; in-process callers get that code as the return value.
    try:
        return _run(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else exc.code


def _run(argv: list[str] | None) -> int:
    # Only the subcommand that runs needs its flags.  It is the first word
    # that names one, as no top-level flag takes a value.  Unknown flags are
    # reported by the subcommand, so that the usage shown lists its flags.
    argv = sys.argv[1:] if argv is None else argv
    command = next((word for word in argv if word in _COMMANDS), None)
    args, unknown = build_parser(command).parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")

    # Every model guard warning is recorded, and only for the length of this
    # call: in-process callers keep their own warning filters.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            registry = (
                default_registry() if args.constants is None else load_constants(args.constants)
            )
        except (OSError, ValueError) as exc:
            target = "bundled constants" if args.constants is None else args.constants
            print(f"error: cannot load constants from {target}: {exc}", file=sys.stderr)
            return 1

        try:
            code, payload, notes = args.func(args, args.parser, registry)
            if args.out is None:
                sys.stdout.write(payload)
                sys.stdout.flush()
            else:
                Path(args.out).write_text(payload, encoding="utf-8")
        except OSError as exc:
            # An OSError with a filename already names it in its message.
            suffix = "" if exc.filename else f" ({args.out or '<stdout>'})"
            print(f"error: {exc}{suffix}", file=sys.stderr)
            if not exc.filename and args.out is None and sys.stdout is sys.__stdout__:
                # The unwritten bytes stay in stdout's buffer, and the
                # interpreter's final flush would fail on them again: point
                # the process's stdout at the null device instead.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
            return 1
        except ValueError as exc:
            # Every model and table error derives from ValueError (field too
            # strong, convention mismatch, malformed rows, unit parse failures).
            print(f"error: {exc}", file=sys.stderr)
            return 1
    # Warnings print as one line without their source location.
    for w in caught:
        print(f"warning: {w.category.__name__}: {w.message}", file=sys.stderr)
    for note in notes:
        print(note, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
