"""Command-line front end.

Subcommands: estimate | sweep | species | check-dimensions | constants.
Exit codes: 0 success, 1 runtime or model error, 2 usage error.  ``_run`` alone
writes: the payload, and then, only if that succeeded, every warning and note
on stderr; a run that fails writes one ``error:`` line and nothing else.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys
import warnings
from pathlib import Path

from .constants import default_registry, load_constants
from .dimensions import Quantity
from .kernels import CONVENTION_TOKENS
from .units import UNIT_SYSTEMS, format_float, render_quantity

GAUSSIAN_NOTE = (
    "note: gaussian output selected; permittivity-like values are dimensionless "
    "in this convention (the measured vacuum permittivity maps to 1/(4*pi)), "
    "and lengths are in cm"
)

# Quotes figures of the bundled constants, so it prints only when no
# --constants file is given.
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


def _qty_text(q: Quantity, units: str) -> str:
    magnitude, unit = render_quantity(q, units)
    if unit == "1":
        return format_float(magnitude)
    return f"{format_float(magnitude)} {unit}"


# Each subcommand and the summary that top-level help lists.  Its body is
# ``run`` of its module in ``commands``, imported only when it runs; ``run``
# returns the exit code, payload and notes, and only ``_run`` writes them.
_COMMANDS = {
    "estimate": "single-point model estimate",
    "sweep": "parameter sweep over the gap ratio",
    "species": "charge-weighted species analysis",
    "check-dimensions": "dimension-check every model relation",
    "constants": "list the loaded constants",
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
    for name, summary in _COMMANDS.items():
        # Each subcommand hands its own parser to its command, so a usage
        # error prints its own usage.
        p = sub.add_parser(name, help=summary)
        p.set_defaults(parser=p)
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
            "--convention", choices=CONVENTION_TOKENS, default="cube", help="volume convention"
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
    # The body of this subcommand, and of no other, is compiled and run.
    module = importlib.import_module(f".commands.{command.replace('-', '_')}", __package__)

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
            code, payload, notes = module.run(args, registry)
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
