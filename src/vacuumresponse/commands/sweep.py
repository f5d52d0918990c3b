"""``sweep``: the report rows of a grid of gap ratios, as CSV, JSON or an SVG chart."""

from __future__ import annotations

import argparse

from ..cli import GAUSSIAN_NOTE
from ..constants import ConstantRegistry
from ..report import SweepConfig, rows_to_csv, rows_to_json, sweep_rows


def run(args: argparse.Namespace, registry: ConstantRegistry) -> tuple[int, str, list[str]]:
    conventions = tuple(t for t in (s.strip() for s in args.conventions.split(",")) if t)
    g_factors = []
    for piece in args.g_factors.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            g_factors.append(float(piece))
        except ValueError:
            args.parser.error(f"--g-factors: bad value {piece!r}")
    try:
        config = SweepConfig(
            kappa_min=args.kappa_min,
            kappa_max=args.kappa_max,
            points=args.points,
            conventions=conventions,
            g_factors=tuple(g_factors),
        )
    except ValueError as exc:
        args.parser.error(str(exc))

    rows = sweep_rows(config, registry)
    # The chart plots the pure-number eps_ratio, which no unit system scales.
    notes = [GAUSSIAN_NOTE] if args.units == "gaussian" and args.format != "svg" else []

    if args.format == "svg":
        # Imported on use, so that a csv or json sweep starts faster.
        from ..svgchart import Series, sweep_chart

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
