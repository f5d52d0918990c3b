"""``species``: a species table's charge-weighted sum, total permittivity and matching gaps."""

from __future__ import annotations

import argparse

from ..cli import COUNT_NOTE, GAUSSIAN_NOTE, _positive_float, _qty_text
from ..constants import ConstantRegistry
from ..species import (
    SpeciesModel,
    bundled_species_path,
    charge_weighted_sum,
    gap_for_exact_match,
    load_species,
    required_species_count,
    total_permittivity,
)
from ..units import format_float


def run(args: argparse.Namespace, registry: ConstantRegistry) -> tuple[int, str, list[str]]:
    kappa = _positive_float(args.parser, "--gap-ratio", args.gap_ratio)
    path = bundled_species_path() if args.species is None else args.species
    table = load_species(path, registry)
    weight = charge_weighted_sum(table)

    notes = ["warning: NoSpecies: the table contains no charged species"] if weight == 0 else []
    if args.units == "gaussian":
        notes.append(GAUSSIAN_NOTE)
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
