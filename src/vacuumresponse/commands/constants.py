"""``constants``: the loaded constants, one tab-separated line each."""

from __future__ import annotations

import argparse

from ..constants import ConstantRegistry
from ..units import format_float


def run(args: argparse.Namespace, registry: ConstantRegistry) -> tuple[int, str, list[str]]:
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
