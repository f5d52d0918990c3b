"""``check-dimensions``: the dimension check of every model relation; exit 1 if one fails."""

from __future__ import annotations

import argparse

from ..checks import render_report, run_dimension_checks
from ..constants import ConstantRegistry


def run(args: argparse.Namespace, registry: ConstantRegistry) -> tuple[int, str, list[str]]:
    results = run_dimension_checks(registry)
    return (0 if all(r.ok for r in results) else 1), render_report(results) + "\n", []
