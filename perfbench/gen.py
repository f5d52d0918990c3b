"""Seeded inputs for the three benchmark workloads.

Everything the program sees is generated here from the workload seed: the
argv of each CLI invocation and the unit expressions of the library caller.
The same seed always gives the same inputs.  The unit expressions come with
the exponent vector and scale that the benchmark itself computes with
``Fraction`` arithmetic, so the program's answers can be checked against an
independent oracle.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterator

CONVENTIONS = ("cube", "cube-compton", "cube-half-compton", "sphere")
SWEEP_FORMATS = ("csv", "json", "svg")

# sweep-bulk: every invocation writes SWEEP_POINTS x 4 conventions x 2 g rows,
# so the per-row model cost dominates interpreter start.
SWEEP_POINTS = 80
SWEEP_G_FACTORS = ("1", "2")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def sweep_bulk_argvs(seed: int) -> Iterator[list[str]]:
    """Endless bulk sweeps: seeded gap-ratio ranges, formats rotate csv/json/svg."""
    rng = _rng("sweep-bulk", seed)
    for index in itertools.count():
        kappa_min = rng.uniform(0.25, 1.5)
        kappa_max = kappa_min + rng.uniform(1.0, 6.0)
        yield [
            "sweep",
            "--kappa-min", f"{kappa_min:.4f}",
            "--kappa-max", f"{kappa_max:.4f}",
            "--points", str(SWEEP_POINTS),
            "--conventions", ",".join(CONVENTIONS),
            "--g-factors", ",".join(SWEEP_G_FACTORS),
            "--format", SWEEP_FORMATS[index % len(SWEEP_FORMATS)],
        ]


# cli-oneshot: one cycle is this fixed mix of short invocations.  Two of the
# ten slots are 64-point sweeps, the slowest short command, so the 90th
# percentile falls inside that group rather than on a boundary between groups.
ONESHOT_CYCLE = 10

# Probe fields stay below 1e13 V/m, three decades under the electron's
# critical field (1.32e18 V/m) and under the model's weak-field warning.
_FIELD_UNITS = (("V/m", 1.0), ("kV/m", 1e3), ("MV/m", 1e6), ("mV/m", 1e-3))


def _estimate_args(rng: random.Random) -> list[str]:
    return [
        "estimate",
        "--gap-ratio", f"{rng.uniform(0.25, 6.0):.5g}",
        "--convention", rng.choice(CONVENTIONS),
        "--g-factor", rng.choice(("1", "1.5", "2", "2")),
    ]


def _probe_field(rng: random.Random) -> str:
    unit, scale = rng.choice(_FIELD_UNITS)
    volts_per_metre = 10.0 ** rng.uniform(-3.0, 13.0)
    return f"{volts_per_metre / scale:.6g} {unit}"


def _short_sweep(rng: random.Random, fmt: str) -> list[str]:
    kappa_min = rng.uniform(0.25, 1.5)
    kappa_max = kappa_min + rng.uniform(1.0, 6.0)
    return [
        "sweep",
        "--kappa-min", f"{kappa_min:.4f}",
        "--kappa-max", f"{kappa_max:.4f}",
        "--format", fmt,
    ]


def cli_oneshot_argvs(seed: int) -> Iterator[list[str]]:
    """Endless cycles over all five subcommands with seeded arguments."""
    rng = _rng("cli-oneshot", seed)
    for cycle in itertools.count():
        yield _estimate_args(rng)
        yield _estimate_args(rng) + ["--format", "csv"]
        yield _estimate_args(rng) + ["--format", "json"]
        yield _estimate_args(rng) + ["--probe-field", _probe_field(rng)]
        yield _estimate_args(rng) + ["--units", "gaussian", "--probe-field", _probe_field(rng)]
        yield ["species", "--gap-ratio", f"{rng.uniform(0.25, 6.0):.5g}"]
        yield ["check-dimensions"]
        yield ["constants", "--derived"]
        yield _short_sweep(rng, "csv")
        yield _short_sweep(rng, ("json", "svg")[cycle % 2])


# --- unit expressions for units-distinct ---------------------------------

# Exponents over (length, mass, time, current, temperature, amount,
# luminosity) and the scale to the coherent SI unit, written out here
# independently of the program's unit registry.
UNITS: dict[str, tuple[float, tuple[int, ...]]] = {
    "m": (1.0, (1, 0, 0, 0, 0, 0, 0)),
    "kg": (1.0, (0, 1, 0, 0, 0, 0, 0)),
    "s": (1.0, (0, 0, 1, 0, 0, 0, 0)),
    "A": (1.0, (0, 0, 0, 1, 0, 0, 0)),
    "K": (1.0, (0, 0, 0, 0, 1, 0, 0)),
    "mol": (1.0, (0, 0, 0, 0, 0, 1, 0)),
    "cd": (1.0, (0, 0, 0, 0, 0, 0, 1)),
    "Hz": (1.0, (0, 0, -1, 0, 0, 0, 0)),
    "N": (1.0, (1, 1, -2, 0, 0, 0, 0)),
    "J": (1.0, (2, 1, -2, 0, 0, 0, 0)),
    "W": (1.0, (2, 1, -3, 0, 0, 0, 0)),
    "C": (1.0, (0, 0, 1, 1, 0, 0, 0)),
    "V": (1.0, (2, 1, -3, -1, 0, 0, 0)),
    "F": (1.0, (-2, -1, 4, 2, 0, 0, 0)),
    "T": (1.0, (0, 1, -2, -1, 0, 0, 0)),
    "H": (1.0, (2, 1, -2, -2, 0, 0, 0)),
    "eV": (1.602176634e-19, (2, 1, -2, 0, 0, 0, 0)),
    "g": (1e-3, (0, 1, 0, 0, 0, 0, 0)),
}

# Bare symbols weigh three times as much as each prefix.
_PREFIXES = (("", 1.0),) * 3 + (
    ("m", 1e-3), ("k", 1e3), ("u", 1e-6), ("n", 1e-9), ("M", 1e6), ("G", 1e9), ("c", 1e-2),
)
_EXPONENTS = tuple(
    Fraction(text)
    for text in ("1", "1", "1", "2", "3", "-1", "-2", "1/2", "-1/2", "1/3", "-1/3",
                 "2/3", "-2/3", "3/2", "1/5", "2/5", "-3/4", "1/7")
)
_GROUP_EXPONENTS = tuple(Fraction(text) for text in ("1", "2", "-1", "1/2", "1/3", "-2/3"))

# Expressions whose scale lies outside 1e-60..1e60 are drawn again, so that
# every product or quotient of two scales stays far inside the float range
# and no operation overflows or underflows.
SCALE_RANGE = (1e-60, 1e60)

Vector = tuple[Fraction, ...]
ZERO: Vector = (Fraction(0),) * 7


def _power_text(exponent: Fraction) -> str:
    if exponent == 1:
        return ""
    if exponent.denominator == 1:
        return f"^{exponent.numerator}"
    return f"^{exponent.numerator}/{exponent.denominator}"


def _atom(rng: random.Random) -> tuple[str, float, Vector]:
    symbol = rng.choice(tuple(UNITS))
    scale, exps = UNITS[symbol]
    prefix, factor = rng.choice(_PREFIXES)
    # A prefixed name must not read as another bare unit ("k" + "g" is "kg").
    if symbol == "kg" or prefix + symbol in UNITS:
        prefix, factor = "", 1.0
    exponent = rng.choice(_EXPONENTS)
    vector = tuple(Fraction(a) * exponent for a in exps)
    return f"{prefix}{symbol}{_power_text(exponent)}", (factor * scale) ** float(exponent), vector


def _expression(rng: random.Random, allow_group: bool) -> tuple[str, float, Vector]:
    """A left-associative chain of factors joined by space, '*' or '/'."""
    text, scale, vector = "", 1.0, ZERO
    for index in range(rng.randint(1, 3)):
        if allow_group and rng.random() < 0.2:
            inner_text, inner_scale, inner_vector = _expression(rng, allow_group=False)
            exponent = rng.choice(_GROUP_EXPONENTS)
            part = f"({inner_text}){_power_text(exponent)}"
            part_scale = inner_scale ** float(exponent)
            part_vector = tuple(a * exponent for a in inner_vector)
        else:
            part, part_scale, part_vector = _atom(rng)
        op = " " if index == 0 else rng.choice((" ", " * ", " / "))
        if op == " / ":
            scale /= part_scale
            vector = tuple(a - b for a, b in zip(vector, part_vector))
        else:
            scale *= part_scale
            vector = tuple(a + b for a, b in zip(vector, part_vector))
        text = part if index == 0 else text + op + part
    return text, scale, vector


def unit_expressions(seed: int) -> Iterator[tuple[str, float, float, Vector]]:
    """Endless (expression, magnitude, expected scale, expected exponents)."""
    rng = _rng("units-distinct", seed)
    while True:
        text, scale, vector = _expression(rng, allow_group=True)
        if SCALE_RANGE[0] <= scale <= SCALE_RANGE[1]:
            yield text, rng.uniform(0.5, 2.0), scale, vector
