"""The units-distinct workload: one in-process library caller.

Run as a child of ``run.py`` with the package on ``PYTHONPATH``:

    python3 perfbench/units_loop.py --seed 7 --seconds 30 --out result.json

Each operation parses a seeded unit expression into a quantity, multiplies
and divides it by the previous one, formats the product's dimension and
parses that text back.  Inputs are generated and results checked in
chunks, outside the timed region; the JSON written to ``--out`` holds the
per-operation latency quantiles, the throughput of every chunk and the
calibration reference runs timed between chunks (see speed.py).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import statistics
import time
from pathlib import Path

import gen
import speed
from vacuumresponse.dimensions import Quantity
from vacuumresponse.units import format_dimension, parse_unit, quantity

CHUNK = 500
FIELDS = ("length", "mass", "time", "current", "temperature", "amount", "luminosity")


def combine(text: str, magnitude: float, previous: Quantity) -> tuple:
    """One operation: parse, multiply, divide, and round-trip the product."""
    q = quantity(magnitude, text)
    product = q * previous
    quotient = q / previous
    return q, product, quotient, parse_unit(format_dimension(product.dimension))[1]


def exponents(q: Quantity) -> tuple:
    return tuple(getattr(q.dimension, field) for field in FIELDS)


def check(result: tuple, expected: tuple, previous: tuple) -> str | None:
    """Compare one operation with the benchmark's own exponent arithmetic."""
    q, product, quotient, back = result
    text, magnitude, scale, vector = expected
    if exponents(q) != vector:
        return f"{text!r}: dimension {exponents(q)} != {vector}"
    if exponents(product) != tuple(a + b for a, b in zip(vector, previous)):
        return f"{text!r}: product exponents are not the sums"
    if exponents(quotient) != tuple(a - b for a, b in zip(vector, previous)):
        return f"{text!r}: quotient exponents are not the differences"
    if back != product.dimension:
        return f"{text!r}: format_dimension does not round-trip"
    if not math.isclose(q.magnitude, magnitude * scale, rel_tol=1e-9):
        return f"{text!r}: magnitude {q.magnitude!r} != {magnitude * scale!r}"
    return None


class Loop:
    """Runs operations chunk by chunk and keeps their timings and failures."""

    def __init__(self, seed: int) -> None:
        self.inputs = gen.unit_expressions(seed)
        self.previous = Quantity(1.0)
        self.previous_vector = gen.ZERO
        self.latencies: list[float] = []
        self.chunk_rates: list[float] = []
        self.failures: list[str] = []

    def chunk(self, size: int = CHUNK) -> None:
        batch = list(itertools.islice(self.inputs, size))
        results, times = [], []
        previous = self.previous
        clock = time.perf_counter
        for text, magnitude, _, _ in batch:
            start = clock()
            try:
                result = combine(text, magnitude, previous)
            except Exception as exc:  # any raise is a failed operation, counted below
                result = exc
            else:
                previous = result[0]
            times.append(clock() - start)
            results.append(result)
        self.previous = previous
        self.latencies.extend(times)
        self.chunk_rates.append(len(batch) / sum(times))
        for expected, result in zip(batch, results):
            if isinstance(result, Exception):
                reason = f"{expected[0]!r}: {type(result).__name__}: {result}"
            else:
                reason = check(result, expected, self.previous_vector)
                self.previous_vector = expected[3]
            if reason is not None:
                self.failures.append(reason)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    loop = Loop(args.seed)
    calibration = speed.Calibration(speed.WORKLOAD_INTERVAL_S)
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        calibration.tick()
        loop.chunk()
    deciles = statistics.quantiles(loop.latencies, n=10)
    result = {
        "attempted": len(loop.latencies),
        "failed": len(loop.failures),
        "failures": loop.failures[:5],
        "chunk_rates": loop.chunk_rates,
        "p50_s": statistics.median(loop.latencies),
        "p90_s": deciles[8],
        "reference_times": calibration.times,
    }
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
