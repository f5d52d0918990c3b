#!/usr/bin/env python3
"""Benchmark of the vacuumresponse CLI and library.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-bulk --seed 3 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each was chosen):

* ``sweep-bulk``: fresh-process bulk sweeps, 640 rows each;
* ``cli-oneshot``: short fresh-process invocations of all five subcommands;
* ``units-distinct``: one in-process library caller parsing and combining
  unit expressions whose dimensions rarely repeat.

Load is a closed loop with one client: one CLI child or one library call at
a time.  With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it prints the per-layer metrics of a separate traced run.
Every output is checked; the last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import gen
import speed
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC_PATH = ROOT / "BENCHMARK.json"

WORKLOADS = ("sweep-bulk", "cli-oneshot", "units-distinct")

# Set-up: a fresh interpreter imports the CLI and loads the bundled tables.
SETUP_CODE = (
    "import vacuumresponse as vr, vacuumresponse.cli\n"
    "vr.default_registry()\n"
    "vr.default_species_table()\n"
)
SETUP_REPEATS = 9
START_REPEATS = 9
# Enough short invocations that ten samples lie beyond the 90th percentile.
MIN_ONESHOT_SAMPLES = 110
# Every child is killed at this point, so that a run ends within 180 s.
HARD_LIMIT_S = 165.0

# The power of the run's slowdown (see speed.py) that scales each raw
# workload metric to the reference machine.
SLOWDOWN_POWER = {
    "throughput_per_s": 1,
    "latency_p50_s": -1,
    "latency_p90_s": -1,
    "peak_rss_mb": 0,
}


class Child(NamedTuple):
    wall_s: float
    returncode: int
    rss_mb: float
    stdout: str
    stderr: str


class Run:
    """One benchmark run: its children, their checks and its time limit."""

    def __init__(self) -> None:
        self.started = self.measuring = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.calibration = speed.Calibration(0.0)  # set-up: beside every interpreter

    def spawn(self, argv: list[str]) -> Child:
        """Run one child to completion; wall time and peak RSS are its own."""
        self.calibration.tick()
        with open(WORK / "stdout", "w+b") as out, open(WORK / "stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            limit = max(self.started + HARD_LIMIT_S - start, 1.0)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                         out.read().decode("utf-8", "replace"), err.read().decode("utf-8", "replace"))

    def python(self, *args: str) -> Child:
        return self.spawn([sys.executable, *args])

    def record(self, what: str, reason: str | None) -> None:
        self.add(1, [] if reason is None else [f"{what}: {reason}"])

    def add(self, attempted: int, reasons: list[str], failed: int | None = None) -> None:
        """Count operations; ``failed`` defaults to the number of reasons given."""
        self.attempted += attempted
        self.failed += len(reasons) if failed is None else failed
        self.reasons += reasons

    def median_wall(self, code: str, repeats: int) -> float:
        """Median wall time of fresh interpreters running ``code``, after one warm-up."""
        walls = []
        for _ in range(repeats + 1):
            child = self.python("-c", code)
            if child.returncode != 0:
                raise SystemExit(f"error: python -c {code!r} failed:\n{child.stderr}")
            walls.append(child.wall_s)
        return statistics.median(walls[1:])

    def over(self, seconds: float) -> bool:
        """True once the workload has been measured for ``seconds``."""
        return time.perf_counter() - self.measuring >= seconds

    def hard_stop(self) -> bool:
        return time.perf_counter() - self.started >= HARD_LIMIT_S - 10.0


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[8]


def sweep_bulk(run: Run, seed: int, seconds: float) -> dict[str, float]:
    goldens = verify.load_goldens()
    by_argv = {tuple(g["argv"]): g for g in goldens}
    # Every run starts with the golden argvs, so each run checks the bytes.
    argvs = itertools.chain((g["argv"] for g in goldens), gen.sweep_bulk_argvs(seed))
    rows_each = gen.SWEEP_POINTS * len(gen.CONVENTIONS) * len(gen.SWEEP_G_FACTORS)
    walls, rates, rss = [], [], []
    for index, argv in enumerate(argvs):
        if index >= len(goldens) and (run.over(seconds) or run.hard_stop()):
            break
        out_path = WORK / f"sweep.{argv[argv.index('--format') + 1]}"
        out_path.unlink(missing_ok=True)
        child = run.python("-m", "vacuumresponse", *argv, "--out", str(out_path))
        payload = out_path.read_bytes() if out_path.exists() else b""
        reason = verify.check_output(argv, child.returncode, child.stderr,
                                     payload.decode("utf-8", "replace"))
        if reason is None and tuple(argv) in by_argv:
            reason = verify.check_golden(by_argv[tuple(argv)], payload)
        run.record(" ".join(argv), reason)
        walls.append(child.wall_s)
        rates.append(rows_each / child.wall_s)
        rss.append(child.rss_mb)
    print(f"# sweep-bulk: {len(walls)} invocations of {rows_each} rows; "
          f"throughput_per_s is sweep rows written per second of CLI wall time")
    return {
        "throughput_per_s": statistics.median(rates),
        "latency_p50_s": statistics.median(walls),
        "latency_p90_s": p90(walls),
        "peak_rss_mb": max(rss),
    }


def cli_oneshot(run: Run, seed: int, seconds: float) -> dict[str, float]:
    walls, rss = [], []
    for argv in gen.cli_oneshot_argvs(seed):
        if run.hard_stop() or (run.over(seconds) and len(walls) >= MIN_ONESHOT_SAMPLES):
            break
        child = run.python("-m", "vacuumresponse", *argv)
        run.record(" ".join(argv), verify.check_output(
            argv, child.returncode, child.stderr, child.stdout))
        walls.append(child.wall_s)
        rss.append(child.rss_mb)
    cycles = [walls[i:i + gen.ONESHOT_CYCLE]
              for i in range(0, len(walls) - gen.ONESHOT_CYCLE + 1, gen.ONESHOT_CYCLE)]
    print(f"# cli-oneshot: {len(walls)} invocations, {len(cycles)} full cycles; "
          f"throughput_per_s is invocations per second, median over cycles")
    return {
        "throughput_per_s": statistics.median(len(c) / sum(c) for c in cycles),
        "latency_p50_s": statistics.median(walls),
        "latency_p90_s": p90(walls),
        "peak_rss_mb": max(rss),
    }


def units_distinct(run: Run, seed: int, seconds: float) -> dict[str, float]:
    out_path = WORK / "units.json"
    out_path.unlink(missing_ok=True)
    child = run.python(str(HERE / "units_loop.py"), "--seed", str(seed),
                       "--seconds", str(seconds), "--out", str(out_path))
    if child.returncode != 0 or not out_path.exists():
        raise SystemExit(f"error: units-distinct worker exited {child.returncode}:\n{child.stderr}")
    result = json.loads(out_path.read_text(encoding="utf-8"))
    run.add(result["attempted"], [f"units-distinct: {r}" for r in result["failures"]],
            result["failed"])
    run.calibration.times += result["reference_times"]
    print(f"# units-distinct: {result['attempted']} expressions in {len(result['chunk_rates'])} "
          f"chunks; throughput_per_s is expressions per second, median over chunks")
    return {
        "throughput_per_s": statistics.median(result["chunk_rates"]),
        "latency_p50_s": result["p50_s"],
        "latency_p90_s": result["p90_s"],
        "peak_rss_mb": child.rss_mb,
    }


def traced(run: Run, workload: str, seed: int) -> dict[str, float]:
    start_s = run.median_wall("pass", START_REPEATS)
    import_s = run.median_wall("import vacuumresponse.cli", START_REPEATS)
    out_path = WORK / "layers.json"
    out_path.unlink(missing_ok=True)
    child = run.python(str(HERE / "traced.py"), "--workload", workload, "--seed", str(seed),
                       "--out", str(out_path))
    if child.returncode != 0 or not out_path.exists():
        raise SystemExit(f"error: traced run exited {child.returncode}:\n{child.stderr}")
    result = json.loads(out_path.read_text(encoding="utf-8"))
    run.add(result["attempted"], [f"traced replay: {r}" for r in result["failures"]],
            result["failed"])
    print(f"# traced replay of {workload}: {result['attempted']} operations; "
          f"spans in {WORK.name}/spans-{workload}.json")
    return {**result["metrics"], "python.start_s": start_s, "cli.import_s": import_s - start_s}


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the vacuumresponse CLI and library.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "vacuumresponse" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    speed.pin_to_one_cpu()
    run = Run()

    if args.trace:
        values = traced(run, args.workload, args.seed)
        units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
        for name, unit in units.items():
            print(f"{args.workload:15s} {name:38s} {values[name]:.6g} {unit}")
    else:
        setup_s = run.median_wall(SETUP_CODE, SETUP_REPEATS)
        # Set-up is scaled by the references timed beside it, the workload by its own.
        setup_slowdown = run.calibration.slowdown()
        run.calibration = speed.Calibration(speed.WORKLOAD_INTERVAL_S)
        measure = {"sweep-bulk": sweep_bulk, "cli-oneshot": cli_oneshot,
                   "units-distinct": units_distinct}[args.workload]
        run.measuring = time.perf_counter()
        raw = {"setup_s": setup_s, **measure(run, args.seed, args.seconds)}
        slowdown = run.calibration.slowdown()
        values = {"setup_s": setup_s / setup_slowdown}
        values.update((name, raw[name] * slowdown ** power) for name, power in SLOWDOWN_POWER.items())
        units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
        print(f"# slowdown against the reference machine: {setup_slowdown:.4f} during set-up, "
              f"{slowdown:.4f} during the workload (median of "
              f"{len(run.calibration.times)} reference runs)")
        for name, unit in units.items():
            print(f"{args.workload:15s} {name:20s} {values[name]:.6g} {unit}  "
                  f"(raw {raw[name]:.6g})")

    failed = run.failed
    for reason in run.reasons[:5]:
        print(f"# FAILED {reason}")
    print(f"{args.workload:15s} {'failed_fraction':20s} {failed / run.attempted:.6g} "
          f"({failed}/{run.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
