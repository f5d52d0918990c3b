"""Per-layer measurements: isolated timings, counters and a traced replay.

Run as a child of ``run.py --trace 1`` with the package on ``PYTHONPATH``:

    python3 perfbench/traced.py --workload sweep-bulk --seed 7 --out layers.json

It measures the nine modules from outside, in three parts:

* isolated timings of each module's public entry points, fixed repeat
  counts, medians;
* a counting replay that counts dimension operations, how many of them
  repeat operands already seen (the share an intern or memo table could
  serve) and how often the unit parser runs;
* a timed replay of the workload's first operations in this process,
  once untraced and once with every public function and method of the
  nine modules wrapped, giving each module's self time.

Spans of module-level functions are kept in memory and written next to
``--out`` when the run ends.  Methods of the modules' classes, which
include the per-operation dimension algebra, are aggregated into
per-name counters instead, so that storing spans does not swamp the run.
"""

from __future__ import annotations

import argparse
import contextlib
import enum
import functools
import importlib
import inspect
import io
import itertools
import json
import statistics
import sys
import time
import timeit
import traceback
from collections import defaultdict
from pathlib import Path

import gen
import units_loop
import verify
from vacuumresponse import checks, cli, constants, dimensions, report, species, svgchart, units

LAYERS = ("dimensions", "units", "constants", "species", "model", "report", "svgchart",
          "checks", "cli")
MODULES = {layer: importlib.import_module(f"vacuumresponse.{layer}") for layer in LAYERS}

# Dunder methods wrapped besides the public ones: construction and the
# arithmetic, comparison and container protocols the model code calls.
DUNDERS = frozenset((
    "__init__", "__post_init__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    "__pow__", "__add__", "__sub__", "__neg__", "__abs__", "__eq__", "__getitem__",
    "__contains__", "__iter__", "__len__",
))
DIMENSION_OPS = ("__mul__", "__truediv__", "__pow__", "inverse")

# Captured before any wrapping: each replayed invocation starts with these
# caches empty, as a fresh process would, so it loads both tables again.
TABLE_CACHE_CLEARS = tuple(
    fn.cache_clear for fn in (constants.default_registry, species.default_species_table)
    if hasattr(fn, "cache_clear")
)

REPEAT = 9
REPLAY_OPS = {"sweep-bulk": 3, "cli-oneshot": 2 * gen.ONESHOT_CYCLE, "units-distinct": 2000}


# --- isolated timings ------------------------------------------------------

def per_call(fn, number: int, scale: float) -> float:
    """Median over REPEAT batches of the time of one call, times ``scale``."""
    return statistics.median(timeit.repeat(fn, repeat=REPEAT, number=number)) / number * scale


def chart_series(rows, conventions, g_factors) -> list:
    """The series ``vacuumresponse sweep --format svg`` draws."""
    return [
        svgchart.Series(
            f"{convention} g={g:g}",
            [(row.kappa, row.eps_ratio) for row in rows if row.convention == convention and row.g == g],
        )
        for convention in conventions
        for g in g_factors
    ]


def isolated() -> dict[str, float]:
    registry = constants.default_registry()
    energy, charge = dimensions.ENERGY, dimensions.CHARGE
    q_energy, q_charge = dimensions.Quantity(1.5, energy), dimensions.Quantity(2.5, charge)
    g_factors = (1.0, 2.0)
    config = report.SweepConfig(points=64, conventions=gen.CONVENTIONS, g_factors=g_factors)
    rows = report.sweep_rows(config, registry)
    series = chart_series(rows, gen.CONVENTIONS, g_factors)
    metrics = {
        "dimensions.dim_mul_us": per_call(lambda: energy * charge, 200, 1e6),
        "dimensions.dim_pow_us": per_call(lambda: energy**2, 200, 1e6),
        "dimensions.qty_mul_us": per_call(lambda: q_energy * q_charge, 200, 1e6),
        "dimensions.qty_pow_us": per_call(lambda: q_energy**2, 200, 1e6),
        "units.parse_us": per_call(lambda: units.parse_unit("A s / (V m)"), 100, 1e6),
        "constants.load_ms": per_call(
            lambda: constants.load_constants(constants.bundled_constants_path()), 10, 1e3),
        "species.load_ms": per_call(
            lambda: species.load_species(species.bundled_species_path(), registry), 10, 1e3),
    }
    for convention in gen.CONVENTIONS:
        metrics[f"report.build_row_us.{convention}"] = per_call(
            lambda: report.build_row(2.0, convention, 2.0, registry), 20, 1e6)
    metrics["report.csv_us_per_row"] = per_call(lambda: report.rows_to_csv(rows), 5, 1e6) / len(rows)
    metrics["report.json_us_per_row"] = per_call(lambda: report.rows_to_json(rows), 5, 1e6) / len(rows)
    metrics["svgchart.us_per_point"] = per_call(
        lambda: svgchart.sweep_chart(series, x_label="gap ratio", y_label="ratio",
                                     reference_y=1.0, reference_label="measured"),
        5, 1e6) / len(rows)
    metrics["checks.run_ms"] = per_call(lambda: checks.run_dimension_checks(registry), 3, 1e3)
    return metrics


# --- patching every binding ------------------------------------------------

class Patches:
    """Replaces attributes and puts every one back on ``restore``."""

    def __init__(self) -> None:
        self.undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self.undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def rebind(self, original: object, replacement: object) -> None:
        """Replace ``original`` at every module-level name that is bound to it."""
        scopes = [m for name, m in list(sys.modules.items())
                  if name == "vacuumresponse" or name.startswith("vacuumresponse.")]
        for scope in scopes + [units_loop]:
            for name, value in list(vars(scope).items()):
                if value is original:
                    self.set(scope, name, replacement)

    def restore(self) -> None:
        for owner, name, value in reversed(self.undo):
            setattr(owner, name, value)
        self.undo.clear()


def public_callables():
    """(layer, owner, name, member) for each public function and class method."""
    for layer, module in MODULES.items():
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                if issubclass(obj, (BaseException, enum.Enum)):
                    continue
                for member_name, member in list(vars(obj).items()):
                    if member_name.startswith("_") and member_name not in DUNDERS:
                        continue
                    if isinstance(member, (classmethod, staticmethod)) or inspect.isfunction(member):
                        yield layer, obj, member_name, member
            elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                yield layer, module, name, obj


def _rewrap(member, wrap):
    if isinstance(member, classmethod):
        return classmethod(wrap(member.__func__))
    if isinstance(member, staticmethod):
        return staticmethod(wrap(member.__func__))
    return wrap(member)


class Tracer:
    """Times every wrapped call; a layer's self time excludes wrapped children."""

    def __init__(self) -> None:
        self.stack: list[list] = [[0, 0.0]]  # [span id, time covered by child calls]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.ids = itertools.count(1)
        self.patches = Patches()

    def wrap(self, layer: str, name: str, fn, keep_spans: bool):
        stack, spans, self_s, ids = self.stack, self.spans, self.self_s, self.ids
        stat = self.calls.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                parent[1] += duration
                self_s[layer] += own
                stat[0] += 1
                stat[1] += duration
                stat[2] += own
                if keep_spans:
                    spans.append((frame[0], parent[0], name, start, end))

        return traced

    def install(self) -> None:
        for layer, owner, name, member in list(public_callables()):
            if inspect.isclass(owner):
                qualified = f"{layer}.{owner.__name__}.{name}"
                wrapped = _rewrap(member, lambda f: self.wrap(layer, qualified, f, False))
                self.patches.set(owner, name, wrapped)
            else:
                self.patches.rebind(member, self.wrap(layer, f"{layer}.{name}", member, True))

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({
            "spans": [dict(zip(("id", "parent", "name", "start", "end"), s)) for s in self.spans],
            "calls": {name: dict(zip(("calls", "total_s", "self_s"), stat))
                      for name, stat in self.calls.items() if stat[0]},
            "self_s": dict(self.self_s),
        }), encoding="utf-8")


class Counters:
    """Counts dimension operations, repeated operands, values and unit parses."""

    def __init__(self) -> None:
        self.ops = 0
        self.repeats = 0
        self.keys: set = set()
        self.values: set = set()
        self.parse_calls = 0
        self.patches = Patches()

    def _value(self, dim) -> tuple:
        value = tuple(getattr(dim, field) for field in units_loop.FIELDS)
        self.values.add(value)
        return value

    def _count_op(self, op: str, fn):
        def counted(dim, *operands):
            key = (op, self._value(dim)) + tuple(
                self._value(x) if isinstance(x, dimensions.Dimension) else x for x in operands)
            self.ops += 1
            if key in self.keys:
                self.repeats += 1
            else:
                self.keys.add(key)
            result = fn(dim, *operands)
            if isinstance(result, dimensions.Dimension):
                self._value(result)
            return result
        return counted

    def _count_parse(self, fn):
        def counted(*args, **kwargs):
            self.parse_calls += 1
            return fn(*args, **kwargs)
        return counted

    def __enter__(self) -> Counters:
        for op in DIMENSION_OPS:
            if op in vars(dimensions.Dimension):
                self.patches.set(dimensions.Dimension, op,
                                 self._count_op(op, vars(dimensions.Dimension)[op]))
        self.patches.rebind(units.parse_unit, self._count_parse(units.parse_unit))
        return self

    def __exit__(self, *exc) -> None:
        self.patches.restore()


# --- replay ----------------------------------------------------------------

class Replay:
    """The workload's first operations, run in this process."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload, self.seed, self.work = workload, seed, work
        argvs = {"sweep-bulk": gen.sweep_bulk_argvs, "cli-oneshot": gen.cli_oneshot_argvs}
        self.argvs = (list(itertools.islice(argvs[workload](seed), REPLAY_OPS[workload]))
                      if workload in argvs else [])
        self.attempted = 0
        self.failures: list[str] = []

    def run(self) -> float:
        """Run once, check every output, return the time spent inside the program."""
        if self.workload == "units-distinct":
            loop = units_loop.Loop(self.seed)
            loop.chunk(REPLAY_OPS[self.workload])
            self.attempted += len(loop.latencies)
            self.failures += loop.failures
            return sum(loop.latencies)
        busy = 0.0
        out_path = self.work / "replay.out"
        for argv in self.argvs:
            # Bulk sweeps write their payload to a file, as in the timed runs.
            full = argv + ["--out", str(out_path)] if self.workload == "sweep-bulk" else argv
            out_path.unlink(missing_ok=True)
            for clear in TABLE_CACHE_CLEARS:
                clear()
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                try:
                    code = cli.main(full)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crash is a failed operation, counted below
                    traceback.print_exc()
                    code = 1
                busy += time.perf_counter() - start
            if self.workload == "sweep-bulk":
                payload = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
            else:
                payload = stdout.getvalue()
            reason = verify.check_output(argv, code, stderr.getvalue(), payload)
            self.attempted += 1
            if reason is not None:
                self.failures.append(f"{' '.join(argv)}: {reason}")
        return busy


def ops_per_row() -> float:
    """Exact dimension operations per sweep row, over all conventions and g in {1, 2}."""
    config = report.SweepConfig(points=16, conventions=gen.CONVENTIONS, g_factors=(1.0, 2.0))
    registry = constants.default_registry()
    with Counters() as counters:
        rows = report.sweep_rows(config, registry)
    return counters.ops / len(rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(REPLAY_OPS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    work = args.out.parent

    metrics = isolated()
    metrics["dimensions.ops_per_row"] = ops_per_row()

    replay = Replay(args.workload, args.seed, work)
    with Counters() as counters:
        replay.run()
    metrics["dimensions.repeat_share"] = counters.repeats / max(counters.ops, 1)
    metrics["dimensions.distinct"] = len(counters.values)
    metrics["units.parse_calls"] = counters.parse_calls

    untraced_s = replay.run()
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = replay.run()
    finally:
        tracer.patches.restore()
    tracer.write(work / f"spans-{args.workload}.json")
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = tracer.self_s.get(layer, 0.0) / traced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s

    args.out.write_text(json.dumps({
        "metrics": metrics,
        "attempted": replay.attempted,
        "failed": len(replay.failures),
        "failures": replay.failures[:5],
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
