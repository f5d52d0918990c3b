"""Checks of every CLI output the benchmark produces.

The checks hold for any seed: they parse the payload and test identities
that every row must satisfy, with constants written out here rather than
read from the program.  Byte-identity against the golden payloads applies
only to the argvs recorded in ``golden.json``.

Each check returns ``None`` when the output is correct and a one-line
reason otherwise.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

# CODATA 2018, the release the bundled constants file pins.
ALPHA = 7.2973525693e-3
LIGHT_SPEED = 299792458.0
EPS0 = 8.8541878128e-12
MU0 = 1.25663706212e-6
# Closed conventions reproduce the light speed: eps_tilde * mu_tilde = 1/c^2.
CLOSED_PRODUCT = 1.0 / (EPS0 * MU0 * LIGHT_SPEED**2)
CLOSED_CONVENTIONS = ("cube", "sphere")
# Charge-weighted sum of the bundled standard-model table: 3 leptons plus
# 3 colours x (3 up-type x 4/9 + 3 down-type x 1/9).
STANDARD_MODEL_WEIGHT = 8

REL_TOL = 1e-9
SVG_NS = "{http://www.w3.org/2000/svg}"

GOLDEN_PATH = Path(__file__).with_name("golden.json")


class CheckFailed(Exception):
    pass


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def _close(got: float, want: float, what: str) -> None:
    _require(
        math.isfinite(got) and math.isclose(got, want, rel_tol=REL_TOL),
        f"{what}: got {got!r}, want {want!r}",
    )


def _flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    if name in argv:
        return argv[argv.index(name) + 1]
    return default


def count_simple(kappa: float) -> float:
    return 1.0 / (4.0 * math.pi * ALPHA * kappa)


def count_sphere(kappa: float) -> float:
    return 2.5**1.5 / (3.0 * ALPHA * kappa)


def check_row(row: dict[str, str], kappa: float | None = None) -> None:
    """Identities every report row satisfies, whatever its inputs."""
    if kappa is None:
        kappa = float(row["kappa"])
    _close(float(row["count_simple"]), count_simple(kappa), "count_simple")
    _close(float(row["count_sphere"]), count_sphere(kappa), "count_sphere")
    eps_ratio, mu_ratio = float(row["eps_ratio"]), float(row["mu_ratio"])
    _require(eps_ratio > 0 and mu_ratio > 0, "deviation ratios must be positive")
    if row["convention"] in CLOSED_CONVENTIONS:
        _close(eps_ratio * mu_ratio, CLOSED_PRODUCT, "eps_ratio * mu_ratio")


def _table_rows(fmt: str, payload: str) -> list[dict[str, str]]:
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(payload)))
    rows = json.loads(payload)
    return [{key: str(value) for key, value in row.items()} for row in rows]


def _check_sweep(argv: list[str], payload: str) -> None:
    fmt = _flag(argv, "--format", "csv")
    points = int(_flag(argv, "--points", "64"))
    conventions = _flag(argv, "--conventions", "cube").split(",")
    g_factors = [float(g) for g in _flag(argv, "--g-factors", "2").split(",")]
    kappa_min = float(_flag(argv, "--kappa-min", "0.5"))
    kappa_max = float(_flag(argv, "--kappa-max", "4.0"))
    if fmt == "svg":
        root = ET.fromstring(payload)
        lines = list(root.iter(f"{SVG_NS}polyline"))
        _require(len(lines) == len(conventions) * len(g_factors), "one polyline per series")
        for line in lines:
            _require(len(line.get("points", "").split()) == points, "one vertex per point")
        return
    rows = _table_rows(fmt, payload)
    per_kappa = len(conventions) * len(g_factors)
    _require(len(rows) == points * per_kappa, f"expected {points * per_kappa} rows, got {len(rows)}")
    step = (kappa_max - kappa_min) / (points - 1)
    for index, row in enumerate(rows):
        point, rest = divmod(index, per_kappa)
        _close(float(row["kappa"]), kappa_min + point * step, f"row {index} kappa")
        _require(row["convention"] == conventions[rest // len(g_factors)], f"row {index} order")
        _require(float(row["g"]) == g_factors[rest % len(g_factors)], f"row {index} g")
        check_row(row)


def _text_pairs(text: str) -> dict[str, str]:
    pairs = {}
    for line in text.splitlines():
        parts = line.split(None, 1)
        if len(parts) == 2:
            pairs[parts[0]] = parts[1].strip()
    return pairs


def _check_estimate(argv: list[str], payload: str) -> None:
    kappa = float(_flag(argv, "--gap-ratio", "2"))
    convention = _flag(argv, "--convention", "cube")
    g = float(_flag(argv, "--g-factor", "2"))
    fmt = _flag(argv, "--format", "text")
    if fmt != "text":
        rows = _table_rows(fmt, payload)
        _require(len(rows) == 1, "estimate writes one row")
        row = rows[0]
        _close(float(row["kappa"]), kappa, "kappa")
    else:
        row = _text_pairs(payload)
        for key in ("eps_tilde", "mu_tilde", "radius", "implied_light_speed"):
            _require(key in row, f"missing {key}")
        if "--probe-field" in argv:
            for key in ("probe_field", "probe_displacement", "probe_dipole_moment",
                        "probe_polarization"):
                _require(key in row, f"missing {key}")
        if _flag(argv, "--units", "si") == "si":
            _close(float(row["implied_light_speed"].split()[0]), LIGHT_SPEED, "implied light speed")
    _require(row.get("convention") == convention, "convention echoed")
    _require(float(row["g"]) == g, "g echoed")
    check_row(row, kappa)


def _check_species(argv: list[str], payload: str) -> None:
    kappa = float(_flag(argv, "--gap-ratio", "2"))
    pairs = _text_pairs(payload)
    _require(pairs.get("rows") == "9", "bundled table has 9 rows")
    _require(
        pairs.get("charge_weighted_sum", "").split()[0] == str(STANDARD_MODEL_WEIGHT),
        "charge-weighted sum of the bundled table",
    )
    _close(float(pairs["count_simple"]), count_simple(kappa), "count_simple")
    _close(float(pairs["count_sphere"]), count_sphere(kappa), "count_sphere")
    for model, count in (("simple", count_simple), ("sphere", count_sphere)):
        match = pairs[f"match_gap_{model}"].split()
        _close(float(match[1]), count(STANDARD_MODEL_WEIGHT), f"match gap {model}")


def _check_dimensions(payload: str) -> None:
    last = payload.strip().splitlines()[-1].split()
    passed, total = last[0].split("/")
    _require(passed == total and int(total) > 0, f"dimension checks: {last[0]}")


def _check_constants(payload: str) -> None:
    values = {}
    for line in payload.splitlines():
        fields = line.split("\t")
        values[fields[0]] = float(fields[1])
    for key in ("c", "hbar", "e", "m_e", "eps0", "mu0", "alpha", "lambda_c", "E_S"):
        _require(key in values, f"missing constant {key}")
    _close(values["c"], LIGHT_SPEED, "c")
    _close(values["alpha"], ALPHA, "alpha")


def check_output(argv: list[str], returncode: int, stderr: str, payload: str) -> str | None:
    """Check one invocation; ``payload`` is the --out file, or stdout without one."""
    try:
        _require(returncode == 0, f"exit code {returncode}")
        _require("Traceback" not in stderr, "traceback on stderr")
        command = argv[0]
        if command == "sweep":
            _check_sweep(argv, payload)
        elif command == "estimate":
            _check_estimate(argv, payload)
        elif command == "species":
            _check_species(argv, payload)
        elif command == "check-dimensions":
            _check_dimensions(payload)
        elif command == "constants":
            _check_constants(payload)
        else:
            raise CheckFailed(f"unknown subcommand {command!r}")
    except CheckFailed as exc:
        return str(exc)
    except Exception as exc:  # output the checks cannot even parse is a failure too
        return f"unparseable output: {type(exc).__name__}: {exc}"
    return None


def load_goldens() -> list[dict]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["payloads"]


def check_golden(golden: dict, payload: bytes) -> str | None:
    digest = hashlib.sha256(payload).hexdigest()
    if digest != golden["sha256"]:
        return f"payload differs from golden ({len(payload)} bytes, sha256 {digest[:12]})"
    return None
