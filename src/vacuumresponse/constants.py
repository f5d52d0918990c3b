"""Physical-constant registry backed by a human-auditable data file.

Constants are read from a tab-separated text file (one record per line:
``key<TAB>magnitude<TAB>unit-expression<TAB>source``) rather than being
hard-coded, so the pinned CODATA release can be audited or swapped without
touching code.  The bundled file pins CODATA 2018; its release string is
carried in a ``#codata <release>`` header line.  Each magnitude must be
finite in SI units, and each required one positive.  Only the keys of
``REQUIRED_DIMENSIONS`` are required; any other record is kept and listed.

Three derived records are appended at load time: the fine-structure
constant, the electron's reduced Compton wavelength, and the critical
(Schwinger) field strength, read by key (``alpha``, ``lambda_c``, ``E_S``)
like any other record.  A file that gives one of their keys, or any key
twice, is refused with the line at fault.

This module alone decides whether a file's units give each required key the
dimension ``REQUIRED_DIMENSIONS`` names.  A registry is never built from a
file that fails: its constructor raises one ``DimensionMismatchError`` naming
every key at fault, so code that reads a registry needs no check of its own.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from pathlib import Path

from .dimensions import (
    CHARGE,
    ENERGY,
    MASS,
    PERMEABILITY,
    PERMITTIVITY,
    SPEED,
    TIME,
    DimensionMismatchError,
    NonFiniteError,
    Quantity,
)
from .kernels import _compton, _critical_field
from .units import UnitParseError, format_dimension, parse_unit


class MissingConstantError(KeyError, ValueError):
    def __init__(self, key: str) -> None:
        self.key = key
        super().__init__(f"required constant {key!r} not found")

    def __str__(self) -> str:  # KeyError quotes its payload otherwise
        return self.args[0]


class MalformedLineError(ValueError):
    def __init__(self, line_number: int, reason: str) -> None:
        self.line_number = line_number
        super().__init__(f"malformed constants line {line_number}: {reason}")


# Every key the model reads and its SI dimension: the electromagnetic base
# set.  Any other record, such as the bundled file's lepton and quark masses,
# is optional: it is parsed and must be finite, but no output reads it.
REQUIRED_DIMENSIONS = {
    "c": SPEED,
    "hbar": ENERGY * TIME,
    "e": CHARGE,
    "m_e": MASS,
    "eps0": PERMITTIVITY,
    "mu0": PERMEABILITY,
}

DERIVED_KEYS = ("alpha", "lambda_c", "E_S")


class ConstantRecord(
    namedtuple("ConstantRecord", "key quantity unit_text source definition", defaults=(None,))
):
    __slots__ = ()

    @property
    def magnitude(self) -> float:
        return self.quantity.magnitude


class ConstantRegistry:
    """Immutable mapping of constant keys to records: those read, then the derived ones.

    ``records`` holds every required key.  Raises ``DimensionMismatchError``,
    naming every key at fault, where a required key has another dimension
    than ``REQUIRED_DIMENSIONS`` gives; this check comes before the derived
    records are computed, so an error names the key whose unit is at fault.
    """

    def __init__(self, records: dict[str, ConstantRecord], codata_release: str | None) -> None:
        wrong = [
            f"{key} [{records[key].quantity.dimension}], not [{want}]"
            for key, want in REQUIRED_DIMENSIONS.items()
            if records[key].quantity.dimension != want
        ]
        if wrong:
            raise DimensionMismatchError(f"the constants give {'; '.join(wrong)}")
        self._records = dict(records)
        _append_derived(self._records)
        self.codata_release = codata_release

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __getitem__(self, key: str) -> ConstantRecord:
        try:
            return self._records[key]
        except KeyError:
            raise MissingConstantError(key) from None

    def records(self) -> tuple[ConstantRecord, ...]:
        return tuple(self._records.values())

    def quantity(self, key: str) -> Quantity:
        return self[key].quantity

    def value(self, key: str) -> float:
        return self[key].quantity.magnitude


def _parse_lines(lines: list[str]) -> ConstantRegistry:
    records: dict[str, ConstantRecord] = {}
    release: str | None = None
    for number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            if line.startswith("#codata"):
                release = line[len("#codata"):].strip() or None
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise MalformedLineError(number, f"expected 4 tab-separated fields, got {len(fields)}")
        key, magnitude_text, unit_text, source = (f.strip() for f in fields)
        if not key:
            raise MalformedLineError(number, "empty key")
        if key in records:
            raise MalformedLineError(number, f"key {key!r} is given more than once")
        if key in DERIVED_KEYS:
            raise MalformedLineError(number, f"key {key!r} is derived at load, not read")
        try:
            magnitude = float(magnitude_text)
        except ValueError:
            raise MalformedLineError(number, f"bad magnitude {magnitude_text!r}") from None
        try:
            scale, dimension = parse_unit(unit_text)
        except UnitParseError as exc:
            raise UnitParseError(f"malformed constants line {number}: {exc}") from exc
        value = magnitude * scale
        if not math.isfinite(value):
            raise MalformedLineError(number, f"{magnitude_text} {unit_text} is not a finite value")
        # A required constant is a positive magnitude; zero includes an underflowing literal.
        if key in REQUIRED_DIMENSIONS and not value > 0:
            raise MalformedLineError(number, f"{magnitude_text} {unit_text} is not positive")
        records[key] = ConstantRecord(
            key=key,
            quantity=Quantity(value, dimension),
            unit_text=unit_text,
            source=source,
        )
    for key in REQUIRED_DIMENSIONS:
        if key not in records:
            raise MissingConstantError(key)
    return ConstantRegistry(records, release)


def _append_derived(records: dict[str, ConstantRecord]) -> None:
    c, hbar, e, m_e, eps0 = (records[key].quantity for key in ("c", "hbar", "e", "m_e", "eps0"))
    # NonFiniteError covers overflow and division by zero.
    try:
        derived = {
            "alpha": (e**2 / (4 * math.pi * eps0 * hbar * c), "e^2 / (4 pi eps0 hbar c)"),
            "lambda_c": (_compton(m_e, hbar, c), "hbar / (m_e c)"),
            "E_S": (_critical_field(m_e, e, hbar, c), "m_e^2 c^3 / (e hbar)"),
        }
    except NonFiniteError as exc:
        raise NonFiniteError(f"cannot derive {', '.join(DERIVED_KEYS)}: {exc}") from exc
    for key, (value, definition) in derived.items():
        records[key] = ConstantRecord(
            key=key,
            quantity=value,
            unit_text=format_dimension(value.dimension),
            source="derived",
            definition=definition,
        )


def load_constants(path: str | Path) -> ConstantRegistry:
    """Load a constants file, append derived records, and validate presence."""
    # A leading byte-order mark would hide the first line.  It is dropped
    # after decoding, so that an error's offset counts it.
    text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    return _parse_lines(text.splitlines())


def bundled_constants_path() -> Path:
    return Path(__file__).with_name("data") / "constants.tsv"


@lru_cache(maxsize=1)
def default_registry() -> ConstantRegistry:
    return load_constants(bundled_constants_path())
