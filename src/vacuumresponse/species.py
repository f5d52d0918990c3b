"""Charged-species tables and the multi-species vacuum-response sums.

Every charged elementary pair contributes to the vacuum response in
proportion to the square of its charge (the gap-ratio form is mass
independent), so the total permittivity estimate carries a charge-weighted
species sum.  The sum is kept in exact rational arithmetic: fractional quark
charges must not accumulate rounding before the final scale factor.

Inverting the requirement that the total reproduce the measured permittivity
yields either the species count needed at a given gap ratio, or the gap
ratio matching a given table.

A registry holds the required dimensions from the moment it is built, so no
function here checks them; ``total_permittivity`` derives the dimension of
its sum.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .constants import ConstantRegistry, default_registry
from .dimensions import NonFiniteError, Quantity, _checked_make
from .kernels import _count_simple, _count_sphere, _deviation, _gap


class DuplicateNameError(ValueError):
    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"duplicate species name {name!r}")


class MalformedRowError(ValueError):
    def __init__(self, line_number: int, reason: str) -> None:
        self.line_number = line_number
        super().__init__(f"malformed species row at line {line_number}: {reason}")


class ZeroChargeError(ValueError):
    def __init__(self, name: str, line_number: int) -> None:
        super().__init__(f"species {name!r} (line {line_number}) has zero charge")


class EmptyTableError(ValueError):
    """Operation undefined on a table with no charged species."""


class ParticleSpecies(namedtuple("ParticleSpecies", "name charge_ratio multiplicity", defaults=(1,))):
    """One charged species; ``charge_ratio`` is its charge in units of the elementary charge."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, *args, **kwargs) -> ParticleSpecies:
        self = super().__new__(cls, *args, **kwargs)
        if self.charge_ratio == 0:
            raise ValueError(f"species {self.name!r} must carry charge")
        if self.multiplicity < 1:
            raise ValueError(f"species {self.name!r} multiplicity must be >= 1")
        return self


class SpeciesTable(namedtuple("SpeciesTable", "species raw", defaults=(None,))):
    """A tuple of species with unique names, and the bytes it was loaded from."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, *args, **kwargs) -> SpeciesTable:
        self = super().__new__(cls, *args, **kwargs)
        for name, count in Counter(s.name for s in self.species).items():
            if count > 1:
                raise DuplicateNameError(name)
        return self

    @property
    def sha256(self) -> str | None:
        """The hex sha256 of ``raw``, the bytes that were parsed; None for a table not loaded."""
        if self.raw is None:
            return None
        # Imported here, not at the top: hashlib loads OpenSSL, which costs
        # every start that loads a table and prints no digest.
        import hashlib

        return hashlib.sha256(self.raw).hexdigest()


def _is_float(value: Fraction) -> bool:
    """Whether ``value`` converts to a finite nonzero float."""
    try:
        return float(value) != 0.0
    except OverflowError:
        return False


def load_species(path: str | Path, registry: ConstantRegistry) -> SpeciesTable:
    """Load a tab-separated species table.

    Row format: ``name<TAB>charge_ratio<TAB>multiplicity[<TAB>mass_MeV]``
    with ``#`` comments; a leading byte-order mark is dropped, and the table
    keeps the raw bytes, whose digest is its ``sha256``.  The optional mass
    column must be a positive finite number, but is not stored: at a fixed
    gap ratio no estimate depends on a mass.  No row reads a constant, so
    ``registry`` is not read.
    """
    raw = Path(path).read_bytes()
    try:
        # The mark is dropped after decoding, so that an error's offset counts it.
        text = raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot load species from {path}: {exc}") from None

    rows: list[ParticleSpecies] = []
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in (3, 4):
            raise MalformedRowError(number, f"expected 3 or 4 tab-separated fields, got {len(fields)}")
        name = fields[0].strip()
        if not name:
            raise MalformedRowError(number, "empty name")
        try:
            charge = Fraction(fields[1].strip())
        except (ValueError, ZeroDivisionError):
            raise MalformedRowError(number, f"bad charge ratio {fields[1]!r}") from None
        if charge == 0:
            raise ZeroChargeError(name, number)
        if not _is_float(charge):
            raise MalformedRowError(number, f"charge ratio {fields[1]!r} is out of the float range")
        try:
            multiplicity = int(fields[2].strip())
        except ValueError:
            raise MalformedRowError(number, f"bad multiplicity {fields[2]!r}") from None
        if multiplicity < 1:
            raise MalformedRowError(number, f"multiplicity must be >= 1, got {multiplicity}")
        if not _is_float(multiplicity * charge**2):
            weight = f"{multiplicity} * ({fields[1].strip()})**2"
            raise MalformedRowError(number, f"weight {weight} is out of the float range")
        if len(fields) == 4 and fields[3].strip():
            try:
                mass_mev = float(fields[3].strip())
            except ValueError:
                raise MalformedRowError(number, f"bad mass {fields[3]!r}") from None
            if not 0 < mass_mev < math.inf:
                raise MalformedRowError(number, f"mass must be positive and finite, got {mass_mev}")
        rows.append(ParticleSpecies(name, charge, multiplicity))

    table = SpeciesTable(species=tuple(rows), raw=raw)
    weight = charge_weighted_sum(table)
    if weight and not _is_float(weight):
        raise ValueError(f"cannot load species from {path}: its charge-weighted sum overflows a float")
    return table


def bundled_species_path() -> Path:
    return Path(__file__).with_name("data") / "species.tsv"


@lru_cache(maxsize=1)
def default_species_table() -> SpeciesTable:
    return load_species(bundled_species_path(), default_registry())


def charge_weighted_sum(table: SpeciesTable) -> Fraction:
    """Sum of multiplicity times squared charge ratio, in exact rationals."""
    total = Fraction(0)
    for s in table.species:
        total += s.multiplicity * s.charge_ratio**2
    return total


def total_permittivity(
    table: SpeciesTable, gap_ratio: float, registry: ConstantRegistry
) -> Quantity:
    """Summed permittivity estimate 4 pi alpha kappa (sum of (q/e)^2) eps0.

    A table with no charged species gives 0; any other table raises
    ``ValueError`` where the gap ratio takes the total out of the float range.
    """
    if gap_ratio <= 0:
        raise ValueError("gap ratio must be positive")
    weight = charge_weighted_sum(table)
    alpha, eps0 = registry.quantity("alpha"), registry.quantity("eps0")
    try:
        total = _deviation(alpha, gap_ratio) * float(weight) * eps0
        in_range = total.magnitude > 0.0 or not weight
    except NonFiniteError:
        in_range = False
    if not in_range:
        raise ValueError(
            f"gap ratio {gap_ratio!r} takes the total permittivity out of the float range"
        )
    return total


class SpeciesModel(Enum):
    SIMPLE = "simple"
    SPHERE = "sphere"


def required_species_count(
    gap_ratio: float, model: SpeciesModel, registry: ConstantRegistry
) -> float:
    """Charge-weighted species count that makes the total match eps0 exactly.

    Raises ``ValueError`` where the gap ratio takes the count out of the
    float range (a tiny ratio takes the denominator to 0 or the count to inf).
    """
    if gap_ratio <= 0:
        raise ValueError("gap ratio must be positive")
    count_kernel = _count_simple if model is SpeciesModel.SIMPLE else _count_sphere
    try:
        count = count_kernel(registry.value("alpha"), gap_ratio)
    except ZeroDivisionError:
        count = math.inf
    if not 0.0 < count < math.inf:
        raise ValueError(f"gap ratio {gap_ratio!r} takes the species count out of the float range")
    return count


# ``gap_energy`` is the transition energy for electron-scale oscillators.
GapMatch = namedtuple("GapMatch", "gap_ratio gap_energy")


def gap_for_exact_match(
    table: SpeciesTable, model: SpeciesModel, registry: ConstantRegistry
) -> GapMatch:
    """Gap ratio (and electron-scale gap energy) at which the total equals eps0."""
    weight = charge_weighted_sum(table)
    if weight == 0:
        raise EmptyTableError("cannot match the measured permittivity with no charged species")
    # The count formula with the weight in place of the gap ratio.
    kappa = required_species_count(float(weight), model, registry)
    return GapMatch(kappa, _gap(kappa, registry.quantity("m_e"), registry.quantity("c")))
