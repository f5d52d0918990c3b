"""Parsing and formatting of unit expressions.

Grammar:

    expr    :=  factor ( factor | "*" factor | "/" factor )*
    factor  :=  primary ( "^" exponent )?
    primary :=  "(" expr ")" | SYMBOL | "1"
    exponent := ["+"|"-"] INT [ "/" INT ]

Whitespace, "*" and the middle dot all denote multiplication.  "/" binds
exactly one following factor or parenthesized group, so "a/b c" parses as
(a/b)*c.  A symbol resolves with one lookup in ``_SYMBOLS``, built at
import: every registry name, bare and behind every prefix (the micro sign
and Greek mu as "u").  The table encodes bare-name priority ("kg" is the
kilogram, not kilo-gram) and the longest prefix first ("da" before "d").

``_parse`` builds no syntax tree.  One ``findall`` of one compiled pattern
cuts a text into items, one per factor: its operator, its primary and its
power; a "(" or ")" is a primary, and an open group waits on a stack.  The
walk keeps a scale as a (mantissa, exponent) pair and a dimension as an int
key, not reduced.  Each group, like the whole text, starts at (1.0, 0) and
the dimensionless key, and every factor, the first included, folds in by
one step as it is read, left to right.  Its mantissa multiplies or divides,
on mantissas kept normal floats, so each product rounds as it would in a
float range without bounds, and a scale in the float range is accepted
whatever the order of its factors.  Its key joins by the one key rule of
:mod:`.dimensions`, ``_key_mul_pow``, with the factor's power n/k and n
negated after "/".  The first unknown unit or power beyond the float
range is raised only once the text has parsed to its end, so a syntax
error anywhere wins over it.  The key is reduced once, into the one
:class:`Dimension` a parse builds.  Groups nest at most ``_MAX_GROUPS``
deep.  ``findall`` gives strings, not positions: an error's position is
read from ``finditer`` of the same pattern, only when it is raised, so a
text that parses pays for none.

Every quantity is computed in SI units.  ``_unit`` is the one step that
decides how a value of a dimension is shown in a unit system: as it is,
with an SI label, or scaled by its kind's Gaussian factor, with a cm/g/s
label.  :func:`render_quantity` applies it to a quantity, and the report
serializers resolve it once per column and payload.  :func:`format_float`
writes every printed float in the one float format.

Gaussian units are a way of showing a value, not a second dimensional
algebra: Gaussian dimensions are a non-injective image of the SI ones
(electric and magnetic field collapse onto the same dimension), so a
conversion is only well defined per physical kind.  ``GAUSSIAN_UNITS`` maps
the SI dimension of each supported kind to its Gaussian dimension and
factor, each derived from the SI exponents by one substitution rule.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from collections import namedtuple

from .dimensions import (
    AMOUNT,
    CHARGE,
    CURRENT,
    DIMENSIONLESS,
    ELECTRIC_DIPOLE,
    ELECTRIC_FIELD,
    ENERGY,
    FREQUENCY,
    LENGTH,
    LUMINOSITY,
    MAGNETIC_DIPOLE,
    MAGNETIC_FIELD,
    MAGNETIZATION,
    MASS,
    PERMEABILITY,
    PERMITTIVITY,
    POLARIZATION,
    SPEED,
    TEMPERATURE,
    TIME,
    Dimension,
    Quantity,
    _ONE,
    _Key,
    _key_mul_pow,
    _reduced,
    format_dimension,
)

# The unit systems a quantity can be shown in; the values of the --units flag.
UNIT_SYSTEMS = ("si", "gaussian")


class UnitParseError(ValueError):
    """Base class for unit-expression parse failures."""


class EmptyInputError(UnitParseError):
    def __init__(self) -> None:
        super().__init__("empty unit expression")


class UnknownUnitError(UnitParseError):
    def __init__(self, symbol: str, position: int) -> None:
        self.symbol = symbol
        self.position = position
        super().__init__(f"unknown unit {symbol!r} at position {position}")


class UnitSyntaxError(UnitParseError):
    def __init__(self, position: int, expected: tuple[str, ...]) -> None:
        self.position = position
        self.expected = expected
        what = " or ".join(expected)
        super().__init__(f"syntax error at position {position}: expected {what}")


class UnitScaleError(UnitParseError):
    def __init__(self, text: str) -> None:
        super().__init__(f"the scale of {text!r} is beyond the float range")


UnitEntry = namedtuple("UnitEntry", "scale dimension")


_BASE_UNITS = {
    "m": UnitEntry(1.0, LENGTH),
    "kg": UnitEntry(1.0, MASS),
    "s": UnitEntry(1.0, TIME),
    "A": UnitEntry(1.0, CURRENT),
    "K": UnitEntry(1.0, TEMPERATURE),
    "mol": UnitEntry(1.0, AMOUNT),
    "cd": UnitEntry(1.0, LUMINOSITY),
}

_DERIVED_UNITS = {
    "Hz": UnitEntry(1.0, FREQUENCY),
    "N": UnitEntry(1.0, MASS * LENGTH / TIME**2),
    "J": UnitEntry(1.0, ENERGY),
    "W": UnitEntry(1.0, ENERGY / TIME),
    "C": UnitEntry(1.0, CHARGE),
    "V": UnitEntry(1.0, ELECTRIC_FIELD * LENGTH),
    "F": UnitEntry(1.0, CHARGE / (ELECTRIC_FIELD * LENGTH)),
    "T": UnitEntry(1.0, MAGNETIC_FIELD),
    "H": UnitEntry(1.0, PERMEABILITY * LENGTH),
    # Non-coherent entries carry their scale to the SI coherent unit.
    "eV": UnitEntry(1.602176634e-19, ENERGY),
    "g": UnitEntry(1e-3, MASS),
}

REGISTRY: dict[str, UnitEntry] = {**_BASE_UNITS, **_DERIVED_UNITS}

SI_PREFIXES: dict[str, float] = {
    "y": 1e-24,
    "z": 1e-21,
    "a": 1e-18,
    "f": 1e-15,
    "p": 1e-12,
    "n": 1e-9,
    "u": 1e-6,
    "m": 1e-3,
    "c": 1e-2,
    "d": 1e-1,
    "da": 1e1,
    "h": 1e2,
    "k": 1e3,
    "M": 1e6,
    "G": 1e9,
    "T": 1e12,
    "P": 1e15,
    "E": 1e18,
    "Z": 1e21,
    "Y": 1e24,
}


# Each symbol the parser accepts, with its (scale, dimension key).  Later
# entries win a clash: one-letter prefixes, then "da", then bare names.
_SYMBOLS: dict[str, tuple[float, _Key]] = {
    prefix + name: (factor * entry.scale, entry.dimension._key)
    for prefix, factor in sorted(
        {**SI_PREFIXES, "µ": SI_PREFIXES["u"], "μ": SI_PREFIXES["u"], "": 1.0}.items(),
        key=lambda item: len(item[0]) or 3,
    )
    for name, entry in REGISTRY.items()
}


# --- parser --------------------------------------------------------------

# One item per factor: an operator ("" for juxtaposition), a primary (a
# letter run, a lone 1, "(" or ")"), and a power's sign, numerator and
# denominator; or, in group 6, a character no item starts with.  Digits are
# ASCII only: ``\d`` also takes "٣", which ``int`` reads but the grammar does
# not.  The symbol class also takes 1131 non-letters such as "²", which the
# parser rejects as it resolves the symbol.
_ITEM = re.compile(
    r"\s*(?:([*/·])\s*)?([^\W\d_]+|1(?![0-9])|[()])"
    r"(?:\s*\^\s*(?:([+-])\s*)?([0-9]+)(?:\s*/\s*([0-9]+))?)?"
    r"|\s*(\S)"
)

# Characters that may be neither whitespace, an operator, an ASCII digit nor a
# letter; ``str.isalpha`` decides the rest.
_ODD = re.compile(r"[^\s·*/^()+\-0-9A-Za-z]")

_SYMBOL_OR_GROUP = ("unit symbol", "(")

# A mantissa is renormalized only when it leaves this band, so the product
# or quotient of two mantissas is always a normal float.
_LOW, _HIGH = 2.0**-300, 2.0**300

# The deepest nesting of parenthesized groups.
_MAX_GROUPS = 100

def _token(text: str, position: int) -> int:
    """Where the first token at or after ``position`` starts, or ``len(text)``."""
    return len(text) - len(text[position:].lstrip())


def _matches(text: str, items: list[tuple[str, ...]], item: tuple[str, ...]) -> list[re.Match]:
    """The ``finditer`` matches of ``text`` up to ``item``, a tuple of its ``findall``."""
    i = next(i for i, other in enumerate(items) if other is item)
    return list(itertools.islice(_ITEM.finditer(text), i + 1))


def _error(text: str, position: int, expected: tuple[str, ...]) -> UnitSyntaxError:
    """The error at ``position``, unless a character that cannot start a token
    is in ``text``: the first of those is reported before anything else."""
    for odd in _ODD.finditer(text):
        if not odd.group().isalpha():
            return UnitSyntaxError(odd.start(), ("unit symbol", "operator"))
    return UnitSyntaxError(position, expected)


def _stray_error(
    text: str, items: list[tuple[str, ...]], item: tuple[str, ...], fresh: bool, depth: int
) -> UnitSyntaxError:
    """The error at ``item``, a stray character, ``depth`` groups deep and in a group
    with no factor yet if ``fresh``; or at a letter run's non-letter, by the ``_ODD`` rule."""
    *_, previous, match = [None, *_matches(text, items, item)]
    position, stray = match.start(6), match.group(6)
    if stray in ("*", "/", "·"):  # an operator with no factor after it
        return _error(text, position if fresh else _token(text, position + 1), _SYMBOL_OR_GROUP)
    if stray in ("^", "+", "-") and not fresh:
        if stray == "^" and not previous.group(4):  # a power with no integer after "^" [sign]
            position = _token(text, position + 1)
            if text.startswith(("+", "-"), position):
                position = _token(text, position + 1)
            return _error(text, position, ("integer exponent",))
        return _error(text, position, (")",) if depth else ("end of input",))
    return _error(text, position, _SYMBOL_OR_GROUP)


def _parse(text: str) -> tuple[float, int, Dimension]:
    """The scale of ``text``, as (mantissa, exponent), and its dimension.

    One walk, left to right, over the items of one ``findall`` of ``_ITEM``.
    Each item's primary is looked up in ``_SYMBOLS`` first; "(", ")", "1",
    an unknown letter run and a stray character take the miss branch.  Each
    factor's scale is (mantissa, exponent), ``mantissa * 2**exponent``, with
    its dimension's int key; a product or quotient renormalizes the mantissa
    only when it leaves the ``_LOW``/``_HIGH`` band, and a power is taken on
    the scale's float value, skipped for a scale of exactly (1.0, 0), as
    every power of 1.0 is 1.0.  An open group waits on a stack.  The
    first unknown unit or power out of the float range is raised only once
    the text has parsed to its end.  Items are strings without positions:
    each syntax error is built where the walk stops, and only then reads
    its position from the ``finditer`` matches, so a text that parses pays
    for none.  A "(" or ")" error wins over an error in that item's power.
    """
    items = _ITEM.findall(text, 0, len(text.rstrip()))
    if not items:
        raise EmptyInputError()
    groups: list[tuple[float, int, _Key, str, bool]] = []
    mantissa, exponent, key, fresh = 1.0, 0, _ONE, True
    deferred: tuple[tuple[str, ...], str | None] | None = None
    for item in items:
        op, primary, sign, numerator, denominator, _ = item
        if op and fresh:
            raise _error(text, _matches(text, items, item)[-1].start(1), _SYMBOL_OR_GROUP)
        symbol = _SYMBOLS.get(primary)
        if symbol is not None:
            (m, k), e = symbol, 0
        elif primary == "(":
            if len(groups) == _MAX_GROUPS:
                where = _matches(text, items, item)[-1].start(2)
                raise _error(text, where, (f"at most {_MAX_GROUPS} nested groups",))
            if numerator:  # a power of "(" is a stray "^" where a factor must start
                where = _token(text, _matches(text, items, item)[-1].end(2))
                raise _error(text, where, _SYMBOL_OR_GROUP)
            groups.append((mantissa, exponent, key, op, fresh))
            mantissa, exponent, key, fresh = 1.0, 0, _ONE, True
            continue
        elif primary == ")":
            if fresh or op:
                raise _error(text, _matches(text, items, item)[-1].start(2), _SYMBOL_OR_GROUP)
            if not groups:
                raise _error(text, _matches(text, items, item)[-1].start(2), ("end of input",))
            m, e, k = mantissa, exponent, key
            mantissa, exponent, key, op, fresh = groups.pop()
        elif primary == "1":
            m, e, k = 1.0, 0, _ONE
        elif primary.isalpha():
            m, e, k = 1.0, 0, _ONE
            deferred = deferred or (item, primary)
        else:  # a stray character, or a letter run holding a non-letter
            raise _stray_error(text, items, item, fresh, len(groups))
        n = d = 1
        if numerator:
            try:
                n = int(numerator)
                d = int(denominator) if denominator else 1
            except ValueError:  # more digits than ``int`` reads; there is a limit
                limit = sys.get_int_max_str_digits()
                where = _matches(text, items, item)[-1].start(4 if len(numerator) > limit else 5)
                raise _error(text, where, (f"exponent of at most {limit} digits",)) from None
            if not d:
                where = _matches(text, items, item)[-1].start(5)
                raise _error(text, where, ("nonzero exponent denominator",))
            if sign == "-":
                n = -n
            try:
                power = n / d  # even for a unit scale: an n / d beyond floats is a scale error
                scale = math.ldexp(m, e) ** power if m != 1.0 or e else 1.0
            except ArithmeticError:
                scale = 0.0
            if _LOW < scale < _HIGH:
                m, e = scale, 0
            elif 0.0 < scale < math.inf:
                m, e = math.frexp(scale)
            else:
                m, e = 1.0, 0
                deferred = deferred or (item, None)
        if op == "/":
            mantissa, exponent, n = mantissa / m, exponent - e, -n
        else:
            mantissa, exponent = mantissa * m, exponent + e
        key, fresh = _key_mul_pow(key, k, n, d), False
        if not _LOW < mantissa < _HIGH:
            mantissa, shift = math.frexp(mantissa)
            exponent += shift
    if fresh:
        raise _error(text, len(text), _SYMBOL_OR_GROUP)
    if groups:
        raise _error(text, len(text), (")",))
    if deferred is not None:
        item, symbol = deferred
        if symbol is None:
            raise UnitScaleError(text)
        raise UnknownUnitError(symbol, _matches(text, items, item)[-1].start(2))
    return mantissa, exponent, _reduced(key)


def parse_unit(text: str) -> tuple[float, Dimension]:
    """Parse a unit expression into (scale to the SI coherent unit, dimension)."""
    mantissa, exponent, dimension = _parse(text)
    try:
        scale = math.ldexp(mantissa, exponent)
    except OverflowError:
        raise UnitScaleError(text) from None
    if scale == 0.0:
        raise UnitScaleError(text)
    return scale, dimension


def quantity(magnitude: float, unit: str) -> Quantity:
    """Build an SI quantity from a magnitude and a unit expression."""
    scale, dimension = parse_unit(unit)
    return Quantity(magnitude * scale, dimension)


# --- formatting ----------------------------------------------------------

class UnsupportedKindError(ValueError):
    """No Gaussian conversion exists for the quantity's dimension."""


# How a value of one SI dimension is expressed in Gaussian units: the SI
# magnitude times ``factor`` is the Gaussian magnitude, of ``dimension``.
GaussianUnit = namedtuple("GaussianUnit", "dimension factor")


# The numeral of the defined SI light speed in m/s.
_C = 299_792_458


def _gaussian(si: Dimension, magnetic: int) -> GaussianUnit:
    """The Gaussian unit of the kind of SI dimension ``si``, by one substitution.

    Jackson, *Classical Electrodynamics*, 3rd ed., Appendix, Tables 3 and 4:
    m -> 100 cm, kg -> 1000 g and A -> 10 c statA, with statA = g^1/2 cm^3/2
    s^-2, and a magnetic kind carries ``magnetic`` more powers of c cm/s,
    where c is ``_C``.  The m, kg, s and A exponents of ``si`` are ints, so
    the factor 10^tens c^cs is one quotient of ints, which Python rounds
    correctly, and the Gaussian dimension is one key of doubled exponents.
    """
    _, length, mass, time, current = si._key[:5]
    tens, cs = 2 * length + 3 * mass + current + 2 * magnetic, current + magnetic
    factor = (10 ** max(tens, 0) * _C ** max(cs, 0)) / (10 ** max(-tens, 0) * _C ** max(-cs, 0))
    doubled = (2, 2 * length + 3 * current + 2 * magnetic, 2 * mass + current,
               2 * time - 4 * current - 2 * magnetic, 0, 0, 0, 0)
    return GaussianUnit(_reduced(doubled), factor)


# Keyed on the SI dimension, which identifies the physical kind: each kind
# here has its own SI dimension, while electric and magnetic field (among
# others) share one Gaussian dimension.  A magnetic kind cannot be told from
# its SI dimension alone, so each kind's power of c cm/s is given here.
GAUSSIAN_UNITS: dict[Dimension, GaussianUnit] = {
    kind: _gaussian(kind, magnetic) for kind, magnetic in (
        (CHARGE, 0), (ELECTRIC_FIELD, 0), (MAGNETIC_FIELD, 1), (ELECTRIC_DIPOLE, 0),
        (MAGNETIC_DIPOLE, -1), (POLARIZATION, 0), (MAGNETIZATION, -1), (PERMITTIVITY, 0),
        (PERMEABILITY, 0), (ENERGY, 0), (LENGTH, 0), (MASS, 0), (SPEED, 0), (FREQUENCY, 0),
        (DIMENSIONLESS, 0),
    )
}


# ``format_dimension``'s order in cgs symbols; Gaussian dimensions have only these three.
_GAUSSIAN_ORDER = (("time", "s"), ("mass", "g"), ("length", "cm"))


def _unit(dimension: Dimension, units: str) -> tuple[float, str]:
    """The factor and label that show an SI value of ``dimension`` in ``units``.

    Every printed value is shown through this one step.
    """
    if units == "si":
        return 1.0, format_dimension(dimension)
    if units != "gaussian":
        raise ValueError(f"unknown unit system {units!r}; choose from {', '.join(UNIT_SYSTEMS)}")
    entry = GAUSSIAN_UNITS.get(dimension)
    if entry is None:
        raise UnsupportedKindError(f"no Gaussian unit for the dimension [{dimension}]")
    return entry.factor, format_dimension(entry.dimension, _GAUSSIAN_ORDER)


def render_quantity(q: Quantity, units: str) -> tuple[float, str]:
    """The magnitude and unit label of the SI quantity ``q`` shown in ``units``.

    ``units`` is one of ``UNIT_SYSTEMS``.  In SI the magnitude is unchanged
    (a factor of 1.0 keeps every bit).  A dimension with no row in
    ``GAUSSIAN_UNITS`` has no Gaussian rendering and raises.
    """
    factor, label = _unit(q.dimension, units)
    return q.magnitude * factor, label


# The one float format: scientific notation with 12 significant digits.
_FLOAT = "%.11e"


def format_float(value: float) -> str:
    """Scientific notation with 12 significant digits; the one float format."""
    return _FLOAT % value
